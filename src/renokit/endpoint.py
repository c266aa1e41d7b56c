"""Chat-completion endpoint client with retries, plus the raw-response archive.

The wire format is the common chat-completions POST: {"model", "messages",
"temperature"} against {base_url}/chat/completions with a bearer token taken
from the environment. `ChatClient.request` builds that dict once; transports
POST it as it is, `request_id` hashes it and the archive stores it. Transports
are pluggable so tests and offline replays never touch the network.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Protocol, Sequence

import requests

from .errors import EndpointError
from .jsonl import Record, canonical_json, config_from_json, read_json, write_json

Message = dict  # {"role": ..., "content": ...}

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


@dataclass
class EndpointConfig(Record):
    base_url: str
    model_name: str
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_retries: int = 3
    backoff: tuple[float, ...] = (1.0, 2.0, 4.0)
    concurrency_limit: int = 4
    timeout: float = 60.0

    def __post_init__(self):
        if self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be >= 1")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not all(type(x) in (int, float) for x in self.backoff):
            raise ValueError(f"every backoff entry must be a number, got {list(self.backoff)!r}")
        # TIMEOUT_MAX is the longest wait sockets and time.sleep take; NaN fails every comparison
        longest = threading.TIMEOUT_MAX
        if not all(0 <= x <= longest for x in self.backoff):
            raise ValueError(f"every backoff entry must be in [0, {longest:g}] seconds, got {list(self.backoff)!r}")
        if not 0 < self.timeout <= longest:
            raise ValueError(f"timeout must be in (0, {longest:g}] seconds, got {self.timeout}")
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        self.backoff = tuple(float(x) for x in self.backoff)

    @classmethod
    def from_json(cls, path: str | Path) -> "EndpointConfig":
        return config_from_json(cls, path, "endpoint config")


@dataclass(frozen=True)
class Completion:
    text: str
    timestamp: str


class Transport(Protocol):
    def complete(self, request: dict) -> Completion: ...


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class HttpTransport:
    """Real HTTP transport; retries transport failures, 429 and 5xx only."""

    def __init__(
        self,
        cfg: EndpointConfig,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self._owns_session = session is None
        self.session = session or requests.Session()
        self.sleep = sleep

    def close(self) -> None:
        """Close the session if this transport created it; a caller's session stays open."""
        if self._owns_session:
            self.session.close()

    def _headers(self) -> dict:
        key = os.environ.get(self.cfg.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _delay(self, attempt: int) -> float:
        if not self.cfg.backoff:
            return 0.0
        return self.cfg.backoff[min(attempt, len(self.cfg.backoff) - 1)]

    def complete(self, request: dict) -> Completion:
        url = self.cfg.base_url.rstrip("/") + "/chat/completions"
        last_error = "no attempt made"
        for attempt in range(self.cfg.max_retries + 1):
            try:
                resp = self.session.post(url, json=request, headers=self._headers(), timeout=self.cfg.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = f"transport: {exc}"
            else:
                if resp.status_code == 200:
                    try:
                        text = resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise EndpointError(f"malformed completion payload: {exc}") from None
                    if not isinstance(text, str):
                        raise EndpointError("completion content is not a string")
                    return Completion(text=text, timestamp=utc_now_iso())
                if resp.status_code not in _RETRYABLE_STATUS:
                    raise EndpointError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                last_error = f"HTTP {resp.status_code}"
            if attempt < self.cfg.max_retries:
                self.sleep(self._delay(attempt))
        raise EndpointError(f"gave up after {self.cfg.max_retries} retries ({last_error})")


class OfflineTransport:
    """Refuses all network work; use together with a fully populated archive."""

    def complete(self, request: dict) -> Completion:
        raise EndpointError("network disabled")


class ChatClient:
    def __init__(self, cfg: EndpointConfig, transport: Transport | None = None):
        self.cfg = cfg
        self._owns_transport = transport is None
        self.transport = transport or HttpTransport(cfg)

    def close(self) -> None:
        """Close the transport if this client created it; a caller's transport stays open."""
        if self._owns_transport:
            self.transport.close()

    def request(self, messages: Sequence[Message]) -> dict:
        """The chat request for `messages` under this client's model and temperature."""
        return {"model": self.cfg.model_name, "messages": list(messages), "temperature": self.cfg.temperature}

    def complete(self, messages: Sequence[Message]) -> Completion:
        return self.transport.complete(self.request(messages))


def request_id(request: dict) -> str:
    """Deterministic id of a chat request; identical requests share one."""
    return hashlib.md5(canonical_json(request)).hexdigest()


class ResponseArchive:
    """One JSON file per request id; the replayable source of truth for runs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, rid: str) -> Path:
        return self.root / f"{rid}.json"

    def has(self, rid: str) -> bool:
        return self._path(rid).exists()

    def load(self, rid: str) -> dict:
        return read_json(self._path(rid))

    def store(self, rid: str, entry: dict) -> None:
        write_json(self._path(rid), entry)

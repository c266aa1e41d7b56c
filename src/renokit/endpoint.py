"""Chat-completion endpoint client with retries, plus the raw-response archive.

The wire format is the common chat-completions POST: {"model", "messages",
"temperature"} against {base_url}/chat/completions with a bearer token taken
from the environment. `ChatClient.request` builds that dict once; transports
POST it as it is, `request_id` hashes it and the archive stores it. Transports
are pluggable so tests and offline replays never touch the network.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Protocol, Sequence
from urllib.parse import urlsplit

import requests
import urllib3
from requests.adapters import HTTPAdapter

from .errors import EndpointError
from .jsonl import Record, canonical_json, config_from_json, lone_surrogate, read_json, write_json

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
        try:  # the parse that sending makes: host, port and IDNA labels
            prepared = requests.PreparedRequest()
            prepared.prepare_url(self.base_url, None)
            parts = urlsplit(prepared.url)
        except ValueError as exc:
            raise ValueError(f"base_url {self.base_url!r}: {exc}") from None
        if parts.scheme not in ("http", "https"):  # requests parses no other scheme, and has no adapter for it
            raise ValueError(f"base_url must be an http or https URL with a host, got {self.base_url!r}")
        try:  # the check urllib3 makes only when it connects
            parts.hostname.encode("idna")
        except UnicodeError:
            host = parts.hostname
            raise ValueError(f"base_url {self.base_url!r}: host {host!r} has an empty or too long label") from None
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
    """Real HTTP transport; retries transport failures, 429 and 5xx only.

    Everything but the body is worked out once, when the transport is built:
    the request's URL, its headers with the bearer token, the session's
    headers, auth and cookies, the proxy and TLS settings of the session and
    the environment, and the urllib3 connection pool of the session's adapter
    that sends it. Each request is its JSON body with its Content-Length,
    sent as is on every attempt with one `urlopen` on that pool; a redirect
    is not followed, and a cookie that a reply sets is not kept.
    """

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
        headers = {"Content-Type": "application/json"}
        if key := os.environ.get(cfg.api_key_env, ""):
            headers["Authorization"] = f"Bearer {key}"
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        # What session.post would work out again for every request, worked out once
        template = self.session.prepare_request(requests.Request("POST", url, headers=headers))
        if template.hooks["response"]:  # session.send would run them on every reply
            raise ValueError("HttpTransport runs no response hooks; the session or its auth registers some")
        adapter = self.session.get_adapter(template.url)
        # only HTTPAdapter's own send is what the pool below replaces
        if not isinstance(adapter, HTTPAdapter) or type(adapter).send is not HTTPAdapter.send:
            raise ValueError(f"HttpTransport sends through a requests HTTPAdapter's pool, "
                             f"but the session mounts a {type(adapter).__name__} for {template.url}")
        settings = self.session.merge_environment_settings(template.url, {}, None, None, None)
        verify, cert, proxies = settings["verify"], settings["cert"], settings["proxies"]
        self._pool = adapter.get_connection_with_tls_context(template, verify, proxies, cert)
        adapter.cert_verify(self._pool, template.url, verify, cert)
        self._url = adapter.request_url(template, proxies)  # the full URL when sent through an HTTP proxy
        self._headers = dict(template.headers)
        self._timeout = urllib3.Timeout(connect=cfg.timeout, read=cfg.timeout)
        self._retries = adapter.max_retries

    def close(self) -> None:
        """Close the session and its pool if this transport created them; a caller's stay open."""
        if self._owns_session:
            self.session.close()
            self._pool.close()  # closing the session drops the pool without closing it

    def _delay(self, attempt: int) -> float:
        if not self.cfg.backoff:
            return 0.0
        return self.cfg.backoff[min(attempt, len(self.cfg.backoff) - 1)]

    def complete(self, request: dict) -> Completion:
        # the body and headers that session.post(url, json=request, headers=...) would send
        body = json.dumps(request, allow_nan=False).encode("utf-8")
        headers = {**self._headers, "Content-Length": str(len(body))}
        last_error = "no attempt made"
        for attempt in range(self.cfg.max_retries + 1):
            try:
                resp = self._pool.urlopen("POST", self._url, body, headers, redirect=False, assert_same_host=False,
                                          preload_content=True, decode_content=True, retries=self._retries,
                                          timeout=self._timeout)
            except (urllib3.exceptions.HTTPError, OSError) as exc:
                last_error = f"transport: {exc}"
            else:
                if resp.status == 200:
                    try:
                        text = json.loads(resp.data)["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise EndpointError(f"malformed completion payload: {exc}") from None
                    if not isinstance(text, str):
                        raise EndpointError("completion content is not a string")
                    if problem := lone_surrogate(text):  # the archive could not store it
                        raise EndpointError(f"completion content {problem}")
                    return Completion(text=text, timestamp=utc_now_iso())
                if resp.status not in _RETRYABLE_STATUS:
                    raise EndpointError(f"HTTP {resp.status}: {resp.data.decode('utf-8', 'replace')[:200]}")
                last_error = f"HTTP {resp.status}"
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

"""Chat-completion endpoint client with retries, plus the raw-response archive.

The wire format is the common chat-completions POST: {"model", "messages",
"temperature"} against {base_url}/chat/completions with a bearer token taken
from the environment. `ChatClient.request` builds that dict once; transports
POST it as it is, `request_id` hashes it and the archive stores it. Transports
are pluggable so tests and offline replays never touch the network.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import os
import select
import ssl
import threading
import time
import zlib
from concurrent.futures import CancelledError, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Protocol, Sequence
from urllib.parse import urlsplit

import requests
from requests.adapters import HTTPAdapter, Retry
from requests.utils import DEFAULT_CA_BUNDLE_PATH, prepend_scheme_if_needed, select_proxy

from .errors import ConfigError, EndpointError
from .jsonl import _ENCODER, Record, canonical_json, config_from_json, lone_surrogate

Message = dict  # {"role": ..., "content": ...}

log = logging.getLogger(__name__)

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
        try:  # the check that connecting makes
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

    Everything but the body is worked out once, when the transport is built,
    through `requests` and the session: the request's URL, its headers with
    the bearer token, the session's headers, auth and cookies, and the proxy
    and TLS settings of the session and the environment. From them it builds
    the request head, byte for byte what `session.post` sends, and the
    connections it sends on: `http.client` connections to the endpoint, or
    to its HTTP proxy, over one TLS context for an https URL. Each attempt is
    one write of that head, the body's Content-Length and the JSON body on an
    idle keep-alive connection (or a new one), and one reply read on it; a
    redirect is not followed, and a cookie that a reply sets is not kept.
    """

    def __init__(
        self,
        cfg: EndpointConfig,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.sleep = sleep
        headers = {"Content-Type": "application/json"}
        if key := os.environ.get(cfg.api_key_env, ""):
            headers["Authorization"] = f"Bearer {key}"
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        # a session made here is needed only to work out the request
        with requests.Session() if session is None else nullcontext(session) as session:
            template = session.prepare_request(requests.Request("POST", url, headers=headers))
            if template.hooks["response"]:  # session.send would run them on every reply
                raise ValueError("HttpTransport runs no response hooks; the session or its auth registers some")
            adapter = session.get_adapter(template.url)
            # the retries, pool and TLS settings of any other adapter would not take effect
            if type(adapter) is not HTTPAdapter or vars(adapter.max_retries) != vars(Retry(0, read=False)):
                raise ValueError(f"HttpTransport takes only a plain requests HTTPAdapter with its default "
                                 f"max_retries, but the session mounts a {type(adapter).__name__} with max_retries "
                                 f"{getattr(adapter, 'max_retries', None)} for {template.url}")
            settings = session.merge_environment_settings(template.url, {}, None, None, None)
        # where session.post puts each body's length: the template, prepared without a body, says 0 there
        template.headers["Content-Length"] = "0"
        target = urlsplit(template.url)
        https = target.scheme == "https"
        headers = dict(template.headers)
        # an explicit port: http.client would read one after the last ':' of an IPv6 host
        self._address = (target.hostname.rstrip("."), target.port or (443 if https else 80))
        self._tunnel = None
        if proxy := select_proxy(template.url, settings["proxies"]):
            proxy = prepend_scheme_if_needed(proxy, "http")
            via = urlsplit(proxy)
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"HttpTransport sends through an http:// proxy with a host only, "
                                 f"but the proxy for {template.url} is {via.scheme}://{via.hostname or ''}")
            if https:  # through a CONNECT tunnel, which the proxy's headers open
                self._tunnel = (*self._address, adapter.proxy_headers(proxy))
            else:  # to the proxy, which takes the full URL and the proxy's headers
                headers.update(adapter.proxy_headers(proxy))
            self._address = (via.hostname, via.port or 80)
        self._tls = {"context": _tls_context(settings["verify"], settings["cert"])} if https else {}
        self._connection_class = _HTTPSConnection if https else http.client.HTTPConnection
        # The head as http.client writes it for urllib3, which requests sends through
        probe, sent = self._connection(), []
        probe.send = sent.append  # endheaders hands the head to send, which here keeps it
        names = {name.lower() for name in headers}
        probe.putrequest("POST", adapter.request_url(template, settings["proxies"]),
                         skip_host="host" in names, skip_accept_encoding="accept-encoding" in names)
        for name, value in headers.items():
            probe.putheader(name, value)
        probe.endheaders()
        head, _, tail = sent[0].partition(b"\r\nContent-Length: 0\r\n")
        self._head, self._tail = head + b"\r\nContent-Length: ", b"\r\n" + tail
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        """A new, unconnected connection to the endpoint or its proxy."""
        conn = self._connection_class(*self._address, timeout=self.cfg.timeout, **self._tls)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _idle_connection(self) -> http.client.HTTPConnection | None:
        """The last idle connection that its peer has not closed, or None."""
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                # a zero-timeout poll finds an idle connection readable once its peer closed it
                if not select.select([conn.sock], [], [], 0)[0]:
                    return conn
                conn.close()
        return None

    def close(self) -> None:
        """Close the transport's idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        """Send `message` in one write and read the reply: its status and its decoded body."""
        conn = self._idle_connection() or self._connection()
        try:
            if conn.sock is None:
                conn.connect()
            conn.sock.sendall(message)
            reply = http.client.HTTPResponse(conn.sock, method="POST")
            reply.begin()
            data = reply.read()
        except BaseException:
            conn.close()
            raise
        if reply.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return reply.status, _decoded(data, reply.getheader("Content-Encoding", ""))

    def _delay(self, attempt: int) -> float:
        if not self.cfg.backoff:
            return 0.0
        return self.cfg.backoff[min(attempt, len(self.cfg.backoff) - 1)]

    def complete(self, request: dict) -> Completion:
        # the body that session.post(url, json=request, headers=...) would send, after its head
        body = json.dumps(request, allow_nan=False).encode("utf-8")
        message = b"%b%d%b%b" % (self._head, len(body), self._tail, body)
        last_error = "no attempt made"
        for attempt in range(self.cfg.max_retries + 1):
            try:
                status, data = self._exchange(message)
            except (http.client.HTTPException, OSError, EOFError, zlib.error) as exc:
                # one line of at most 200 characters, as an HTTP error body is cut: the
                # exception may quote what the server sent, CR LF and all
                last_error = "transport: " + " ".join(str(exc).split())[:200]
            else:
                if status == 200:
                    try:
                        text = json.loads(data)["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise EndpointError(f"malformed completion payload: {exc}") from None
                    if not isinstance(text, str):
                        raise EndpointError("completion content is not a string")
                    if problem := lone_surrogate(text):  # the archive could not store it
                        raise EndpointError(f"completion content {problem}")
                    return Completion(text=text, timestamp=utc_now_iso())
                if status not in _RETRYABLE_STATUS:
                    raise EndpointError(f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}")
                last_error = f"HTTP {status}"
            if attempt < self.cfg.max_retries:
                self.sleep(self._delay(attempt))
        raise EndpointError(f"gave up after {self.cfg.max_retries} retries ({last_error})")


class _HTTPSConnection(http.client.HTTPSConnection):
    """An HTTPSConnection whose CONNECT request names an IPv6 host in brackets,
    as the authority form of RFC 9112 and urllib3 do; http.client before
    Python 3.11.9, and 3.12 before 3.12.3, leaves them out. The TLS handshake
    still gets the bare host."""

    def _tunnel(self) -> None:
        host = self._tunnel_host
        self._tunnel_host = f"[{host}]" if ":" in host else host
        try:
            super()._tunnel()
        finally:
            self._tunnel_host = host


def _tls_context(verify: bool | str, cert: str | tuple[str, str] | None) -> ssl.SSLContext:
    """The TLS context requests would verify with: the CA bundle it would use
    (its default, or a file or directory named by `verify`), or no
    verification when `verify` is false; with the client certificate `cert`."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    if verify:
        bundle = DEFAULT_CA_BUNDLE_PATH if verify is True else verify
        context.load_verify_locations(**{"capath" if os.path.isdir(bundle) else "cafile": bundle})
    else:
        context.check_hostname, context.verify_mode = False, ssl.CERT_NONE
    if cert:
        context.load_cert_chain(*((cert,) if isinstance(cert, str) else cert))
    return context


def _gunzip(data: bytes) -> bytes:
    """Every gzip member of `data` decoded, as `gzip.decompress` does: the
    null bytes that may pad the members are skipped."""
    members = []
    while data:
        member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        members.append(member.decompress(data))
        if not member.eof:
            raise EOFError("gzip member ended before its end-of-stream marker")
        data = member.unused_data.lstrip(b"\0")
    return b"".join(members)


def _inflate(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error:  # raw deflate, which some servers send for "deflate"
        return zlib.decompress(data, -zlib.MAX_WBITS)


_DECODERS = {"gzip": _gunzip, "deflate": _inflate}


def _decoded(data: bytes, codings: str) -> bytes:
    """`data` with its Content-Encoding `codings` undone, the last applied
    first, up to the first coding that is not gzip or deflate."""
    for coding in reversed(codings.split(",")):
        decode = _DECODERS.get(coding.strip().lower())
        if decode is None:
            break
        data = decode(data)
    return data


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


class JobPool(ThreadPoolExecutor):
    """The thread pool of a batch of endpoint jobs, which an interrupt stops. A
    job that raises what is not an Exception (KeyboardInterrupt, SystemExit)
    makes every job that starts after it raise CancelledError unrun, and
    leaving the `with` block cancels the jobs still queued, so the rest of the
    batch is neither sent nor archived."""

    _interrupted = False

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(self._run, fn, *args, **kwargs)

    def _run(self, fn, *args, **kwargs):
        if self._interrupted:
            raise CancelledError
        try:
            return fn(*args, **kwargs)
        except Exception:
            raise
        except BaseException:
            self._interrupted = True
            raise

    def __exit__(self, *exc_info):
        self.shutdown(cancel_futures=True)
        return False


def request_id(request: dict) -> str:
    """Deterministic id of a chat request; identical requests share one."""
    return hashlib.md5(canonical_json(request)).hexdigest()


ARCHIVE_LOG = "responses.jsonl"
_ENTRY_PREFIX = b'{"request_id": "'  # how _ENCODER begins every entry, so ids are read without parsing
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _append(path: Path, data: bytes) -> int:
    """Append `data` to the file at `path` with one write on a descriptor opened for
    this call, creating the file and its directory if need be; returns the file's size
    after the write. A write that takes only part of `data` raises OSError."""
    try:
        fd = os.open(path, _APPEND_FLAGS, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _APPEND_FLAGS, 0o666)
    try:
        written = os.write(fd, data)
        end = os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"{path}: wrote {written} of {len(data)} bytes")
    return end


def check_archive_layout(root: Path) -> None:
    """Refuse an archive directory of one .json file per request and no log,
    the layout before ARCHIVE_LOG: it is not read, so every request would be
    sent again."""
    if not (root / ARCHIVE_LOG).exists() and any(root.glob("*.json")):
        raise ConfigError(f"{root}: archive of one .json file per request, the layout before "
                          f"{ARCHIVE_LOG}; it is not read, so every request would be sent again")


class ResponseArchive:
    """The replayable source of truth for runs: one append-only log of entries,
    `<root>/responses.jsonl`, one JSON line each, indexed by request id in memory.

    Opening reads each line's id from its prefix, parsing no entry; a later line
    for an id replaces an earlier one. A last line without its newline, left by a
    crash mid-append, is warned about and not indexed, and the next `store` ends
    it first. The directory is created by the first `store`. One archive object
    writes to a directory at a time: another's appends reach this index only
    when it is opened again.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / ARCHIVE_LOG
        self._lock = threading.Lock()
        self._offsets: dict[str, tuple[int, int]] = {}  # request id -> (offset, length) of its line
        self._torn = False  # the log ends in a line without its newline
        try:
            log_file = open(self.path, "rb")
        except FileNotFoundError:
            check_archive_layout(self.root)
            return
        offset, start = 0, len(_ENTRY_PREFIX)
        with log_file:
            for lineno, line in enumerate(log_file, start=1):
                if not line.endswith(b"\n"):
                    log.warning("%s: line %d is cut short, treating its entry as missing", self.path, lineno)
                    self._torn = True
                elif line.startswith(_ENTRY_PREFIX) and (end := line.find(b'"', start)) > 0:
                    self._offsets[line[start:end].decode("utf-8", "replace")] = (offset, len(line))
                offset += len(line)

    def has(self, rid: str) -> bool:
        return rid in self._offsets

    def load(self, rid: str) -> dict:
        """The entry stored under `rid`; a line that is not JSON raises a ValueError naming the file and line."""
        offset, length = self._offsets[rid]
        with open(self.path, "rb", buffering=0) as fh:
            fh.seek(offset)
            line = fh.read(length)
        try:
            return json.loads(line)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            with open(self.path, "rb") as fh:
                lineno = fh.read(offset).count(b"\n") + 1
            raise ValueError(f"{self.path}: line {lineno}: invalid JSON: {exc}") from None

    def store(self, rid: str, entry: dict) -> None:
        """Append `entry`, which must begin with its "request_id", `rid`, as one line of the log."""
        line = _ENCODER.encode(entry).encode("utf-8") + b"\n"
        if not line.startswith(_ENTRY_PREFIX + rid.encode("utf-8") + b'"'):
            raise ValueError(f"archive entry {rid!r} does not begin with its request_id")
        with self._lock:
            data = b"\n" + line if self._torn else line
            self._torn = True  # until the whole line is known to be written
            end = _append(self.path, data)
            self._torn = False
            self._offsets[rid] = (end - len(line), len(line))

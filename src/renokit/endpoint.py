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
import socket
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
    idle keep-alive connection (or a new one), and one reply read on it by
    `_read_reply`, from the bytes that connection has received; a redirect is
    not followed, and a cookie that a reply sets is not kept. A connection
    is kept for the next attempt only if its reply lets it stay open and no
    byte was received past the reply.
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
        self._idle: list[tuple[http.client.HTTPConnection, _Received]] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        """A new, unconnected connection to the endpoint or its proxy."""
        conn = self._connection_class(*self._address, timeout=self.cfg.timeout, **self._tls)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _idle_connection(self) -> tuple[http.client.HTTPConnection, _Received] | None:
        """The last idle connection that its peer has not closed, with its
        received bytes, or None."""
        with self._lock:
            while self._idle:
                conn, received = self._idle.pop()
                # a zero-timeout poll finds an idle connection readable once its peer closed it
                if not select.select([conn.sock], [], [], 0)[0]:
                    return conn, received
                conn.close()
        return None

    def close(self) -> None:
        """Close the transport's idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn, _ in idle:
            conn.close()

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        """Send `message` in one write and read the reply: its status and its decoded body."""
        conn, received = self._idle_connection() or (self._connection(), None)
        try:
            if received is None:
                conn.connect()
                received = _Received(conn.sock)
            conn.sock.sendall(message)
            status, fields, body, will_close = _read_reply(received)
        except BaseException:
            conn.close()
            raise
        # bytes past the reply belong to no request this connection sent
        if will_close or received.pending():
            conn.close()
        else:
            with self._lock:
                self._idle.append((conn, received))
        return status, _decoded(body, fields.get(b"content-encoding", b"").decode("latin-1"))

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


# http.client's limits on a reply: the longest line of its head, and the most
# lines in one header block, the blank line that ends it counted
_MAXLINE = 65536
_MAXHEADERS = 100
_RECV_SIZE = 65536  # the most bytes that one receive on a connection takes


class _Received:
    """The bytes received on one connection that no reply has read yet, kept
    from one reply to the next. It is made when its connection connects and
    dropped when it closes; one reply is read at a time."""

    def __init__(self, sock: socket.socket):
        self._recv = sock.recv
        self._data = bytearray()
        self._pos = 0  # where the unread bytes begin

    def pending(self) -> bool:
        """Whether bytes were received that no reply has read."""
        return self._pos < len(self._data)

    def _fill(self) -> bool:
        """Receive more bytes after the unread ones; False at the end of the stream."""
        chunk = self._recv(_RECV_SIZE)
        del self._data[:self._pos]
        self._pos = 0
        self._data += chunk
        return bool(chunk)

    def readline(self, part: str) -> bytes:
        """The next line, with its LF, or at the end of the stream the bytes
        left, b"" if none. A line of more than _MAXLINE bytes raises
        LineTooLong, which names it `part`."""
        scanned = 0  # how many unread bytes are known to hold no LF
        while (end := self._data.find(b"\n", self._pos + scanned, self._pos + _MAXLINE)) < 0:
            scanned = len(self._data) - self._pos
            if scanned > _MAXLINE:
                raise http.client.LineTooLong(part)
            if not self._fill():
                end = len(self._data) - 1
                break
        line = bytes(self._data[self._pos:end + 1])
        self._pos = end + 1
        return line

    def read(self, size: int) -> bytes:
        """The next `size` bytes, or fewer at the end of the stream."""
        start = self._pos
        self._pos = min(start + size, len(self._data))
        parts = [bytes(self._data[start:self._pos])]
        missing = size - len(parts[0])
        while missing and (chunk := self._recv(min(missing, _RECV_SIZE))):
            parts.append(chunk)
            missing -= len(chunk)
        return b"".join(parts)

    def read_to_end(self) -> bytes:
        """Every byte up to the end of the stream."""
        parts = [bytes(self._data[self._pos:])]
        self._pos = len(self._data)
        while chunk := self._recv(_RECV_SIZE):
            parts.append(chunk)
        return b"".join(parts)


def _read_reply(received: _Received) -> tuple[int, dict[bytes, bytes], bytes, bool]:
    """Read one reply to a POST, framed as RFC 9112 section 6 says and read by
    the rules of http.client's HTTPResponse (Python 3.11): its status, its
    header fields (see _header_block), its body, and whether its connection
    closes after it. A 100 Continue before it is skipped. Every reply that
    cannot be read raises an http.client.HTTPException; that includes a
    chunk size or Content-Length too large to read, on which HTTPResponse
    raised OverflowError or MemoryError, and a negative chunk size, which it
    misread."""
    version, status = _status_line(received)
    while status == 100:
        _header_block(received)
        version, status = _status_line(received)
    fields = _header_block(received)
    connection = fields.get(b"connection", b"").lower()
    if version in ("HTTP/1.0", "HTTP/0.9"):  # kept open only when the reply asks for it
        will_close = not (fields.get(b"keep-alive") or b"keep-alive" in connection
                          or b"keep-alive" in fields.get(b"proxy-connection", b"").lower())
    elif version.startswith("HTTP/1."):
        will_close = b"close" in connection
    else:
        raise http.client.UnknownProtocol(version)
    try:
        length = int(fields[b"content-length"])  # a negative one is ignored below, as a missing one
    except (KeyError, ValueError):
        length = -1
    if status in (204, 304) or status < 200:
        length = 0
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _chunked_body(received)
    elif length >= 0:
        body = received.read(length)
        if len(body) < length:
            raise http.client.IncompleteRead(body, length - len(body))
    else:  # the body ends with the connection
        body, will_close = received.read_to_end(), True
    return status, fields, body, will_close


def _status_line(received: _Received) -> tuple[str, int]:
    """Read a status line: its HTTP version and its status code."""
    line = str(received.readline("status line"), "iso-8859-1")
    if not line:
        raise http.client.RemoteDisconnected("Remote end closed connection without response")
    words = line.split(None, 2)
    try:
        version, status = words[0], int(words[1])
    except (IndexError, ValueError):
        version, status = "", 0
    if not version.startswith("HTTP/") or not 100 <= status <= 999:
        raise http.client.BadStatusLine(line)
    return version, status


def _header_block(received: _Received) -> dict[bytes, bytes]:
    """Read header fields up to the blank line that ends them: each name,
    lowercased, to its value, after the spaces and tabs that begin it and up
    to the end of its line. A line that begins with a space or tab continues
    the field above (obs-fold), after a space. A repeated name keeps its
    first value, except that Content-Encoding's are joined with ", ", as
    http.client's getheader joins them."""
    fields: dict[bytes, bytes] = {}
    name = None  # the field that a continuation line goes on, if it is kept
    for _ in range(_MAXHEADERS):
        line = received.readline("header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        if line[0] in b" \t":
            if name:
                fields[name] += b" " + line.strip(b" \t\r\n")
            continue
        name, _, value = line.partition(b":")
        name, value = name.lower(), value.lstrip(b" \t").rstrip(b"\r\n")
        if name not in fields:
            fields[name] = value
        elif name == b"content-encoding":
            fields[name] += b", " + value
        else:
            name = None
    raise http.client.HTTPException(f"got more than {_MAXHEADERS} headers")


def _chunked_body(received: _Received) -> bytes:
    """Read a chunked body (RFC 9112 section 7.1): each chunk's size line, its
    extensions ignored, then its data and the CRLF after it, up to the last
    chunk; then the trailer section, which is dropped."""
    chunks = []
    while True:
        try:
            size = int(received.readline("chunk size").partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.IncompleteRead(b"".join(chunks))
        if not size:
            break
        chunk = received.read(size)
        if len(chunk) < size:
            raise http.client.IncompleteRead(b"".join(chunks))
        chunks.append(chunk)
        if len(received.read(2)) < 2:  # the CRLF after the data, which is not checked
            raise http.client.IncompleteRead(b"".join(chunks))
    while received.readline("trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


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

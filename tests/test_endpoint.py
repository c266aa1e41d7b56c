from __future__ import annotations

import base64
import gzip
import http.client
import inspect
import itertools
import json
import os
import select
import socket
import ssl
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

import renokit.endpoint
from renokit.endpoint import (
    ChatClient,
    EndpointConfig,
    HttpTransport,
    OfflineTransport,
    ResponseArchive,
    Transport,
    request_id,
)
from renokit.errors import EndpointError

import mocks
from mocks import ScriptedTransport, archive_ids

# A self-signed certificate for 127.0.0.1 and its key, made once with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes -days 36500 \
#     -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1 -keyout loopback_key.pem -out loopback_cert.pem
CERT = str(Path(__file__).with_name("loopback_cert.pem"))
KEY = str(Path(__file__).with_name("loopback_key.pem"))


@dataclass
class FakeResponse:
    """A scripted reply: its status, and a body that is `text` or else `payload` as JSON."""

    status_code: int
    payload: object = None
    text: str = ""


COMPLETION = json.dumps({"choices": [{"message": {"content": "服务端回答"}}]}).encode()
DROP = "drop"  # the connection is closed unanswered, which http.client reports as a reset
MALFORMED = "malformed"  # the reply's status line is no HTTP status line
BAD_STATUS_LINE = b"HTTP/1.1 2OO OK\r\n"


@contextmanager
def serving(handler, tls: ssl.SSLContext | None = None):
    """Serves `handler` on a loopback port, one thread per connection, over
    TLS with `tls` if given; yields the base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    if tls:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def server_tls(client_cert: bool = False) -> ssl.SSLContext:
    """The loopback certificate's server context; it requires a client
    certificate signed by that certificate if `client_cert`."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(CERT, KEY)
    if client_cert:
        context.verify_mode = ssl.CERT_REQUIRED
        context.load_verify_locations(CERT)
    return context


@contextmanager
def scripted(outcomes, tls: ssl.SSLContext | None = None):
    """A loopback chat endpoint over HTTP/1.1 keep-alive that answers its i-th
    request with outcomes[i]: a FakeResponse, DROP or MALFORMED. Yields its
    base URL and the list of requests it received, each with its path, JSON
    body, headers and the client address of its connection."""
    outcomes, calls = list(outcomes), []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 10

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            calls.append({"path": self.path, "json": json.loads(body), "headers": dict(self.headers),
                          "connection": self.client_address})
            outcome = outcomes.pop(0)
            if outcome in (DROP, MALFORMED):
                self.wfile.write(BAD_STATUS_LINE + b"\r\n" if outcome == MALFORMED else b"")
                self.close_connection = True
                return
            payload = (outcome.text or json.dumps(outcome.payload)).encode()
            self.send_response(outcome.status_code)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    with serving(Handler, tls) as url:
        yield url, calls


def connections(calls) -> int:
    """How many connections the requests in `calls` came over."""
    return len({call["connection"] for call in calls})


def plain_session(**settings) -> requests.Session:
    """A session with `settings` (verify, cert, proxies) set on it that takes
    nothing from the environment, unless `settings` set trust_env."""
    session = requests.Session()
    session.trust_env = False
    for name, value in settings.items():
        setattr(session, name, value)
    return session


def cfg(**kwargs) -> EndpointConfig:
    base = dict(base_url="http://api.example/v1", model_name="m1", max_retries=2, backoff=(0.0,))
    base.update(kwargs)
    return EndpointConfig(**base)


@pytest.mark.parametrize("kwargs", [{"max_retries": -1}, {"backoff": ([1],)}, {"backoff": ("1",)},
                                    {"backoff": (True,)}, {"concurrency_limit": 0}])
def test_config_refuses_a_schedule_that_cannot_run(kwargs):
    with pytest.raises(ValueError):
        cfg(**kwargs)


@pytest.mark.parametrize("base_url, message", [
    ("localhost:9/v1", "base_url must be an http or https URL with a host, got 'localhost:9/v1'"),
    ("ftp://api.example/v1", "base_url must be an http or https URL with a host, got 'ftp://api.example/v1'"),
    ("http:///v1", "base_url 'http:///v1': Invalid URL 'http:///v1': No host supplied"),
    ("http://api.example:x/v1", "base_url 'http://api.example:x/v1': Failed to parse: http://api.example:x/v1"),
    ("http://[::1/v1", "base_url 'http://[::1/v1': Failed to parse: http://[::1/v1"),
    ("http://.example/v1", "base_url 'http://.example/v1': URL has an invalid label."),
    ("http://a..b:9/v1", "base_url 'http://a..b:9/v1': host 'a..b' has an empty or too long label"),
], ids=["no-scheme", "ftp", "no-host", "port-not-a-number", "ipv6-unclosed", "empty-label", "empty-inner-label"])
def test_config_refuses_a_base_url_that_is_no_http_url(base_url, message):
    """requests would refuse each of these only when the first request is sent."""
    with pytest.raises(ValueError) as excinfo:
        cfg(base_url=base_url)
    assert str(excinfo.value) == message
    assert cfg(base_url="HTTPS://api.example:8443").base_url == "HTTPS://api.example:8443"


def chat(messages=(), model: str = "m1", temperature: float = 0.0) -> dict:
    """A chat request as `ChatClient.request` builds it."""
    return {"model": model, "messages": list(messages), "temperature": temperature}


def ok_response(text: str = "回答") -> FakeResponse:
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


def sending(url: str, session: requests.Session | None = None, sleep=lambda seconds: None, **kwargs) -> closing:
    """An HttpTransport of cfg(**kwargs) to the endpoint at `url`, closed on leaving."""
    return closing(HttpTransport(cfg(base_url=url + "/v1", **kwargs), session=session, sleep=sleep))


class TestHttpTransport:
    def test_wire_format_and_auth(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY_ENV", "sk-secret")
        with scripted([ok_response("你好")]) as (url, calls), sending(url, api_key_env="TEST_KEY_ENV") as transport:
            completion = transport.complete(chat([{"role": "user", "content": "问"}]))
        assert completion.text == "你好"
        call = calls[0]
        assert call["path"] == "/v1/chat/completions"
        assert call["json"] == {"model": "m1", "messages": [{"role": "user", "content": "问"}], "temperature": 0.0}
        assert call["headers"]["Authorization"] == "Bearer sk-secret"

    def test_retries_on_transport_error_then_succeeds(self):
        sleeps = []
        with scripted([DROP, ok_response()]) as (url, calls), \
                sending(url, backoff=(0.5, 1.0), sleep=sleeps.append) as transport:
            assert transport.complete(chat()).text == "回答"
        assert sleeps == [0.5]
        assert connections(calls) == 2

    def test_retries_on_429_and_5xx(self):
        with scripted([FakeResponse(429, {}), FakeResponse(503, {}), ok_response()]) as (url, calls), \
                sending(url) as transport:
            assert transport.complete(chat()).text == "回答"
        assert len(calls) == 3

    def test_no_retry_on_400(self):
        with scripted([FakeResponse(400, {}, text="bad request"), ok_response()]) as (url, calls), \
                sending(url) as transport:
            with pytest.raises(EndpointError, match="HTTP 400"):
                transport.complete(chat())
        assert len(calls) == 1

    def test_gives_up_after_max_retries(self):
        with scripted([DROP] * 3) as (url, calls), sending(url, max_retries=2) as transport:
            with pytest.raises(EndpointError) as excinfo:
                transport.complete(chat())
        assert str(excinfo.value) == "gave up after 2 retries (transport: Remote end closed connection without response)"
        assert len(calls) == 3

    def test_a_malformed_status_line_is_retried_until_the_transport_gives_up(self):
        """A reply that is no HTTP reply is a transport failure too: it ends as an EndpointError."""
        with scripted([MALFORMED] * 2) as (url, calls), sending(url, max_retries=1) as transport:
            with pytest.raises(EndpointError) as excinfo:
                transport.complete(chat())
        # the status line as one line, without the CR LF that ended it
        assert str(excinfo.value) == "gave up after 1 retries (transport: HTTP/1.1 2OO OK)"
        assert len(calls) == 2

    def test_backoff_schedule_clamps_to_last(self):
        sleeps = []
        with scripted([FakeResponse(500, {})] * 4 + [ok_response()]) as (url, calls), \
                sending(url, max_retries=4, backoff=(1.0, 2.0), sleep=sleeps.append) as transport:
            transport.complete(chat())
        assert sleeps == [1.0, 2.0, 2.0, 2.0]

    def test_malformed_payload(self):
        with scripted([FakeResponse(200, {"weird": True})]) as (url, calls), sending(url) as transport:
            with pytest.raises(EndpointError, match="malformed"):
                transport.complete(chat())

    @pytest.mark.parametrize("content, message", [
        (5, "completion content is not a string"),
        # JSON can escape a lone surrogate; the archive could not store it
        ("回答\ud800", "completion content holds a lone surrogate '\\ud800' at position 2"),
    ], ids=["not-a-string", "lone-surrogate"])
    def test_content_that_is_no_text(self, content, message):
        with scripted([ok_response(content), ok_response()]) as (url, calls), sending(url) as transport:
            with pytest.raises(EndpointError) as excinfo:
                transport.complete(chat())
        assert str(excinfo.value) == message
        assert len(calls) == 1  # not retried

    def test_empty_backoff_retries_without_waiting(self):
        sleeps = []
        with scripted([FakeResponse(503, {}), FakeResponse(429, {}), ok_response()]) as (url, calls), \
                sending(url, backoff=(), sleep=sleeps.append) as transport:
            assert transport.complete(chat()).text == "回答"
        assert sleeps == [0.0, 0.0]

    def test_a_session_is_closed_only_when_the_transport_made_it(self, monkeypatch):
        """A caller's session stays open; one the transport made is closed once
        the request is worked out, since sending takes nothing more from it."""

        class CountingSession(requests.Session):
            closed = 0

            def close(self):
                type(self).closed += 1
                super().close()

        HttpTransport(cfg(), session=CountingSession()).close()
        assert CountingSession.closed == 0
        monkeypatch.setattr(requests, "Session", CountingSession)
        HttpTransport(cfg()).close()
        assert CountingSession.closed == 1

    def test_request_is_prepared_once_and_one_connection_kept_alive(self):
        """However many requests and retries it sends, a transport prepares its
        request, looks its adapter up and merges the session's and the
        environment's settings once, and sends every attempt over one
        keep-alive connection."""

        class CountingSession(requests.Session):
            prepared = lookups = merged = 0

            def prepare_request(self, request):
                self.prepared += 1
                return super().prepare_request(request)

            def get_adapter(self, url):
                self.lookups += 1
                return super().get_adapter(url)

            def merge_environment_settings(self, *args):
                self.merged += 1
                return super().merge_environment_settings(*args)

        outcomes = [FakeResponse(503, {}), ok_response("一"), FakeResponse(429, {}), ok_response("二"),
                    ok_response("三")]
        session = CountingSession()
        with scripted(outcomes) as (url, calls), sending(url, session=session) as transport:
            texts = [transport.complete(chat([{"role": "user", "content": q}])).text for q in "甲乙丙"]
        assert texts == ["一", "二", "三"]
        assert [call["json"]["messages"][0]["content"] for call in calls] == list("甲甲乙乙丙")
        assert (session.prepared, session.lookups, session.merged, len(calls), connections(calls)) == (1, 1, 1, 5, 1)

    def test_a_connection_the_server_closed_while_idle_is_not_spent_as_an_attempt(self):
        """The server answers each request in keep-alive framing, then closes the
        connection unannounced: the next request finds it closed before sending,
        and opens a new one without spending an attempt."""
        closed, seen = threading.Semaphore(0), []

        class AnswerThenClose(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                seen.append(self.client_address)
                self.send_response(200)
                self.send_header("Content-Length", str(len(COMPLETION)))
                self.end_headers()
                self.wfile.write(COMPLETION)
                self.connection.shutdown(socket.SHUT_RDWR)
                self.close_connection = True
                closed.release()

            def log_message(self, *args):
                pass

        with serving(AnswerThenClose) as url, sending(url, max_retries=0) as transport:
            for _ in range(3):
                assert transport.complete(chat()).text == "服务端回答"
                assert closed.acquire(timeout=5)
        assert len(set(seen)) == 3

    def test_close_closes_the_idle_connections(self):
        """close() ends the transport's idle connections; a later request opens a new one."""
        ended = threading.Semaphore(0)

        class Counting(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Length", str(len(COMPLETION)))
                self.end_headers()
                self.wfile.write(COMPLETION)

            def finish(self):
                super().finish()
                ended.release()

            def log_message(self, *args):
                pass

        with serving(Counting) as url, sending(url, max_retries=0) as transport:
            assert transport.complete(chat()).text == "服务端回答"
            assert not ended.acquire(timeout=0.05)  # kept alive
            transport.close()
            assert ended.acquire(timeout=5)
            assert transport.complete(chat()).text == "服务端回答"


class TestChatClient:
    def test_uses_config_model_and_temperature(self):
        seen = {}

        def script(messages):
            seen["messages"] = messages
            return "ok"

        client = ChatClient(cfg(temperature=0.3), ScriptedTransport(script))
        client.complete([{"role": "user", "content": "x"}])
        assert seen["messages"] == [{"role": "user", "content": "x"}]


class TestRequestId:
    def test_deterministic_and_content_sensitive(self):
        msgs = [{"role": "user", "content": "a"}]
        assert request_id(chat(msgs, "m")) == request_id(chat(msgs, "m"))
        assert request_id(chat(msgs, "m")) != request_id(chat(msgs, "m", 0.5))
        assert request_id(chat(msgs, "m")) != request_id(chat(msgs, "m2"))
        assert request_id(chat([{"role": "user", "content": "b"}], "m")) != request_id(chat(msgs, "m"))


    def test_request_hashes_as_before(self):
        """Archives written when request_id took (model, messages, temperature) still replay."""
        with closing(ChatClient(EndpointConfig(base_url="http://mock.invalid", model_name="mock-model"))) as client:
            request = client.request([{"role": "user", "content": "问"}])
        assert request_id(request) == "b8fbcd3d54e27706deb31f9d7ff53bf7"


def test_every_transport_takes_one_request():
    """A transport on another signature fails only inside a generation worker thread."""
    want = list(inspect.signature(Transport.complete).parameters)
    assert want == ["self", "request"]
    transports = [HttpTransport, OfflineTransport]
    transports += [cls for _, cls in inspect.getmembers(mocks, inspect.isclass)
                   if cls.__module__ == mocks.__name__ and hasattr(cls, "complete")]
    assert len(transports) >= 6
    for cls in transports:
        assert list(inspect.signature(cls.complete).parameters) == want, cls.__name__


class TestResponseArchive:
    def test_store_load_roundtrip(self, tmp_path):
        archive = ResponseArchive(tmp_path / "arch")
        entry = {"request_id": "abc", "response": "文本", "error": None}
        archive.store("abc", entry)
        assert archive.has("abc")
        assert archive.load("abc") == entry
        assert archive_ids(archive) == ["abc"]
        assert len(archive_ids(archive)) == 1

    def test_concurrent_stores_lose_no_entry(self, tmp_path):
        archive = ResponseArchive(tmp_path / "arch")
        entries = {f"{t}-{i}": {"request_id": f"{t}-{i}", "response": "文" * i} for t in range(8) for i in range(50)}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(archive.store, rid, entry) for rid, entry in entries.items()]:
                    future.result(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        reopened = ResponseArchive(tmp_path / "arch")
        for rid, entry in entries.items():
            assert archive.load(rid) == reopened.load(rid) == entry
        assert sorted(archive_ids(archive)) == sorted(entries)

    def test_an_entry_must_begin_with_its_request_id(self, tmp_path):
        archive = ResponseArchive(tmp_path / "arch")
        for rid, entry in (("abc", {"response": "文本", "request_id": "abc"}), ("abd", {"request_id": "abc"})):
            with pytest.raises(ValueError, match="does not begin with its request_id"):
                archive.store(rid, entry)
        assert not (tmp_path / "arch").exists()

    def test_lines_without_an_entry_are_skipped(self, tmp_path):
        (tmp_path / "arch").mkdir()
        entry = {"request_id": "abc", "response": "文本", "error": None}
        (tmp_path / "arch" / "responses.jsonl").write_bytes(
            b'\n[1]\n{"request_id": "cut\n' + json.dumps(entry, ensure_ascii=False).encode() + b"\n")
        archive = ResponseArchive(tmp_path / "arch")
        assert (archive.has("abc"), archive.has("cut"), archive.load("abc")) == (True, False, entry)

    def test_a_short_write_raises_and_the_next_store_ends_its_line(self, tmp_path, monkeypatch):
        class HalfWrites:
            def __getattr__(self, name):
                return getattr(os, name)

            @staticmethod
            def write(fd, data):
                return os.write(fd, data[:len(data) // 2])

        archive = ResponseArchive(tmp_path / "arch")
        with monkeypatch.context() as m:
            m.setattr(renokit.endpoint, "os", HalfWrites())
            with pytest.raises(OSError, match="wrote"):
                archive.store("a", {"request_id": "a", "response": "甲"})
        archive.store("b", {"request_id": "b", "response": "乙"})
        assert (archive.has("a"), archive.load("b")) == (False, {"request_id": "b", "response": "乙"})
        reopened = ResponseArchive(tmp_path / "arch")
        with pytest.raises(ValueError, match=f"{reopened.path}: line 1: invalid JSON"):
            reopened.load("a")
        assert reopened.load("b") == {"request_id": "b", "response": "乙"}


@contextmanager
def loopback(seen: list, status: int = 200, headers: dict | None = None, payload: bytes = COMPLETION):
    """A local HTTP/1.0 chat endpoint, or HTTP proxy, that answers every POST
    with `status`, `headers` and `payload`, by default a completion, and
    appends its request line, headers and body to `seen`; yields its base URL."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append({"line": self.requestline, "path": self.path, "headers": self.headers.items(), "body": body})
            self.send_response(status)
            for name, value in {"Content-Type": "application/json", **(headers or {})}.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    with serving(Handler) as url:
        yield url


def test_http_transport_against_local_server():
    seen = []
    with loopback(seen) as url, closing(HttpTransport(cfg(base_url=url))) as transport:
        completion = transport.complete(chat([{"role": "user", "content": "问题"}]))
    assert completion.text == "服务端回答"
    assert seen[0]["path"] == "/chat/completions"
    assert json.loads(seen[0]["body"])["messages"] == [{"role": "user", "content": "问题"}]


def _session_with_state() -> requests.Session:
    """A caller's session with its own header, cookie and basic auth."""
    session = requests.Session()
    session.headers["X-Team"] = "renovation"
    session.cookies.set("sid", "s1")
    session.auth = ("user", "pw")
    return session


WIRE_REQUEST = chat([{"role": "user", "content": "问题 \"引号\" é"}], temperature=0.5)


def _post_both_ways(session: requests.Session, base_url: str, api_key: str) -> None:
    """Sends WIRE_REQUEST once through an HttpTransport on `session` and once
    with session.post(url, json=..., headers=...)."""
    headers = {"Content-Type": "application/json", **({"Authorization": f"Bearer {api_key}"} if api_key else {})}
    endpoint = cfg(base_url=base_url + "/v1/", api_key_env="TEST_KEY_ENV")
    with closing(HttpTransport(endpoint, session=session)) as transport:
        transport.complete(WIRE_REQUEST)
    session.post(base_url + "/v1/chat/completions", json=WIRE_REQUEST, headers=headers, timeout=endpoint.timeout)


@pytest.mark.parametrize("make_session, api_key", [(requests.Session, "sk-wire"), (_session_with_state, "")],
                         ids=["bearer", "session-header-cookie-auth"])
def test_sends_what_session_post_sends(monkeypatch, make_session, api_key):
    """The prebuilt head puts the same request line, headers and body on the
    wire as session.post(url, json=..., headers=...) does."""
    monkeypatch.setenv("TEST_KEY_ENV", api_key)
    seen = []
    with loopback(seen) as url, closing(make_session()) as session:
        _post_both_ways(session, url, api_key)
    assert len(seen) == 2
    assert seen[0] == seen[1]
    assert seen[0]["line"] == "POST /v1/chat/completions HTTP/1.1"
    assert json.loads(seen[0]["body"]) == WIRE_REQUEST


def test_sends_what_session_post_sends_through_a_proxy(monkeypatch):
    """Through an HTTP proxy the request line carries the full URL, and the
    proxy's credentials go last, as Proxy-Authorization."""
    monkeypatch.setenv("TEST_KEY_ENV", "sk-wire")
    seen = []
    with loopback(seen) as proxy:
        # nothing listens on this loopback address: only the proxy can answer
        session = plain_session(proxies={"http": proxy.replace("http://", "http://user:pw@")})
        with closing(session):
            _post_both_ways(session, "http://127.0.0.2:9", "sk-wire")
    assert len(seen) == 2
    assert seen[0] == seen[1]
    assert seen[0]["line"] == "POST http://127.0.0.2:9/v1/chat/completions HTTP/1.1"
    assert seen[0]["headers"][-1] == ("Proxy-Authorization", "Basic " + base64.b64encode(b"user:pw").decode())


def test_an_ipv6_host_without_a_port_is_dialled_on_the_schemes_port(monkeypatch):
    """http.client takes what follows the last ':' of a host for its port
    when given none; the transport gives it the scheme's. The dial is sent
    on to a loopback endpoint, which sees a Host header with no port."""
    dialled, real_dial = [], socket.create_connection
    seen = []
    with loopback(seen) as url:
        def dial(to, *args, **kwargs):
            dialled.append(to)
            return real_dial(("127.0.0.1", int(url.rsplit(":", 1)[1])), *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", dial)
        with sending("http://[::1]", max_retries=0) as transport:
            assert transport.complete(chat()).text == "服务端回答"
    assert dialled == [("::1", 80)]
    assert [(request["line"], dict(request["headers"])["Host"]) for request in seen] == [
        ("POST /v1/chat/completions HTTP/1.1", "[::1]")]


@pytest.mark.parametrize("base_url, line", [
    ("https://[::1]", "CONNECT [::1]:443 HTTP/1.0"),
    ("https://[::1]:8443", "CONNECT [::1]:8443 HTTP/1.0"),
], ids=["default-port", "own-port"])
def test_a_tunnel_to_an_ipv6_host_is_asked_for_as_session_post_asks(base_url, line):
    """The CONNECT request names the IPv6 host in brackets, with the scheme's
    port if the URL names none; the proxy here refuses every tunnel."""
    seen = []

    class Refusing(BaseHTTPRequestHandler):
        def do_CONNECT(self):
            seen.append(self.requestline)
            self.send_response(502)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def log_message(self, *args):
            pass

    with serving(Refusing) as proxy, closing(plain_session(proxies={"https": proxy})) as session:
        with pytest.raises(requests.exceptions.ProxyError):
            session.post(base_url + "/v1/chat/completions", json=WIRE_REQUEST)
        with sending(base_url, session=session, max_retries=0) as transport, \
                pytest.raises(EndpointError) as excinfo:
            transport.complete(WIRE_REQUEST)
    assert str(excinfo.value) == "gave up after 0 retries (transport: Tunnel connection failed: 502 Bad Gateway)"
    assert seen == [line, line]


def test_a_trust_env_session_goes_through_the_environments_proxy(monkeypatch):
    seen = []
    with loopback(seen) as proxy:
        for name in ("HTTP_PROXY", "http_proxy"):
            monkeypatch.setenv(name, proxy)
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        # nothing listens on this loopback address: only the proxy can answer
        with closing(HttpTransport(cfg(base_url="http://127.0.0.2:9/v1", max_retries=0))) as transport:
            assert transport.complete(chat()).text == "服务端回答"
    assert [request["line"] for request in seen] == ["POST http://127.0.0.2:9/v1/chat/completions HTTP/1.1"]


def test_a_redirect_is_an_endpoint_error_and_not_followed():
    seen = []
    with loopback(seen, status=307, headers={"Location": "/v1/chat/completions"}, payload=b"moved") as url, \
            closing(HttpTransport(cfg(base_url=url + "/v1"))) as transport:
        with pytest.raises(EndpointError) as excinfo:
            transport.complete(chat())
    assert str(excinfo.value) == "HTTP 307: moved"
    assert len(seen) == 1


def _raw_deflate(data: bytes) -> bytes:
    compressor = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    return compressor.compress(data) + compressor.flush()


@pytest.mark.parametrize("coding, payload", [
    ("gzip", gzip.compress(COMPLETION)),
    ("deflate", zlib.compress(COMPLETION)),
    ("deflate", _raw_deflate(COMPLETION)),
    ("gzip, deflate", zlib.compress(gzip.compress(COMPLETION))),
    ("gzip", gzip.compress(COMPLETION[:9]) + gzip.compress(COMPLETION[9:]) + b"\0\0"),
], ids=["gzip", "deflate", "raw-deflate", "gzip-then-deflate", "gzip-members-padded"])
def test_a_compressed_reply_is_decoded(coding, payload):
    """requests advertises gzip and deflate; a reply in either, or in both
    applied in turn, is decoded."""
    with loopback([], headers={"Content-Encoding": coding}, payload=payload) as url, \
            closing(HttpTransport(cfg(base_url=url))) as transport:
        assert transport.complete(chat()).text == "服务端回答"


@pytest.mark.parametrize("coding, payload, error", [
    ("gzip", b"no gzip", "Error -3 while decompressing data: incorrect header check"),
    ("gzip", gzip.compress(COMPLETION)[:-12], "gzip member ended before its end-of-stream marker"),
    ("gzip", gzip.compress(COMPLETION)[:-1] + b"\1", "Error -3 while decompressing data: incorrect length check"),
    ("deflate", b"not deflate", "Error -3 while decompressing data: invalid block type"),
], ids=["not-gzip", "truncated-gzip", "wrong-gzip-length", "not-deflate"])
def test_a_reply_that_does_not_decode_is_a_transport_failure(coding, payload, error):
    seen = []
    with loopback(seen, headers={"Content-Encoding": coding}, payload=payload) as url, \
            closing(HttpTransport(cfg(base_url=url, max_retries=1))) as transport:
        with pytest.raises(EndpointError) as excinfo:
            transport.complete(chat())
    assert str(excinfo.value) == f"gave up after 1 retries (transport: {error})"
    assert len(seen) == 2


def test_a_reply_in_another_coding_is_read_as_it_is():
    with loopback([], headers={"Content-Encoding": "identity"}) as url, \
            closing(HttpTransport(cfg(base_url=url))) as transport:
        assert transport.complete(chat()).text == "服务端回答"


@pytest.mark.parametrize("framing", ["chunked", "close"])
def test_a_chunked_or_connection_close_reply_is_read_whole(framing):
    """A chunked reply leaves its connection open for the next request; a
    reply that says Connection: close, its body ending with the connection,
    does not."""
    seen = []

    class Framed(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            seen.append(self.client_address)
            self.send_response(200)
            if framing == "chunked":
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                half = len(COMPLETION) // 2
                for part in (COMPLETION[:half], COMPLETION[half:], b""):
                    self.wfile.write(b"%x\r\n%b\r\n" % (len(part), part))
            else:
                self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(COMPLETION)
                self.close_connection = True

        def log_message(self, *args):
            pass

    with serving(Framed) as url, sending(url, max_retries=0) as transport:
        assert [transport.complete(chat()).text for _ in range(2)] == ["服务端回答"] * 2
    assert len(set(seen)) == (1 if framing == "chunked" else 2)


def head(status_line: bytes, *fields: bytes) -> bytes:
    """A reply's head: its status line and header fields, and the blank line that ends them."""
    return b"\r\n".join([status_line, *fields, b"", b""])


def sized(body: bytes = COMPLETION, status_line: bytes = b"HTTP/1.1 200 OK", *fields: bytes) -> bytes:
    """A reply whose body `body` is framed by its Content-Length."""
    return head(status_line, *fields, b"Content-Length: %d" % len(body)) + body


def chunked(*chunks: bytes) -> bytes:
    """`chunks` in chunked framing, each with its size line, and the last chunk."""
    return b"".join(b"%x\r\n%b\r\n" % (len(chunk), chunk) for chunk in chunks) + b"0\r\n\r\n"


CHUNKED = head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked")


@contextmanager
def raw_replies(replies, close: bool = False):
    """A loopback endpoint on a bare socket, which neither http.server nor
    http.client takes part in. It reads each request, its head and its body,
    and answers the i-th with the bytes replies[i] as they are, then closes
    the connection if `close`. Yields its base URL and a list that gets, for
    each request, the number of the connection it came over."""
    replies, seen = list(replies), []
    listener = socket.create_server(("127.0.0.1", 0))

    def serve(conn: socket.socket, number: int) -> None:
        with conn, conn.makefile("rb") as rfile:
            while True:
                lines = []
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    lines.append(line.lower())
                if not line:
                    return
                rfile.read(next(int(line[15:]) for line in lines if line.startswith(b"content-length:")))
                seen.append(number)
                try:
                    conn.sendall(replies.pop(0))
                except OSError:  # the client stopped reading a reply it refused
                    return
                if close:
                    conn.shutdown(socket.SHUT_RDWR)
                    return

    def accept() -> None:
        for number in itertools.count():
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was shut down
                return
            threading.Thread(target=serve, args=(conn, number), daemon=True).start()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", seen
    finally:
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=5)
    assert not thread.is_alive()


class TestReplyFraming:
    """How each reply is read, framed by RFC 9112 section 6 as http.client
    reads it, against a server that sends the reply's bytes as they are."""

    @pytest.mark.parametrize("reply, kept", [
        (sized(), True),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b"Connection: close"), False),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b"Connection: keep-alive", b"Connection: close"), True),
        (sized(COMPLETION, b"HTTP/1.0 200 OK"), False),
        (sized(COMPLETION, b"HTTP/1.0 200 OK", b"Connection: Keep-Alive"), True),
        (sized(COMPLETION, b"HTTP/1.0 200 OK", b"Keep-Alive: timeout=5"), True),
        (sized(COMPLETION, b"HTTP/1.0 200 OK", b"Proxy-Connection: keep-alive"), True),
        (sized(COMPLETION, b"HTTP/0.9 200 OK"), False),
        (head(b"HTTP/1.1 100 Continue") + sized(), True),
        (head(b"HTTP/1.1 100 Continue", b"X-Note: more to come") + head(b"HTTP/1.1 100 Continue") + sized(), True),
        (CHUNKED + b"1a;name=value\r\n" + COMPLETION[:26] + b"\r\n%x;x\r\n" % (len(COMPLETION) - 26)
         + COMPLETION[26:] + b"\r\n0;last\r\nX-Trailer: 1\r\nX-Other: 2\r\n\r\n", True),
        (head(b"HTTP/1.1 200 OK", b"Content-Length: %d" % len(COMPLETION), b"Content-Length: 1000") + COMPLETION,
         True),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", *(b"X-Field-%d: %d" % (i, i) for i in range(98))), True),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b"X-Long: " + b"x" * (65536 - 10)), True),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b"Connection: keep-alive,", b" close"), False),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b"Connection: keep-alive", b"Connection: x,", b"\tclose"), True),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b" Connection: close"), True),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", b"X Bad : 1", b"Connection: close"), False),
    ], ids=["http-1.1", "http-1.1-close", "first-connection-field-counts", "http-1.0", "http-1.0-keep-alive",
            "http-1.0-keep-alive-field", "http-1.0-proxy-connection", "http-0.9", "100-continue",
            "two-100-continues", "chunk-extensions-and-trailers", "first-content-length-counts", "99-fields",
            "longest-line", "folded-field", "folded-repeated-field", "folded-first-line", "field-after-no-field"])
    def test_a_reply_is_read_and_its_connection_kept_as_it_says(self, reply, kept):
        """A line that begins with a space or tab continues the field above
        (obs-fold, RFC 9112 section 5.2). A line that is no field is skipped;
        http.client dropped every field after it, here `Connection: close`."""
        with raw_replies([reply] * 2) as (url, seen), sending(url, max_retries=0) as transport:
            assert [transport.complete(chat()).text for _ in range(2)] == ["服务端回答"] * 2
        assert seen == ([0, 0] if kept else [0, 1])

    @pytest.mark.parametrize("status_line", [b"HTTP/1.1 204 No Content", b"HTTP/1.1 304 Not Modified",
                                             b"HTTP/1.1 102 Processing"])
    def test_a_reply_that_has_no_body_reads_none(self, status_line):
        """204, 304 and a 1xx other than 100 end at their head, however they
        are framed, and leave the connection open for the next request."""
        replies = [head(status_line, b"Content-Length: 5"), sized()]
        with raw_replies(replies) as (url, seen), sending(url, max_retries=0) as transport:
            with pytest.raises(EndpointError) as excinfo:
                transport.complete(chat())
            assert transport.complete(chat()).text == "服务端回答"
        assert str(excinfo.value) == f"HTTP {status_line.split()[1].decode()}: "
        assert seen == [0, 0]

    @pytest.mark.parametrize("reply, error", [
        (head(b"HTTP/1.1 200 OK", b"Content-Length: 100") + COMPLETION[:10],
         "IncompleteRead(10 bytes read, 90 more expected)"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5", "IncompleteRead(0 bytes read, 5 more expected)"),
        (CHUNKED + b"zz\r\n", "IncompleteRead(0 bytes read)"),
        (CHUNKED + b"5\r\nhello\r\n-5\r\nhello\r\n0\r\n\r\n", "IncompleteRead(5 bytes read)"),
        (CHUNKED + b"5\r\nhello\r\n", "IncompleteRead(5 bytes read)"),
        (CHUNKED + b"5\r\nhello\r\n10\r\nhello", "IncompleteRead(5 bytes read)"),
        (CHUNKED + b"5\r\nhello", "IncompleteRead(5 bytes read)"),
        (CHUNKED + b"f" * 20 + b"\r\nhello", "IncompleteRead(0 bytes read)"),
        (head(b"HTTP/1.1 200 OK", b"Content-Length: %d" % 10**30) + COMPLETION,
         f"IncompleteRead({len(COMPLETION)} bytes read, {10**30 - len(COMPLETION)} more expected)"),
        (b"HTTP/1.1 200 " + b"O" * 65536 + b"\r\n\r\n", "got more than 65536 bytes when reading status line"),
        (head(b"HTTP/1.1 200 OK", b"X-Long: " + b"x" * (65536 - 9)),
         "got more than 65536 bytes when reading header line"),
        (head(b"HTTP/1.1 100 Continue", b"X-Long: " + b"x" * 65536) + sized(),
         "got more than 65536 bytes when reading header line"),
        (CHUNKED + b"5" * 65537 + b"\r\n", "got more than 65536 bytes when reading chunk size"),
        (CHUNKED + b"0\r\nX-Long: " + b"x" * 65536 + b"\r\n\r\n", "got more than 65536 bytes when reading trailer line"),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", *(b"X-Field-%d: %d" % (i, i) for i in range(99))),
         "got more than 100 headers"),
        (sized(COMPLETION, b"HTTP/1.1 200 OK", *(b"X-Field-%d: %d" % (i, i) for i in range(100))),
         "got more than 100 headers"),
        (sized(COMPLETION, b"HTTP/2.0 200 OK"), "HTTP/2.0"),
        (sized(COMPLETION, b"HTTP/1.1 99 Too Low"), "HTTP/1.1 99 Too Low"),
        (sized(COMPLETION, b"HTTP/1.1"), "HTTP/1.1"),
        (sized(COMPLETION, b"ICY 200 OK"), "ICY 200 OK"),
    ], ids=["body-short", "head-cut-short", "chunk-size-not-hex", "chunk-size-negative", "last-chunk-missing",
            "chunk-short", "chunk-crlf-missing", "chunk-size-too-large", "content-length-too-large", "status-line-too-long", "header-line-too-long",
            "continue-header-line-too-long", "chunk-size-line-too-long", "trailer-line-too-long",
            "100-header-fields", "101-header-fields", "unknown-protocol", "status-under-100", "no-status",
            "no-http-version"])
    def test_a_reply_that_cannot_be_read_is_a_transport_failure_that_is_retried(self, reply, error):
        """The failure ends its connection; with no retry left it is the
        error, and a retry on a new connection reads the next reply."""
        with raw_replies([reply, reply, sized()], close=True) as (url, seen), \
                sending(url, max_retries=1) as transport:
            with pytest.raises(EndpointError) as excinfo:
                transport.complete(chat())
            assert transport.complete(chat()).text == "服务端回答"
        assert str(excinfo.value) == f"gave up after 1 retries (transport: {error})"
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize("framing", ["sized", "chunked", "close"])
    def test_a_reply_longer_than_one_receive_is_read_whole(self, framing):
        text = "长" * 100_000
        body = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        reply = {"sized": sized(body), "chunked": CHUNKED + chunked(body[:70_000], body[70_000:]),
                 "close": head(b"HTTP/1.1 200 OK") + body}[framing]
        with raw_replies([reply] * 2, close=framing == "close") as (url, seen), \
                sending(url, max_retries=0) as transport:
            assert [transport.complete(chat()).text for _ in range(2)] == [text] * 2
        assert seen == ([0, 1] if framing == "close" else [0, 0])

    def test_repeated_content_encodings_are_decoded_in_turn(self):
        reply = sized(zlib.compress(gzip.compress(COMPLETION)), b"HTTP/1.1 200 OK",
                      b"Content-Encoding: gzip", b"Content-Encoding: deflate")
        with raw_replies([reply]) as (url, seen), sending(url, max_retries=0) as transport:
            assert transport.complete(chat()).text == "服务端回答"

    def test_a_connection_that_received_bytes_past_its_reply_is_not_reused(self):
        """Bytes after a reply answer no request that was sent, so the
        connection is closed, and the next request gets its own reply."""
        second = json.dumps({"choices": [{"message": {"content": "第二"}}]}).encode()
        replies = [sized() + sized(b'{"stray": true}'), sized(second)]
        with raw_replies(replies) as (url, seen), sending(url, max_retries=0) as transport:
            assert [transport.complete(chat()).text for _ in range(2)] == ["服务端回答", "第二"]
        assert seen == [0, 1]

    def test_http_client_reads_no_reply(self, monkeypatch):
        """Replies are read by the transport alone: http.client's HTTPResponse
        and its email-parsed headers stay out of every reply path."""

        def refuse(*args, **kwargs):
            raise AssertionError("http.client read a reply")

        monkeypatch.setattr(http.client, "HTTPResponse", refuse)
        monkeypatch.setattr(http.client, "parse_headers", refuse)
        replies = [sized(), head(b"HTTP/1.1 100 Continue") + CHUNKED + chunked(COMPLETION),
                   sized(COMPLETION, b"HTTP/1.1 200 OK", b"Connection: close"), sized(COMPLETION, b"HTTP/1.1 503 x")]
        with raw_replies(replies + [sized()]) as (url, seen), sending(url, max_retries=1) as transport:
            assert [transport.complete(chat()).text for _ in range(4)] == ["服务端回答"] * 4
        assert seen == [0, 0, 0, 1, 1]


def test_a_transport_keeps_sending_after_its_caller_closes_the_session():
    """The transport takes nothing from the session once it is built."""
    seen = []
    with loopback(seen) as url:
        session = requests.Session()
        with closing(HttpTransport(cfg(base_url=url), session=session)) as transport:
            assert transport.complete(chat()).text == "服务端回答"
            session.close()
            assert transport.complete(chat()).text == "服务端回答"
    assert len(seen) == 2


@pytest.mark.parametrize("settings, env", [
    ({"verify": CERT}, {}),
    ({"verify": False}, {}),
    ({"trust_env": True}, {"REQUESTS_CA_BUNDLE": CERT}),
], ids=["verify-file", "no-verify", "requests-ca-bundle"])
def test_https_against_a_loopback_tls_server(monkeypatch, settings, env):
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "HTTPS_PROXY", "https_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with scripted([ok_response("加密")] * 2, tls=server_tls()) as (url, calls), \
            closing(plain_session(**settings)) as session, sending(url, session=session) as transport:
        assert [transport.complete(chat()).text for _ in range(2)] == ["加密"] * 2
    assert connections(calls) == 1


def test_https_presents_the_sessions_client_certificate():
    with scripted([ok_response("双向")], tls=server_tls(client_cert=True)) as (url, calls), \
            closing(plain_session(verify=CERT, cert=(CERT, KEY))) as session, \
            sending(url, session=session) as transport:
        assert transport.complete(chat()).text == "双向"


def test_https_with_the_default_ca_bundle_refuses_a_self_signed_certificate():
    """requests' own CA bundle does not hold the loopback certificate: each
    attempt fails its handshake, as a transport failure."""
    with scripted([], tls=server_tls()) as (url, calls), closing(plain_session()) as session, \
            sending(url, session=session, max_retries=1) as transport:
        with pytest.raises(EndpointError) as excinfo:
            transport.complete(chat())
    assert str(excinfo.value).startswith("gave up after 1 retries (transport: [SSL: CERTIFICATE_VERIFY_FAILED]")
    assert calls == []


@pytest.mark.parametrize("settings", [{"verify": "missing-bundle.pem"}, {"verify": CERT, "cert": "missing.pem"}],
                         ids=["ca-bundle", "client-cert"])
def test_a_tls_file_that_cannot_be_read_is_refused_when_built(tmp_path, settings):
    settings = {name: value if value == CERT else str(tmp_path / value) for name, value in settings.items()}
    with closing(plain_session(**settings)) as session, pytest.raises(FileNotFoundError):
        HttpTransport(cfg(base_url="https://api.example/v1"), session=session)


@contextmanager
def tunnel_proxy(seen: list):
    """A local HTTP proxy that opens a CONNECT tunnel to the host and port it
    is asked for, and appends each CONNECT's request line and headers to
    `seen`; yields its URL."""

    class Tunnel(BaseHTTPRequestHandler):
        def do_CONNECT(self):
            seen.append({"line": self.requestline, "headers": self.headers.items()})
            host, port = self.path.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as upstream:
                self.send_response(200, "Connection established")
                self.end_headers()
                ends = {self.connection: upstream, upstream: self.connection}
                while True:
                    for end in select.select(list(ends), [], [], 10)[0]:
                        if not (data := end.recv(65536)):
                            return
                        ends[end].sendall(data)

        def log_message(self, *args):
            pass

    with serving(Tunnel) as url:
        yield url


def test_https_through_an_http_proxys_connect_tunnel():
    seen = []
    with scripted([ok_response("隧道")] * 2, tls=server_tls()) as (url, calls), tunnel_proxy(seen) as proxy, \
            closing(plain_session(verify=CERT, proxies={"https": proxy.replace("http://", "http://user:pw@")})) \
            as session, sending(url, session=session) as transport:
        assert [transport.complete(chat()).text for _ in range(2)] == ["隧道"] * 2
    host_port = url.removeprefix("https://")
    assert [request["line"] for request in seen] == [f"CONNECT {host_port} HTTP/1.0"]
    assert ("Proxy-Authorization", "Basic " + base64.b64encode(b"user:pw").decode()) in seen[0]["headers"]
    assert calls[0]["headers"]["Host"] == host_port
    assert connections(calls) == 1


def test_threads_share_one_transports_connections():
    """Eight threads, more than the cores, send through one transport over
    keep-alive connections with a short switch interval: each gets the reply
    to its own request."""

    class Echo(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = request["messages"][0]["content"]
            payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    questions = [f"问题{i}" for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving(Echo) as url, sending(url, timeout=10.0) as transport, ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(transport.complete, chat([{"role": "user", "content": q}])) for q in questions]
            texts = [future.result(timeout=30).text for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert texts == questions


class ForeignAdapter(requests.adapters.BaseAdapter):
    """An adapter that is no HTTPAdapter."""

    def close(self):
        pass


class SendingAdapter(requests.adapters.HTTPAdapter):
    """An HTTPAdapter with a send of its own, which the transport would bypass."""

    def send(self, request, **kwargs):
        return super().send(request, **kwargs)


@pytest.mark.parametrize("adapter, described", [
    (ForeignAdapter(), "ForeignAdapter with max_retries None"),
    (SendingAdapter(), "SendingAdapter with max_retries Retry(total=0, connect=None, read=False, redirect=None, "
                       "status=None)"),
    (requests.adapters.HTTPAdapter(max_retries=3), "HTTPAdapter with max_retries Retry(total=3, connect=None, "
                                                   "read=None, redirect=None, status=None)"),
], ids=["base-adapter", "own-send", "retries"])
def test_an_adapter_whose_settings_would_not_take_effect_is_refused(adapter, described):
    with closing(requests.Session()) as session:
        session.mount("http://", adapter)
        with pytest.raises(ValueError) as excinfo:
            HttpTransport(cfg(), session=session)
    assert str(excinfo.value) == (f"HttpTransport takes only a plain requests HTTPAdapter with its default "
                                  f"max_retries, but the session mounts a {described} for "
                                  f"http://api.example/v1/chat/completions")


def test_a_plain_adapter_with_no_retries_is_taken():
    with closing(requests.Session()) as session:
        session.mount("http://", requests.adapters.HTTPAdapter(max_retries=0, pool_maxsize=2))
        HttpTransport(cfg(), session=session).close()


@pytest.mark.parametrize("proxy, described", [
    ("socks5://127.0.0.1:1080", "socks5://127.0.0.1"),
    ("https://user:pw@proxy.example:3128", "https://proxy.example"),
    ("http://:3128", "http://"),
], ids=["socks", "https", "no-host"])
def test_a_proxy_that_is_no_http_proxy_is_refused(proxy, described):
    with closing(plain_session(proxies={"http": proxy})) as session, pytest.raises(ValueError) as excinfo:
        HttpTransport(cfg(), session=session)
    assert str(excinfo.value) == (f"HttpTransport sends through an http:// proxy with a host only, but the proxy "
                                  f"for http://api.example/v1/chat/completions is {described}")


def _session_with_hook() -> requests.Session:
    session = requests.Session()
    session.hooks["response"].append(lambda response, **kwargs: response)
    return session


def _session_with_digest_auth() -> requests.Session:
    session = requests.Session()
    session.auth = requests.auth.HTTPDigestAuth("user", "pw")  # it answers a 401 from a response hook
    return session


@pytest.mark.parametrize("make_session", [_session_with_hook, _session_with_digest_auth], ids=["hook", "digest-auth"])
def test_a_session_with_response_hooks_is_refused(make_session):
    with closing(make_session()) as session, pytest.raises(ValueError) as excinfo:
        HttpTransport(cfg(), session=session)
    assert str(excinfo.value) == "HttpTransport runs no response hooks; the session or its auth registers some"

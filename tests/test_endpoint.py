from __future__ import annotations

import gzip
import inspect
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
import requests
import urllib3
from urllib3.exceptions import MaxRetryError, NewConnectionError, ProtocolError

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


@dataclass
class FakeResponse:
    """A scripted reply: its status, and a body that is `text` or else `payload` as JSON."""

    status_code: int
    payload: object = None
    text: str = ""


class ScriptedPool:
    """The connection pool a ScriptedAdapter hands out: answers each urlopen
    with the adapter's next scripted outcome, a FakeResponse as a urllib3
    HTTPResponse or a urllib3 exception to raise, and records the call."""

    def __init__(self, adapter: ScriptedAdapter, origin: str):
        self.adapter, self.origin = adapter, origin

    def urlopen(self, method, url, body, headers, **kwargs):
        self.adapter.calls.append({"url": self.origin + url, "json": json.loads(body), "headers": headers})
        outcome = self.adapter.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return urllib3.HTTPResponse((outcome.text or json.dumps(outcome.payload)).encode(),
                                    status=outcome.status_code)


class ScriptedAdapter(requests.adapters.HTTPAdapter):
    """An HTTPAdapter whose pool for every request is a ScriptedPool of
    `outcomes`; counts its pool lookups."""

    def __init__(self, outcomes):
        super().__init__()
        self.outcomes = list(outcomes)
        self.calls = []
        self.lookups = 0
        self.closed = False

    def get_connection_with_tls_context(self, request, verify, proxies=None, cert=None):
        self.lookups += 1
        host_params, _ = self.build_connection_pool_key_attributes(request, verify, cert)
        return ScriptedPool(self, urllib3.util.Url(**host_params).url)

    def close(self):
        self.closed = True
        super().close()


def scripted(outcomes, session: requests.Session | None = None) -> tuple[requests.Session, ScriptedAdapter]:
    """A real requests.Session whose http:// requests go to a ScriptedAdapter of `outcomes`."""
    session = session or requests.Session()
    adapter = ScriptedAdapter(outcomes)
    session.mount("http://", adapter)
    return session, adapter


def refused() -> MaxRetryError:
    """What the pool raises when the endpoint refuses the connection."""
    return MaxRetryError(None, "/v1/chat/completions", NewConnectionError(None, "Connection refused"))


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


class TestHttpTransport:
    def test_wire_format_and_auth(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY_ENV", "sk-secret")
        session, adapter = scripted([ok_response("你好")])
        transport = HttpTransport(cfg(api_key_env="TEST_KEY_ENV"), session=session, sleep=lambda s: None)
        completion = transport.complete(chat([{"role": "user", "content": "问"}]))
        assert completion.text == "你好"
        call = adapter.calls[0]
        assert call["url"] == "http://api.example/v1/chat/completions"
        assert call["json"] == {"model": "m1", "messages": [{"role": "user", "content": "问"}], "temperature": 0.0}
        assert call["headers"]["Authorization"] == "Bearer sk-secret"

    def test_retries_on_transport_error_then_succeeds(self):
        session, adapter = scripted([refused(), ok_response()])
        sleeps = []
        transport = HttpTransport(cfg(backoff=(0.5, 1.0)), session=session, sleep=sleeps.append)
        assert transport.complete(chat()).text == "回答"
        assert sleeps == [0.5]

    def test_retries_on_429_and_5xx(self):
        session, adapter = scripted([FakeResponse(429, {}), FakeResponse(503, {}), ok_response()])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        assert transport.complete(chat()).text == "回答"
        assert len(adapter.calls) == 3

    def test_no_retry_on_400(self):
        session, adapter = scripted([FakeResponse(400, {}, text="bad request"), ok_response()])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="HTTP 400"):
            transport.complete(chat())
        assert len(adapter.calls) == 1

    def test_gives_up_after_max_retries(self):
        session, adapter = scripted([refused()] * 3)
        transport = HttpTransport(cfg(max_retries=2), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="gave up"):
            transport.complete(chat())
        assert len(adapter.calls) == 3

    def test_a_protocol_error_is_retried_until_the_transport_gives_up(self):
        """A urllib3 error other than a refused connection, here a dropped
        connection, is a transport failure too: it ends as an EndpointError."""
        session, adapter = scripted([ProtocolError("Connection aborted.")] * 2)
        transport = HttpTransport(cfg(max_retries=1), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError) as excinfo:
            transport.complete(chat())
        assert str(excinfo.value) == "gave up after 1 retries (transport: Connection aborted.)"
        assert len(adapter.calls) == 2

    def test_backoff_schedule_clamps_to_last(self):
        session, adapter = scripted([FakeResponse(500, {})] * 4 + [ok_response()])
        sleeps = []
        transport = HttpTransport(cfg(max_retries=4, backoff=(1.0, 2.0)), session=session, sleep=sleeps.append)
        transport.complete(chat())
        assert sleeps == [1.0, 2.0, 2.0, 2.0]

    def test_malformed_payload(self):
        session, adapter = scripted([FakeResponse(200, {"weird": True})])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="malformed"):
            transport.complete(chat())

    @pytest.mark.parametrize("content, message", [
        (5, "completion content is not a string"),
        # JSON can escape a lone surrogate; the archive could not store it
        ("回答\ud800", "completion content holds a lone surrogate '\\ud800' at position 2"),
    ], ids=["not-a-string", "lone-surrogate"])
    def test_content_that_is_no_text(self, content, message):
        session, adapter = scripted([ok_response(content), ok_response()])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError) as excinfo:
            transport.complete(chat())
        assert str(excinfo.value) == message
        assert len(adapter.calls) == 1  # not retried

    def test_empty_backoff_retries_without_waiting(self):
        session, adapter = scripted([FakeResponse(503, {}), FakeResponse(429, {}), ok_response()])
        sleeps = []
        transport = HttpTransport(cfg(backoff=()), session=session, sleep=sleeps.append)
        assert transport.complete(chat()).text == "回答"
        assert sleeps == [0.0, 0.0]

    def test_close_leaves_a_callers_session_open(self):
        session, adapter = scripted([])
        HttpTransport(cfg(), session=session).close()
        assert not adapter.closed

    def test_request_is_prepared_once_per_transport(self):
        """However many requests and retries it sends, a transport prepares its request,
        merges the session's and the environment's settings and looks its pool up once."""

        class CountingSession(requests.Session):
            prepared = merged = 0

            def prepare_request(self, request):
                self.prepared += 1
                return super().prepare_request(request)

            def merge_environment_settings(self, *args):
                self.merged += 1
                return super().merge_environment_settings(*args)

        outcomes = [FakeResponse(503, {}), ok_response("一"), ConnectionResetError("x"), ok_response("二"),
                    ok_response("三")]
        session, adapter = scripted(outcomes, CountingSession())
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        texts = [transport.complete(chat([{"role": "user", "content": q}])).text for q in "甲乙丙"]
        assert texts == ["一", "二", "三"]
        assert [call["json"]["messages"][0]["content"] for call in adapter.calls] == list("甲甲乙乙丙")
        assert (session.prepared, session.merged, adapter.lookups, len(adapter.calls)) == (1, 1, 1, 5)


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


COMPLETION = json.dumps({"choices": [{"message": {"content": "服务端回答"}}]}).encode()


@contextmanager
def loopback(seen: list, status: int = 200, headers: dict | None = None, payload: bytes = COMPLETION):
    """A local chat endpoint, or HTTP proxy, that answers every POST with
    `status`, `headers` and `payload`, by default a completion, and appends
    its request line, headers and body to `seen`; yields its base URL."""

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

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


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


@pytest.mark.parametrize("make_session, api_key", [(requests.Session, "sk-wire"), (_session_with_state, "")],
                         ids=["bearer", "session-header-cookie-auth"])
def test_sends_what_session_post_sends(monkeypatch, make_session, api_key):
    """The prepared request puts the same request line, headers and body on the
    wire as session.post(url, json=..., headers=...) does."""
    monkeypatch.setenv("TEST_KEY_ENV", api_key)
    request = chat([{"role": "user", "content": "问题 \"引号\" é"}], temperature=0.5)
    headers = {"Content-Type": "application/json", **({"Authorization": f"Bearer {api_key}"} if api_key else {})}
    seen = []
    with loopback(seen) as url, closing(make_session()) as session:
        endpoint = cfg(base_url=url + "/v1/", api_key_env="TEST_KEY_ENV")
        HttpTransport(endpoint, session=session).complete(request)
        session.post(url + "/v1/chat/completions", json=request, headers=headers, timeout=endpoint.timeout)
    assert len(seen) == 2
    assert seen[0] == seen[1]
    assert seen[0]["line"] == "POST /v1/chat/completions HTTP/1.1"
    assert json.loads(seen[0]["body"]) == request


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


def test_a_gzip_reply_is_decoded():
    seen = []
    with loopback(seen, headers={"Content-Encoding": "gzip"}, payload=gzip.compress(COMPLETION)) as url, \
            closing(HttpTransport(cfg(base_url=url))) as transport:
        assert transport.complete(chat()).text == "服务端回答"


def test_a_transport_keeps_sending_after_its_caller_closes_the_session():
    """Closing a session drops its pools without closing them; the transport holds its own."""
    seen = []
    with loopback(seen) as url:
        session = requests.Session()
        transport = HttpTransport(cfg(base_url=url), session=session)
        assert transport.complete(chat()).text == "服务端回答"
        session.close()
        assert transport.complete(chat()).text == "服务端回答"
    assert len(seen) == 2


def test_close_closes_the_pool_of_a_session_it_made():
    """Closing a session drops its pools without closing them, so the transport closes its own."""
    with loopback([]) as url:
        transport = HttpTransport(cfg(base_url=url, max_retries=0))
        assert transport.complete(chat()).text == "服务端回答"
        transport.close()
        with pytest.raises(EndpointError) as excinfo:
            transport.complete(chat())
    assert str(excinfo.value) == "gave up after 0 retries (transport: HTTPConnectionPool(host='127.0.0.1', " \
                                 f"port={url.rsplit(':', 1)[1]}): Pool is closed.)"


def test_threads_share_one_transports_pool():
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
    server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        endpoint = cfg(base_url=f"http://127.0.0.1:{server.server_port}", timeout=10.0)
        with closing(HttpTransport(endpoint)) as transport, ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(transport.complete, chat([{"role": "user", "content": q}])) for q in questions]
            texts = [future.result(timeout=30).text for future in futures]
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert texts == questions


class ForeignAdapter(requests.adapters.BaseAdapter):
    """An adapter that is no HTTPAdapter, and so has no pool to send through."""

    def close(self):
        pass


class SendingAdapter(requests.adapters.HTTPAdapter):
    """An HTTPAdapter with a send of its own, which the transport would bypass."""

    def send(self, request, **kwargs):
        return super().send(request, **kwargs)


@pytest.mark.parametrize("adapter", [ForeignAdapter(), SendingAdapter()], ids=["base-adapter", "own-send"])
def test_an_adapter_that_the_pool_would_bypass_is_refused(adapter):
    with closing(requests.Session()) as session:
        session.mount("http://", adapter)
        with pytest.raises(ValueError) as excinfo:
            HttpTransport(cfg(), session=session)
    assert str(excinfo.value) == (f"HttpTransport sends through a requests HTTPAdapter's pool, but the session "
                                  f"mounts a {type(adapter).__name__} for http://api.example/v1/chat/completions")


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

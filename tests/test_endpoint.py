from __future__ import annotations

import inspect
import io
import json
import threading
from contextlib import closing, contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

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


class ScriptedAdapter(requests.adapters.BaseAdapter):
    """Answers each request a session sends through it with the next scripted
    outcome, a FakeResponse or an exception to raise, and records the request."""

    def __init__(self, outcomes):
        super().__init__()
        self.outcomes = list(outcomes)
        self.calls = []
        self.closed = False

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        self.calls.append({"url": request.url, "json": json.loads(request.body), "headers": request.headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        response = requests.Response()
        response.status_code = outcome.status_code
        response.raw = io.BytesIO((outcome.text or json.dumps(outcome.payload)).encode())
        response.encoding = "utf-8"
        response.request, response.url = request, request.url
        return response

    def close(self):
        self.closed = True


def scripted(outcomes, session: requests.Session | None = None) -> tuple[requests.Session, ScriptedAdapter]:
    """A real requests.Session whose http:// requests go to a ScriptedAdapter of `outcomes`."""
    session = session or requests.Session()
    adapter = ScriptedAdapter(outcomes)
    session.mount("http://", adapter)
    return session, adapter


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
], ids=["no-scheme", "ftp", "no-host", "port-not-a-number", "ipv6-unclosed", "empty-label"])
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
        session, adapter = scripted([requests.ConnectionError("refused"), ok_response()])
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
        session, adapter = scripted([requests.ConnectionError("x")] * 3)
        transport = HttpTransport(cfg(max_retries=2), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="gave up"):
            transport.complete(chat())
        assert len(adapter.calls) == 3

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
        """However many requests and retries it sends, a transport prepares its request
        and merges the session's and the environment's settings once."""

        class CountingSession(requests.Session):
            prepared = merged = 0

            def prepare_request(self, request):
                self.prepared += 1
                return super().prepare_request(request)

            def merge_environment_settings(self, *args):
                self.merged += 1
                return super().merge_environment_settings(*args)

        outcomes = [FakeResponse(503, {}), ok_response("一"), requests.ConnectionError("x"), ok_response("二"),
                    ok_response("三")]
        session, adapter = scripted(outcomes, CountingSession())
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        texts = [transport.complete(chat([{"role": "user", "content": q}])).text for q in "甲乙丙"]
        assert texts == ["一", "二", "三"]
        assert [call["json"]["messages"][0]["content"] for call in adapter.calls] == list("甲甲乙乙丙")
        assert (session.prepared, session.merged, len(adapter.calls)) == (1, 1, 5)


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


@contextmanager
def loopback(seen: list):
    """A local chat endpoint, or HTTP proxy, that answers every POST with a
    completion and appends its request line, headers and body to `seen`;
    yields its base URL."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen.append({"line": self.requestline, "path": self.path, "headers": self.headers.items(), "body": body})
            payload = json.dumps({"choices": [{"message": {"content": "服务端回答"}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
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

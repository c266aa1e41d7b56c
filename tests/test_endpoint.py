from __future__ import annotations

import inspect
import json
from contextlib import closing

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


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    """Replays a scripted sequence of responses/exceptions and records calls."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def cfg(**kwargs) -> EndpointConfig:
    base = dict(base_url="http://api.example/v1", model_name="m1", max_retries=2, backoff=(0.0,))
    base.update(kwargs)
    return EndpointConfig(**base)


@pytest.mark.parametrize("kwargs", [{"max_retries": -1}, {"backoff": ([1],)}, {"backoff": ("1",)},
                                    {"backoff": (True,)}, {"concurrency_limit": 0}])
def test_config_refuses_a_schedule_that_cannot_run(kwargs):
    with pytest.raises(ValueError):
        cfg(**kwargs)


def chat(messages=(), model: str = "m1", temperature: float = 0.0) -> dict:
    """A chat request as `ChatClient.request` builds it."""
    return {"model": model, "messages": list(messages), "temperature": temperature}


def ok_response(text: str = "回答") -> FakeResponse:
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


class TestHttpTransport:
    def test_wire_format_and_auth(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY_ENV", "sk-secret")
        session = FakeSession([ok_response("你好")])
        transport = HttpTransport(cfg(api_key_env="TEST_KEY_ENV"), session=session, sleep=lambda s: None)
        completion = transport.complete(chat([{"role": "user", "content": "问"}]))
        assert completion.text == "你好"
        call = session.calls[0]
        assert call["url"] == "http://api.example/v1/chat/completions"
        assert call["json"] == {"model": "m1", "messages": [{"role": "user", "content": "问"}], "temperature": 0.0}
        assert call["headers"]["Authorization"] == "Bearer sk-secret"

    def test_retries_on_transport_error_then_succeeds(self):
        session = FakeSession([requests.ConnectionError("refused"), ok_response()])
        sleeps = []
        transport = HttpTransport(cfg(backoff=(0.5, 1.0)), session=session, sleep=sleeps.append)
        assert transport.complete(chat()).text == "回答"
        assert sleeps == [0.5]

    def test_retries_on_429_and_5xx(self):
        session = FakeSession([FakeResponse(429, {}), FakeResponse(503, {}), ok_response()])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        assert transport.complete(chat()).text == "回答"
        assert len(session.calls) == 3

    def test_no_retry_on_400(self):
        session = FakeSession([FakeResponse(400, {}, text="bad request"), ok_response()])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="HTTP 400"):
            transport.complete(chat())
        assert len(session.calls) == 1

    def test_gives_up_after_max_retries(self):
        session = FakeSession([requests.ConnectionError("x")] * 3)
        transport = HttpTransport(cfg(max_retries=2), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="gave up"):
            transport.complete(chat())
        assert len(session.calls) == 3

    def test_backoff_schedule_clamps_to_last(self):
        session = FakeSession([FakeResponse(500, {})] * 4 + [ok_response()])
        sleeps = []
        transport = HttpTransport(cfg(max_retries=4, backoff=(1.0, 2.0)), session=session, sleep=sleeps.append)
        transport.complete(chat())
        assert sleeps == [1.0, 2.0, 2.0, 2.0]

    def test_malformed_payload(self):
        session = FakeSession([FakeResponse(200, {"weird": True})])
        transport = HttpTransport(cfg(), session=session, sleep=lambda s: None)
        with pytest.raises(EndpointError, match="malformed"):
            transport.complete(chat())


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


def test_http_transport_against_local_server():
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    seen = {}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            seen["path"] = self.path
            seen["body"] = json.loads(body)
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
        with closing(HttpTransport(cfg(base_url=f"http://127.0.0.1:{server.server_port}"))) as transport:
            completion = transport.complete(chat([{"role": "user", "content": "问题"}]))
        assert completion.text == "服务端回答"
        assert seen["path"] == "/chat/completions"
        assert seen["body"]["messages"] == [{"role": "user", "content": "问题"}]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

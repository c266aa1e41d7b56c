"""Loopback chat-completions server for the sft-endpoint workload.

    python3 perfbench/mockserver.py --seed 1

Prints "PORT <n>" once it listens on 127.0.0.1, then serves until its stdin
closes or it receives SIGTERM. Replies come from `sftplan.Plan`; a seeded
share of first attempts gets 429/503 at once, every other reply is sent
the fixed injected latency `sftplan.LATENCY_MS` after its request line
arrived. Connections are kept alive and served by `sftplan.CONCURRENCY`
threads.

POST /reset clears the attempt counts and statistics; GET /stats returns
them as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import TCPServer

from sftplan import CONCURRENCY, LATENCY_MS, Plan


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30  # an idle keep-alive connection gives its thread back after this

    def log_message(self, format, *args):
        pass

    def parse_request(self):
        # The request line has just arrived. Replies are due a fixed time after
        # it, so the server's own work, slow or fast, stays out of the latency.
        self.received = time.monotonic()
        return super().parse_request()

    def _send(self, status: int, obj) -> None:
        body = json.dumps(obj, ensure_ascii=False).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        # Status line, headers and body in one send: split writes make the
        # client wait for a delayed ACK on every request.
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.server.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.server.reset()
            self._send(200, {"ok": True})
            return
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        content = json.loads(raw)["messages"][-1]["content"]
        status = self.server.attempt(content)
        if status is None:
            status, text = self.server.plan.reply(content)
            time.sleep(max(0.0, self.received + LATENCY_MS / 1000.0 - time.monotonic()))
        self.server.count(status)
        if status == 200:
            self._send(200, {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]})
        elif status == 400:
            self._send(400, {"error": {"message": text}})
        else:
            self._send(status, {"error": {"message": "try again"}})


class MockServer(HTTPServer):
    allow_reuse_address = True

    def __init__(self, plan: Plan):
        self.plan = plan
        self.pool = ThreadPoolExecutor(max_workers=CONCURRENCY)
        self._lock = threading.Lock()
        self.reset()
        super().__init__(("127.0.0.1", 0), Handler)

    def server_bind(self):
        TCPServer.server_bind(self)  # skip HTTPServer's reverse DNS lookup
        self.server_name, self.server_port = self.server_address[:2]

    def get_request(self):
        conn, addr = super().get_request()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn, addr

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def reset(self) -> None:
        with self._lock:
            self.attempts: dict[str, int] = {}
            self.stats = {"posts": 0, "ok": 0, "bad": 0, "transient": 0}

    def attempt(self, content: str) -> int | None:
        """The transient status to answer with, or None to answer normally."""
        with self._lock:
            n = self.attempts[content] = self.attempts.get(content, 0) + 1
        return self.plan.transient(content) if n == 1 else None

    def count(self, status: int) -> None:
        key = {200: "ok", 400: "bad"}.get(status, "transient")
        with self._lock:
            self.stats["posts"] += 1
            self.stats[key] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.stats)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    server = MockServer(Plan(args.seed))
    # Handler threads may sit in a keep-alive read; leave without joining them.
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))

    def exit_when_stdin_closes():
        sys.stdin.read()
        os._exit(0)

    threading.Thread(target=exit_when_stdin_closes, daemon=True).start()
    print(f"PORT {server.server_port}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()

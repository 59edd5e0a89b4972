"""Deterministic in-process chat-completions stub for tests.

Serves the OpenAI-compatible ``POST /v1/chat/completions`` shape. A test
supplies a responder callable mapping the request payload to a StubReply;
the server tracks total requests and the high-water mark of concurrently
active requests so tests can assert client-side concurrency bounds.
"""

from __future__ import annotations

import json
import ssl
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import urlsplit


@dataclass
class StubReply:
    content: str = ""
    completion_tokens: Optional[int] = None
    include_usage: bool = True
    status: int = 200
    error_body: object = None  # any JSON value; a str is sent as the raw body
    # Opt-in faults and probes of a 200 reply:
    cut_body: bool = False  # send half the body under its full Content-Length, then close
    chunked: bool = False  # send the body as one chunk; with cut_body, close inside it
    echo_headers: bool = False  # the content is the request's headers as a JSON object
    # With keep_alive: close the connection after the reply without announcing it,
    # as a server does with a connection left idle too long.
    drop_connection: bool = False


class StubChatServer:
    def __init__(
        self,
        responder: Callable[[dict], StubReply],
        delay_s: float = 0.0,
        certfile: Optional[str] = None,  # a PEM certificate chain and key: serve HTTPS
        keep_alive: bool = False,  # speak HTTP/1.1, which keeps connections open
    ):
        self.responder = responder
        self.delay_s = delay_s
        self.certfile = certfile
        self.keep_alive = keep_alive
        self._lock = threading.Lock()
        self.connections = 0
        self.total_requests = 0
        self.active = 0
        self.high_water = 0
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"{'https' if self.certfile else 'http'}://{host}:{port}"

    def reset_counters(self) -> None:
        with self._lock:
            self.total_requests = 0
            self.high_water = 0

    def start(self) -> "StubChatServer":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if stub.keep_alive else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def do_POST(self):
                # A request through a forward proxy names the whole URL.
                if urlsplit(self.path).path != "/v1/chat/completions":
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length).decode("utf-8"))

                with stub._lock:
                    stub.total_requests += 1
                    stub.active += 1
                    stub.high_water = max(stub.high_water, stub.active)
                try:
                    if stub.delay_s:
                        time.sleep(stub.delay_s)
                    reply = stub.responder(payload)
                finally:
                    with stub._lock:
                        stub.active -= 1

                if reply.status != 200:
                    body = reply.error_body or {"error": {"message": "stub error"}}
                    if not isinstance(body, str):
                        body = json.dumps(body)
                    data = body.encode("utf-8")
                    self.send_response(reply.status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                    return

                content = json.dumps(dict(self.headers)) if reply.echo_headers else reply.content
                body = {
                    "id": "stub-1",
                    "object": "chat.completion",
                    "model": payload.get("model", "stub"),
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": content},
                            "finish_reason": "stop",
                        }
                    ],
                }
                if reply.include_usage:
                    tokens = reply.completion_tokens
                    if tokens is None:
                        tokens = len(content.split())
                    body["usage"] = {
                        "prompt_tokens": 1,
                        "completion_tokens": tokens,
                        "total_tokens": 1 + tokens,
                    }
                data = json.dumps(body).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                sent = data[: len(data) // 2] if reply.cut_body else data
                self.close_connection |= reply.cut_body or reply.drop_connection
                if reply.chunked:
                    self.send_header("Transfer-Encoding", "chunked")
                    self.end_headers()
                    tail = b"" if reply.cut_body else b"\r\n0\r\n\r\n"
                    self.wfile.write(b"%x\r\n" % len(data) + sent + tail)
                    return
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                # Under HTTP/1.0 the connection closes after the reply.
                self.wfile.write(sent)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        if self.certfile:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(self.certfile)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
        # A short poll lets stop() return quickly: shutdown() waits for the next poll.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

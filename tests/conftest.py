"""Loopback HTTP servers for the gateway transport tests.

`loopback(**kw)` starts a `Loopback` server on 127.0.0.1 for one test; it can
also act as a proxy, answering absolute-form requests itself and tunnelling
CONNECT.  tests/data/loopback_cert.pem is a self-signed certificate for
localhost and 127.0.0.1 (key in loopback_key.pem), valid until 2126.
"""

import json
import os
import pathlib
import selectors
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

DATA = pathlib.Path(__file__).parent / "data"
CERT = DATA / "loopback_cert.pem"
KEY = DATA / "loopback_key.pem"


def choices_reply(payload):
    """200 with payload["n"] choices, each "positive"."""
    choice = {"message": {"content": "positive"}}
    return 200, {}, json.dumps({"choices": [choice] * int(payload.get("n", 1))}).encode()


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


class Loopback:
    """A threaded HTTP server on 127.0.0.1 that records what it receives.

    reply(payload) -> (status, headers, body bytes) answers each POST, or
    None to close the connection without answering.  `connections` counts
    accepted connections, `requests` holds (method, path, headers, body) in
    arrival order, and `closed` is released each time the server closes a
    connection.  protocol "HTTP/1.0" closes after every response;
    idle_timeout closes an HTTP/1.1 connection left idle that long.
    """

    def __init__(self, protocol="HTTP/1.1", tls=False, idle_timeout=None, reply=choices_reply):
        self.reply = reply
        self.requests = []
        self.connections = 0
        lock = threading.Lock()
        loop = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol
            timeout = idle_timeout

            def setup(self):
                super().setup()
                with lock:
                    loop.connections += 1

            def log_message(self, *args):
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                with lock:
                    loop.requests.append(("POST", self.path, dict(self.headers), body))
                answer = loop.reply(json.loads(body))
                if answer is None:
                    self.close_connection = True
                    return
                status, headers, out = answer
                self.send_response(status)
                for name, value in {"Content-Type": "application/json", **headers}.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

            def do_CONNECT(self):
                with lock:
                    loop.requests.append(("CONNECT", self.path, dict(self.headers), b""))
                host, port = self.path.rsplit(":", 1)
                self.close_connection = True
                with socket.create_connection((host, int(port))) as upstream, \
                        selectors.DefaultSelector() as sel:
                    self.send_response(200)
                    self.end_headers()
                    sel.register(self.connection, selectors.EVENT_READ, upstream)
                    sel.register(upstream, selectors.EVENT_READ, self.connection)
                    while True:
                        for key, _ in sel.select():
                            data = key.fileobj.recv(65536)
                            if not data:
                                return
                            key.data.sendall(data)

        self.server = _Server(("127.0.0.1", 0), Handler)
        self.server.closed = self.closed = threading.Semaphore(0)
        if tls:
            ctx = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            ctx.load_cert_chain(CERT, KEY)
            self.server.socket = ctx.wrap_socket(self.server.socket, server_side=True)
        port = self.server.server_address[1]
        self.url = f"{'https' if tls else 'http'}://127.0.0.1:{port}"
        # a short poll interval keeps stop() from waiting half a second
        self._thread = threading.Thread(target=self.server.serve_forever, args=(0.02,),
                                        daemon=True)
        self._thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)


@pytest.fixture
def loopback(monkeypatch):
    """loopback(**kw) starts a Loopback server that stops after the test.

    Proxy variables are cleared, so requests go straight to 127.0.0.1 unless
    the test sets them again.
    """
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    servers = []

    def start(**kw):
        servers.append(Loopback(**kw))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()

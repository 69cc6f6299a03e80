"""Loopback mock of an OpenAI-compatible chat-completions endpoint.

Run as a child process:

    python3 perfbench/mock_endpoint.py --labels a,b,c [--multilabel]

It binds 127.0.0.1 on a free port, prints the port on stdout, and serves until
its stdin closes, which happens when the benchmark stops it or dies.  Answers
are a pure function of the last message's content and the choice index (see
`answer`), so the warm cache built offline with the same function matches what
the endpoint would have sent.  About 1% of requests, by content hash, fail
their first attempt with HTTP 503 and succeed on the retry.  `GET /stats`
returns the request, choice and 503 counters, then zeroes them and forgets
which requests were seen, so every pass of the benchmark sees the same 503s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

UNPARSEABLE = "I cannot tell from this text alone."


def _hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def answer(content: str, choice: int, labels: tuple[str, ...], multilabel: bool) -> str:
    """Deterministic response text for one choice of one prompt.

    One in ten choices is unparseable text, one in ten a `labels: [...]` block,
    the rest a clean label line, so all three parse rungs and the failure path
    run.  Choices of one prompt agree on a base answer 70% of the time, which
    gives the samples a realistic spread of first-second distances.
    """
    item = _hash(content)
    h = _hash(f"{choice}\x00{content}")
    if h % 10 == 0:
        return UNPARSEABLE
    base = item if (h >> 8) % 10 < 7 else h >> 16
    if multilabel:
        mask = (base >> 4) % (2 ** len(labels) - 1) + 1
        names = [name for i, name in enumerate(labels) if mask >> i & 1]
    else:
        names = [labels[(base >> 4) % len(labels)]]
    if h % 10 == 1:
        return "Reasoning done.\nlabels: [" + ", ".join(names) + "]"
    return ", ".join(names)


def fails_first_attempt(content: str) -> bool:
    return _hash("503\x00" + content) % 100 == 0


class _State:
    def __init__(self):
        self.lock = threading.Lock()
        self.seen: set[str] = set()
        self.requests = 0
        self.choices = 0
        self.errors_503 = 0

    def take(self) -> dict:
        with self.lock:
            out = {"requests": self.requests, "choices": self.choices,
                   "errors_503": self.errors_503}
            self.seen.clear()
            self.requests = self.choices = self.errors_503 = 0
        return out


def _handler(state: _State, labels: tuple[str, ...], multilabel: bool):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def _send(self, code: int, obj: dict) -> None:
            body = json.dumps(obj).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, state.take())

        def do_POST(self):
            if self.path != "/v1/chat/completions":
                self._send(404, {"error": "not found"})
                return
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = payload["messages"][-1]["content"]
            n = int(payload.get("n", 1))
            with state.lock:
                state.requests += 1
                first = content not in state.seen
                state.seen.add(content)
                if first and fails_first_attempt(content):
                    state.errors_503 += 1
                    fail = True
                else:
                    state.choices += n
                    fail = False
            if fail:
                self._send(503, {"error": "overloaded"})
                return
            self._send(200, {"choices": [
                {"index": i, "message": {"role": "assistant",
                                         "content": answer(content, i, labels, multilabel)}}
                for i in range(n)
            ]})

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--labels", required=True, help="comma-separated label universe")
    parser.add_argument("--multilabel", action="store_true")
    args = parser.parse_args()
    labels = tuple(args.labels.split(","))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(_State(), labels, args.multilabel))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)

    def stop_at_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_at_eof, daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())

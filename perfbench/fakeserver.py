"""Localhost stand-in for a chat-completion endpoint.

The server answers every POST the way a model would answer the iclmanip
prompt it carries: it copies the first in-context demo's action list and
wraps it in one of six reply shapes. Which shape, and whether the request
is first refused with 429, are pure functions of the logical request index
(the number of requests answered 200 so far) and the workload seed, so a
sequential client sees the same schedule on every run.

Every request is held HOLD_S seconds as a stand-in for model time and
logged, so the benchmark can check what the client sent.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HOLD_S = 0.020
THROTTLE_PERIOD = 50  # one logical request in 50 is refused once with 429
CREDENTIAL = "perfbench-credential-0000"

SHAPES = ("canonical", "fenced", "prose", "echo", "numbered", "wrong_arity")
# Shapes a total parser rejects; every other shape carries all its actions.
REJECTED_SHAPES = frozenset({"wrong_arity"})

_FIRST_DEMO_OUTPUT = re.compile(r" > (\{[^{}]*\})")
_ACTION = re.compile(r"\[\d+(?:, \d+){6}\]")


def shape_of(index: int, seed: int) -> str:
    return SHAPES[(index + seed) % len(SHAPES)]


def throttled(index: int, seed: int) -> bool:
    return (index + seed) % THROTTLE_PERIOD == 0


def render_reply(shape: str, actions: list[str], test_input: str) -> str:
    """Reply text of one shape carrying `actions` (formatted 7-int brackets)."""
    joined = ", ".join(actions)
    if shape == "canonical":
        return "{" + joined + "}"
    if shape == "fenced":
        return "```\n{" + joined + "}\n```"
    if shape == "prose":
        return "Following the demonstrations, the actions: " + joined + "."
    if shape == "echo":
        return test_input + " > {" + joined + "}"
    if shape == "numbered":
        return "\n".join(f"Step {i}: {a}" for i, a in enumerate(actions, start=1))
    if shape == "wrong_arity":
        return "{" + ", ".join(a[: a.rindex(",")] + "]" for a in actions) + "}"
    raise ValueError(f"unknown reply shape {shape!r}")


@dataclass(frozen=True)
class LoggedRequest:
    index: int  # logical request index
    status: int
    auth_ok: bool
    body_ok: bool  # user message ends with the open slot "> "
    shape: str
    n_actions: int  # actions the reply carries


class FakeServer:
    """ThreadingHTTPServer on 127.0.0.1 with a scripted reply schedule."""

    def __init__(self, seed: int):
        self.seed = seed
        self.log: list[LoggedRequest] = []
        self.answered = 0  # logical index of the next request
        self._refused: set[int] = set()
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def _answer(self, raw: bytes, auth: str | None) -> tuple[int, dict, bytes]:
        time.sleep(HOLD_S)
        try:
            body = json.loads(raw)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            body = ""
        auth_ok = auth == f"Bearer {CREDENTIAL}"
        body_ok = isinstance(body, str) and body.endswith("> ")
        with self._lock:
            index = self.answered
            shape = shape_of(index, self.seed)
            refuse = throttled(index, self.seed) and index not in self._refused
            if refuse:
                self._refused.add(index)
            else:
                self.answered += 1
            demo = _FIRST_DEMO_OUTPUT.search(body) if body_ok else None
            actions = _ACTION.findall(demo.group(1)) if demo else []
            self.log.append(
                LoggedRequest(index, 429 if refuse else 200, auth_ok, body_ok, shape, len(actions))
            )
        if refuse:
            return 429, {"Retry-After": "0"}, b'{"error": "rate limited"}'
        test_input = body[body.rfind("{") : -3] if body_ok else ""
        text = render_reply(shape, actions, test_input)
        payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
        return 200, {}, json.dumps(payload).encode("utf-8")

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                status, headers, data = server._answer(raw, self.headers.get("Authorization"))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for key, value in headers.items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args):
                pass

        return Handler

"""Remote bridge against a local throwaway HTTP server, rate limiter with
an injected clock, the two offline oracles against brute force over
demos they read from the prompt body, and fresh interpreters checking
that offline use never imports the HTTP stack.
"""

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import iclmanip
from iclmanip.llm import (
    CompletionTimeout,
    OracleError,
    ProtocolError,
    Provider,
    TokenBucket,
    TransportError,
    complete_mock_compositional,
    complete_mock_nearest,
    complete_remote,
    instruction_template,
)
from iclmanip.prompts import IclExample, PromptBundle, assemble_prompt, parse_response

CREDENTIAL = "sk-test-0000-secret-credential"


class _Script:
    """Per-test server behavior: a list of (status, body) or (status, body,
    headers) plus a request log."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.requests = []
        self.delay_s = 0.0


def _make_server(script):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            script.requests.append(
                {
                    "path": self.path,
                    "auth": self.headers.get("Authorization"),
                    "json": json.loads(body) if body else None,
                }
            )
            if script.delay_s:
                time.sleep(script.delay_s)
            status, payload, *extra = script.steps.pop(0) if script.steps else (200, "{}")
            data = payload.encode("utf-8")
            self.send_response(status)
            for name, value in (extra[0] if extra else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            try:
                self.end_headers()
                self.wfile.write(data)
            except ConnectionError:
                # The client hung up first (a timeout test closes its socket
                # before the delayed reply); any other error still prints.
                pass

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _stop(server):
    server.shutdown()
    server.server_close()  # later connections are refused, not left queued


def _ok_body(text="{[1, 2, 3, 4, 5, 6, 1]}"):
    return json.dumps({"choices": [{"message": {"content": text}}]})


BUNDLE = PromptBundle(system="sys", body="body > ")


def test_remote_happy_path():
    script = _Script([(200, _ok_body())])
    server, endpoint = _make_server(script)
    try:
        result = complete_remote(
            BUNDLE, endpoint, CREDENTIAL, model="test-model", max_tokens=64, timeout_s=5
        )
    finally:
        _stop(server)
    assert result.text == "{[1, 2, 3, 4, 5, 6, 1]}"
    assert result.provider is Provider.REMOTE
    assert result.latency_ms >= 0

    (seen,) = script.requests
    assert seen["path"] == "/v1/chat/completions"
    assert seen["auth"] == f"Bearer {CREDENTIAL}"
    payload = seen["json"]
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.0
    assert payload["max_tokens"] == 64
    assert [m["role"] for m in payload["messages"]] == ["system", "user"]
    assert payload["messages"][1]["content"] == "body > "


def test_remote_retries_through_transient_failures():
    script = _Script([(500, "oops"), (503, "busy"), (200, _ok_body("ok"))])
    server, endpoint = _make_server(script)
    sleeps = []
    try:
        result = complete_remote(
            BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=sleeps.append
        )
    finally:
        _stop(server)
    assert result.text == "ok"
    assert len(script.requests) == 3
    # Exponential backoff before attempts 2 and 3.
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status", [408, 429])
def test_remote_retries_timeout_and_rate_limit_statuses(status):
    script = _Script([(status, "later"), (200, _ok_body("ok"))])
    server, endpoint = _make_server(script)
    try:
        result = complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=lambda s: None)
    finally:
        _stop(server)
    assert result.text == "ok"
    assert len(script.requests) == 2


@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("0", 0.0),
        ("2", 2.0),
        ("3600", 60.0),  # capped
        (None, 0.5),  # absent: exponential backoff
        ("soon", 0.5),
        ("-1", 0.5),
        ("1.5", 0.5),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # HTTP dates are not honored
    ],
)
def test_remote_sleeps_for_retry_after_seconds(retry_after, slept):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    script = _Script([(429, "later", headers), (200, _ok_body("ok"))])
    server, endpoint = _make_server(script)
    sleeps = []
    try:
        result = complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=sleeps.append)
    finally:
        _stop(server)
    assert result.text == "ok"
    assert sleeps == [slept]


def test_remote_retry_after_applies_to_the_next_attempt_only():
    script = _Script([(503, "busy", {"Retry-After": "2"}), (503, "busy"), (200, _ok_body("ok"))])
    server, endpoint = _make_server(script)
    sleeps = []
    try:
        complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=sleeps.append)
    finally:
        _stop(server)
    assert sleeps == [2.0, 1.0]


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_remote_client_errors_fail_after_one_request(status):
    script = _Script([(status, "no"), (200, _ok_body())])
    server, endpoint = _make_server(script)
    sleeps = []
    try:
        with pytest.raises(TransportError) as err:
            complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=sleeps.append)
    finally:
        _stop(server)
    assert err.value.status == status
    assert len(script.requests) == 1
    assert sleeps == []


def test_remote_gives_up_after_max_attempts():
    script = _Script([(500, "a"), (500, "b"), (500, "c"), (500, "d")])
    server, endpoint = _make_server(script)
    try:
        with pytest.raises(TransportError) as err:
            complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=lambda s: None)
    finally:
        _stop(server)
    assert err.value.status == 500
    assert len(script.requests) == 3  # default max_attempts


def test_remote_timeout_raises_completion_timeout():
    script = _Script([(200, _ok_body())] * 3)
    script.delay_s = 0.5
    server, endpoint = _make_server(script)
    try:
        with pytest.raises(CompletionTimeout):
            complete_remote(
                BUNDLE,
                endpoint,
                CREDENTIAL,
                timeout_s=0.05,
                max_attempts=2,
                sleep=lambda s: None,
            )
    finally:
        _stop(server)


def test_remote_malformed_response_fails_fast():
    # A 2xx with the wrong shape must raise immediately, not retry.
    script = _Script([(200, json.dumps({"unexpected": True})), (200, _ok_body())])
    server, endpoint = _make_server(script)
    try:
        with pytest.raises(ProtocolError):
            complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5)
    finally:
        _stop(server)
    assert len(script.requests) == 1


def test_remote_errors_never_leak_the_credential():
    script = _Script([(500, "x")] * 3)
    server, endpoint = _make_server(script)
    try:
        with pytest.raises(TransportError) as err:
            complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=lambda s: None)
    finally:
        _stop(server)
    assert CREDENTIAL not in str(err.value)
    assert CREDENTIAL not in repr(err.value)

    # Connection refused: the server is down now.
    with pytest.raises(TransportError) as err:
        complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=1, sleep=lambda s: None)
    assert CREDENTIAL not in str(err.value)


def test_token_bucket_spacing_with_fake_clock():
    now = [0.0]
    sleeps = []

    def clock():
        return now[0]

    def sleep(s):
        sleeps.append(s)
        now[0] += s

    bucket = TokenBucket(rate_per_second=2.0, clock=clock, sleep=sleep)
    bucket.acquire()  # full bucket, no wait
    bucket.acquire()  # empty, waits 1/2 s
    bucket.acquire()
    assert sleeps == [0.5, 0.5]

    # Idle time refills up to one token, no further.
    now[0] += 10.0
    bucket.acquire()
    assert sleeps == [0.5, 0.5]
    bucket.acquire()
    assert sleeps == [0.5, 0.5, 0.5]


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_second=0)


def test_instruction_template():
    assert instruction_template("push the red button") == "push the * button"
    assert instruction_template("stack the blue cube on the yellow cube") == (
        "stack the * cube on the * cube"
    )
    assert instruction_template("slide the block onto the target") == (
        "slide the block onto the target"
    )


def _input(bins, instruction):
    """An example input in the prompt grammar: one observation per 6 bins."""
    obs = [
        f"object {k // 6}: [{', '.join(str(b) for b in bins[k:k + 6])}]"
        for k in range(0, len(bins), 6)
    ]
    return "{" + ", ".join([*obs, instruction]) + "}"


def _bundle(pool, test_bins, test_instruction):
    """A prompt whose demos are (bins, instruction, output) triples."""
    examples = [IclExample(_input(bins, instr), out) for bins, instr, out in pool]
    return assemble_prompt(examples, _input(test_bins, test_instruction), "sys")


def _random_pool(rng, n, width, instructions):
    pool = []
    for i in range(n):
        bins = tuple(int(b) for b in rng.integers(0, 100, size=width))
        instr = instructions[int(rng.integers(0, len(instructions)))]
        pool.append((bins, instr, f"{{[{i % 100}, 0, 0, 0, 0, 0, 1]}}"))
    return pool


def test_mock_nearest_matches_brute_force():
    rng = np.random.default_rng(41)
    instructions = [
        "push the red button",
        "push the blue button",
        "slide the block onto the target",
    ]
    for _ in range(200):
        width = 6 * int(rng.integers(1, 3))
        pool = _random_pool(rng, int(rng.integers(1, 12)), width, instructions)
        test_bins = tuple(int(b) for b in rng.integers(0, 100, size=width))
        test_instr = instructions[int(rng.integers(0, len(instructions)))]
        bundle = _bundle(pool, test_bins, test_instr)

        exact = [i for i, (_, instr, _) in enumerate(pool) if instr == test_instr]
        if not exact:
            t = instruction_template(test_instr)
            exact = [i for i, (_, instr, _) in enumerate(pool) if instruction_template(instr) == t]
        if not exact:
            with pytest.raises(OracleError):
                complete_mock_nearest(bundle)
            continue
        best = min(
            exact,
            key=lambda i: (sum((a - b) ** 2 for a, b in zip(pool[i][0], test_bins)), i),
        )
        result = complete_mock_nearest(bundle)
        assert result.text == pool[best][2]
        assert result.latency_ms == 0


def test_mock_nearest_answers_from_the_prompt_text():
    pool = [
        ((10,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
        ((40,) * 6, "push the red button", "{[2, 0, 0, 0, 0, 0, 1]}"),
    ]
    bundle = _bundle(pool, (20,) * 6, "push the red button")
    assert complete_mock_nearest(bundle).text == "{[1, 0, 0, 0, 0, 0, 1]}"
    edited = PromptBundle(
        system=bundle.system,
        body=bundle.body.replace("{[1, 0, 0, 0, 0, 0, 1]}", "{[5, 6, 7, 0, 0, 0, 0]}"),
    )
    assert complete_mock_nearest(edited).text == "{[5, 6, 7, 0, 0, 0, 0]}"
    # Moving the first demo's printed observation away hands the reply to the second.
    moved = PromptBundle(
        system=bundle.system, body=bundle.body.replace("[10, 10, 10, 10, 10, 10]", "[60, 60, 60, 60, 60, 60]")
    )
    assert complete_mock_nearest(moved).text == "{[2, 0, 0, 0, 0, 0, 1]}"


def test_mock_nearest_tie_breaks_to_lowest_index():
    pool = [
        ((10,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
        ((10,) * 6, "push the red button", "{[2, 0, 0, 0, 0, 0, 1]}"),
    ]
    result = complete_mock_nearest(_bundle(pool, (0,) * 6, "push the red button"))
    assert result.text == pool[0][2]


def test_mock_nearest_prefers_exact_instruction_over_closer_template():
    pool = [
        # Wrong color but identical observation vector.
        ((5,) * 6, "push the blue button", "{[9, 0, 0, 0, 0, 0, 1]}"),
        # Right color, far away.
        ((90,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
    ]
    result = complete_mock_nearest(_bundle(pool, (5,) * 6, "push the red button"))
    assert result.text == pool[1][2]


def test_mock_nearest_rejects_mismatched_vector_lengths():
    pool = [((1,) * 12, "push the red button", "{[0, 0, 0, 0, 0, 0, 1]}")]
    with pytest.raises(ValueError):
        complete_mock_nearest(_bundle(pool, (1,) * 6, "push the red button"))


def test_mock_compositional_concatenates_segments():
    pool = [
        ((1,) * 6, "push the red button", "{[1, 1, 1, 0, 0, 0, 1], [2, 2, 2, 0, 0, 0, 1]}"),
        ((1,) * 6, "push the green button", "{[3, 3, 3, 0, 0, 0, 1]}"),
    ]
    result = complete_mock_compositional(
        _bundle(pool, (1,) * 6, "push the red button, then push the green button")
    )
    assert result.provider is Provider.MOCK_COMPOSITIONAL
    actions = parse_response(result.text)
    assert [a.pose.tx for a in actions] == [1, 2, 3]
    # Output is well-formed grammar, so strict parsing also works.
    assert parse_response(result.text, strict=True) == actions


def test_mock_compositional_single_segment_equals_nearest():
    pool = [((1,) * 6, "push the red button", "{[4, 0, 0, 0, 0, 0, 1]}")]
    bundle = _bundle(pool, (1,) * 6, "push the red button")
    a = complete_mock_compositional(bundle)
    b = complete_mock_nearest(bundle)
    assert parse_response(a.text) == parse_response(b.text)


def test_mock_compositional_reports_bad_segment():
    pool = [((1,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}")]
    with pytest.raises(OracleError) as err:
        complete_mock_compositional(
            _bundle(pool, (1,) * 6, "push the red button, then slide the block onto the target")
        )
    assert "slide the block onto the target" in str(err.value)


def test_mock_empty_pool():
    with pytest.raises(OracleError):
        complete_mock_nearest(_bundle([], (1,) * 6, "push the red button"))


# -- import hygiene -----------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(iclmanip.__file__)))
_HTTP_MODULES = 'print("http:", sorted(m for m in ("requests", "urllib3") if m in sys.modules))'


def _loaded_http_modules(code, cwd):
    """Run `code` in a fresh interpreter; return what each `_HTTP_MODULES` line printed."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [line[len("http: ") :] for line in done.stdout.splitlines() if line.startswith("http: ")]


def test_offline_use_does_not_load_the_http_stack(tmp_path):
    code = f"""import sys
import iclmanip
{_HTTP_MODULES}
from iclmanip import Provider, RunConfig, TaskId, run_eval
run_eval(RunConfig(task=TaskId.PUSH_BUTTON, n_demos=2, n_eval=2, provider=Provider.MOCK_NEAREST))
{_HTTP_MODULES}
from iclmanip.cli import main
main(["build-prompt", "--task", "push_button", "--n-demos", "2", "--out", "bundle.json"])
{_HTTP_MODULES}"""
    assert _loaded_http_modules(code, tmp_path) == ["[]"] * 3


def test_requests_attribute_imports_on_first_access(tmp_path):
    code = f"""import sys
import iclmanip.llm as llm
assert "requests" not in sys.modules
assert llm.requests.post is sys.modules["requests"].post
{_HTTP_MODULES}"""
    assert _loaded_http_modules(code, tmp_path) == ["['requests', 'urllib3']"]

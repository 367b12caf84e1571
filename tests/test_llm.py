"""Remote bridge against a local throwaway HTTP server, rate limiter with
an injected clock, the two offline oracles against brute force over
demos they read from the prompt body, and fresh interpreters checking
that offline use never imports the HTTP stack.
"""

import dataclasses
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import URLError

import numpy as np
import pytest

import iclmanip
from iclmanip import harness, llm
from iclmanip.harness import LoopMode, RunConfig, eval_prompts, run_eval
from iclmanip.llm import (
    CompletionTimeout,
    OracleError,
    ProtocolError,
    Provider,
    TokenBucket,
    TransportError,
    complete_mock_compositional,
    complete_remote,
    instruction_template,
)
from iclmanip.prompts import (
    IclExample,
    PromptBundle,
    assemble_prompt,
    format_action,
    parse_response,
    read_prompts,
)
from iclmanip.sim import CHAIN_SEPARATOR, PlacementError, TaskId

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

        do_GET = do_POST  # logs a followed redirect, which arrives as GET

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


def test_remote_null_content_fails_after_one_request():
    script = _Script([(200, json.dumps({"choices": [{"message": {"content": None}}]})), (200, _ok_body())])
    server, endpoint = _make_server(script)
    try:
        with pytest.raises(ProtocolError, match="completion content is NoneType, expected str"):
            complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5)
    finally:
        _stop(server)
    assert len(script.requests) == 1


def test_run_eval_remote_posts_each_prompt_and_takes_a_token_per_attempt(monkeypatch):
    # No provider is patched: run_eval builds complete_remote with its own
    # TokenBucket. A 429 with Retry-After: 0 makes the first episode retry.
    monkeypatch.setenv("TEST_RUN_CREDENTIAL", CREDENTIAL)
    acquired = []
    real_acquire = TokenBucket.acquire
    monkeypatch.setattr(TokenBucket, "acquire", lambda self: acquired.append(self.rate) or real_acquire(self))
    reply = "{[50, 50, 10, 0, 0, 0, 1], [50, 50, 10, 0, 0, 0, 0]}"
    script = _Script([(429, "slow down", {"Retry-After": "0"})] + [(200, _ok_body(reply))] * 3)
    server, endpoint = _make_server(script)
    config = RunConfig(
        task=TaskId.PUSH_BUTTON, n_demos=2, n_eval=3, provider=Provider.REMOTE, endpoint=endpoint,
        credential_env="TEST_RUN_CREDENTIAL", requests_per_second=1000.0,
    )
    try:
        report = run_eval(config)
    finally:
        _stop(server)
    prompts = [bundle.body for _, bundle in eval_prompts(config)]
    assert [r["json"]["messages"][1]["content"] for r in script.requests] == [prompts[0], *prompts]
    assert {r["auth"] for r in script.requests} == {f"Bearer {CREDENTIAL}"}
    assert acquired == [1000.0] * 4
    assert [(r.parse_error, r.n_actions) for r in report.records] == [(False, 2)] * 3


def _remote_config(endpoint, **changes):
    return RunConfig(
        task=TaskId.PUSH_BUTTON, n_demos=2, provider=Provider.REMOTE, endpoint=endpoint,
        credential_env="TEST_RUN_CREDENTIAL", **changes,
    )


def test_consecutive_runs_on_one_endpoint_share_one_rate_limiter(monkeypatch):
    # The spacing holds across run boundaries: the second run's first request
    # waits 1 / rate after the first run's last one, as its other requests do.
    monkeypatch.setenv("TEST_RUN_CREDENTIAL", CREDENTIAL)
    now, sleeps, buckets = [0.0], [], []

    def sleep(s):
        sleeps.append(s)
        now[0] += s

    monkeypatch.setattr(harness, "TokenBucket", lambda rate: TokenBucket(rate, clock=lambda: now[0], sleep=sleep))
    real_acquire = TokenBucket.acquire
    monkeypatch.setattr(TokenBucket, "acquire", lambda self: buckets.append(self) or real_acquire(self))
    script = _Script([(200, _ok_body("{[50, 50, 10, 0, 0, 0, 1]}"))] * 4)
    server, endpoint = _make_server(script)
    try:
        for seed in (0, 1):
            run_eval(_remote_config(endpoint, n_eval=2, seed=seed, requests_per_second=5.0))
    finally:
        _stop(server)
    assert len(script.requests) == len(buckets) == 4
    assert len({id(bucket) for bucket in buckets}) == 1
    assert sleeps == pytest.approx([0.2] * 3)


def test_run_eval_sends_no_request_before_every_prompt_exists(monkeypatch):
    # A world that cannot be placed at the third eval seed ends the run in
    # the prompt stage, before the provider is called at all.
    monkeypatch.setenv("TEST_RUN_CREDENTIAL", CREDENTIAL)
    script = _Script([(200, _ok_body())] * 3)
    server, endpoint = _make_server(script)
    config = _remote_config(endpoint, n_eval=3, requests_per_second=1000.0)
    third = harness.eval_seeds(config)[2]
    real_reset = harness.reset

    def reset(task, seed, bounds):
        if seed == third:
            raise PlacementError(f"no legal placement for {task.value} seed {seed}")
        return real_reset(task, seed, bounds)

    monkeypatch.setattr(harness, "reset", reset)
    try:
        with pytest.raises(PlacementError):
            run_eval(config)
    finally:
        _stop(server)
    assert script.requests == []


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


def _count_posts(monkeypatch) -> list:
    """The URL of every llm.http_post call (one per attempt), each passed on
    to the real one."""
    posts = []
    real_post = llm.http_post

    def counting_post(url, *args):
        posts.append(url)
        return real_post(url, *args)

    monkeypatch.setattr(llm, "http_post", counting_post)
    return posts


@pytest.mark.parametrize(
    "endpoint", ["", "localhost:1", "ftp://127.0.0.1:9", "http://127.0.0.1:x", "http://u:p@127.0.0.1:9", "http://h/a b"]
)
def test_remote_endpoint_that_is_no_url_fails_after_one_attempt(monkeypatch, endpoint):
    # Checked once before the first attempt, so no request is made at all.
    posts, sleeps = _count_posts(monkeypatch), []
    with pytest.raises(TransportError) as err:
        complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=1, sleep=sleeps.append)
    assert type(err.value) is TransportError and err.value.status is None
    assert posts == []
    assert sleeps == []
    assert CREDENTIAL not in str(err.value)


@pytest.mark.parametrize(
    "credential, served", [("sk-secret\n", 0), (" sk-secret", 0), ("sk-secret ", 0), ("sk-\u20acx", 0)]
)
def test_remote_bad_credential_fails_after_one_attempt_without_echoing_it(monkeypatch, credential, served):
    # A credential that is not visible ASCII is refused before any request:
    # a line break or a non-latin-1 character could not be sent at all, and
    # a space would be sent as part of the Bearer value.
    script = _Script([(401, "bad credential")])
    server, endpoint = _make_server(script)
    posts, sleeps = _count_posts(monkeypatch), []
    try:
        with pytest.raises(TransportError) as err:
            complete_remote(BUNDLE, endpoint, credential, timeout_s=5, sleep=sleeps.append)
    finally:
        _stop(server)
    assert posts == []
    assert len(script.requests) == served
    assert sleeps == []
    assert "not a valid header value" in str(err.value)
    assert credential.strip() not in str(err.value) and credential.strip() not in repr(err.value)


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_remote_redirect_fails_after_one_request_without_following(status):
    elsewhere = _Script([(200, _ok_body())])
    other, other_endpoint = _make_server(elsewhere)
    script = _Script([(status, "moved", {"Location": other_endpoint + "/v1/chat/completions"})])
    server, endpoint = _make_server(script)
    sleeps = []
    try:
        with pytest.raises(TransportError) as err:
            complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5, sleep=sleeps.append)
    finally:
        _stop(server)
        _stop(other)
    assert str(err.value) == f"HTTP {status} from {endpoint}/v1/chat/completions"
    assert err.value.status == status
    assert len(script.requests) == 1 and elsewhere.requests == []
    assert sleeps == []


@pytest.mark.parametrize(
    "error, kind",
    [
        (URLError(TimeoutError("timed out")), CompletionTimeout),  # connect timeout
        (TimeoutError("timed out"), CompletionTimeout),  # read timeout
        (URLError(ConnectionRefusedError(111, "Connection refused")), TransportError),
        (ConnectionResetError(104, "Connection reset by peer"), TransportError),
        (http.client.IncompleteRead(b"{"), TransportError),
        (http.client.BadStatusLine("garbage"), TransportError),
    ],
)
def test_remote_retries_failures_to_get_an_answer(monkeypatch, error, kind):
    attempts, sleeps = [], []

    def failing_post(url, body, headers, timeout_s):
        attempts.append(url)
        raise error

    monkeypatch.setattr(llm, "http_post", failing_post)
    with pytest.raises(TransportError) as err:
        complete_remote(BUNDLE, "http://127.0.0.1:9", CREDENTIAL, timeout_s=1, sleep=sleeps.append)
    assert type(err.value) is kind and err.value.status is None
    assert len(attempts) == 3
    assert sleeps == [0.5, 1.0]


def test_remote_sends_the_bearer_credential_whatever_netrc_says(monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password hunter2\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    script = _Script([(200, _ok_body())])
    server, endpoint = _make_server(script)
    try:
        complete_remote(BUNDLE, endpoint, CREDENTIAL, timeout_s=5)
    finally:
        _stop(server)
    assert [seen["auth"] for seen in script.requests] == [f"Bearer {CREDENTIAL}"]


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
    for rate in (0, 1e-10, float("nan")):  # below MIN_RATE_PER_SECOND, or no number
        with pytest.raises(ValueError):
            TokenBucket(rate_per_second=rate)


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
                llm.complete_mock_nearest_batch([bundle])
            continue
        best = min(
            exact,
            key=lambda i: (sum((a - b) ** 2 for a, b in zip(pool[i][0], test_bins)), i),
        )
        result = llm.complete_mock_nearest_batch([bundle])[0]
        assert result.text == pool[best][2]
        assert result.latency_ms == 0


def test_mock_nearest_answers_from_the_prompt_text():
    pool = [
        ((10,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
        ((40,) * 6, "push the red button", "{[2, 0, 0, 0, 0, 0, 1]}"),
    ]
    bundle = _bundle(pool, (20,) * 6, "push the red button")
    assert llm.complete_mock_nearest_batch([bundle])[0].text == "{[1, 0, 0, 0, 0, 0, 1]}"
    edited = PromptBundle(
        system=bundle.system,
        body=bundle.body.replace("{[1, 0, 0, 0, 0, 0, 1]}", "{[5, 6, 7, 0, 0, 0, 0]}"),
    )
    assert llm.complete_mock_nearest_batch([edited])[0].text == "{[5, 6, 7, 0, 0, 0, 0]}"
    # Moving the first demo's printed observation away hands the reply to the second.
    moved = PromptBundle(
        system=bundle.system, body=bundle.body.replace("[10, 10, 10, 10, 10, 10]", "[60, 60, 60, 60, 60, 60]")
    )
    assert llm.complete_mock_nearest_batch([moved])[0].text == "{[2, 0, 0, 0, 0, 0, 1]}"


def test_mock_nearest_tie_breaks_to_lowest_index():
    pool = [
        ((10,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
        ((10,) * 6, "push the red button", "{[2, 0, 0, 0, 0, 0, 1]}"),
    ]
    result = llm.complete_mock_nearest_batch([_bundle(pool, (0,) * 6, "push the red button")])[0]
    assert result.text == pool[0][2]


def test_mock_nearest_prefers_exact_instruction_over_closer_template():
    pool = [
        # Wrong color but identical observation vector.
        ((5,) * 6, "push the blue button", "{[9, 0, 0, 0, 0, 0, 1]}"),
        # Right color, far away.
        ((90,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
    ]
    result = llm.complete_mock_nearest_batch([_bundle(pool, (5,) * 6, "push the red button")])[0]
    assert result.text == pool[1][2]


def test_mock_nearest_rejects_mismatched_vector_lengths():
    pool = [((1,) * 12, "push the red button", "{[0, 0, 0, 0, 0, 0, 1]}")]
    with pytest.raises(ValueError):
        llm.complete_mock_nearest_batch([_bundle(pool, (1,) * 6, "push the red button")])


def test_mock_nearest_checks_lengths_on_every_prompt_of_a_prefix():
    # One demo prefix, test inputs of two widths: the first is answered,
    # the second rejected on every call, naming the first mismatched demo.
    pool = [
        ((1,) * 6, "push the red button", "{[3, 0, 0, 0, 0, 0, 1]}"),
        ((2,) * 6, "push the red button", "{[4, 0, 0, 0, 0, 0, 1]}"),
    ]
    assert llm.complete_mock_nearest_batch([_bundle(pool, (1,) * 6, "push the red button")])[0].text == pool[0][2]
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^demo 0 has obs vector length 6, test has 12$"):
            llm.complete_mock_nearest_batch([_bundle(pool, (1,) * 12, "push the red button")])
    assert llm.complete_mock_nearest_batch([_bundle(pool, (2,) * 6, "push the red button")])[0].text == pool[1][2]
    # So does a batch holding both widths behind one prefix and instruction.
    with pytest.raises(ValueError, match=r"^demo 0 has obs vector length 6, test has 12$"):
        llm.complete_mock_nearest_batch([_bundle(pool, (1,) * w, "push the red button") for w in (6, 12)])


def _compositional_via_actions(bundle):
    """The compositional reply built the long way: brute-force retrieval per
    segment, each answer parsed into DiscreteActions and formatted back."""
    demos, test_bins, instruction = next(read_prompts([bundle.body]))
    actions = []
    for segment in instruction.split(CHAIN_SEPARATOR):
        template = instruction_template(segment)
        pool = [i for i, d in enumerate(demos) if d.instruction == segment] or [
            i for i, d in enumerate(demos) if instruction_template(d.instruction) == template
        ]
        best = min(pool, key=lambda i: (sum((a - b) ** 2 for a, b in zip(demos[i].bins, test_bins)), i))
        actions += parse_response(demos[best].output)
    return "{" + ", ".join(format_action(a) for a in actions) + "}"


@pytest.mark.parametrize("loop", list(LoopMode), ids=lambda m: m.value)
@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_mock_compositional_matches_the_action_path(task, loop):
    cfg = RunConfig(task=task, n_demos=5, n_eval=8, loop_mode=loop, seed=2)
    for noise in (None, 0.5):
        for *_, bundle in eval_prompts(dataclasses.replace(cfg, noise=noise)):
            assert complete_mock_compositional(bundle).text == _compositional_via_actions(bundle)


def test_mock_compositional_rows_never_cross_prompts():
    # Prompts A, B, A from two configs whose demos differ, in one batch: each
    # reply equals its lone call's and the one built from its own prompt's
    # demos alone, so no row of another prompt's demo outputs reaches it.
    a, b = (
        list(eval_prompts(RunConfig(task=TaskId.PUSH_MULTIPLE_BUTTONS, n_demos=4, n_eval=3, seed=seed)))
        for seed in (0, 40)
    )
    assert next(read_prompts([a[0][1].body]))[0] != next(read_prompts([b[0][1].body]))[0]
    bundles = [bundle for _, bundle in a + b + a]
    for bundle, result in zip(bundles, llm.complete_mock_compositional_batch(bundles)):
        assert result.text == complete_mock_compositional(bundle).text == _compositional_via_actions(bundle)


_SINGLE_STEPS = (
    "push the red button", "push the blue button", "push the green button", "slide the block onto the target"
)


def _lone_then_batch(batch, bundles):
    """(texts, (type, message) of the first error) of a loop of one-bundle batch calls, then of one batch call."""
    texts, error = [], None
    try:
        for bundle in bundles:
            texts.append(batch([bundle])[0].text)
    except Exception as exc:
        error = (type(exc), str(exc))
    try:
        got = ([r.text for r in batch(bundles)], None)
    except Exception as exc:
        got = ([], (type(exc), str(exc)))
    return (texts if error is None else [], error), got


def test_a_batch_answers_as_a_loop_of_lone_calls():
    # Mixed prefixes (each query on the first pool is followed by the same
    # query on a twin prefix of equal length with mirrored bins; a pool of
    # mixed widths, one that will not read, an empty one), exact,
    # template-only and chained instructions, and mismatched widths: each
    # mock's batch gives the loop's texts, or raises its first error with the
    # same type and message. So does a batch of the bundles a lone call answers.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def bins(width):
        return st.lists(st.integers(0, 9), min_size=width, max_size=width).map(tuple)

    rows = ("{[1, 0, 0, 0, 0, 0, 1]}", "{[2, 3, 0, 0, 0, 0, 0], [4, 0, 0, 0, 0, 0, 1]}", "{[5, 0, 0, 0, 0, 0, 1]}")
    outputs = st.sampled_from([*rows, "{no rows}"])  # the compositional mock cannot parse the last one
    pool = st.sampled_from([6, 12]).flatmap(
        lambda w: st.lists(st.tuples(bins(w), st.sampled_from(_SINGLE_STEPS[:3]), outputs), min_size=1, max_size=4)
    )
    chained = st.lists(st.sampled_from(_SINGLE_STEPS), min_size=2, max_size=3).map(CHAIN_SEPARATOR.join)
    # Mostly answerable prompts, so that a batch often runs past its first few bundles.
    instructions = st.one_of(st.sampled_from(_SINGLE_STEPS[:2]), st.sampled_from(_SINGLE_STEPS), chained)

    @hypothesis.given(st.lists(pool, min_size=1, max_size=2), st.data())
    def check(pools, data):
        twin = [(tuple(9 - b for b in demo_bins), *rest) for demo_bins, *rest in pools[0]]
        mixed = [
            ((1,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
            ((1,) * 12, "push the red button", "{[2, 0, 0, 0, 0, 0, 1]}"),
        ]
        unreadable = [((1234567, 0, 0, 0, 0, 0), "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}")]
        pools = [pools[0]] * 8 + pools[1:] * 3 + [mixed, unreadable, []]  # the last three always fail
        bundles = []
        for _ in range(data.draw(st.integers(0, 8))):
            demos = data.draw(st.sampled_from(pools))
            width = data.draw(st.sampled_from([len(demos[0][0]) if demos else 6] * 4 + [6, 12]))
            test_bins, instruction = data.draw(bins(width)), data.draw(instructions)
            bundles.append(_bundle(demos, test_bins, instruction))
            if demos is pools[0]:  # the same query on the twin prefix, right after
                bundles.append(_bundle(twin, test_bins, instruction))
        for batch in (llm.complete_mock_nearest_batch, llm.complete_mock_compositional_batch):
            lone, got = _lone_then_batch(batch, bundles)
            assert got == lone
            answered = [b for b in bundles if _lone_then_batch(batch, [b])[0][1] is None]
            lone, got = _lone_then_batch(batch, answered)  # no error cuts this batch short
            assert got == lone

    check()


def test_a_batch_rereads_a_prefix_of_equal_length():
    # Adjacent prompts whose demo prefixes have one length but differ in a bin
    # are answered from their own demos.
    pool = [
        ((1,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
        ((3,) * 6, "push the red button", "{[3, 0, 0, 0, 0, 0, 1]}"),
    ]
    moved = [((5, 1, 1, 1, 1, 1), *pool[0][1:]), pool[1]]
    bundles = [_bundle(pool, (2,) * 6, "push the red button"), _bundle(moved, (2,) * 6, "push the red button")]
    assert len(bundles[0].body) == len(bundles[1].body)
    texts = [r.text for r in llm.complete_mock_nearest_batch(bundles)]
    assert texts == [pool[0][2], pool[1][2]] == [llm.complete_mock_nearest_batch([b])[0].text for b in bundles]


@pytest.mark.parametrize("provider", [Provider.MOCK_NEAREST, Provider.MOCK_COMPOSITIONAL], ids=lambda p: p.value)
def test_run_eval_completes_its_prompts_in_one_batch_call(monkeypatch, provider):
    name = "complete_" + provider.value.replace("-", "_") + "_batch"
    real, calls = getattr(harness, name), []
    monkeypatch.setattr(harness, name, lambda bundles: calls.append(list(bundles)) or real(bundles))
    cfg = RunConfig(task=TaskId.PUSH_MULTIPLE_BUTTONS, n_demos=3, n_eval=5, provider=provider)
    if provider is Provider.MOCK_NEAREST:
        cfg = dataclasses.replace(cfg, task=TaskId.PUSH_BUTTON)
    report = run_eval(cfg)
    assert calls == [[bundle for _, bundle in eval_prompts(cfg)]] and len(calls[0]) == cfg.n_eval
    assert len(report.records) == cfg.n_eval


def test_mock_reads_no_bin_of_more_than_six_digits():
    # 3037000500 squared overflows int64, and 2**63 does not fit in one:
    # read_prompts refuses a bin of more than 6 digits, parse_bins' limit, so
    # no mock answers from a wrapped distance or raises OverflowError.
    wide = (3037000500, 0, 0, 0, 0, 0)
    overflowing = [
        ((0,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}"),
        (wide, "push the red button", "{[2, 0, 0, 0, 0, 0, 1]}"),
    ]
    huge = [((2**63, 0, 0, 0, 0, 0), "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}")]
    for bundle in (_bundle(overflowing, wide, "push the red button"), _bundle(huge, (0,) * 6, "push the red button")):
        for read in (read_prompts, llm.complete_mock_nearest_batch, llm.complete_mock_compositional_batch):
            with pytest.raises(ValueError, match="more than 6 digits"):
                list(read([bundle.body if read is read_prompts else bundle]))
    six = (999999, 0, 0, 0, 0, 0)
    pool = [overflowing[0], (six, *overflowing[1][1:])]
    assert llm.complete_mock_nearest_batch([_bundle(pool, six, "push the red button")])[0].text == pool[1][2]


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


def test_mock_compositional_single_segment_equals_nearest():
    pool = [((1,) * 6, "push the red button", "{[4, 0, 0, 0, 0, 0, 1]}")]
    bundle = _bundle(pool, (1,) * 6, "push the red button")
    a = complete_mock_compositional(bundle)
    b = llm.complete_mock_nearest_batch([bundle])[0]
    assert parse_response(a.text) == parse_response(b.text)


def test_mock_compositional_reports_bad_segment():
    pool = [((1,) * 6, "push the red button", "{[1, 0, 0, 0, 0, 0, 1]}")]
    with pytest.raises(OracleError) as err:
        complete_mock_compositional(
            _bundle(pool, (1,) * 6, "push the red button, then slide the block onto the target")
        )
    assert str(err.value) == (
        "segment 'slide the block onto the target' is unresolvable: "
        "no demo instruction matches 'slide the block onto the target'"
    )


def test_mock_empty_pool():
    with pytest.raises(OracleError):
        llm.complete_mock_nearest_batch([_bundle([], (1,) * 6, "push the red button")])


# -- import hygiene -----------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(iclmanip.__file__)))
_HTTP_MODULES = (
    'print("http:", sorted(m for m in ("http.client", "requests", "urllib.request", "urllib3") if m in sys.modules))'
)


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


def test_remote_completion_needs_no_third_party_http_stack(tmp_path):
    script = _Script([(200, _ok_body("ok"))])
    server, endpoint = _make_server(script)
    code = f"""import sys
from iclmanip.llm import complete_remote
from iclmanip.prompts import PromptBundle
{_HTTP_MODULES}
sys.modules["requests"] = None  # importing requests now raises ImportError
result = complete_remote(PromptBundle(system="sys", body="body > "), {endpoint!r}, {CREDENTIAL!r}, timeout_s=5)
assert result.text == "ok", result
del sys.modules["requests"]
{_HTTP_MODULES}"""
    try:
        loaded = _loaded_http_modules(code, tmp_path)
    finally:
        _stop(server)
    assert loaded == ["[]", "['http.client', 'urllib.request']"]
    assert len(script.requests) == 1

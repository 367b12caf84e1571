"""Completion providers: a remote chat endpoint and two offline oracles.

All three take a PromptBundle and return a CompletionResult, so the
evaluation harness does not care which one produced the text. Like a
model, the mocks see only the prompt: they read the demos and the test
input back out of the body with prompts.read_prompt, so retrieval is a
distance computation over the bins printed in the prompt.

Only the remote provider needs an HTTP client, so `requests` is imported
inside the first remote request rather than with this module: offline
runs load numpy and the standard library only. `llm.requests` still
resolves (and imports it on first access) for callers that look up or
patch `llm.requests.post`.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .prompts import ACTION_TEXT, PromptBundle, PromptDemo, parse_bins, read_prompt
from .sim import CHAIN_SEPARATOR

DEFAULT_TIMEOUT_S = 60.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE_S = 0.5
MAX_RETRY_AFTER_S = 60.0
DEFAULT_REQUESTS_PER_SECOND = 1.0

if TYPE_CHECKING:
    import requests


def __getattr__(name: str):
    # PEP 562: `llm.requests` imports the HTTP stack on first access.
    if name == "requests":
        import requests

        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Provider(Enum):
    REMOTE = "remote"
    MOCK_NEAREST = "mock-nearest"
    MOCK_COMPOSITIONAL = "mock-compositional"


@dataclass(frozen=True)
class CompletionResult:
    """What comes back: raw text plus latency and which provider answered."""

    text: str
    latency_ms: int
    provider: Provider

    def __post_init__(self):
        if self.latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {self.latency_ms}")


class TransportError(Exception):
    """The endpoint could not be reached, refused the request, or kept
    answering with a retryable status."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class CompletionTimeout(TransportError):
    """The request exceeded the configured timeout on every attempt."""


class ProtocolError(Exception):
    """The endpoint answered 2xx but not in the expected response shape."""


class OracleError(Exception):
    """A mock provider had no demo able to answer the query."""


class TokenBucket:
    """Token-bucket rate limiter holding at most one token; acquire() blocks
    until the token is free and takes it."""

    def __init__(
        self,
        rate_per_second: float = DEFAULT_REQUESTS_PER_SECOND,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_per_second <= 0:
            raise ValueError(f"rate_per_second must be positive, got {rate_per_second}")
        self.rate = rate_per_second
        self._clock = clock
        self._sleep = sleep
        self._tokens = 1.0
        self._last = clock()

    def acquire(self) -> None:
        now = self._clock()
        self._tokens = min(1.0, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens < 1.0:
            self._sleep((1.0 - self._tokens) / self.rate)
            # The wait earned the rest of the token, however coarse the clock.
            self._last = self._clock()
        self._tokens = 0.0


def _retryable(status: int) -> bool:
    return status in (408, 429) or status >= 500


def _retry_after_s(response: requests.Response) -> float | None:
    """A Retry-After delay in whole seconds, capped at MAX_RETRY_AFTER_S;
    None when the header is absent, an HTTP date, or malformed."""
    value = response.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), MAX_RETRY_AFTER_S)


def complete_remote(
    bundle: PromptBundle,
    endpoint: str,
    credential: str,
    *,
    model: str = "",
    max_tokens: int = 1024,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    rate_limiter: TokenBucket | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionResult:
    """POST a chat completion and return the first choice's content.

    Transient failures (connection errors, timeouts, 408, 429 and 5xx) are
    retried with exponential backoff for `max_attempts` total attempts; a
    retryable status whose Retry-After header gives delay-seconds waits that
    long instead (at most MAX_RETRY_AFTER_S). Any other non-2xx status, an
    endpoint that is no URL, or a credential that is no valid header value
    raises TransportError after one attempt. The credential travels only in
    the Authorization header and is never part of raised messages.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    import requests
    from requests.exceptions import InvalidHeader, InvalidSchema, InvalidURL, MissingSchema

    url = endpoint.rstrip("/") + "/v1/chat/completions"
    payload = {
        "model": model,
        "messages": [
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.body},
        ],
        "temperature": 0.0,
        "max_tokens": max_tokens,
    }
    headers = {"Authorization": f"Bearer {credential}"}
    last_error: TransportError | None = None
    retry_after_s: float | None = None
    started = time.monotonic()
    for attempt in range(max_attempts):
        if attempt > 0:
            sleep(backoff_base_s * (2 ** (attempt - 1)) if retry_after_s is None else retry_after_s)
            retry_after_s = None
        if rate_limiter is not None:
            rate_limiter.acquire()
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=timeout_s)
        except requests.Timeout:
            last_error = CompletionTimeout(f"request to {url} timed out after {timeout_s} s")
            continue
        except (MissingSchema, InvalidSchema, InvalidURL) as exc:  # raised before connecting: no retry helps
            raise TransportError(f"request to {url} failed: {exc}") from None
        except InvalidHeader:  # raised before connecting, with the header in its text
            raise TransportError(f"request to {url} failed: the credential is not a valid header value") from None
        except requests.RequestException as exc:
            last_error = TransportError(f"request to {url} failed: {exc}")
            continue
        if not 200 <= response.status_code < 300:
            last_error = TransportError(
                f"HTTP {response.status_code} from {url}", status=response.status_code
            )
            if not _retryable(response.status_code):
                raise last_error
            retry_after_s = _retry_after_s(response)
            continue
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion response from {url}: {exc}") from None
        if not isinstance(content, str):
            raise ProtocolError(f"completion content is {type(content).__name__}, expected str")
        latency_ms = int((time.monotonic() - started) * 1000)
        return CompletionResult(text=content, latency_ms=latency_ms, provider=Provider.REMOTE)
    assert last_error is not None
    raise last_error


_COLOR_WORDS = re.compile(r"\b(?:red|yellow|green|blue)\b")


def instruction_template(text: str) -> str:
    """Replace color words with a wildcard so task templates can be compared."""
    return _COLOR_WORDS.sub("*", text)


# The last prompt prefix's demos (read_prompt reads one tuple per prefix), their
# bin rows, and the candidate demos per (test instruction, test width).
_TABLE: tuple[tuple[PromptDemo, ...], list[tuple[int, ...]], dict] = ((), [], {})


def _nearest_output(demos: tuple[PromptDemo, ...], test_bins: tuple[int, ...], test_instruction: str) -> str:
    global _TABLE
    table = _TABLE
    if table[0] is not demos:
        table = _TABLE = (demos, [d.bins for d in demos], {})
    _, rows, found = table
    candidates = found.get((test_instruction, len(test_bins)))
    if candidates is None:
        if not demos:
            raise OracleError("demo pool is empty")
        for i, row in enumerate(rows):
            if len(row) != len(test_bins):
                raise ValueError(f"demo {i} has obs vector length {len(row)}, test has {len(test_bins)}")
        # Exact instruction matches first; only when none exist, fall back to
        # template matches with color words wildcarded.
        candidates = [i for i, d in enumerate(demos) if d.instruction == test_instruction]
        if not candidates:
            template = instruction_template(test_instruction)
            candidates = [i for i, d in enumerate(demos) if instruction_template(d.instruction) == template]
        if not candidates:
            raise OracleError(f"no demo instruction matches {test_instruction!r}")
        found[test_instruction, len(test_bins)] = candidates
    best = min(candidates, key=lambda i: sum([(a - b) * (a - b) for a, b in zip(rows[i], test_bins)]))
    return demos[best].output  # min keeps the first of equal distances: the lowest index


def complete_mock_nearest(bundle: PromptBundle) -> CompletionResult:
    """Return the output of the nearest matching demo in the prompt.

    Nearest means smallest squared distance in concatenated bin space,
    among demos whose instruction matches the test instruction (exact
    first, color-wildcarded template as fallback). Ties go to the lowest
    demo index.
    """
    demos, test_bins, test_instruction = read_prompt(bundle.body)
    text = _nearest_output(demos, test_bins, test_instruction)
    return CompletionResult(text=text, latency_ms=0, provider=Provider.MOCK_NEAREST)


def complete_mock_compositional(bundle: PromptBundle) -> CompletionResult:
    """Split the test instruction into its chained steps (sim.CHAIN_SEPARATOR),
    retrieve per segment, concatenate.

    Each segment is answered by nearest-neighbor retrieval as in
    complete_mock_nearest; the action rows of the answers are joined into
    a single response in the output grammar.
    """
    demos, test_bins, test_instruction = read_prompt(bundle.body)
    rows = []
    for segment in test_instruction.split(CHAIN_SEPARATOR):
        try:
            text = _nearest_output(demos, test_bins, segment)
        except OracleError as exc:
            raise OracleError(f"segment {segment!r} is unresolvable: {exc}") from None
        rows += parse_bins(text).tolist()
    text = "{" + ", ".join(ACTION_TEXT % tuple(row) for row in rows) + "}"
    return CompletionResult(text=text, latency_ms=0, provider=Provider.MOCK_COMPOSITIONAL)

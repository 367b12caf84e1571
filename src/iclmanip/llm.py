"""Completion providers: a remote chat endpoint and two offline oracles.

Each turns PromptBundles into CompletionResults, so the evaluation harness
does not care which one produced the text; it hands a run's bundles to one
batch call. Like a model, the mocks see only the prompt: prompts.read_prompts
reads the demos and test input back out of each body, so retrieval is a
distance over the bins printed in the prompt. The nearest demo has the
smallest squared distance in concatenated bin space among the demos whose
instruction matches the test instruction (exact first, color-wildcarded
template as fallback), ties going to the lowest demo index. A batch reads its
demo prefix once, searches once per prefix, instruction and width, and writes
each retrieved output's rows once.

The remote provider speaks HTTP through the standard library's
urllib.request, imported inside its first request rather than with this
module, so offline runs never load an HTTP client. Each attempt is one
call to http_post.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .prompts import ACTION_TEXT, PromptBundle, PromptDemo, parse_bins, read_prompts
from .sim import CHAIN_SEPARATOR

MAX_RETRY_AFTER_S = 60.0
MIN_RATE_PER_SECOND = 1e-9  # one request per about 32 years


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
    """Rate limiter with a one-token bucket, kept as the time the token is
    free: the first acquire() returns at once, each later one 1 / rate
    seconds after the previous one returned. A rate under
    MIN_RATE_PER_SECOND would ask time.sleep for more than it accepts."""

    def __init__(
        self,
        rate_per_second: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not rate_per_second >= MIN_RATE_PER_SECOND:
            raise ValueError(f"rate_per_second must be >= {MIN_RATE_PER_SECOND:g}, got {rate_per_second}")
        self.rate = rate_per_second
        self._clock = clock
        self._sleep = sleep
        self._free_at = clock()

    def acquire(self) -> None:
        now = self._clock()
        if now < self._free_at:
            self._sleep(self._free_at - now)
            now = self._clock()  # the wait's end, however coarse the clock
        self._free_at = now + 1.0 / self.rate


def _retry_after_s(headers: Mapping[str, str]) -> float | None:
    """A Retry-After delay in whole seconds, capped at MAX_RETRY_AFTER_S;
    None when the header is absent, an HTTP date, or malformed."""
    value = headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), MAX_RETRY_AFTER_S)


_VISIBLE_ASCII = re.compile(r"[!-~]+")  # no whitespace, no line break, nothing beyond ASCII


@functools.lru_cache(maxsize=1)
def _opener():
    import urllib.request

    no_redirect = urllib.request.HTTPRedirectHandler()
    no_redirect.redirect_request = lambda *args: None  # a 3xx ends the attempt: no header follows it elsewhere
    return urllib.request.build_opener(no_redirect)  # proxies from http_proxy, https_proxy, no_proxy


def http_post(url: str, body: bytes, headers: dict[str, str], timeout_s: float) -> tuple[int, Mapping[str, str], bytes]:
    """One POST attempt: the status, headers and body (empty unless 2xx) of
    any answer. Failing to get one raises OSError or http.client.HTTPException."""
    from urllib.error import HTTPError
    from urllib.request import Request

    try:
        with _opener().open(Request(url, body, headers, method="POST"), timeout=timeout_s) as reply:
            return reply.status, reply.headers, reply.read()
    except HTTPError as exc:  # any status outside 2xx
        exc.close()
        return exc.code, exc.headers, b""


def complete_remote(
    bundle: PromptBundle,
    endpoint: str,
    credential: str,
    *,
    model: str = "",
    max_tokens: int = 1024,
    timeout_s: float = 60.0,
    max_attempts: int = 3,
    backoff_base_s: float = 0.5,
    rate_limiter: TokenBucket | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionResult:
    """POST a chat completion and return the first choice's content.

    Transient failures (connection errors, timeouts, 408, 429 and 5xx) are
    retried with exponential backoff for `max_attempts` total attempts; a
    retryable status whose Retry-After header gives delay-seconds waits that
    long instead (at most MAX_RETRY_AFTER_S). Any other non-2xx status, a
    redirect too, raises TransportError after one attempt, and an endpoint
    or credential that is not visible ASCII (the endpoint an http or https
    URL) raises it before connecting. The credential is sent only as the
    Authorization header, as given, and never appears in a raised message.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    import json
    from http.client import HTTPException
    from urllib.error import URLError
    from urllib.parse import urlsplit

    url = endpoint.rstrip("/") + "/v1/chat/completions"
    parts = urlsplit(url)
    try:  # reading .port raises ValueError for a port that is no number in 0-65535
        is_url = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:
        is_url = False
    if not (is_url and "@" not in parts.netloc and _VISIBLE_ASCII.fullmatch(url)):
        raise TransportError(f"request to {url} failed: the endpoint is not an http or https URL")
    if not _VISIBLE_ASCII.fullmatch(credential):
        raise TransportError(f"request to {url} failed: the credential is not a valid header value")
    messages = [{"role": "system", "content": bundle.system}, {"role": "user", "content": bundle.body}]
    payload = {"model": model, "messages": messages, "temperature": 0.0, "max_tokens": max_tokens}
    body = json.dumps(payload).encode("utf-8")
    headers = {"Authorization": f"Bearer {credential}", "Content-Type": "application/json"}
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
            status, reply_headers, raw = http_post(url, body, headers, timeout_s)
        except (OSError, HTTPException) as exc:  # URLError wraps a failure to connect
            reason = exc.reason if isinstance(exc, URLError) else exc
            if isinstance(reason, TimeoutError):
                last_error = CompletionTimeout(f"request to {url} timed out after {timeout_s} s")
            else:
                last_error = TransportError(f"request to {url} failed: {reason}")
            continue
        if not 200 <= status < 300:
            last_error = TransportError(f"HTTP {status} from {url}", status=status)
            if status not in (408, 429) and status < 500:
                raise last_error
            retry_after_s = _retry_after_s(reply_headers)
            continue
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
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


def _search(demos: tuple[PromptDemo, ...], instruction: str, queries: list[tuple]) -> Iterator[str] | Exception:
    """The nearest demo's output per query bin row (all of one width), or the error a lone query raises."""
    if not demos:
        return OracleError("demo pool is empty")
    width = len(queries[0])
    for i, d in enumerate(demos):
        if len(d.bins) != width:
            return ValueError(f"demo {i} has obs vector length {len(d.bins)}, test has {width}")
    # Exact instruction matches first; only when none exist, fall back to
    # template matches with color words wildcarded.
    template = instruction_template(instruction)
    candidates = [d for d in demos if d.instruction == instruction] or [
        d for d in demos if instruction_template(d.instruction) == template
    ]
    if not candidates:
        return OracleError(f"no demo instruction matches {instruction!r}")
    # Bins have at most 6 digits (read_prompts), so int64 squared distances are exact.
    offsets = np.array(queries, dtype=np.int64)[:, None, :] - np.array([d.bins for d in candidates], dtype=np.int64)
    # argmin keeps the first of equal distances: the lowest demo index
    return iter([candidates[k].output for k in (offsets * offsets).sum(axis=2).argmin(axis=1).tolist()])


def _complete_mocks(bundles: Sequence[PromptBundle], provider: Provider) -> list[CompletionResult]:
    """Answer each bundle as a lone call would, in order, or raise the first error a loop of
    lone calls would raise. Queries are grouped by demo prefix, instruction (or chain
    segment) and width, one search per group; each retrieved output's rows are written once."""
    chained = provider is Provider.MOCK_COMPOSITIONAL
    groups: dict[tuple, list] = {}  # (id of demos, segment, width) -> [demos, segment, query rows]
    asked: list[list[list]] = []  # per bundle, its segments' groups
    unread = None
    try:
        for demos, test_bins, instruction in read_prompts(b.body for b in bundles):
            segments = instruction.split(CHAIN_SEPARATOR) if chained else [instruction]
            asked.append([groups.setdefault((id(demos), s, len(test_bins)), [demos, s, []]) for s in segments])
            for group in asked[-1]:
                group[2].append(test_bins)
    except ValueError as exc:  # raised once the bundles before it are answered
        unread = exc
    for group in groups.values():
        group.append(_search(*group))  # the group's answers, taken in query order, or its error
    written: dict[str, str] = {}
    texts = []
    for bundle_groups in asked:
        answers = []
        for _, segment, _, found in bundle_groups:
            if chained and isinstance(found, OracleError):
                raise OracleError(f"segment {segment!r} is unresolvable: {found}")
            if isinstance(found, Exception):
                raise found
            text = next(found)
            if chained and text not in written:  # parse_bins raises on an output without rows
                written[text] = ", ".join(ACTION_TEXT % row for row in parse_bins(text))
            answers.append(written[text] if chained else text)
        texts.append("{" + ", ".join(answers) + "}" if chained else answers[0])
    if unread is not None:
        raise unread
    made = {text: CompletionResult(text=text, latency_ms=0, provider=provider) for text in set(texts)}
    return [made[text] for text in texts]  # one frozen result per distinct text


complete_mock_nearest_batch = functools.partial(_complete_mocks, provider=Provider.MOCK_NEAREST)
complete_mock_compositional_batch = functools.partial(_complete_mocks, provider=Provider.MOCK_COMPOSITIONAL)


def complete_mock_compositional(bundle: PromptBundle) -> CompletionResult:
    """Split the test instruction into its chained steps (sim.CHAIN_SEPARATOR),
    answer each segment with its nearest demo's output, and join the answers'
    action rows into a single response in the output grammar."""
    return complete_mock_compositional_batch([bundle])[0]

"""The benchmark's three workloads and the checks on their outputs.

Each workload runs in units. A unit is a fixed batch of calls into the
public entry points (`run_eval`, `ablate_*`, `emit_csv`); `run` is the
timed part, `check` and `finish` are not. All program calls go through
attribute lookups on the `iclmanip` package at call time, so the tracer
sees them when it is installed.

Seed discipline: every call that needs a base seed takes a fresh block
from `SeedBlocks`, so no two calls in a run share a demo seed or an eval
seed unless the workload shares them on purpose (the arms of one sweep).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import iclmanip as m

import fakeserver


@dataclass(frozen=True)
class Sizes:
    n_demos: int
    n_eval: int
    remote_eval: int


FULL = Sizes(n_demos=10, n_eval=25, remote_eval=20)
SMOKE = Sizes(n_demos=3, n_eval=3, remote_eval=4)

# demo_seeds scans at most n_demos * 200 seeds upward from the base seed,
# and eval seeds sit at base + 100000 (harness.EVAL_SEED_OFFSET). Blocks of
# 2000 seeds, 49 to a span of 200000, keep every call's demo scan below
# every eval range in its span, and spans never overlap.
BLOCK = 2_000
BLOCKS_PER_SPAN = 49
SPAN = 200_000
SPANS_PER_SEED = 50_000


class SeedBlocks:
    """Hands out base seeds whose demo and eval seed ranges are disjoint."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.origin = seed * SPANS_PER_SEED * SPAN
        self.used = 0

    def next(self) -> int:
        c = self.used
        if c >= SPANS_PER_SEED * BLOCKS_PER_SPAN:
            raise RuntimeError("seed blocks exhausted for this workload seed")
        self.used += 1
        return self.origin + (c // BLOCKS_PER_SPAN) * SPAN + (c % BLOCKS_PER_SPAN) * BLOCK


@dataclass
class Tally:
    """Episode-level outcome of a run.

    `broken` holds episodes whose call raised or whose output failed a
    check of the program's current contract; they make the run incorrect.
    `mismatched` holds episodes whose outcome differs from the one the
    workload expects of a total parser (remote reply shapes); they are
    measured, not gated. Both map a failure kind to episode ids.
    """

    attempted: int = 0
    scored: int = 0
    broken: dict[str, set] = field(default_factory=dict)
    mismatched: dict[str, set] = field(default_factory=dict)

    def fail(self, kind: str, ids, contract: bool = True) -> None:
        ids = set(ids)
        if ids:
            (self.broken if contract else self.mismatched).setdefault(kind, set()).update(ids)

    @property
    def failed(self) -> int:
        return len(set().union(*self.broken.values()))

    @property
    def not_ok(self) -> int:
        return len(set().union(*self.broken.values(), *self.mismatched.values()))

    def kinds(self) -> dict[str, int]:
        out = {k: len(v) for k, v in self.broken.items()}
        out.update({k: len(v) for k, v in self.mismatched.items()})
        return dict(sorted(out.items()))


@dataclass
class Call:
    """One timed call: its expected arm labels, and its reports or exception."""

    label: str
    config: object
    arms: tuple[str, ...]
    reports: list | None = None
    error: Exception | None = None
    path: Path | None = None  # CSV the call writes, if any

    def ids(self, unit: int, index: int) -> set:
        return {(unit, index, a, j) for a in range(len(self.arms)) for j in range(self.config.n_eval)}


def invoke(call: Call, fn: Callable[[], list]) -> Call:
    try:
        call.reports = fn()
    except Exception as exc:  # the benchmark keeps running and reports the kind
        call.error = exc
    return call


def check_calls(unit: int, calls: list[Call], tally: Tally) -> list[tuple[int, Call]]:
    """Checks shared by all workloads: no call raised, every arm is labelled
    as expected, and every arm returns n_eval records. Returns the
    (index, call) pairs that passed, for the workload's own checks."""
    passed = []
    for i, call in enumerate(calls):
        n_eval = call.config.n_eval
        tally.attempted += n_eval * len(call.arms)
        if call.error is not None:
            tally.fail(f"raised.{type(call.error).__name__}", call.ids(unit, i))
            continue
        tally.scored += sum(len(r.records) for r in call.reports)
        if tuple(r.arm for r in call.reports) != call.arms:
            tally.fail(f"{call.label}.arm_labels", call.ids(unit, i))
            continue
        short = [a for a, report in enumerate(call.reports) if len(report.records) != n_eval]
        tally.fail("records.count", {(unit, i, a, j) for a in short for j in range(n_eval)})
        if not short:
            passed.append((i, call))
    return passed


def check_no_parse_errors(unit: int, passed: list[tuple[int, Call]], tally: Tally) -> None:
    """Mock providers answer with stored demo text, which always parses."""
    for i, call in passed:
        for a, report in enumerate(call.reports):
            bad = {(unit, i, a, j) for j, r in enumerate(report.records) if r.parse_error}
            tally.fail("mock.parse_error", bad)


class EvalFresh:
    """All 5 tasks x both loop modes on fresh layouts, plus same-seed
    retrieval per single-goal task and loop mode; every call has its own
    seed block, so no work is shared between calls."""

    name = "eval-fresh"
    retrieval_tasks = (
        m.TaskId.STACK_CUBE,
        m.TaskId.DESTACK_CUBE,
        m.TaskId.PUSH_BUTTON,
        m.TaskId.SLIDE_BLOCK,
    )
    blocks_per_unit = len(m.LoopMode) * (len(m.TaskId) + len(retrieval_tasks))

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes

    def run(self, bases: list[int]) -> list[Call]:
        bases = iter(bases)
        calls = []
        for task in m.TaskId:
            provider = (
                m.Provider.MOCK_COMPOSITIONAL
                if task is m.TaskId.PUSH_MULTIPLE_BUTTONS
                else m.Provider.MOCK_NEAREST
            )
            for mode in m.LoopMode:
                cfg = m.RunConfig(
                    task=task,
                    n_demos=self.sizes.n_demos,
                    n_eval=self.sizes.n_eval,
                    provider=provider,
                    loop_mode=mode,
                    seed=next(bases),
                )
                calls.append(invoke(Call("fresh", cfg, ("eval",)), lambda: [m.run_eval(cfg)]))
        for task in self.retrieval_tasks:
            for mode in m.LoopMode:
                base = m.RunConfig(
                    task=task,
                    n_demos=self.sizes.n_demos,
                    n_eval=self.sizes.n_demos,
                    loop_mode=mode,
                    seed=next(bases),
                )
                call = Call("retrieval", base, ("eval",))

                def same_seed(base=base, call=call):
                    cfg = dataclasses.replace(base, eval_seeds=m.demo_seeds(base))
                    call.config = cfg
                    return [m.run_eval(cfg)]

                calls.append(invoke(call, same_seed))
        return calls

    def check(self, unit: int, calls: list[Call], tally: Tally) -> None:
        passed = check_calls(unit, calls, tally)
        check_no_parse_errors(unit, passed, tally)
        for i, call in passed:
            if call.label == "retrieval":
                (report,) = call.reports
                misses = {(unit, i, 0, j) for j, r in enumerate(report.records) if not r.success}
                tally.fail("retrieval.miss", misses)

    def finish(self, tally: Tally) -> None:
        pass

    def close(self) -> None:
        pass


SWEEP_ARMS = {
    "sampling": (
        "keyframes",
        "uniform-5",
        "uniform-10",
        "uniform-20",
        "uniform-40",
        "uniform-80",
    ),
    "shots": ("shots-1", "shots-2", "shots-5", "shots-10"),
    "noise": ("noise-0.5", "noise-1", "noise-1.5", "noise-2"),
    "prompts": ("prompt-0", "prompt-1", "prompt-2"),
    "loop": ("loop-open", "loop-closed"),
}


class AblationSweeps:
    """All five ablate_* sweeps with default arms on two tasks, one CSV per
    sweep. The arms of one sweep share demo and eval seeds, which is the
    shared work this workload exists to expose."""

    name = "ablation-sweeps"
    tasks = (m.TaskId.STACK_CUBE, m.TaskId.PUSH_BUTTON)
    blocks_per_unit = len(tasks)

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir
        self.first_unit: list[Call] = []
        self.first_csvs: dict[str, bytes] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, bases: list[int], outdir: Path | None = None) -> list[Call]:
        outdir = outdir or self.workdir / "unit"
        outdir.mkdir(parents=True, exist_ok=True)
        calls = []
        for task, base in zip(self.tasks, bases):
            cfg = m.RunConfig(
                task=task, n_demos=self.sizes.n_demos, n_eval=self.sizes.n_eval, seed=base
            )
            for sweep, arms in SWEEP_ARMS.items():
                path = outdir / f"{task.value}-{sweep}.csv"

                def sweep_and_emit(sweep=sweep, cfg=cfg, path=path):
                    reports = getattr(m, f"ablate_{sweep}")(cfg)
                    m.emit_csv(reports, path)
                    return reports

                calls.append(invoke(Call(sweep, cfg, arms, path=path), sweep_and_emit))
        return calls

    def check(self, unit: int, calls: list[Call], tally: Tally) -> None:
        passed = check_calls(unit, calls, tally)
        check_no_parse_errors(unit, passed, tally)
        for i, call in passed:
            if call.label == "prompts":
                outcomes = [[(r.seed, r.success, r.n_actions) for r in rep.records] for rep in call.reports]
                if any(o != outcomes[0] for o in outcomes[1:]):
                    tally.fail("prompts.tie", call.ids(unit, i))
            if call.label == "loop":
                opened, closed = (rep.records for rep in call.reports)
                shorter = {
                    j for j, (o, c) in enumerate(zip(opened, closed)) if not c.prompt_chars > o.prompt_chars
                }
                tally.fail("loop.prompt_chars", {(unit, i, a, j) for j in shorter for a in (0, 1)})
        if unit == 0:
            self.first_unit = calls
            self.first_csvs = {
                c.path.name: c.path.read_bytes() for c in calls if c.reports is not None and c.path.exists()
            }

    def finish(self, tally: Tally) -> None:
        """Untimed repeat of the first unit: every CSV must be byte-identical."""
        first = self.first_unit
        bases = [c.config.seed for c in first[:: len(SWEEP_ARMS)]]  # one config per task
        again = self.run(bases, self.workdir / "repeat")
        for i, (a, b) in enumerate(zip(first, again)):
            if a.reports is None:
                continue
            if not b.path.exists() or b.path.read_bytes() != self.first_csvs.get(a.path.name):
                tally.fail("csv.repeat", a.ids(0, i))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


CREDENTIAL_ENV = "PERFBENCH_API_KEY"


class RemoteEval:
    """Open-loop run_eval with the remote provider on all 5 tasks against
    the in-process fake server (20 ms hold, scheduled 429s, six reply
    shapes). The only workload through complete_remote, TokenBucket and
    backoff."""

    name = "remote-eval"
    blocks_per_unit = len(m.TaskId)

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        os.environ[CREDENTIAL_ENV] = fakeserver.CREDENTIAL
        # Reach the local server directly even where a proxy is configured,
        # and keep requests from probing a netrc file outside the checkout.
        os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        os.environ["NETRC"] = str(workdir / "no-netrc")
        self.server = fakeserver.FakeServer(seed)
        self.log_start = 0
        self.first_index = 0

    def run(self, bases: list[int]) -> list[Call]:
        self.log_start = len(self.server.log)
        self.first_index = self.server.answered
        calls = []
        for task, base in zip(m.TaskId, bases):
            cfg = m.RunConfig(
                task=task,
                n_demos=self.sizes.n_demos,
                n_eval=self.sizes.remote_eval,
                provider=m.Provider.REMOTE,
                endpoint=self.server.url,
                model="perfbench",
                credential_env=CREDENTIAL_ENV,
                requests_per_second=100.0,
                seed=base,
            )
            calls.append(invoke(Call("remote", cfg, ("eval",)), lambda: [m.run_eval(cfg)]))
        return calls

    def check(self, unit: int, calls: list[Call], tally: Tally) -> None:
        check_calls(unit, calls, tally)
        check_remote(unit, calls, self.server.log[self.log_start :], self.first_index, self.seed, tally)

    def finish(self, tally: Tally) -> None:
        pass

    def close(self) -> None:
        self.server.close()


def check_remote(unit: int, calls: list[Call], log: list, first_index: int, seed: int, tally: Tally) -> None:
    """Server-side checks: request count, headers and body per request, and
    each reply shape's outcome in the episode record it produced."""
    episodes = []  # (episode id, record) in request order
    for i, call in enumerate(calls):
        for a, report in enumerate(call.reports or ()):
            episodes.extend(((unit, i, a, j), r) for j, r in enumerate(report.records))
    all_ids = {eid for eid, _ in episodes}
    retries = sum(fakeserver.throttled(first_index + k, seed) for k in range(len(episodes)))
    if len(log) != len(episodes) + retries:
        tally.fail("server.request_count", all_ids)
    by_index = {}
    for entry in log:
        k = entry.index - first_index
        ids = {episodes[k][0]} if 0 <= k < len(episodes) else all_ids
        if not entry.auth_ok:
            tally.fail("request.auth", ids)
        if not entry.body_ok:
            tally.fail("request.body", ids)
        if entry.status == 200:
            by_index[entry.index] = entry
    for k, (eid, record) in enumerate(episodes):
        entry = by_index.get(first_index + k)
        if entry is None or entry.n_actions == 0:
            tally.fail("server.no_reply", {eid})
            continue
        if entry.shape in fakeserver.REJECTED_SHAPES:
            expected = (True, 0)
        else:
            expected = (False, entry.n_actions)
        if (record.parse_error, record.n_actions) != expected:
            tally.fail(f"shape.{entry.shape}", {eid}, contract=False)


WORKLOADS = {w.name: w for w in (EvalFresh, AblationSweeps, RemoteEval)}

"""Evaluation harness: closed pipeline runs, ablation sweeps, CSV reports.

A run is fully described by a RunConfig. Demo episodes come from seeds
scanned upward from config.seed so that task variations cycle round-robin
(and a smaller demo pool is always a prefix of a larger one); eval
episodes start at seed + EVAL_SEED_OFFSET, and a demo scan that reaches
them is a ValueError unless eval_seeds is given. Observation noise is one
scale k (RunConfig.noise) on sim's fixed base sigmas.

One prompt stage, eval_prompts, turns a config into the prompt for each
eval seed: demo pool, noised test observations, assembled bundle. run_eval
builds every prompt, then hands them all to the provider's batch callable
(_provider), which returns the results in seed order, then scores the
replies (_score), so a remote run sends nothing before every prompt exists;
`iclmanip build-prompt` prints the first bundle.

Worlds are planned once per base config (task, seed, bounds): the plan store
(_Plans, which states its contract) keeps each pristine reset and expert
episode and memoizes the pure stages that arms repeat (demo seed scans, demo
keyframes, noise draws, demo examples, test slot text, reply Actions and
scores). Providers are never memoized, but a reply text is parsed once per base,
and a reply already scored on that eval world is not replayed again, nor its world copied.

The eval loop keeps a reply as Actions: prompts.parse_bins reads its text
into 7-int tuples, and each row makes one Action through discretize.row_pose and
GripperState.from_bit. The store keeps one Action per distinct row and one tuple
of them per distinct text. DiscreteAction and parse_response, the API-edge view, are not built here.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import operator
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .discretize import row_pose
from .keyframes import extract_keyframes_batch, sample_uniform
from .llm import (
    MIN_RATE_PER_SECOND,
    CompletionResult,
    Provider,
    TokenBucket,
    complete_mock_compositional_batch,
    complete_mock_nearest_batch,
    complete_remote,
)
from .model import (
    Action,
    Episode,
    GripperState,
    WorkspaceBounds,
    _write_file,
)
from .prompts import (
    IclExample,
    ParseError,
    PromptBundle,
    assemble_prompts,
    build_closed_loop_examples,
    build_example_inputs,
    build_icl_examples,
    default_system_prompts,
    parse_bins,
)
from .sim import (
    TaskId,
    TaskVariation,
    WorldState,
    check_success,
    execute_action,
    pose_noise_draws,
    replay_pose_rows,
    reset,
    scripted_experts,
    seed_words,
    task_spec,
)

DEFAULT_BOUNDS = WorkspaceBounds(-0.5, 0.5, -0.5, 0.5, 0.0, 0.5)
EVAL_SEED_OFFSET = 100_000
CSV_HEADER = ("task", "provider", "arm", "seed", "success", "parse_error", "n_actions", "latency_ms")

SYSTEM_PROMPT_INDICES = tuple(range(len(default_system_prompts())))
_FLOORS = {"n_demos": 1, "n_eval": 1, "uniform_interval": 1, "max_tokens": 1,
           "requests_per_second": MIN_RATE_PER_SECOND, "noise": 0, "seed": 0}


class KeyframeMode(Enum):
    __hash__ = object.__hash__  # as sim.TaskId
    KEYFRAMES = "keyframes"
    UNIFORM = "uniform"


class LoopMode(Enum):
    __hash__ = object.__hash__  # as sim.TaskId
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class RunConfig:
    """Everything one evaluation run depends on."""

    task: TaskId
    n_demos: int = 10
    n_eval: int = 25
    delta: float = 0.01  # rad/s keyframe velocity threshold
    bounds: WorkspaceBounds = DEFAULT_BOUNDS
    provider: Provider = Provider.MOCK_NEAREST
    endpoint: str = ""
    model: str = ""
    credential_env: str = "ICLMANIP_API_KEY"
    system_prompt_index: int = 0
    keyframe_mode: KeyframeMode = KeyframeMode.KEYFRAMES
    uniform_interval: int = 10
    loop_mode: LoopMode = LoopMode.OPEN
    noise: float | None = None  # scale k on the base sigmas of sim.add_pose_noise
    seed: int = 0
    max_tokens: int = 1024
    requests_per_second: float = 1.0
    eval_seeds: tuple[int, ...] | None = None  # explicit override; default is derived

    def __post_init__(self):
        for field in dataclasses.fields(self):
            object.__setattr__(self, field.name, _config_value(field, getattr(self, field.name)))
        for name in ("delta", "noise", "requests_per_second"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, floor in _FLOORS.items():
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor:g}, got {value}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.system_prompt_index not in SYSTEM_PROMPT_INDICES:
            *rest, last = SYSTEM_PROMPT_INDICES
            raise ValueError(
                f"system_prompt_index must be {', '.join(map(str, rest))}, or {last}, got {self.system_prompt_index}"
            )
        if self.eval_seeds is not None:
            seeds = tuple(_integer(f"eval_seeds[{i}]", s) for i, s in enumerate(self.eval_seeds))
            object.__setattr__(self, "eval_seeds", seeds)
            if len(self.eval_seeds) != self.n_eval:
                raise ValueError(
                    f"eval_seeds has {len(self.eval_seeds)} entries but n_eval is {self.n_eval}"
                )
            if min(self.eval_seeds) < 0:
                raise ValueError(f"eval_seeds must be >= 0, got {self.eval_seeds}")

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any]) -> RunConfig:
        """The one schema for config files and CLI flags: enum fields take
        their string values, bounds six numbers, noise null, a number (k) or
        {"k": number}. eval_seeds is not accepted. Unknown keys and bad
        values raise ValueError.
        """
        unknown = set(values) - {f.name for f in dataclasses.fields(cls) if f.name != "eval_seeds"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**values)
        except TypeError as exc:  # no task
            raise ValueError(str(exc)) from None


def _integer(name: str, value: Any) -> int:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)  # a numpy integer is stored as int
    raise ValueError(f"{name} must be of type int, got {value!r}")


def config_kind(field: dataclasses.Field) -> type:
    """The type of a RunConfig field: its default's, or TaskId for task (no default)."""
    return TaskId if field.name == "task" else type(field.default)


def _of_kind(value: Any, kind: type) -> bool:
    accepted = (int, float) if kind is float else kind  # JSON writes 1.0 as 1
    return isinstance(value, accepted) and not isinstance(value, bool)


def _config_value(field: dataclasses.Field, value: Any) -> Any:
    name, kind = field.name, config_kind(field)
    if issubclass(kind, Enum):
        return kind(value)
    if kind is int:
        return _integer(name, value)
    if kind in (float, str) and not _of_kind(value, kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if name == "bounds" and not isinstance(value, WorkspaceBounds):
        if not isinstance(value, (list, tuple)) or len(value) != 6 or not all(_of_kind(v, float) for v in value):
            raise ValueError("bounds must be six numbers: x_min x_max y_min y_max z_min z_max")
        return WorkspaceBounds(*(float(v) for v in value))
    if name == "noise" and value is not None:
        if isinstance(value, dict) and list(value) == ["k"]:
            value = value["k"]
        if not _of_kind(value, float):
            raise ValueError('noise must be null, a number (k) or {"k": number}')
        return float(value)
    return value


@dataclass(frozen=True)
class EpisodeRecord:
    """Outcome of one evaluation episode. `failure` is the ParseError kind,
    or None when the reply parsed."""

    seed: int
    success: bool
    parse_error: bool
    n_actions: int
    latency_ms: int
    prompt_chars: int
    failure: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """One arm's worth of episode records plus its config."""

    arm: str
    records: tuple[EpisodeRecord, ...]
    config: RunConfig

    @property
    def success_rate(self) -> float:
        return sum(1 for r in self.records if r.success) / len(self.records)


def demo_task(task: TaskId) -> TaskId:
    """The task whose demos teach this one: multi-button runs learn from single-button demos."""
    return task_spec(task).demos_from or task


class _Plans:
    """The plan store of one base config (task, seed, bounds), _store's one entry: calls on
    that base, such as every arm of every sweep of a config, share it until a call on
    another base replaces it. Each stage it memoizes is keyed on exactly the inputs it
    reads beyond the base, and what a call lacks is made in one batch. Each public
    function takes its store once, from _plans, and hands it down. Nothing handed out
    may be mutated: callers clone a world before executing actions in it."""

    def __init__(self, bounds: WorkspaceBounds):
        self.bounds = bounds
        self._memo: dict[tuple, Any] = {}

    def memo(self, key: tuple, make: Callable[[], Any]) -> Any:
        """make(), computed once per key. A key names its stage and the
        inputs the stage reads."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = make()
            return value

    def memo_all(self, keys: Sequence[tuple], make: Callable[[list[tuple]], Sequence]) -> list:
        """memo over several keys: one make(missing) call builds every value not yet held, in order."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._memo]
        if missing:
            self._memo.update(zip(missing, make(missing), strict=True))
        return [self._memo[key] for key in keys]

    def reset(self, task: TaskId, seed: int) -> tuple[WorldState, str, TaskVariation]:
        return self.memo(("reset", task, seed), lambda: reset(task, seed, self.bounds))

    def experts(self, task: TaskId, seeds: Sequence[int]) -> list[Episode]:
        """The expert episode on each seed's reset world, memoized per seed;
        the seeds not yet planned are planned in one scripted_experts call."""
        return self.memo_all(
            [("expert", task, seed) for seed in seeds],
            lambda missing: scripted_experts(task, [self.reset(task, seed)[:2] for _, _, seed in missing]),
        )


@functools.lru_cache(maxsize=1)
def _store(task: TaskId, seed: int, bounds: WorkspaceBounds) -> _Plans:
    """The plan store of a base (see _Plans)."""
    return _Plans(bounds)


def _plans(config: RunConfig) -> _Plans:
    """The plan store of config's base (see _Plans)."""
    return _store(config.task, config.seed, config.bounds)


def demo_seeds(config: RunConfig) -> tuple[int, ...]:
    """Scan seeds upward from config.seed, accepting one whose naturally
    drawn variation matches the next round-robin slot; once per n_demos on
    a base. Without eval_seeds, an accepted seed among the derived eval
    seeds is a ValueError (_refuse_eval_seed), on a memoized scan too.

    Because acceptance depends only on earlier slots, a k-demo pool is a
    prefix of any larger pool for the same config.
    """
    plans = _plans(config)
    seeds = plans.memo(("demo_seeds", config.n_demos), lambda: _scan_demo_seeds(config, plans))
    for seed in seeds:
        _refuse_eval_seed(config, seed)
    return seeds


def _refuse_eval_seed(config: RunConfig, seed: int) -> None:
    """The overlap rule: without eval_seeds, a demo seed among the derived eval seeds is a ValueError."""
    if config.eval_seeds is None and 0 <= seed - config.seed - EVAL_SEED_OFFSET < config.n_eval:
        raise ValueError(
            f"n_demos {config.n_demos} scans demo seeds into the eval seeds, which start at "
            f"seed + {EVAL_SEED_OFFSET}; use fewer demos"
        )


def _scan_demo_seeds(config: RunConfig, plans: _Plans) -> tuple[int, ...]:
    task = demo_task(config.task)
    variations = task_spec(task).variations
    slots = [variations[i % len(variations)] for i in range(config.n_demos)]
    chosen: list[int] = []
    seed = config.seed
    budget = config.n_demos * 200
    for slot in slots:
        while budget > 0:
            _, _, variation = plans.reset(task, seed)
            seed += 1
            budget -= 1
            if variation == slot:
                _refuse_eval_seed(config, seed - 1)
                chosen.append(seed - 1)
                break
        else:
            raise RuntimeError(f"could not fill demo variation slots within budget for {task.value}")
    return tuple(chosen)


def demo_episodes(config: RunConfig) -> list[Episode]:
    """The scripted expert's episode on each demo seed, planned on the
    worlds the seed scan drew."""
    return _plans(config).experts(demo_task(config.task), demo_seeds(config))


def eval_seeds(config: RunConfig) -> tuple[int, ...]:
    if config.eval_seeds is not None:
        return config.eval_seeds
    return tuple(config.seed + EVAL_SEED_OFFSET + j for j in range(config.n_eval))


def _noise_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence(seed_words(base, *tags)).generate_state(1)[0])


def _draws(config: RunConfig, plans: _Plans, n: int, *tags: int) -> np.ndarray | None:
    """The n x 6 noise draws of one noised block, or None when the run has no noise."""
    if not config.noise:
        return None
    return plans.memo(("draws", n, *tags), lambda: pose_noise_draws(n, _noise_seed(config.seed, *tags)))


_DEMO_NOISE_TAG = 1
_TEST_NOISE_TAG = 2


# The RunConfig fields beyond the base that _demo_examples reads; with seed and position, a demo's memo key.
_DEMO_FIELDS = operator.attrgetter("keyframe_mode", "delta", "uniform_interval", "loop_mode", "noise")


def _demo_examples(config: RunConfig, plans: _Plans, demos: list[tuple[int, int, Episode]]) -> list[IclExample]:
    """The example on each (pool position, seed, episode), built in one call after one replay of a closed pool's
    experts; a demo's keyframe check raises after the earlier demos' noise, as one by one."""
    if config.keyframe_mode is KeyframeMode.KEYFRAMES:  # missing keyframes come from one batch call
        episodes = {seed: episode for _, seed, episode in demos}
        frames = plans.memo_all(
            [("keyframes", seed, config.delta) for _, seed, _ in demos],
            lambda missing: extract_keyframes_batch([episodes[seed] for _, seed, _ in missing], config.delta),
        )
    else:
        frames = [sample_uniform(episode.length, config.uniform_interval) for _, _, episode in demos]
    short = next((i for i, f in enumerate(frames) if len(f) < 2), len(demos))
    kept = list(zip(demos[:short], frames))
    draws = functools.partial(_draws, config, plans)
    if config.loop_mode is LoopMode.OPEN:
        items = [(ep, kf, draws(len(ep.objects), _DEMO_NOISE_TAG, i)) for (i, _, ep), kf in kept]
    else:
        rows = replay_pose_rows([(plans.reset(demo_task(config.task), seed)[0], ep, kf) for (_, seed, ep), kf in kept])
        items = [
            (ep, kf, block, [draws(len(ep.objects), _DEMO_NOISE_TAG, i, t) for t in kf])
            for ((i, _, ep), kf), block in zip(kept, rows)
        ]
    build = build_icl_examples if config.loop_mode is LoopMode.OPEN else build_closed_loop_examples
    examples = build(items, config.bounds, config.noise)
    if short < len(demos):
        raise ValueError(
            f"demo seed {demos[short][1]} has {len(frames[short])} keyframe at delta {config.delta}; "
            "a demo needs at least 2, so lower delta"
        )
    return examples


def build_demo_pool(config: RunConfig) -> list[IclExample]:
    """The ICL example built on each of demo_seeds(config), in pool order. A scan
    reaching the derived eval seeds is a ValueError before any expert is planned;
    then the experts, then the examples, not yet made, each in one pass, an
    example once per (seed, position, _DEMO_FIELDS) on a base. The list is the caller's own."""
    plans = _plans(config)
    seeds, fields = demo_seeds(config), _DEMO_FIELDS(config)
    episodes = dict(zip(seeds, plans.experts(demo_task(config.task), seeds)))
    return plans.memo_all(
        [("demo", seed, i, fields) for i, seed in enumerate(seeds)],
        lambda missing: _demo_examples(config, plans, [(i, seed, episodes[seed]) for _, seed, i, _ in missing]),
    )


@functools.lru_cache(maxsize=None)
def _bucket(endpoint: str, rate: float) -> TokenBucket:
    """The process's one rate limiter for an endpoint at a rate."""
    return TokenBucket(rate)


def _provider(config: RunConfig) -> Callable[[Sequence[PromptBundle]], list[CompletionResult]]:
    """The completion stage: a run's bundles in, their results out in order; the
    remote one sends them one at a time and stops at the first error."""
    if config.provider is Provider.MOCK_NEAREST:
        return complete_mock_nearest_batch
    if config.provider is Provider.MOCK_COMPOSITIONAL:
        return complete_mock_compositional_batch
    credential = os.environ.get(config.credential_env)
    if not credential:
        raise ValueError(f"credential environment variable {config.credential_env!r} is not set")
    complete = functools.partial(
        complete_remote,
        endpoint=config.endpoint,
        credential=credential,
        model=config.model,
        max_tokens=config.max_tokens,
        rate_limiter=_bucket(config.endpoint, config.requests_per_second),
    )
    return lambda bundles: [complete(bundle) for bundle in bundles]


def eval_prompts(config: RunConfig) -> Iterator[tuple[int, PromptBundle]]:
    """The prompt stage: for each eval seed, the seed and the prompt the
    provider is sent.

    The demo pool is built before the first prompt, and the test
    observations carry the run's noise. run_eval and `iclmanip
    build-prompt` both read their prompts from here.
    """
    plans = _plans(config)
    examples = build_demo_pool(config)
    system = default_system_prompts()[config.system_prompt_index]
    seeds = eval_seeds(config)

    def test_inputs(missing: list[tuple]) -> list[str]:
        # A world's objects are read as its observations: each has a name and a pose.
        worlds = [(plans.reset(config.task, seed)[:2], j) for _, seed, j, _ in missing]
        items = [(w.objects, i, _draws(config, plans, len(w.objects), _TEST_NOISE_TAG, j)) for (w, i), j in worlds]
        return build_example_inputs(items, config.bounds, config.noise)

    slots = plans.memo_all([("slot", seed, j, config.noise) for j, seed in enumerate(seeds)], test_inputs)
    yield from zip(seeds, assemble_prompts(examples, slots, system))


def _reply_actions(plans: _Plans, text: str) -> tuple[Action, ...] | str:
    """A reply's Actions, one per bin row, or its ParseError kind."""
    try:
        rows = parse_bins(text)
    except ParseError as exc:
        return exc.kind
    by_row = plans.memo(("actions",), dict)  # one Action per distinct row on a base
    for row in rows:
        if row not in by_row:
            by_row[row] = Action(row_pose(row, plans.bounds), GripperState.from_bit(row[6]))
    return tuple(by_row[row] for row in rows)


def _score(config: RunConfig, plans: _Plans, seed: int, text: str) -> tuple[int, bool, str | None]:
    """(n_actions, success, failure) of a reply on an eval
    seed's world: its Actions, read once per text on a base, replayed on a copy of the pristine reset."""
    actions = plans.memo(("reply", text), lambda: _reply_actions(plans, text))
    if isinstance(actions, str):
        return 0, False, actions
    world, _, variation = plans.reset(config.task, seed)
    world = world.clone()  # execute_action mutates it
    for action in actions:
        execute_action(world, action)
    return len(actions), check_success(config.task, world, variation), None


def run_eval(config: RunConfig, arm: str = "eval") -> EvalReport:
    """Run the closed pipeline over n_eval fresh worlds and score successes.

    The provider is resolved (and a remote credential checked) before any
    world is planned. Parse failures count as failed episodes and never
    abort the run; transport and protocol errors from the remote provider
    do abort. A reply is parsed into bin rows, and each row's bin centers
    replay as one Action on a copy of the eval world; every center lies
    inside config.bounds, the world's own, so no action leaves the
    workspace. Three whole stages run: every prompt is built, so a
    prompt-stage error comes before any request; then each is completed in
    seed order; then each reply is scored, its text parsed once per base,
    and one already scored on that eval world not copied or replayed again.
    """
    complete = _provider(config)
    plans = _plans(config)
    prompts = list(eval_prompts(config))
    results = complete([bundle for _, bundle in prompts])
    records = []
    for (seed, bundle), result in zip(prompts, results):
        n_actions, success, failure = plans.memo(
            ("score", seed, result.text), lambda: _score(config, plans, seed, result.text)
        )
        prompt_chars = len(bundle.system) + len(bundle.body)
        parse_error = failure is not None
        records.append(EpisodeRecord(seed, success, parse_error, n_actions, result.latency_ms, prompt_chars, failure))
    return EvalReport(arm=arm, records=tuple(records), config=config)


# name -> (leading fixed arms: config -> (config, label), default values,
# value arm: (config, value) -> (config, label)). Every arm of a sweep shares
# the caller's demo and eval seeds; only its setting varies.
SWEEPS: dict[str, tuple[tuple[Callable, ...], tuple, Callable]] = {
    "sampling": (
        (lambda c: (dataclasses.replace(c, keyframe_mode=KeyframeMode.KEYFRAMES), "keyframes"),),
        (5, 10, 20, 40, 80),
        lambda c, n: (
            dataclasses.replace(c, keyframe_mode=KeyframeMode.UNIFORM, uniform_interval=n),
            f"uniform-{n}",
        ),
    ),
    "shots": (
        (),
        (1, 2, 5, 10),
        lambda c, n: (dataclasses.replace(c, n_demos=n), f"shots-{n}"),
    ),
    "noise": (
        (),
        (0.5, 1.0, 1.5, 2.0),
        lambda c, k: (dataclasses.replace(c, noise=k), f"noise-{k:g}"),
    ),
    "prompts": (
        (),
        SYSTEM_PROMPT_INDICES,
        lambda c, i: (dataclasses.replace(c, system_prompt_index=i), f"prompt-{i}"),
    ),
    "loop": (
        (),
        tuple(LoopMode),
        lambda c, m: (dataclasses.replace(c, loop_mode=m), f"loop-{m.value}"),
    ),
}


def sweep_arms(config: RunConfig, name: str, values: Sequence | None = None) -> list[tuple[RunConfig, str]]:
    """The (config, label) arms of SWEEPS[name] in order; values replace its
    defaults. The arms keep config's base (task, seed, bounds), so they share
    one plan store with each other and with further calls on that base.
    Values that give two arms one label raise ValueError."""
    lead, defaults, arm = SWEEPS[name]
    arms = [make(config) for make in lead]
    arms += [arm(config, v) for v in (defaults if values is None else values)]
    for i, (_, label) in enumerate(arms):
        if any(label == other for _, other in arms[:i]):
            raise ValueError(f"sweep {name} has two arms labelled {label}")
    return arms


def sweep(config: RunConfig, name: str, values: Sequence | None = None) -> list[EvalReport]:
    """Run the arms of sweep_arms(config, name, values) in order."""
    return [run_eval(cfg, arm=label) for cfg, label in sweep_arms(config, name, values)]


def ablate_sampling(config: RunConfig, intervals: Sequence[int] | None = None) -> list[EvalReport]:
    """Keyframe selection vs fixed-interval sampling, shared seeds."""
    return sweep(config, "sampling", intervals)


def ablate_shots(config: RunConfig, shot_counts: Sequence[int] | None = None) -> list[EvalReport]:
    """Demo-count sweep; smaller pools are prefixes of larger ones."""
    return sweep(config, "shots", shot_counts)


def ablate_noise(config: RunConfig, scales: Sequence[float] | None = None) -> list[EvalReport]:
    """Observation-noise sweep; noise hits demo and test observations."""
    return sweep(config, "noise", scales)


def ablate_prompts(config: RunConfig) -> list[EvalReport]:
    """One arm per system prompt; mock providers must tie exactly."""
    return sweep(config, "prompts")


def ablate_loop(config: RunConfig) -> list[EvalReport]:
    """Open-loop vs closed-loop prompt construction."""
    return sweep(config, "loop")


def emit_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Write per-episode rows sorted by (arm, seed); stable across reruns. An
    existing CSV is replaced only once the new one is whole (model._write_file)."""
    rows = [
        (task, provider, report.arm, r.seed, int(r.success), int(r.parse_error), r.n_actions, r.latency_ms)
        for report in reports
        for task, provider in [(report.config.task.value, report.config.provider.value)]  # once per report
        for r in report.records
    ]
    rows.sort(key=lambda r: (r[2], r[3]))
    with _write_file(path, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)

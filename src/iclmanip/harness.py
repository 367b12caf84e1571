"""Evaluation harness: closed pipeline runs, ablation sweeps, CSV reports.

A run is fully described by a RunConfig. Demo episodes come from seeds
scanned upward from config.seed so that task variations cycle round-robin
(and a smaller demo pool is always a prefix of a larger one); eval
episodes use seeds offset by 100000, so the two sets never overlap unless
the caller explicitly passes eval_seeds. Observation noise is one scale
k (RunConfig.noise) on sim's fixed base sigmas.

One prompt stage, eval_prompts, turns a config into the prompt for each
eval seed: demo pool, fresh world, noised test observations, assembled
bundle. run_eval completes, parses, replays and scores what it yields;
`iclmanip build-prompt` prints its first bundle.

Worlds are planned once per call: a store keyed on (task, seed, bounds)
keeps each pristine reset and expert episode, so the demo seed scan, the
demo builds and the eval loop never redraw a world. The arms of a sweep
share one store, because they hold the demo and eval seeds fixed; each arm
still runs its own seed scan, noise, keyframe selection and prompts.

The eval loop keeps a reply as bin rows: prompts.parse_bins reads it into
an N x 7 int array, discretize.bin_centers maps the rows to poses, and
each row replays as one Action. DiscreteAction and parse_response are the
API-edge view of the same rows and are not built here.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .discretize import bin_centers
from .keyframes import KeyframeIndices, extract_keyframes, sample_uniform
from .llm import (
    CompletionResult,
    Provider,
    TokenBucket,
    complete_mock_compositional,
    complete_mock_nearest,
    complete_remote,
)
from .model import (
    Action,
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
    WorkspaceBounds,
    verify_object_consistency,
)
from .prompts import (
    IclExample,
    ParseError,
    PromptBundle,
    assemble_prompt,
    build_closed_loop_example,
    build_example_input,
    build_icl_example,
    default_system_prompts,
    parse_bins,
)
from .sim import (
    ExecutionError,
    TaskId,
    TaskVariation,
    WorldState,
    add_pose_noise,
    check_success,
    execute_action,
    observations_of,
    replay_observations,
    reset,
    scripted_expert,
    task_spec,
)

DEFAULT_BOUNDS = WorkspaceBounds(-0.5, 0.5, -0.5, 0.5, 0.0, 0.5)
EVAL_SEED_OFFSET = 100_000
CSV_HEADER = ("task", "provider", "arm", "seed", "success", "parse_error", "n_actions", "latency_ms")

DEFAULT_SAMPLING_INTERVALS = (5, 10, 20, 40, 80)
DEFAULT_SHOT_COUNTS = (1, 2, 5, 10)
DEFAULT_NOISE_SCALES = (0.5, 1.0, 1.5, 2.0)


class KeyframeMode(Enum):
    KEYFRAMES = "keyframes"
    UNIFORM = "uniform"


class LoopMode(Enum):
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
        if self.n_demos < 1:
            raise ValueError(f"n_demos must be >= 1, got {self.n_demos}")
        if self.n_eval < 1:
            raise ValueError(f"n_eval must be >= 1, got {self.n_eval}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.system_prompt_index not in (0, 1, 2):
            raise ValueError(f"system_prompt_index must be 0, 1, or 2, got {self.system_prompt_index}")
        if self.uniform_interval < 1:
            raise ValueError(f"uniform_interval must be >= 1, got {self.uniform_interval}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.requests_per_second <= 0:
            raise ValueError(f"requests_per_second must be positive, got {self.requests_per_second}")
        if self.noise is not None and self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.eval_seeds is not None:
            object.__setattr__(self, "eval_seeds", tuple(int(s) for s in self.eval_seeds))
            if len(self.eval_seeds) != self.n_eval:
                raise ValueError(
                    f"eval_seeds has {len(self.eval_seeds)} entries but n_eval is {self.n_eval}"
                )

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any]) -> RunConfig:
        """The one schema for config files and CLI flags: enum fields take
        their string values, bounds six numbers, noise null, a number (k) or
        {"k": number}. eval_seeds is not accepted. Unknown keys and bad
        values raise ValueError.
        """
        defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name != "eval_seeds"}
        unknown = set(values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**{k: _config_value(k, defaults[k], v) for k, v in values.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(str(exc)) from None


def _config_value(name: str, default: Any, value: Any) -> Any:
    kind = TaskId if name == "task" else type(default)
    if issubclass(kind, Enum):
        return kind(value)
    if kind in (int, float, str):
        accepted = (int, float) if kind is float else kind  # JSON writes 1.0 as 1
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if name == "bounds" and not isinstance(value, WorkspaceBounds):
        if not isinstance(value, (list, tuple)) or len(value) != 6:
            raise ValueError("bounds must be six numbers: x_min x_max y_min y_max z_min z_max")
        return WorkspaceBounds(*(float(v) for v in value))
    if name == "noise" and value is not None:
        if isinstance(value, dict) and list(value) == ["k"]:
            value = value["k"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError('noise must be null, a number (k) or {"k": number}')
        return float(value)
    return value


@dataclass(frozen=True)
class EpisodeRecord:
    """Outcome of one evaluation episode.

    `n_executed` counts the actions that ran before an ExecutionError, and
    equals n_actions when none was raised. `failure` is the ParseError kind
    or the ExecutionError message, or None when the reply parsed and every
    action ran.
    """

    seed: int
    success: bool
    parse_error: bool
    n_actions: int
    latency_ms: int
    prompt_chars: int
    n_executed: int | None = None  # None: all n_actions
    failure: str | None = None

    def __post_init__(self):
        if self.n_executed is None:
            object.__setattr__(self, "n_executed", self.n_actions)


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
    """Multi-button evaluations learn from single-button demos."""
    return TaskId.PUSH_BUTTON if task is TaskId.PUSH_MULTIPLE_BUTTONS else task


class _Plans:
    """Pristine resets and expert episodes keyed on (task, seed, bounds).

    Nothing handed out may be mutated: callers clone a world before
    executing actions in it. A store lives for one run_eval call or one
    sweep, so nothing outlives the call that made it.
    """

    def __init__(self) -> None:
        self._resets: dict[tuple, tuple[WorldState, str, TaskVariation]] = {}
        self._experts: dict[tuple, Episode] = {}

    def reset(
        self, task: TaskId, seed: int, bounds: WorkspaceBounds
    ) -> tuple[WorldState, str, TaskVariation]:
        key = (task, seed, bounds)
        if key not in self._resets:
            self._resets[key] = reset(task, seed, bounds)
        return self._resets[key]

    def expert(self, task: TaskId, seed: int, bounds: WorkspaceBounds) -> Episode:
        key = (task, seed, bounds)
        if key not in self._experts:
            world, instruction, _ = self.reset(task, seed, bounds)
            self._experts[key] = scripted_expert(task, world, instruction)
        return self._experts[key]


def demo_seeds(config: RunConfig, plans: _Plans | None = None) -> tuple[int, ...]:
    """Scan seeds upward from config.seed, accepting one whose naturally
    drawn variation matches the next round-robin slot.

    Because acceptance depends only on earlier slots, a k-demo pool is a
    prefix of any larger pool for the same config. The scan's resets are
    kept in `plans` when given.
    """
    plans = plans or _Plans()
    task = demo_task(config.task)
    variations = task_spec(task).variations
    if not variations:
        raise ValueError(f"task {task.value} has no enumerable demo variations")
    slots = [variations[i % len(variations)] for i in range(config.n_demos)]
    chosen: list[int] = []
    seed = config.seed
    budget = config.n_demos * 200
    for slot in slots:
        while budget > 0:
            _, _, variation = plans.reset(task, seed, config.bounds)
            seed += 1
            budget -= 1
            if variation == slot:
                chosen.append(seed - 1)
                break
        else:
            raise RuntimeError(f"could not fill demo variation slots within budget for {task.value}")
    return tuple(chosen)


def demo_episodes(config: RunConfig, plans: _Plans | None = None) -> list[Episode]:
    """The scripted expert's episode on each demo seed, planned on the
    worlds the seed scan drew."""
    plans = plans or _Plans()
    task = demo_task(config.task)
    return [plans.expert(task, seed, config.bounds) for seed in demo_seeds(config, plans)]


def eval_seeds(config: RunConfig) -> tuple[int, ...]:
    if config.eval_seeds is not None:
        return config.eval_seeds
    return tuple(config.seed + EVAL_SEED_OFFSET + j for j in range(config.n_eval))


def _noise_seed(base: int, *tags: int) -> int:
    return int(np.random.SeedSequence([base, *tags]).generate_state(1)[0])


def _noised(
    observations: Sequence[ObjectObservation], config: RunConfig, *tags: int
) -> tuple[ObjectObservation, ...]:
    if config.noise is None:
        return tuple(observations)
    return add_pose_noise(observations, config.noise, seed=_noise_seed(config.seed, *tags))


_DEMO_NOISE_TAG = 1
_TEST_NOISE_TAG = 2


def _keyframes_for(config: RunConfig, episode: Episode) -> KeyframeIndices:
    if config.keyframe_mode is KeyframeMode.KEYFRAMES:
        return extract_keyframes(episode, config.delta)
    return sample_uniform(episode.length, config.uniform_interval)


def _demo_example(
    config: RunConfig, position: int, seed: int, episode: Episode, plans: _Plans
) -> IclExample:
    frames = _keyframes_for(config, episode)
    if len(frames) < 2:
        raise ValueError(
            f"demo seed {seed} has {len(frames)} keyframe at delta {config.delta}; "
            "a demo needs at least 2, so lower delta"
        )
    if config.loop_mode is LoopMode.OPEN:
        start_obs = _noised(episode.objects, config, _DEMO_NOISE_TAG, position)
        return build_icl_example(
            dataclasses.replace(episode, objects=start_obs), frames, config.bounds
        )
    # Closed loop re-observes the scene at each keyframe; replay the
    # expert to know where objects actually are.
    world = plans.reset(demo_task(config.task), seed, config.bounds)[0].clone()
    observed = replay_observations(world, episode, frames)
    return build_closed_loop_example(
        episode,
        frames,
        config.bounds,
        [_noised(observed[t], config, _DEMO_NOISE_TAG, position, t) for t in frames],
    )


def build_demo_pool(
    config: RunConfig, plans: _Plans | None = None
) -> tuple[tuple[int, ...], list[IclExample]]:
    """The demo seeds and the ICL example built on each, in pool order."""
    plans = plans or _Plans()
    seeds = demo_seeds(config, plans)
    episodes = [plans.expert(demo_task(config.task), s, config.bounds) for s in seeds]
    examples = [_demo_example(config, i, seeds[i], ep, plans) for i, ep in enumerate(episodes)]
    verify_object_consistency(episodes)
    return seeds, examples


def _provider(config: RunConfig) -> Callable[[PromptBundle], CompletionResult]:
    if config.provider is Provider.MOCK_NEAREST:
        return complete_mock_nearest
    if config.provider is Provider.MOCK_COMPOSITIONAL:
        return complete_mock_compositional
    credential = os.environ.get(config.credential_env)
    if not credential:
        raise ValueError(f"credential environment variable {config.credential_env!r} is not set")
    return functools.partial(
        complete_remote,
        endpoint=config.endpoint,
        credential=credential,
        model=config.model,
        max_tokens=config.max_tokens,
        rate_limiter=TokenBucket(config.requests_per_second),
    )


def eval_prompts(
    config: RunConfig, plans: _Plans | None = None
) -> Iterator[tuple[int, WorldState, TaskVariation, PromptBundle]]:
    """The prompt stage: for each eval seed, the seed, a fresh copy of its
    world (the caller may execute actions in it), its variation and the
    prompt the provider is sent.

    The demo pool is built before the first prompt, and the test
    observations carry the run's noise. run_eval and `iclmanip
    build-prompt` both read their prompts from here.
    """
    plans = plans or _Plans()
    d_seeds, examples = build_demo_pool(config, plans)
    e_seeds = eval_seeds(config)
    if config.eval_seeds is None and set(d_seeds) & set(e_seeds):
        raise RuntimeError("derived demo and eval seeds overlap; widen EVAL_SEED_OFFSET")
    system = default_system_prompts()[config.system_prompt_index]
    for j, seed in enumerate(e_seeds):
        world, instruction, variation = plans.reset(config.task, seed, config.bounds)
        world = world.clone()  # execute_action mutates it
        test_obs = _noised(observations_of(world), config, _TEST_NOISE_TAG, j)
        test_input = build_example_input(test_obs, instruction, config.bounds)
        yield seed, world, variation, assemble_prompt(examples, test_input, system)


def run_eval(config: RunConfig, arm: str = "eval", plans: _Plans | None = None) -> EvalReport:
    """Run the closed pipeline over n_eval fresh worlds and score successes.

    The provider is resolved (and a remote credential checked) before any
    world is planned. Parse failures count as failed episodes and never
    abort the run; transport and protocol errors from the remote provider
    do abort. A reply is parsed into bin rows, and each row's bin centers
    replay as one Action; an action leaving the workspace ends the
    episode, which is scored in the state reached and records the step and
    the message. `plans` is shared by the arms of a sweep; by default each
    call plans its own worlds.
    """
    complete = _provider(config)
    records = []
    for seed, world, variation, bundle in eval_prompts(config, plans):
        result = complete(bundle)
        failure, n_executed = None, 0
        try:
            bins = parse_bins(result.text)
        except ParseError as exc:
            bins, failure = None, exc.kind
        else:
            poses = bin_centers(bins[:, :6], config.bounds).tolist()
            try:
                for pose, bit in zip(poses, bins[:, 6].tolist()):
                    execute_action(world, Action(Pose6(*pose), GripperState.from_bit(bit)))
                    n_executed += 1
            except ExecutionError as exc:
                failure = str(exc)  # stop early; score whatever state we reached
        records.append(
            EpisodeRecord(
                seed=seed,
                success=bins is not None and check_success(config.task, world, variation),
                parse_error=bins is None,
                n_actions=0 if bins is None else len(bins),
                latency_ms=result.latency_ms,
                prompt_chars=len(bundle.system) + len(bundle.body),
                n_executed=n_executed,
                failure=failure,
            )
        )
    return EvalReport(arm=arm, records=tuple(records), config=config)


# name -> (leading fixed arms: config -> (config, label), default values,
# value arm: (config, value) -> (config, label)). Every arm of a sweep shares
# the caller's demo and eval seeds; only its setting varies.
SWEEPS: dict[str, tuple[tuple[Callable, ...], tuple, Callable]] = {
    "sampling": (
        (lambda c: (dataclasses.replace(c, keyframe_mode=KeyframeMode.KEYFRAMES), "keyframes"),),
        DEFAULT_SAMPLING_INTERVALS,
        lambda c, n: (
            dataclasses.replace(c, keyframe_mode=KeyframeMode.UNIFORM, uniform_interval=n),
            f"uniform-{n}",
        ),
    ),
    "shots": (
        (),
        DEFAULT_SHOT_COUNTS,
        lambda c, n: (dataclasses.replace(c, n_demos=n), f"shots-{n}"),
    ),
    "noise": (
        (),
        DEFAULT_NOISE_SCALES,
        lambda c, k: (dataclasses.replace(c, noise=k), f"noise-{k:g}"),
    ),
    "prompts": (
        (),
        (0, 1, 2),
        lambda c, i: (dataclasses.replace(c, system_prompt_index=i), f"prompt-{i}"),
    ),
    "loop": (
        (),
        tuple(LoopMode),
        lambda c, m: (dataclasses.replace(c, loop_mode=m), f"loop-{m.value}"),
    ),
}


def sweep(
    config: RunConfig, name: str, values: Sequence | None = None, plans: _Plans | None = None
) -> list[EvalReport]:
    """Run the arms of SWEEPS[name] in order; values replace its defaults.
    The arms share one plan store, so each world is planned once; pass
    `plans` to share it with further sweeps of the same config."""
    lead, defaults, arm = SWEEPS[name]
    arms = [make(config) for make in lead]
    arms += [arm(config, v) for v in (defaults if values is None else values)]
    plans = plans or _Plans()
    return [run_eval(cfg, arm=label, plans=plans) for cfg, label in arms]


def ablate_sampling(
    config: RunConfig, intervals: Sequence[int] = DEFAULT_SAMPLING_INTERVALS
) -> list[EvalReport]:
    """Keyframe selection vs fixed-interval sampling, shared seeds."""
    return sweep(config, "sampling", intervals)


def ablate_shots(
    config: RunConfig, shot_counts: Sequence[int] = DEFAULT_SHOT_COUNTS
) -> list[EvalReport]:
    """Demo-count sweep; smaller pools are prefixes of larger ones."""
    return sweep(config, "shots", shot_counts)


def ablate_noise(
    config: RunConfig, scales: Sequence[float] = DEFAULT_NOISE_SCALES
) -> list[EvalReport]:
    """Observation-noise sweep; noise hits demo and test observations."""
    return sweep(config, "noise", scales)


def ablate_prompts(config: RunConfig) -> list[EvalReport]:
    """One arm per system prompt; mock providers must tie exactly."""
    return sweep(config, "prompts")


def ablate_loop(config: RunConfig) -> list[EvalReport]:
    """Open-loop vs closed-loop prompt construction."""
    return sweep(config, "loop")


def emit_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Write per-episode rows sorted by (arm, seed); stable across reruns."""
    rows = []
    for report in reports:
        for record in report.records:
            rows.append(
                (
                    report.config.task.value,
                    report.config.provider.value,
                    report.arm,
                    record.seed,
                    int(record.success),
                    int(record.parse_error),
                    record.n_actions,
                    record.latency_ms,
                )
            )
    rows.sort(key=lambda r: (r[2], r[3]))
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)

"""Property tests of the batch builders.

pose_bin_rows bins an array of poses in one pass; every row equals its
bins alone and the scalar functions' bins for it. eval_prompts builds a
run's demo examples and test inputs in one call each; every body equals
the body that the builders give one item at a time, on single runs and on
every arm of the five sweeps, and a failing build raises the error that a
one-at-a-time build raises first. extract_keyframes_batch keyframes a pool
with one mask; each episode's frames equal its own extract_keyframes and
the oracle's.

Example counts come from the active hypothesis profile (tests/conftest.py).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from iclmanip import harness
from iclmanip.cli import _build_run_config, build_parser
from iclmanip.discretize import (
    ROTATION_BINS,
    TRANSLATION_BINS,
    discretize_rotation,
    discretize_translation,
    pose_bin_rows,
)
from iclmanip.harness import LoopMode, RunConfig, eval_prompts
from iclmanip.keyframes import KeyframeIndices, extract_keyframes, extract_keyframes_batch
from iclmanip.model import GripperState
from iclmanip.sim import TaskId

from conftest import ASYMMETRIC, BOUNDS, make_episode
from test_cli import WARM_COLD_FLAGS
from test_keyframes import oracle_extract


def _near(edge):
    return st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)])


def _translation(lo, hi):
    edges = st.integers(0, TRANSLATION_BINS).flatmap(lambda k: _near(lo + k * (hi - lo) / TRANSLATION_BINS))
    wide = st.floats(lo - (hi - lo), hi + (hi - lo))
    return st.one_of(wide, edges, st.sampled_from([5e307, -5e307, 0.0, -0.0]))


_angle = st.one_of(
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.integers(0, ROTATION_BINS - 1).flatmap(lambda b: _near(math.radians(b * 5.0))).filter(lambda a: 0.0 <= a < 2 * math.pi),
    st.just(-0.0),
)


@st.composite
def pose_arrays(draw):
    bounds = draw(st.sampled_from([BOUNDS, ASYMMETRIC]))
    column = [_translation(lo, hi) for lo, hi in bounds.limits] + [_angle] * 3
    rows = draw(st.lists(st.tuples(*column), min_size=1, max_size=12))
    return bounds, rows


@given(pose_arrays())
def test_pose_bin_rows_equals_a_one_row_call_on_every_row(case):
    bounds, rows = case
    binned = pose_bin_rows(np.array(rows, dtype=np.float64), bounds)
    assert binned.dtype == np.int64 and binned.shape == (len(rows), 6)
    for row, bins in zip(rows, binned.tolist()):
        scalar = [discretize_translation(v, lo, hi) for v, (lo, hi) in zip(row, bounds.limits)]
        scalar += [discretize_rotation(a) for a in row[3:]]
        assert bins == pose_bin_rows(np.array([row], dtype=np.float64), bounds)[0].tolist() == scalar, row


# Norms below and above delta = 0.1, so one-frame qualifying runs are common; random bits
# put gripper changes at the pool's episode boundaries as often as inside an episode.
_trace = st.integers(2, 9).flatmap(
    lambda T: st.tuples(
        st.lists(st.sampled_from([0.0, 0.05, 0.5]), min_size=T, max_size=T),
        st.lists(st.sampled_from(list(GripperState)), min_size=T, max_size=T),
    )
)


@given(st.lists(_trace, min_size=1, max_size=6))
def test_extract_keyframes_batch_equals_each_episode_alone(traces):
    episodes = [make_episode(norms, grips) for norms, grips in traces]
    pooled = extract_keyframes_batch(episodes, 0.1)
    assert len(pooled) == len(episodes)
    for frames, episode, (norms, grips) in zip(pooled, episodes, traces):
        assert type(frames) is KeyframeIndices
        assert list(frames) == list(extract_keyframes(episode, 0.1)) == oracle_extract(norms, grips, 0.1)


def _one_at_a_time(monkeypatch):
    """Rebind the harness's batch builders and replay to loops that hand them one item at a time."""
    for name in ("build_example_inputs", "build_icl_examples", "build_closed_loop_examples"):
        batch = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda items, bounds, k, batch=batch: [x for it in items for x in batch([it], bounds, k)]
        )
    replay = harness.replay_pose_rows
    monkeypatch.setattr(harness, "replay_pose_rows", lambda items: [x for it in items for x in replay([it])])


def _outcome(configs):
    """The bodies of the configs' prompts, built in turn on one cold store, or
    the error that building them raises."""
    harness._store.cache_clear()
    try:
        return [bundle.body for cfg in configs for _, bundle in eval_prompts(cfg)]
    except ValueError as exc:
        return type(exc), str(exc)


def _sweep_arms(flags):
    """Every arm of the five sweeps of `iclmanip ablate sampling shots noise prompts loop <flags>`, in order."""
    args = build_parser().parse_args(["ablate", *harness.SWEEPS, *flags.split(), "--n-demos", "4", "--n-eval", "5"])
    config = _build_run_config(args)
    values = {name: getattr(args, f"{name}_values", None) for name in harness.SWEEPS}
    return [cfg for name in harness.SWEEPS for cfg, _ in harness.sweep_arms(config, name, values[name])]


# One run per task, loop mode and noise; then each flag set of test_cli.py's WARM_COLD_FLAGS, with
# all five sweeps' arms run in turn on one store, as one ablate process runs them. A CSV row sees a
# prompt only through its reply, so a body that the batch builds otherwise shows only here.
_RUNS = [
    pytest.param(
        [RunConfig(task, n_demos=4, n_eval=5, seed=seed, noise=noise, loop_mode=loop, **fields)],
        id=f"{name}-{loop}-{noise}",
    )
    for name, task, seed, fields in [
        ("stack_cube", TaskId.STACK_CUBE, 0, {}),
        ("chained", TaskId.PUSH_MULTIPLE_BUTTONS, 3, {"provider": "mock-compositional"}),
        ("two-word-seed", TaskId.DESTACK_CUBE, 30000000007, {"keyframe_mode": "uniform", "uniform_interval": 7}),
    ]
    for loop in LoopMode
    for noise in (None, 0.7, 5e307, 1e308)
] + [
    pytest.param(_sweep_arms(flags), id=f"sweeps {flags}")
    for flags in (" ".join([flags, *values.values()]) for flags, values in WARM_COLD_FLAGS)
]


@pytest.mark.parametrize("configs", _RUNS)
def test_eval_prompts_equal_a_loop_over_the_one_item_builders(monkeypatch, configs):
    batch = _outcome(configs)
    _one_at_a_time(monkeypatch)
    assert _outcome(configs) == batch
    if configs[0].noise == 1e308:
        assert batch[0] is ValueError and "must be finite" in batch[1]
    else:
        assert len(batch) == sum(cfg.n_eval for cfg in configs)


@pytest.mark.parametrize("loop", list(LoopMode))
@pytest.mark.parametrize("noise", [None, 1e308])
@pytest.mark.parametrize("short", [0, 1, 3])
def test_a_pool_raises_the_first_error_of_a_one_at_a_time_build(monkeypatch, loop, noise, short):
    # Demo `short` keeps only its last keyframe; with noise past the float
    # range the earlier demos may fail first, on their noise.
    cfg = RunConfig(TaskId.STACK_CUBE, n_demos=4, n_eval=2, noise=noise, loop_mode=loop)
    plans = harness._plans(cfg)
    seeds = harness.demo_seeds(cfg)
    episodes = plans.experts(cfg.task, seeds)
    real = harness.extract_keyframes_batch

    def keyframes(batch, delta):
        frames = real(batch, delta)
        return [KeyframeIndices((ep.length - 1,)) if ep is episodes[short] else f for ep, f in zip(batch, frames)]

    monkeypatch.setattr(harness, "extract_keyframes_batch", keyframes)
    demos = [(i, seed, episode) for i, (seed, episode) in enumerate(zip(seeds, episodes))]

    def first_error(groups):
        for group in groups:
            try:
                harness._demo_examples(cfg, plans, group)
            except ValueError as exc:
                return type(exc), str(exc)
        return None

    alone = first_error([[demo] for demo in demos])
    assert alone is not None
    assert first_error([demos]) == alone
    if noise is None:
        assert alone[1].startswith(f"demo seed {seeds[short]} has 1 keyframe at delta")
    with pytest.raises(ValueError) as err:
        harness.build_demo_pool(cfg)
    assert (type(err.value), str(err.value)) == alone

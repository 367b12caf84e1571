"""Property tests of the batch builders.

pose_bin_rows bins an array of poses in one pass; every row equals
pose_bin_row's bins and the scalar functions' bins for it. eval_prompts
builds a run's demo examples and test inputs in one call each; every body
equals the body that a loop over the one-item builders gives, and a
failing build raises the error that a one-at-a-time build raises first.

Example counts come from the active hypothesis profile (tests/conftest.py).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from iclmanip import harness
from iclmanip.discretize import (
    ROTATION_BINS,
    TRANSLATION_BINS,
    discretize_rotation,
    discretize_translation,
    pose_bin_row,
    pose_bin_rows,
)
from iclmanip.harness import LoopMode, RunConfig, eval_prompts
from iclmanip.keyframes import KeyframeIndices
from iclmanip.prompts import build_closed_loop_example, build_example_input, build_icl_example
from iclmanip.sim import TaskId, scale_pose_noise

from conftest import ASYMMETRIC, BOUNDS


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
def test_pose_bin_rows_equals_pose_bin_row_on_every_row(case):
    bounds, rows = case
    binned = pose_bin_rows(np.array(rows, dtype=np.float64), bounds)
    assert binned.dtype == np.int64 and binned.shape == (len(rows), 6)
    for row, bins in zip(rows, binned.tolist()):
        scalar = [discretize_translation(v, lo, hi) for v, (lo, hi) in zip(row, bounds.limits)]
        scalar += [discretize_rotation(a) for a in row[3:]]
        assert tuple(bins) == pose_bin_row(row, bounds) == tuple(scalar), row


def _noised(scene, k, draws):
    return scale_pose_noise(scene, k, draws) if k else scene


def _one_at_a_time(monkeypatch):
    """Rebind the harness's batch builders to loops over the one-item builders."""
    monkeypatch.setattr(
        harness,
        "build_example_inputs",
        lambda items, bounds, k: [build_example_input(_noised(s, k, d), i, bounds) for s, i, d in items],
    )
    monkeypatch.setattr(
        harness,
        "build_icl_examples",
        lambda items, bounds, k: [build_icl_example(e, f, bounds, _noised(s, k, d)) for e, f, s, d in items],
    )
    monkeypatch.setattr(
        harness,
        "build_closed_loop_examples",
        lambda items, bounds, k: [
            build_closed_loop_example(e, f, bounds, [_noised(s, k, d) for s, d in zip(blocks, draws)] if k else blocks)
            for e, f, blocks, draws in items
        ],
    )


def _outcome(cfg):
    """The bodies of cfg's prompts on a cold store, or the error that building them raises."""
    harness._STORE = harness._Plans()
    try:
        return [bundle.body for _, bundle in eval_prompts(cfg)]
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("noise", [None, 0.7, 5e307, 1e308])
@pytest.mark.parametrize("loop", list(LoopMode))
@pytest.mark.parametrize(
    "task, seed, fields",
    [
        (TaskId.STACK_CUBE, 0, {}),
        (TaskId.PUSH_MULTIPLE_BUTTONS, 3, {"provider": "mock-compositional"}),
        (TaskId.DESTACK_CUBE, 30000000007, {"keyframe_mode": "uniform", "uniform_interval": 7}),
    ],
    ids=["stack_cube", "chained", "two-word-seed"],
)
def test_eval_prompts_equal_a_loop_over_the_one_item_builders(monkeypatch, noise, loop, task, seed, fields):
    cfg = RunConfig(task, n_demos=4, n_eval=5, seed=seed, noise=noise, loop_mode=loop, **fields)
    batch = _outcome(cfg)
    _one_at_a_time(monkeypatch)
    assert _outcome(cfg) == batch
    if noise == 1e308:
        assert batch[0] is ValueError and "must be finite" in batch[1]
    else:
        assert len(batch) == cfg.n_eval


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
    real = harness._keyframes_for

    def keyframes(config, seed, episode, plans):
        if seed == seeds[short]:
            return KeyframeIndices((episode.length - 1,), episode.length)
        return real(config, seed, episode, plans)

    monkeypatch.setattr(harness, "_keyframes_for", keyframes)
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

"""Keyframe selection against a brute-force oracle.

The oracle re-states the selection rule directly from its definition with
no shared code: walk every t, test the two conditions, collapse runs by
scanning forward. The per-frame rule (a loop over each timestep's
velocity row, summing squares in plain Python, and Action.gripper) is
kept here as a second reference for the array masks the module uses.
"""

import math

import numpy as np
import pytest

from iclmanip.keyframes import (
    KeyframeIndices,
    extract_keyframes,
    qualifying_indices,
    sample_uniform,
)
from iclmanip.model import Episode, GripperState

from conftest import make_episode

OPEN = GripperState.OPEN
CLOSED = GripperState.CLOSED


def oracle_qualifying(norms, grips, delta):
    T = len(norms)
    out = []
    for t in range(T):
        near_zero = norms[t] < delta
        toggles = t < T - 1 and grips[t] != grips[t + 1]
        if near_zero or toggles:
            out.append(t)
    return out


def oracle_extract(norms, grips, delta):
    qualifying = set(oracle_qualifying(norms, grips, delta))
    T = len(norms)
    kept = []
    t = 0
    while t < T:
        if t in qualifying:
            end = t
            while end + 1 in qualifying:
                end += 1
            kept.append(end)
            t = end + 1
        else:
            t += 1
    if not kept or kept[-1] != T - 1:
        kept.append(T - 1)
    return kept


def frame_norm(episode, t):
    return math.sqrt(sum(v * v for v in episode.joint_velocities[t].tolist()))


def per_frame_qualifying(episode, delta):
    T = episode.length
    return [
        t
        for t in range(T)
        if frame_norm(episode, t) < delta
        or (t < T - 1 and episode.actions[t].gripper != episode.actions[t + 1].gripper)
    ]


def per_frame_extract(episode, delta):
    raw = per_frame_qualifying(episode, delta)
    kept = [t for i, t in enumerate(raw) if i + 1 == len(raw) or raw[i + 1] != t + 1]
    if not kept or kept[-1] != episode.length - 1:
        kept.append(episode.length - 1)
    return kept


def array_episode(norms, grips):
    """The make_episode trace built straight from arrays."""
    T = len(norms)
    ref = make_episode(norms, grips)
    poses = np.zeros((T, 6))
    poses[:, 0] = 0.001 * np.arange(T)
    poses[:, 2] = 0.1
    bits = np.array([g.to_bit() for g in grips])
    velocities = np.repeat((np.array(norms) / np.sqrt(7))[:, np.newaxis], 7, axis=1)
    return Episode(ref.instruction, ref.objects, poses, bits, velocities)


def random_trace(rng):
    T = int(rng.integers(2, 40))
    norms = [float(rng.uniform(0, 0.2)) for _ in range(T)]
    grips = [OPEN if rng.integers(0, 2) else CLOSED for _ in range(T)]
    return norms, grips


def test_low_velocity_runs_collapse_to_last():
    ep = make_episode([0.5, 0.5, 0.05, 0.5, 0.5])
    assert list(extract_keyframes(ep, 0.1)) == [2, 4]

    ep = make_episode([0.05, 0.04, 0.5, 0.03, 0.02, 0.5])
    assert list(extract_keyframes(ep, 0.1)) == [1, 4, 5]


def test_gripper_toggle_qualifies_without_slow_frames():
    grips = [OPEN, OPEN, CLOSED, CLOSED]
    ep = make_episode([0.5, 0.5, 0.5, 0.5], grips)
    assert list(extract_keyframes(ep, 0.1)) == [1, 3]


def test_last_frame_always_kept():
    ep = make_episode([0.5, 0.5, 0.5])
    assert list(extract_keyframes(ep, 0.1)) == [2]


def test_first_frame_kept_when_it_qualifies():
    ep = make_episode([0.01, 0.5, 0.5])
    assert list(extract_keyframes(ep, 0.1)) == [0, 2]


def test_qualifying_matches_oracle_on_random_traces():
    rng = np.random.default_rng(11)
    for _ in range(500):
        norms, grips = random_trace(rng)
        delta = float(rng.uniform(0.01, 0.15))
        ep = make_episode(norms, grips)
        assert array_episode(norms, grips) == ep
        expected = oracle_qualifying(norms, grips, delta)
        assert list(qualifying_indices(ep, delta)) == expected
        assert list(qualifying_indices(array_episode(norms, grips), delta)) == expected
        assert per_frame_qualifying(ep, delta) == expected


def test_extraction_matches_oracle_on_random_traces():
    rng = np.random.default_rng(12)
    for _ in range(500):
        norms, grips = random_trace(rng)
        delta = float(rng.uniform(0.01, 0.15))
        ep = make_episode(norms, grips)
        got = list(extract_keyframes(ep, delta))
        assert got == oracle_extract(norms, grips, delta)
        assert list(extract_keyframes(array_episode(norms, grips), delta)) == got
        assert per_frame_extract(ep, delta) == got
        assert got[-1] == ep.length - 1
        assert all(a < b for a, b in zip(got, got[1:]))


def test_masks_match_per_frame_rule_at_the_threshold():
    """Random seven-joint velocities with delta set to one frame's exact
    per-frame norm: a mask norm one bit off would flip that frame."""
    rng = np.random.default_rng(14)
    for _ in range(500):
        T = int(rng.integers(2, 40))
        velocities = rng.normal(0.0, 0.05, size=(T, 7)) * rng.choice([0.0, 1.0], size=(T, 1), p=[0.2, 0.8])
        bits = rng.integers(0, 2, size=T)
        ep = Episode("push the red button", make_episode([0.0, 0.0]).objects, np.zeros((T, 6)), bits, velocities)
        delta = frame_norm(ep, int(rng.integers(0, T))) or 0.01
        assert qualifying_indices(ep, delta) == per_frame_qualifying(ep, delta)
        assert list(extract_keyframes(ep, delta)) == per_frame_extract(ep, delta)


def test_delta_must_be_positive():
    ep = make_episode([0.5, 0.5])
    with pytest.raises(ValueError):
        extract_keyframes(ep, 0.0)
    with pytest.raises(ValueError):
        extract_keyframes(ep, -0.1)


def test_keyframe_indices_validation():
    with pytest.raises(ValueError):
        KeyframeIndices(())
    with pytest.raises(ValueError):
        KeyframeIndices((3, 0, 9))  # not increasing
    with pytest.raises(ValueError, match="strictly increasing"):
        KeyframeIndices((0, 3, 3, 9))  # a repeat
    with pytest.raises(ValueError):
        KeyframeIndices((-1, 9))
    k = KeyframeIndices((0, 3, 9))
    assert len(k) == 3 and k[1] == 3 and list(k) == [0, 3, 9]


def test_sample_uniform_examples():
    assert list(sample_uniform(10, 5)) == [0, 5, 9]
    assert list(sample_uniform(10, 20)) == [0, 9]
    assert list(sample_uniform(201, 40)) == [0, 40, 80, 120, 160, 200]


def test_sample_uniform_properties():
    rng = np.random.default_rng(13)
    for _ in range(300):
        T = int(rng.integers(2, 400))
        k = int(rng.integers(1, 120))
        got = list(sample_uniform(T, k))
        assert got[0] == 0
        assert got[-1] == T - 1
        assert all(a < b for a, b in zip(got, got[1:]))
        body = [i for i in got if i != T - 1]
        assert body == [i * k for i in range(len(body))]


def test_sample_uniform_validation():
    with pytest.raises(ValueError):
        sample_uniform(1, 5)
    for interval in (0, -1):
        with pytest.raises(ValueError, match="^interval must be >= 1, got"):
            sample_uniform(10, interval)

"""Discretization: hand-computed scalar oracles, clamping, round trips."""

import math
import sys

import numpy as np
import pytest

from iclmanip.discretize import (
    ROTATION_BINS,
    ROW_COLUMNS,
    TRANSLATION_BINS,
    DiscreteAction,
    DiscretePose,
    dediscretize_action,
    dediscretize_rotation,
    dediscretize_translation,
    discretize_action,
    discretize_rotation,
    discretize_translation,
    pose_bin_rows,
    row_pose,
)
from iclmanip.model import Action, GripperState, Pose6

from conftest import ASYMMETRIC, BOUNDS


def test_translation_hand_examples():
    # bin = floor((v - min) / span * 100) on [-0.5, 0.5]
    assert discretize_translation(0.005, -0.5, 0.5) == 50
    assert discretize_translation(-0.5, -0.5, 0.5) == 0
    assert discretize_translation(-0.496, -0.5, 0.5) == 0
    assert discretize_translation(-0.49, -0.5, 0.5) == 1
    assert discretize_translation(0.499, -0.5, 0.5) == 99
    # values outside the range clamp instead of failing
    assert discretize_translation(0.5, -0.5, 0.5) == 99
    assert discretize_translation(7.0, -0.5, 0.5) == 99
    assert discretize_translation(-7.0, -0.5, 0.5) == 0


def test_translation_centers():
    assert dediscretize_translation(0, -0.5, 0.5) == pytest.approx(-0.495)
    assert dediscretize_translation(99, -0.5, 0.5) == pytest.approx(0.495)
    assert dediscretize_translation(50, -0.5, 0.5) == pytest.approx(0.005)


def test_rotation_hand_examples():
    # 5 degree bins over [0, 360); negatives wrap first
    assert discretize_rotation(0.0) == 0
    assert discretize_rotation(math.radians(4.999)) == 0
    assert discretize_rotation(math.radians(5.0)) == 1
    assert discretize_rotation(math.radians(-1.0)) == 71
    assert discretize_rotation(math.radians(359.999)) == 71
    assert discretize_rotation(2 * math.pi) == 0
    assert dediscretize_rotation(0) == pytest.approx(math.radians(2.5))
    assert dediscretize_rotation(71) == pytest.approx(math.radians(357.5))


def test_identity_on_every_bin():
    lo, hi = -0.5, 0.5
    for b in range(TRANSLATION_BINS):
        assert discretize_translation(dediscretize_translation(b, lo, hi), lo, hi) == b
    for b in range(ROTATION_BINS):
        assert discretize_rotation(dediscretize_rotation(b)) == b


def test_random_round_trip_error_bounds():
    rng = np.random.default_rng(21)
    lo, hi = -0.5, 0.5
    half_bin = (hi - lo) / TRANSLATION_BINS / 2
    for _ in range(5000):
        v = float(rng.uniform(lo, hi))
        back = dediscretize_translation(discretize_translation(v, lo, hi), lo, hi)
        assert abs(back - v) <= half_bin + 1e-12

        a = float(rng.uniform(0, 2 * math.pi))
        back = dediscretize_rotation(discretize_rotation(a))
        err = abs(back - a)
        err = min(err, 2 * math.pi - err)  # wrap-aware
        assert err <= math.radians(2.5) + 1e-12


def test_pose_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(500):
        p = Pose6(
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0.0, 0.5)),
            float(rng.uniform(0, 2 * math.pi)),
            float(rng.uniform(0, 2 * math.pi)),
            float(rng.uniform(0, 2 * math.pi)),
        )
        bins = pose_bin_rows(np.array([p.as_list()]), BOUNDS)[0].tolist()
        back = row_pose(bins, BOUNDS)
        assert abs(back.x - p.x) <= 0.005 + 1e-12
        assert abs(back.z - p.z) <= 0.0025 + 1e-12  # z span is half as wide
        assert pose_bin_rows(np.array([back.as_list()]), BOUNDS)[0].tolist() == bins


def test_discrete_pose_validation():
    DiscretePose(0, 0, 0, 0, 0, 0)
    DiscretePose(99, 99, 99, 71, 71, 71)
    with pytest.raises(ValueError):
        DiscretePose(100, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        DiscretePose(0, 0, 0, 72, 0, 0)
    with pytest.raises(ValueError):
        DiscretePose(-1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        DiscretePose(0.5, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        DiscretePose(True, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("bounds", [BOUNDS, ASYMMETRIC])
def test_row_table_matches_the_scalar_functions(bounds):
    # row_pose reads center_table: every bin index of every pose column
    # must give exactly the scalar function's center.
    for i in range(TRANSLATION_BINS):
        back = row_pose((i, i, i, 0, 0, 0), bounds)
        assert [back.x, back.y, back.z] == [dediscretize_translation(i, lo, hi) for lo, hi in bounds.limits]
    for i in range(ROTATION_BINS):
        back = row_pose((0, 0, 0, i, i, i), bounds)
        assert [back.roll, back.pitch, back.yaw] == [dediscretize_rotation(i)] * 3
    # Each column of ROW_COLUMNS takes its last bin and rejects one past it.
    assert [name for name, _ in ROW_COLUMNS] == ["tx", "ty", "tz", "rr", "rp", "ry", "g"]
    for k, (name, bins) in enumerate(ROW_COLUMNS[:6]):
        row = [0] * 6
        row[k] = bins - 1
        assert getattr(DiscretePose(*row), name) == bins - 1
        row[k] = bins
        with pytest.raises(ValueError, match=rf"^DiscretePose\.{name} must be an int in \[0, {bins}\), got {bins}$"):
            DiscretePose(*row)
    _, gripper_bins = ROW_COLUMNS[6]
    assert DiscreteAction(DiscretePose(0, 0, 0, 0, 0, 0), gripper_bins - 1).gripper == 1
    with pytest.raises(ValueError, match=r"^DiscreteAction\.gripper must be 0 or 1, got 2$"):
        DiscreteAction(DiscretePose(0, 0, 0, 0, 0, 0), gripper_bins)


def test_discrete_action_round_trip():
    act = Action(Pose6(0.1, -0.2, 0.3, 1.0, 2.0, 3.0), GripperState.CLOSED)
    da = discretize_action(act, BOUNDS)
    assert da.gripper == 0
    assert len(da.as_tuple()) == 7
    back = dediscretize_action(da, BOUNDS)
    assert back.gripper is GripperState.CLOSED
    assert discretize_action(back, BOUNDS) == da
    with pytest.raises(ValueError):
        DiscreteAction(da.pose, 2)


def _pose_rows(bounds):
    rng = np.random.default_rng(23)
    lo = np.array([bounds.x_min, bounds.y_min, bounds.z_min])
    hi = np.array([bounds.x_max, bounds.y_max, bounds.z_max])
    span = hi - lo
    rows = [
        np.concatenate((rng.uniform(lo - span, hi + span), rng.uniform(-4 * math.pi, 4 * math.pi, 3)))
        for _ in range(2000)
    ]
    below_two_pi = math.nextafter(2 * math.pi, 0.0)
    for k in range(TRANSLATION_BINS + 1):
        edge = lo + k * span / TRANSLATION_BINS  # bin edges, and the values either side
        for t in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
            a = math.radians(k * 360.0 / TRANSLATION_BINS)
            rows.append(np.concatenate((t, [a, -a, below_two_pi])))
    for b in range(ROTATION_BINS + 1):
        a = math.radians(b * 5.0)  # rotation bin edges
        rows.append(np.concatenate((lo, [a, math.nextafter(a, 0.0), math.nextafter(a, 7.0)])))
    # Clamped to the edge bins; the last two bin to raw = -inf and +inf.
    for t in (lo - 7.0, hi + 7.0, lo - 1e300, hi + 1e300, lo - sys.float_info.max, hi + sys.float_info.max):
        rows.append(np.concatenate((t, [-0.0, -1e-300, 2 * math.pi])))
    rows.append(np.array([0.0, 0.0, 0.0, -math.pi / 2, -2 * math.pi, -1e-17]))
    return np.array(rows)


@pytest.mark.parametrize("bounds", [BOUNDS, ASYMMETRIC])
def test_one_row_bins_equal_the_scalar_functions(bounds):
    # The oracle is each column's scalar function on the raw row, which
    # pose_bin_rows inlines; discretize_action bins its pose through
    # pose_bin_rows, so it is checked against the same oracle.
    for row in _pose_rows(bounds).tolist():
        expected = tuple(
            discretize_translation(v, lo, hi) for v, (lo, hi) in zip(row[:3], bounds.limits)
        ) + tuple(discretize_rotation(a) for a in row[3:])
        pose = Pose6(*row)
        assert tuple(pose_bin_rows(np.array([pose.as_list()]), bounds)[0].tolist()) == expected
        assert discretize_action(Action(pose, GripperState.OPEN), bounds).pose.as_tuple() == expected

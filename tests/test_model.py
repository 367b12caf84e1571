import json
import math

import numpy as np
import pytest

from iclmanip.model import (
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
    WorkspaceBounds,
    save_episodes,
    velocity_norms,
    wrap_angle,
)
from iclmanip.sim import TaskId, reset, scripted_expert

from conftest import make_episode


def test_pose_wraps_angles():
    p = Pose6(0, 0, 0, -math.pi / 2, 2 * math.pi, 5 * math.pi)
    assert p.roll == pytest.approx(3 * math.pi / 2)
    assert p.pitch == 0.0
    assert p.yaw == pytest.approx(math.pi)
    assert all(0 <= a < 2 * math.pi for a in (p.roll, p.pitch, p.yaw))


def test_pose_rejects_bad_values():
    with pytest.raises(ValueError):
        Pose6(float("nan"), 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        Pose6(float("inf"), 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        Pose6("0.1", 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        Pose6(True, 0, 0, 0, 0, 0)


_POSE_FIELDS = ("x", "y", "z", "roll", "pitch", "yaw")


def _reference_pose6(*values):
    """Pose6's field checks and conversions without its fast path."""
    for name, v in zip(_POSE_FIELDS, values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"Pose6.{name} must be a number, got {v!r}")
        if not math.isfinite(v):
            raise ValueError(f"Pose6.{name} must be finite, got {v!r}")
    x, y, z, roll, pitch, yaw = (float(v) for v in values)
    return [x, y, z, wrap_angle(roll), wrap_angle(pitch), wrap_angle(yaw)]


_BELOW_TWO_PI = math.nextafter(2 * math.pi, 0.0)
_POSE6_CASES = [
    (0.1, -0.2, 0.3, 1.0, 2.0, 3.0),
    (1, 2, 3, 4, 5, 6),
    (0, 0, 0, 0, 0, 0),
    (True, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, False),
    tuple(np.float64(v) for v in (0.1, -0.2, 0.3, -1.0, 7.0, 3.0)),
    (0.1, np.float64(0.2), 0.3, 1.0, 2.0, np.float64(-0.5)),
    (1e308, 1e308, 0.0, 0.0, 0.0, 0.0),  # finite terms whose sum overflows
    (-1e308, 0.0, 0.0, -1e308, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1e308, 1e308, 1e308),
    (0.0, 0.0, 0.0, -0.0, 2 * math.pi, -1e-300),
    (0.0, 0.0, 0.0, _BELOW_TWO_PI, -_BELOW_TWO_PI, -2 * math.pi),
    (0.0, 0.0, 0.0, -math.pi / 2, 5 * math.pi, 1e-300),
    (-0.0, -0.0, -0.0, 0.0, 0.0, 0.0),
    ("0.1", 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, None),
] + [
    tuple(bad if i == k else 0.0 for i in range(6))
    for k in range(6)
    for bad in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("values", _POSE6_CASES, ids=repr)
def test_pose_matches_reference_checks_bit_for_bit(values):
    try:
        expected = _reference_pose6(*values)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Pose6(*values)
        assert str(raised.value) == str(exc)
        return
    got = Pose6(*values).as_list()
    assert [type(v) for v in got] == [float] * 6
    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_pose_list_round_trip():
    p = Pose6(0.1, -0.2, 0.3, 1.0, 2.0, 3.0)
    assert Pose6(*p.as_list()) == p


def test_gripper_bits():
    assert GripperState.OPEN.to_bit() == 1
    assert GripperState.CLOSED.to_bit() == 0
    assert GripperState.from_bit(1) is GripperState.OPEN
    assert GripperState.from_bit(0) is GripperState.CLOSED
    with pytest.raises(ValueError):
        GripperState.from_bit(2)


def test_episode_validation():
    ep = make_episode([0.0, 0.5, 0.0])
    assert ep.length == 3
    arrays = (ep.poses, ep.gripper_bits, ep.joint_velocities)
    with pytest.raises(ValueError):
        Episode("", ep.objects, *arrays)
    with pytest.raises(ValueError):
        Episode(ep.instruction, (), *arrays)
    with pytest.raises(ValueError):
        Episode(ep.instruction, ep.objects, ep.poses, ep.gripper_bits, ep.joint_velocities[:-1])
    with pytest.raises(ValueError):
        Episode(ep.instruction, ep.objects, *(array[:1] for array in arrays))
    dup = (ep.objects[0], ep.objects[0])
    with pytest.raises(ValueError):
        Episode(ep.instruction, dup, *arrays)


def per_frame_norms(velocities):
    """The per-frame norm rule: a plain Python sum of squares per row."""
    return [math.sqrt(sum(v * v for v in row)) for row in velocities.tolist()]


def test_velocity_norms_match_per_frame_norm_bit_for_bit():
    rng = np.random.default_rng(21)
    rows = np.concatenate(
        [
            rng.normal(0.0, 1.0, size=(2000, 7)) * 10.0 ** rng.integers(-4, 4, size=(2000, 1)),
            np.repeat(rng.uniform(0, 0.03, size=(500, 1)) / math.sqrt(7), 7, axis=1),
            np.zeros((1, 7)),
        ]
    )
    assert velocity_norms(rows).tolist() == per_frame_norms(rows)
    for task in TaskId:
        world, instruction, _ = reset(task, 5, WorkspaceBounds(-0.5, 0.5, -0.5, 0.5, 0.0, 0.5))
        ep = scripted_expert(task, world, instruction)
        assert velocity_norms(ep.joint_velocities).tolist() == per_frame_norms(ep.joint_velocities)


def test_episode_arrays_are_validated_copies():
    ep = make_episode([0.0, 0.5, 0.0], [GripperState.OPEN, GripperState.CLOSED, GripperState.CLOSED])
    poses = np.array(ep.poses)
    poses[1, 5] = -math.pi / 2  # wrapped on construction
    bits = np.array([1, 0, 0])
    vels = np.array(ep.joint_velocities)
    built = Episode(ep.instruction, ep.objects, poses, bits, vels)
    assert built.poses[1, 5] == pytest.approx(1.5 * math.pi)
    assert built.action(1).pose.yaw == built.poses[1, 5]
    poses[0, 0] = 9.0  # the episode holds its own copy
    assert built.poses[0, 0] == ep.poses[0, 0]
    for array in (built.poses, built.gripper_bits, built.joint_velocities):
        with pytest.raises(ValueError):
            array[0] = 0
    assert built.gripper_bits.dtype == np.int8

    bad_pose = np.array(ep.poses)
    bad_pose[2, 1] = math.inf
    bad_vels = np.array(vels)
    bad_vels[1, 6] = -math.inf
    v = 0.5 / math.sqrt(7)
    cases = [
        ((bad_pose, bits, vels), "Episode.poses[2] must be finite"),
        ((ep.poses, [1, 2, 0], vels), "Episode.gripper_bits[1] must be 0 or 1"),
        ((ep.poses[:, :5], bits, vels), "Episode.poses must have shape (T, 6)"),
        ((ep.poses, bits, vels[:2]), "Episode length mismatch"),
        ((ep.poses[:1], bits[:1], vels[:1]), "T >= 2"),
        ((ep.poses, bits, np.full((3, 7), math.nan)), "Episode.joint_velocities[0] must be finite"),
        ((ep.poses, [1, 0, -math.inf], vels), "Episode.gripper_bits[2] must be finite, got -inf"),
        ((ep.poses, bits, bad_vels), f"Episode.joint_velocities[1] must be finite, got {[v] * 6 + [-math.inf]!r}"),
    ]
    for arrays, message in cases:
        with pytest.raises(ValueError) as err:
            Episode(ep.instruction, ep.objects, *arrays)
        assert message in str(err.value)


def test_episode_per_frame_views():
    grips = [GripperState.OPEN, GripperState.CLOSED, GripperState.OPEN]
    ep = make_episode([0.0, 0.5, 0.25], grips)
    assert [a.gripper for a in ep.actions] == grips
    assert [ep.action(t) for t in range(ep.length)] == list(ep.actions)
    assert ep.actions[1].pose == Pose6(0.001, 0.0, 0.1, 0.0, 0.0, 0.0)
    assert per_frame_norms(ep.joint_velocities) == pytest.approx([0.0, 0.5, 0.25])
    assert Episode(ep.instruction, ep.objects, ep.poses, ep.gripper_bits, ep.joint_velocities) == ep
    assert hash(make_episode([0.0, 0.5, 0.25], grips)) == hash(ep)
    assert ep != make_episode([0.0, 0.5, 0.25])
    assert ep != make_episode([0.0, 0.5, 0.3], grips)


def test_workspace_bounds():
    b = WorkspaceBounds(-0.5, 0.5, -0.5, 0.5, 0.0, 0.5)
    assert b.limits[0] == (-0.5, 0.5)
    assert b.limits[2] == (0.0, 0.5)
    assert WorkspaceBounds(-0.5, 0.5, 0.0, 1e300, 0.0, 0.5).limits[1] == (0.0, 1e300)
    with pytest.raises(ValueError):
        WorkspaceBounds(0.5, -0.5, -0.5, 0.5, 0.0, 0.5)
    # A wider span would put bin centers, lo + (bin + 0.5) * span / 100, at inf.
    for limits in ((-1e308, 1e308), (0.0, 2e300), (math.nan, 0.5), (-0.5, math.inf)):
        with pytest.raises(ValueError, match=r"^WorkspaceBounds\.y limits must be finite and at most 1e300 apart$"):
            WorkspaceBounds(-0.5, 0.5, *limits, 0.0, 0.5)


def test_save_load_round_trip(tmp_path):
    eps = [
        make_episode([0.0, 0.5, 0.0], [GripperState.OPEN, GripperState.OPEN, GripperState.CLOSED]),
        make_episode([0.0, 0.2, 0.1, 0.0]),
    ]
    path = tmp_path / "episodes.jsonl"
    save_episodes(eps, path)
    text = path.read_text()
    assert text.count("\n") == 2  # one line per episode
    for ep, line in zip(eps, text.splitlines()):
        record = json.loads(line)
        assert record["instruction"] == ep.instruction
        assert [(o["name"], o["pose"]) for o in record["objects"]] == [(o.name, o.pose.as_list()) for o in ep.objects]
        # Floats come back bit for bit.
        assert np.array_equal(np.array(record["velocities"]), ep.joint_velocities)
        assert np.array_equal(np.array([a["pose"] for a in record["actions"]]), ep.poses)
        assert [a["gripper"] for a in record["actions"]] == ep.gripper_bits.tolist()

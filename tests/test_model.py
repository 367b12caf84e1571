import csv
import json
import math
import os
import re
import stat
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import iclmanip.cli as cli
import iclmanip.model as model
from iclmanip.cli import main
from iclmanip.harness import RunConfig, demo_episodes, emit_csv, run_eval
from iclmanip.model import (
    Action,
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
    WorkspaceBounds,
    _write_plan,
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
    # The values that hold a pose check their fields too.
    pose = Pose6(0.0, 0.0, 0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="Action.pose must be a Pose6"):
        Action([0.0, 0.0, 0.1, 0.0, 0.0, 0.0], GripperState.OPEN)
    with pytest.raises(ValueError, match="Action.gripper must be a GripperState"):
        Action(pose, 1)
    for name in ("", None):
        with pytest.raises(ValueError, match="ObjectObservation.name must be a non-empty string"):
            ObjectObservation(name, pose)
    with pytest.raises(ValueError, match="ObjectObservation.pose must be a Pose6"):
        ObjectObservation("red button", (0.0, 0.0, 0.1, 0.0, 0.0, 0.0))


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
    # One signed zero per angle, the rest in (0, 2*pi): -0.0 wraps to +0.0.
    (0.1, 0.2, 0.3, 0.0, 1.0, 2.0),
    (0.1, 0.2, 0.3, 1.0, -0.0, 2.0),
    (0.1, 0.2, 0.3, 1.0, 0.0, 2.0),
    (0.1, 0.2, 0.3, 1.0, 2.0, -0.0),
    (0.1, 0.2, 0.3, 1.0, 2.0, 0.0),
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
    with pytest.raises(ValueError, match=r"^Episode must have T >= 2 timesteps, got T=0$"):
        Episode(ep.instruction, ep.objects, [], [], [])
    with pytest.raises(ValueError, match=r"Episode.poses must have shape \(T, 6\), got \(3, 5\)"):
        Episode(ep.instruction, ep.objects, ep.poses[:, :5], ep.gripper_bits, ep.joint_velocities)
    with pytest.raises(ValueError, match=r"Episode.poses must be a \(T, 6\) array of numbers"):
        Episode(ep.instruction, ep.objects, [[0.0] * 6, [0.0] * 5, [0.0] * 6], ep.gripper_bits, ep.joint_velocities)
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
    assert (ep == "x") is False and ep != object()


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


# Output files. Every writer of the package goes through model._write_file.
# Each test stays inside tmp_path: a faulty writer unlinks what it replaces.


@pytest.fixture(scope="module")
def writers():
    """name -> write(path), each writing the same bytes on every call."""
    config = RunConfig(task=TaskId.PUSH_BUTTON, n_demos=2, n_eval=2)
    reports = [run_eval(config)]
    episodes = demo_episodes(config)
    return {
        "emit_csv": lambda path: emit_csv(reports, path),
        "save_episodes": lambda path: save_episodes(episodes, path),
        "build-prompt": lambda path: main(["build-prompt", "--task", "push_button", "--n-demos", "2", "--out", str(path)]),
        "eval --csv": lambda path: main(["eval", "--task", "push_button", "--n-demos", "2", "--n-eval", "2", "--csv", str(path)]),
    }


WRITERS = ("emit_csv", "save_episodes", "build-prompt")


def _written(writers, name, tmp_path) -> bytes:
    path = tmp_path / "reference" / "out"
    path.parent.mkdir(exist_ok=True)
    writers[name](path)
    return path.read_bytes()


def _names(directory) -> set[str]:
    return set(os.listdir(directory))


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_keeps_the_bytes_and_leaves_no_temp_file(writers, name, tmp_path):
    path = tmp_path / "out.csv"
    writers[name](path)
    first = path.read_bytes()
    assert first
    writers[name](path)
    assert path.read_bytes() == first
    assert _names(tmp_path) == {"out.csv"}


@pytest.mark.parametrize("name", ["emit_csv", "save_episodes"])
def test_write_that_raises_leaves_the_old_bytes_and_no_temp_file(writers, name, tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,rows\n1,2\n")
    if name == "emit_csv":
        real = csv.writer

        class HalfWriter:  # writes the header and one row, then fails
            def __init__(self, handle, **kwargs):
                self.inner = real(handle, **kwargs)
                self.writerow = self.inner.writerow

            def writerows(self, rows):
                self.inner.writerow(next(iter(rows)))
                raise OSError("disk full")

        monkeypatch.setattr(csv, "writer", HalfWriter)
    else:
        real = model._episode_to_json
        seen = []

        def second_fails(ep):
            seen.append(ep)
            if len(seen) == 2:
                raise OSError("disk full")
            return real(ep)

        monkeypatch.setattr(model, "_episode_to_json", second_fails)
    with pytest.raises(OSError, match="disk full"):
        writers[name](path)
    assert path.read_bytes() == b"old,rows\n1,2\n"
    assert _names(tmp_path) == {"out.csv"}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_unlink_of_the_old_file_leaves_its_bytes_and_no_temp_file(writers, name, tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,rows\n1,2\n")
    unlink = Path.unlink

    def refuse_the_old_file(self, missing_ok=False):
        if self == path.resolve():
            raise PermissionError(13, "Permission denied", str(self))
        unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", refuse_the_old_file)
    with pytest.raises((OSError, SystemExit), match="Permission denied"):
        writers[name](path)
    assert path.read_bytes() == b"old,rows\n1,2\n"
    assert _names(tmp_path) == {"out.csv"}


@pytest.mark.parametrize("name", [*WRITERS, "eval --csv"])
def test_empty_path_is_refused_and_writes_nothing(writers, name, tmp_path, monkeypatch):
    # "" would name the working directory, and its fresh name would sit in the parent.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises((ValueError, SystemExit), match="^the output path is empty$"):
        writers[name]("")
    assert _names(tmp_path) == {"work"} and _names(work) == set()


@pytest.mark.parametrize("name", WRITERS)
def test_symlinked_target_stays_a_symlink(writers, name, tmp_path):
    expected = _written(writers, name, tmp_path)
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "real.csv"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(Path("data") / "real.csv")
    writers[name](link)
    assert link.is_symlink() and os.readlink(link) == str(Path("data") / "real.csv")
    assert real.read_bytes() == expected
    assert _names(tmp_path / "data") == {"real.csv"}


@pytest.mark.parametrize("name", [*WRITERS, "eval --csv"])
def test_dangling_symlink_stays_a_symlink_and_its_target_is_written(writers, name, tmp_path):
    # The check before a CLI run creates and removes the file the writer would write: the link's target.
    expected = _written(writers, name, tmp_path)
    (tmp_path / "data").mkdir()
    link = tmp_path / "link.csv"
    link.symlink_to(Path("data") / "real.csv")
    writers[name](link)
    assert link.is_symlink() and os.readlink(link) == str(Path("data") / "real.csv")
    assert (tmp_path / "data" / "real.csv").read_bytes() == expected
    assert _names(tmp_path / "data") == {"real.csv"}
    assert _names(tmp_path) == {"link.csv", "data", "reference"}


@pytest.mark.parametrize("name", ["emit_csv", "eval --csv"])
def test_fresh_names_left_by_an_earlier_process_with_this_pid_are_not_reused(writers, name, tmp_path):
    # A killed write, or a failed rename, leaves its fresh name behind; a
    # container's entrypoint has the same pid on every start.
    expected = _written(writers, name, tmp_path)
    path = tmp_path / "r.csv"
    path.write_bytes(b"old\n")
    pid = os.getpid()
    fresh = _write_plan(path)[2].name
    # Without a random part, and with another process's random part.
    leftovers = {f".r.csv.{pid}.tmp", f".r.csv.{pid}.{int(fresh.split('.')[-2], 16) ^ 1:08x}.tmp"}
    for leftover in leftovers:
        (tmp_path / leftover).write_bytes(b"left behind\n")
    writers[name](path)
    assert path.read_bytes() == expected
    assert all((tmp_path / leftover).read_bytes() == b"left behind\n" for leftover in leftovers)
    assert _names(tmp_path) == {"r.csv", "reference", *leftovers}
    # The random part is drawn once per process, so the check and the writer create one name.
    assert re.fullmatch(rf"\.r\.csv\.{pid}\.[0-9a-f]{{8}}\.tmp", fresh) and _write_plan(path)[2].name == fresh


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_keeps_the_permission_bits(writers, name, tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    path.chmod(0o640)
    writers[name](path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() != b"old\n"


@pytest.mark.parametrize("name", WRITERS)
def test_hard_linked_target_is_written_through(writers, name, tmp_path):
    expected = _written(writers, name, tmp_path)
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    other = tmp_path / "other.csv"
    os.link(path, other)
    writers[name](path)
    assert path.read_bytes() == other.read_bytes() == expected
    assert path.stat().st_ino == other.stat().st_ino
    assert _names(tmp_path) == {"out.csv", "other.csv", "reference"}


@pytest.mark.parametrize("name", [*WRITERS, "eval --csv"])
def test_fifo_target_is_written_in_place(writers, name, tmp_path, monkeypatch):
    # A FIFO is opened once: a reader takes a close for the end of the output,
    # so a second open, once the command has run, would find no reader and block.
    expected = _written(writers, name, tmp_path)
    check = cli._check_writable  # the pause stands for the run between the check and the write
    monkeypatch.setattr(cli, "_check_writable", lambda path: check(path) or time.sleep(0.2))
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    writer = threading.Thread(target=writers[name], args=(fifo,), daemon=True)
    reader.start()
    writer.start()
    reader.join(timeout=10)
    writer.join(timeout=10)
    if reader.is_alive():  # a writer that never opened the FIFO: let the reader go
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    if writer.is_alive():  # a writer blocked on opening it again: take what it writes
        fifo.read_bytes()
        writer.join(timeout=10)
    assert not reader.is_alive() and not writer.is_alive()
    assert received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert _names(tmp_path) == {"out.fifo", "reference"}

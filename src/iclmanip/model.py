"""Domain types shared across the toolkit, plus the writer of every output file.

Poses and actions are small frozen per-frame values. An Episode holds
its dense trajectory as read-only numpy arrays instead (T x 6 poses,
T gripper bits, T x 7 joint velocities) and builds Actions only when
asked for them.

save_episodes writes episodes as line-delimited JSON, one episode per
line, with full float round-trip precision, for other tools to read.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

TWO_PI = 2.0 * math.pi
_FRESH_TAG = os.urandom(4).hex()  # per process: a fresh name left by another process with this pid is not reused


class GripperState(Enum):
    """Parallel gripper state. Encoded as 1 = open, 0 = closed on the wire."""

    OPEN = "open"
    CLOSED = "closed"

    def to_bit(self) -> int:
        return 1 if self is GripperState.OPEN else 0

    @staticmethod
    def from_bit(bit: int) -> "GripperState":
        if bit == 1:
            return GripperState.OPEN
        if bit == 0:
            return GripperState.CLOSED
        raise ValueError(f"gripper bit must be 0 or 1, got {bit!r}")


def wrap_angle(a: float) -> float:
    # Normalize to [0, 2*pi). The guard catches float mod landing exactly
    # on 2*pi for tiny negative inputs.
    r = a % TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise; np.mod rounds exactly as float % does."""
    r = np.mod(a, TWO_PI)
    r[r >= TWO_PI] = 0.0
    return r


@dataclass(frozen=True)
class Pose6:
    """6-DoF pose: translation in meters, Euler rotation in radians.

    Rotations are normalized to [0, 2*pi) at construction.
    """

    x: float  # m
    y: float  # m
    z: float  # m
    roll: float  # rad
    pitch: float  # rad
    yaw: float  # rad

    def __post_init__(self):
        x, y, z, roll, pitch, yaw = self.x, self.y, self.z, self.roll, self.pitch, self.yaw
        if (
            type(x) is float and type(y) is float and type(z) is float
            and type(roll) is float and type(pitch) is float and type(yaw) is float
            and math.isfinite(x + y + z + roll + pitch + yaw)
        ):
            # Fast path: six finite built-in floats (a non-finite term makes
            # the sum non-finite). Angles in (0, 2*pi), and +0.0, wrap to
            # themselves; anything else, -0.0 included, goes through wrap_angle.
            if not 0.0 < roll < TWO_PI and (roll or math.copysign(1.0, roll) < 0.0):
                object.__setattr__(self, "roll", wrap_angle(roll))
            if not 0.0 < pitch < TWO_PI and (pitch or math.copysign(1.0, pitch) < 0.0):
                object.__setattr__(self, "pitch", wrap_angle(pitch))
            if not 0.0 < yaw < TWO_PI and (yaw or math.copysign(1.0, yaw) < 0.0):
                object.__setattr__(self, "yaw", wrap_angle(yaw))
            return
        for name in ("x", "y", "z", "roll", "pitch", "yaw"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValueError(f"Pose6.{name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"Pose6.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v) if name in ("x", "y", "z") else wrap_angle(float(v)))

    def translation(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z, self.roll, self.pitch, self.yaw]


@dataclass(frozen=True)
class Action:
    """One macro-step command: a target pose plus a gripper state."""

    pose: Pose6
    gripper: GripperState

    def __post_init__(self):
        if not isinstance(self.pose, Pose6):
            raise ValueError(f"Action.pose must be a Pose6, got {self.pose!r}")
        if not isinstance(self.gripper, GripperState):
            raise ValueError(f"Action.gripper must be a GripperState, got {self.gripper!r}")


@dataclass(frozen=True)
class ObjectObservation:
    """A named scene object and its observed pose."""

    name: str
    pose: Pose6

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"ObjectObservation.name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.pose, Pose6):
            raise ValueError(f"ObjectObservation.pose must be a Pose6, got {self.pose!r}")


def velocity_norms(velocities: np.ndarray) -> np.ndarray:
    """Row norms of a T x 7 velocity array. The squares are added column by
    column, left to right, so each norm equals math.sqrt(sum(v * v for v
    in row)) bit for bit and does not hang on the order numpy picks for a
    reduction."""
    squares = velocities * velocities
    total = squares[:, 0].copy()
    for j in range(1, squares.shape[1]):
        total += squares[:, j]
    return np.sqrt(total)


def _checked_array(value, name: str, columns: int | None) -> np.ndarray:
    """A float64 copy of `value`, shape (T,) or (T, columns), all finite.
    An empty `value` has zero rows."""
    ndim, shape = (1, "(T,)") if columns is None else (2, f"(T, {columns})")
    try:
        array = np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged rows or a non-number
        raise ValueError(f"Episode.{name} must be a {shape} array of numbers: {exc}") from None
    if columns is not None and array.size == 0:
        array = array.reshape(0, columns)
    if array.ndim != ndim or (columns is not None and array.shape[1] != columns):
        raise ValueError(f"Episode.{name} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():  # only then locate the first bad row
        bad = np.flatnonzero(~np.isfinite(array.reshape(len(array), -1)).all(axis=1))
        raise ValueError(f"Episode.{name}[{bad[0]}] must be finite, got {array[bad[0]].tolist()!r}")
    return array


@dataclass(frozen=True, eq=False)
class Episode:
    """One recorded demonstration, held as read-only arrays.

    `objects` holds the scene observations at the start of the episode.
    The dense trajectory has T >= 2 timesteps:

    - `poses`: T x 6 commanded end-effector poses (x, y, z in meters;
      roll, pitch, yaw in radians, wrapped to [0, 2*pi) on construction);
    - `gripper_bits`: T gripper commands, 1 open and 0 closed;
    - `joint_velocities`: T x 7 joint velocities, rad/s.

    The arrays are validated once here. Per-frame objects exist only at
    the API edge: `action(t)` builds one Action, and the cached `actions`
    view builds all of them.
    """

    instruction: str
    objects: tuple[ObjectObservation, ...]
    poses: np.ndarray
    gripper_bits: np.ndarray
    joint_velocities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if not isinstance(self.instruction, str) or not self.instruction:
            raise ValueError("Episode.instruction must be a non-empty string")
        if not self.objects:
            raise ValueError("Episode.objects must be non-empty")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise ValueError(f"Episode.objects names must be unique, got {names}")
        poses = _checked_array(self.poses, "poses", 6)
        bits = _checked_array(self.gripper_bits, "gripper_bits", None)
        velocities = _checked_array(self.joint_velocities, "joint_velocities", 7)
        if len(velocities) != len(poses) or len(bits) != len(poses):
            raise ValueError(
                f"Episode length mismatch: {len(velocities)} velocities vs {len(poses)} poses "
                f"vs {len(bits)} gripper bits"
            )
        if len(poses) < 2:
            raise ValueError(f"Episode must have T >= 2 timesteps, got T={len(poses)}")
        bad = np.flatnonzero((bits != 0.0) & (bits != 1.0))
        if bad.size:
            raise ValueError(f"Episode.gripper_bits[{bad[0]}] must be 0 or 1, got {float(bits[bad[0]])!r}")
        poses[:, 3:] = wrap_angles(poses[:, 3:])
        bits = bits.astype(np.int8)
        for name, array in (("poses", poses), ("gripper_bits", bits), ("joint_velocities", velocities)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def length(self) -> int:
        return len(self.poses)

    def action(self, t: int) -> Action:
        """The action commanded at timestep t."""
        return Action(Pose6(*self.poses[t].tolist()), GripperState.from_bit(int(self.gripper_bits[t])))

    @functools.cached_property
    def actions(self) -> tuple[Action, ...]:
        return tuple(self.action(t) for t in range(self.length))

    def __eq__(self, other):
        if not isinstance(other, Episode):
            return NotImplemented
        return (
            self.instruction == other.instruction
            and self.objects == other.objects
            and np.array_equal(self.poses, other.poses)
            and np.array_equal(self.gripper_bits, other.gripper_bits)
            and np.array_equal(self.joint_velocities, other.joint_velocities)
        )

    def __hash__(self):
        return hash((self.instruction, self.objects, self.length))


@dataclass(frozen=True)
class WorkspaceBounds:
    """Axis-aligned workspace box; per-axis min must be strictly below max."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        for axis in ("x", "y", "z"):
            lo = getattr(self, axis + "_min")
            hi = getattr(self, axis + "_max")
            if not (math.isfinite(lo) and math.isfinite(hi) and hi - lo <= 1e300):  # bin math stays finite
                raise ValueError(f"WorkspaceBounds.{axis} limits must be finite and at most 1e300 apart")
            if not lo < hi:
                raise ValueError(f"WorkspaceBounds.{axis}_min {lo} must be < {axis}_max {hi}")

    @functools.cached_property
    def limits(self) -> tuple[tuple[float, float], ...]:
        """((x_min, x_max), (y_min, y_max), (z_min, z_max)), built once per box."""
        return ((self.x_min, self.x_max), (self.y_min, self.y_max), (self.z_min, self.z_max))


def _episode_to_json(ep: Episode) -> dict:
    return {
        "instruction": ep.instruction,
        "objects": [{"name": o.name, "pose": o.pose.as_list()} for o in ep.objects],
        "velocities": ep.joint_velocities.tolist(),
        "actions": [
            {"pose": pose, "gripper": bit}
            for pose, bit in zip(ep.poses.tolist(), ep.gripper_bits.tolist())
        ],
    }


def _write_plan(path: str | Path) -> tuple[os.stat_result | None, str | Path | int, Path | None]:
    """path's stat (None if it has none), what _write_file opens or renames onto, and the fresh
    name it writes first: none for this process's stdout, which is fd 1, nor for another path
    that exists, but not as a regular file with one link, which is opened in place."""
    if path == "":  # it would resolve to the working directory
        raise ValueError("the output path is empty")
    info = None
    with contextlib.suppress(OSError):  # path has no stat, or fd 1 is closed
        info = os.stat(path)
        if os.path.samestat(info, os.fstat(1)):
            return info, 1, None
    if info is not None and (not stat.S_ISREG(info.st_mode) or info.st_nlink != 1):
        return info, path, None
    target = Path(path).resolve()
    return info, target, target.with_name(f".{target.name}.{os.getpid()}.{_FRESH_TAG}.tmp")


def _check_writable(path: str | Path) -> None:
    """Raise now the OSError _write_file(path) would raise on opening: open path, which makes a new
    target through any symlink, and the fresh name, then remove what that made. An old file keeps its bytes."""
    info, target, temp = _write_plan(path)
    if target == 1 or (temp is None and stat.S_ISFIFO(info.st_mode)):
        return  # fd 1 is open already; a FIFO's reader would take the close for the end of the output
    Path(path).open("a").close()  # an error names path as given
    if info is None:
        target.unlink()
    if temp is not None:
        temp.open("x").close()
        temp.unlink()


@contextlib.contextmanager
def _write_file(path: str | Path, **open_args) -> Iterator[IO[str]]:
    """Open path to write text (see _write_plan). A file with a fresh name, once whole, takes
    the old file's mode bits, the old file is unlinked and the new one renamed onto it:
    rewriting a file in place, or renaming over it, can stall on the disk. If writing or
    unlinking raises, the fresh file is removed and the old one stays."""
    info, target, temp = _write_plan(path)
    if temp is None:
        if target == 1:
            sys.stdout.flush()  # fd 1 gets the text after what print has buffered
        with open(target, "w", closefd=target != 1, **open_args) as handle:
            yield handle
        return
    handle = temp.open("x", **open_args)
    try:
        with handle:
            yield handle
        if info is not None:
            os.chmod(temp, stat.S_IMODE(info.st_mode))
        target.unlink(missing_ok=True)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    temp.rename(target)


def save_episodes(episodes: Iterable[Episode], path: str | Path) -> None:
    """Write episodes as line-delimited JSON, one episode per line (see _write_file)."""
    with _write_file(path, encoding="utf-8") as handle:
        for ep in episodes:
            handle.write(json.dumps(_episode_to_json(ep), allow_nan=False))
            handle.write("\n")


"""Map continuous poses and actions to integer bins and back.

Translation axes use 100 uniform bins over the workspace extent, with
out-of-range values clamped to the edge bins. Rotation uses 72 bins of
5 degrees each over [0, 360). Dediscretization returns bin centers, so
the reconstruction error is at most half a bin per component.

Inside the pipeline bins are plain int rows, six per pose and seven per
action, whose columns and bin counts ROW_COLUMNS states once. `pose_bins`
maps an array of poses and `pose_bin_row` one pose, bit for bit equal to
the scalar functions; a replay and dediscretize_pose read bin centers from
center_table. DiscretePose and DiscreteAction are the validated per-value
view at the API edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Action, GripperState, Pose6, WorkspaceBounds, wrap_angle, wrap_angles

TRANSLATION_BINS = 100
ROTATION_BINS = 72
DEGREES_PER_BIN = 360.0 / ROTATION_BINS  # 5 degrees

# The action row, in order: (column, bin count). The gripper bit is 0 or 1.
ROW_COLUMNS = (
    ("tx", TRANSLATION_BINS), ("ty", TRANSLATION_BINS), ("tz", TRANSLATION_BINS),
    ("rr", ROTATION_BINS), ("rp", ROTATION_BINS), ("ry", ROTATION_BINS), ("g", 2),
)


@dataclass(frozen=True)
class DiscretePose:
    """Binned 6-DoF pose: three translation bins, three rotation bins."""

    tx: int
    ty: int
    tz: int
    rr: int
    rp: int
    ry: int

    def __post_init__(self):
        for name, bins in ROW_COLUMNS[:6]:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bins:
                raise ValueError(f"DiscretePose.{name} must be an int in [0, {bins}), got {v!r}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.tx, self.ty, self.tz, self.rr, self.rp, self.ry)


@dataclass(frozen=True)
class DiscreteAction:
    """Binned action: a DiscretePose plus the gripper bit (1 open, 0 closed)."""

    pose: DiscretePose
    gripper: int

    def __post_init__(self):
        if not isinstance(self.pose, DiscretePose):
            raise ValueError(f"DiscreteAction.pose must be a DiscretePose, got {self.pose!r}")
        if self.gripper not in (0, 1) or isinstance(self.gripper, bool):
            raise ValueError(f"DiscreteAction.gripper must be 0 or 1, got {self.gripper!r}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int, int]:
        return self.pose.as_tuple() + (self.gripper,)


def discretize_translation(value: float, axis_min: float, axis_max: float) -> int:
    """Bin = floor of the normalized position scaled to 100, clamped to [0, 99].
    Clamping first sends raw = +-inf to an edge bin, as pose_bins does."""
    if not axis_min < axis_max:
        raise ValueError(f"axis_min {axis_min} must be < axis_max {axis_max}")
    raw = (value - axis_min) / (axis_max - axis_min) * TRANSLATION_BINS
    return int(min(max(raw, 0.0), TRANSLATION_BINS - 1))


def dediscretize_translation(bin_index: int, axis_min: float, axis_max: float) -> float:
    """Center of the bin."""
    if not 0 <= bin_index < TRANSLATION_BINS:
        raise ValueError(f"translation bin {bin_index} out of range [0, {TRANSLATION_BINS})")
    span = axis_max - axis_min
    return axis_min + (bin_index + 0.5) * span / TRANSLATION_BINS


def discretize_rotation(angle_rad: float) -> int:
    """Normalize to [0, 360) degrees and take the 5-degree bin."""
    deg = math.degrees(wrap_angle(angle_rad))
    return min(int(math.floor(deg / DEGREES_PER_BIN)), ROTATION_BINS - 1)


def dediscretize_rotation(bin_index: int) -> float:
    """Center of the bin, in radians."""
    if not 0 <= bin_index < ROTATION_BINS:
        raise ValueError(f"rotation bin {bin_index} out of range [0, {ROTATION_BINS})")
    return math.radians((bin_index + 0.5) * DEGREES_PER_BIN)


def pose_bin_row(pose: Pose6, bounds: WorkspaceBounds) -> tuple[int, int, int, int, int, int]:
    """discretize_pose as a plain tuple of six ints."""
    b = bounds
    return (
        discretize_translation(pose.x, b.x_min, b.x_max),
        discretize_translation(pose.y, b.y_min, b.y_max),
        discretize_translation(pose.z, b.z_min, b.z_max),
        discretize_rotation(pose.roll),
        discretize_rotation(pose.pitch),
        discretize_rotation(pose.yaw),
    )


def pose_bins(poses: np.ndarray, bounds: WorkspaceBounds) -> np.ndarray:
    """Bin every row of an N x 6 pose array: an N x 6 int64 array whose rows
    equal discretize_pose on each row, bit for bit."""
    poses = np.asarray(poses, dtype=np.float64)
    lo, hi = np.array(bounds.limits).T
    with np.errstate(over="ignore"):  # a position beyond float range is +-inf: an edge bin
        raw = (poses[:, :3] - lo) / (hi - lo) * TRANSLATION_BINS
    out = np.empty(poses.shape, dtype=np.int64)
    out[:, :3] = np.clip(np.floor(raw), 0, TRANSLATION_BINS - 1)
    degrees = wrap_angles(poses[:, 3:]) * (180.0 / math.pi)  # math.degrees
    out[:, 3:] = np.minimum(np.floor(degrees / DEGREES_PER_BIN), ROTATION_BINS - 1)
    return out


def discretize_pose(pose: Pose6, bounds: WorkspaceBounds) -> DiscretePose:
    return DiscretePose(*pose_bin_row(pose, bounds))


@functools.lru_cache(maxsize=16)
def center_table(bounds: WorkspaceBounds) -> tuple[tuple[float, ...], ...]:
    """Every bin index's center (dediscretize_translation or _rotation), one
    tuple per pose column; built once per bounds."""
    rotation = tuple(dediscretize_rotation(i) for i in range(ROTATION_BINS))
    return tuple(
        tuple(dediscretize_translation(i, lo, hi) for i in range(TRANSLATION_BINS)) for lo, hi in bounds.limits
    ) + (rotation,) * 3


def dediscretize_pose(dp: DiscretePose, bounds: WorkspaceBounds) -> Pose6:
    x, y, z, roll, pitch, yaw = center_table(bounds)
    return Pose6(x[dp.tx], y[dp.ty], z[dp.tz], roll[dp.rr], pitch[dp.rp], yaw[dp.ry])


def discretize_action(action: Action, bounds: WorkspaceBounds) -> DiscreteAction:
    return DiscreteAction(discretize_pose(action.pose, bounds), action.gripper.to_bit())


def dediscretize_action(da: DiscreteAction, bounds: WorkspaceBounds) -> Action:
    return Action(dediscretize_pose(da.pose, bounds), GripperState.from_bit(da.gripper))

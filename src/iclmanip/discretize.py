"""Map continuous poses and actions to integer bins and back.

Translation axes use 100 uniform bins over the workspace extent, with
out-of-range values clamped to the edge bins. Rotation uses 72 bins of
5 degrees each over [0, 360). Dediscretization returns bin centers, so
the reconstruction error is at most half a bin per component.

Inside the pipeline bins are plain int rows, six per pose
(tx ty tz rr rp ry) and seven per action (the gripper bit last):
`pose_bins` and `bin_centers` map whole arrays of rows and `pose_bin_row`
one pose, each bit for bit equal to the scalar functions. DiscretePose and
DiscreteAction are the validated per-value view at the API edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Action, GripperState, Pose6, WorkspaceBounds, wrap_angles

TRANSLATION_BINS = 100
ROTATION_BINS = 72
DEGREES_PER_BIN = 360.0 / ROTATION_BINS  # 5 degrees


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
        for name in ("tx", "ty", "tz"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < TRANSLATION_BINS:
                raise ValueError(f"DiscretePose.{name} must be an int in [0, {TRANSLATION_BINS}), got {v!r}")
        for name in ("rr", "rp", "ry"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < ROTATION_BINS:
                raise ValueError(f"DiscretePose.{name} must be an int in [0, {ROTATION_BINS}), got {v!r}")

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
    """Bin = floor of the normalized position scaled to 100, clamped to [0, 99]."""
    if not axis_min < axis_max:
        raise ValueError(f"axis_min {axis_min} must be < axis_max {axis_max}")
    raw = (value - axis_min) / (axis_max - axis_min) * TRANSLATION_BINS
    return min(max(int(math.floor(raw)), 0), TRANSLATION_BINS - 1)


def dediscretize_translation(bin_index: int, axis_min: float, axis_max: float) -> float:
    """Center of the bin."""
    if not 0 <= bin_index < TRANSLATION_BINS:
        raise ValueError(f"translation bin {bin_index} out of range [0, {TRANSLATION_BINS})")
    span = axis_max - axis_min
    return axis_min + (bin_index + 0.5) * span / TRANSLATION_BINS


def discretize_rotation(angle_rad: float) -> int:
    """Normalize to [0, 360) degrees and take the 5-degree bin."""
    wrapped = angle_rad % (2.0 * math.pi)
    if wrapped >= 2.0 * math.pi:
        wrapped = 0.0
    deg = math.degrees(wrapped)
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


def _axis_arrays(bounds: WorkspaceBounds) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([bounds.x_min, bounds.y_min, bounds.z_min])
    hi = np.array([bounds.x_max, bounds.y_max, bounds.z_max])
    return lo, hi


def pose_bins(poses: np.ndarray, bounds: WorkspaceBounds) -> np.ndarray:
    """Bin every row of an N x 6 pose array: an N x 6 int64 array whose rows
    equal discretize_pose on each row, bit for bit."""
    poses = np.asarray(poses, dtype=np.float64)
    lo, hi = _axis_arrays(bounds)
    raw = (poses[:, :3] - lo) / (hi - lo) * TRANSLATION_BINS
    out = np.empty(poses.shape, dtype=np.int64)
    out[:, :3] = np.clip(np.floor(raw), 0, TRANSLATION_BINS - 1)
    degrees = wrap_angles(poses[:, 3:]) * (180.0 / math.pi)  # math.degrees
    out[:, 3:] = np.minimum(np.floor(degrees / DEGREES_PER_BIN), ROTATION_BINS - 1)
    return out


def bin_centers(bins: np.ndarray, bounds: WorkspaceBounds) -> np.ndarray:
    """Centers of an N x 6 array of pose bins: an N x 6 float array whose
    rows equal dediscretize_pose on each row, bit for bit. Bins must be in
    range; parse_bins guarantees it for parsed replies."""
    bins = np.asarray(bins)
    lo, hi = _axis_arrays(bounds)
    out = np.empty(bins.shape, dtype=np.float64)
    out[:, :3] = lo + (bins[:, :3] + 0.5) * (hi - lo) / TRANSLATION_BINS
    out[:, 3:] = (bins[:, 3:] + 0.5) * DEGREES_PER_BIN * (math.pi / 180.0)  # math.radians
    return out


def discretize_pose(pose: Pose6, bounds: WorkspaceBounds) -> DiscretePose:
    return DiscretePose(*pose_bin_row(pose, bounds))


def dediscretize_pose(dp: DiscretePose, bounds: WorkspaceBounds) -> Pose6:
    return Pose6(
        dediscretize_translation(dp.tx, *bounds.limits[0]),
        dediscretize_translation(dp.ty, *bounds.limits[1]),
        dediscretize_translation(dp.tz, *bounds.limits[2]),
        dediscretize_rotation(dp.rr),
        dediscretize_rotation(dp.rp),
        dediscretize_rotation(dp.ry),
    )


def discretize_action(action: Action, bounds: WorkspaceBounds) -> DiscreteAction:
    return DiscreteAction(discretize_pose(action.pose, bounds), action.gripper.to_bit())


def dediscretize_action(da: DiscreteAction, bounds: WorkspaceBounds) -> Action:
    return Action(dediscretize_pose(da.pose, bounds), GripperState.from_bit(da.gripper))

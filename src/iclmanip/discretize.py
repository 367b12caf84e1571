"""Map continuous poses and actions to integer bins and back.

Translation axes use 100 uniform bins over the workspace extent, with
out-of-range values clamped to the edge bins. Rotation uses 72 bins of
5 degrees each over [0, 360). Dediscretization returns bin centers, so
the reconstruction error is at most half a bin per component.

Inside the pipeline bins are rows of plain ints, six per pose and seven
per action, whose columns and bin counts ROW_COLUMNS states once.
`pose_bin_rows` bins an M x 6 array of poses in one numpy pass, bit for bit
equal to the scalar functions and the only binner besides them. `row_pose`
maps a row back to its bin centers, read from center_table, for a replay and
dediscretize_action. DiscretePose and DiscreteAction are the validated
per-value view at the API edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Action, GripperState, Pose6, WorkspaceBounds, wrap_angle

TRANSLATION_BINS = 100
ROTATION_BINS = 72
DEGREES_PER_BIN = 360.0 / ROTATION_BINS  # 5 degrees
_DEGREES_PER_RADIAN = 180.0 / math.pi  # math.degrees multiplies by this constant

# The action row, in order: (column, bin count). The gripper bit is 0 or 1.
ROW_COLUMNS = (
    ("tx", TRANSLATION_BINS), ("ty", TRANSLATION_BINS), ("tz", TRANSLATION_BINS),
    ("rr", ROTATION_BINS), ("rp", ROTATION_BINS), ("ry", ROTATION_BINS), ("g", 2),
)
_TOP_BINS = np.array([bins - 1 for _, bins in ROW_COLUMNS[:6]], dtype=np.float64)  # a pose column's last bin


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
    Clamping first sends raw = +-inf to an edge bin, as pose_bin_rows does."""
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


def pose_bin_rows(poses: np.ndarray, bounds: WorkspaceBounds) -> np.ndarray:
    """M x 6 poses (x, y, z, roll, pitch, yaw, the angles wrapped as a Pose6's are)
    as M x 6 int bins: discretize_translation's and discretize_rotation's
    arithmetic per column, without their checks, as bounds hold min < max."""
    (x0, x1), (y0, y1), (z0, z1) = bounds.limits
    raw = np.empty_like(poses)
    with np.errstate(over="ignore"):  # a raw bin past the float range is +-inf, as in Python
        np.multiply((poses[:, :3] - (x0, y0, z0)) / (x1 - x0, y1 - y0, z1 - z0), TRANSLATION_BINS, out=raw[:, :3])
        np.divide(poses[:, 3:] * _DEGREES_PER_RADIAN, DEGREES_PER_BIN, out=raw[:, 3:])
    # Clamped to the edge bins as min and max would; degrees are >= 0, so the cast floors.
    np.maximum(raw[:, :3], 0.0, out=raw[:, :3])
    return np.minimum(raw, _TOP_BINS, out=raw).astype(np.int64)


@functools.lru_cache(maxsize=16)
def center_table(bounds: WorkspaceBounds) -> tuple[tuple[float, ...], ...]:
    """Every bin index's center (dediscretize_translation or _rotation), one
    tuple per pose column; built once per bounds."""
    rotation = tuple(dediscretize_rotation(i) for i in range(ROTATION_BINS))
    return tuple(
        tuple(dediscretize_translation(i, lo, hi) for i in range(TRANSLATION_BINS)) for lo, hi in bounds.limits
    ) + (rotation,) * 3


def row_pose(row: tuple[int, ...], bounds: WorkspaceBounds) -> Pose6:
    """The pose at the centers of a pose row's, or an action row's, first six bins."""
    return Pose6(*(column[b] for column, b in zip(center_table(bounds), row)))


def discretize_action(action: Action, bounds: WorkspaceBounds) -> DiscreteAction:
    pose = pose_bin_rows(np.array([action.pose.as_list()], dtype=np.float64), bounds)[0].tolist()
    return DiscreteAction(DiscretePose(*pose), action.gripper.to_bit())


def dediscretize_action(da: DiscreteAction, bounds: WorkspaceBounds) -> Action:
    return Action(row_pose(da.pose.as_tuple(), bounds), GripperState.from_bit(da.gripper))

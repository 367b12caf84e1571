"""Map continuous poses and actions to integer bins and back.

Translation axes use 100 uniform bins over the workspace extent, with
out-of-range values clamped to the edge bins. Rotation uses 72 bins of
5 degrees each over [0, 360). Dediscretization returns bin centers, so
the reconstruction error is at most half a bin per component.

Inside the pipeline bins are tuples of plain ints, six per pose and seven
per action, whose columns and bin counts ROW_COLUMNS states once.
`pose_bin_row` bins any six numbers, bit for bit equal to the scalar
functions and the only binner besides them; `row_pose` maps a row back to
its bin centers, read from center_table, for a replay and dediscretize_pose.
DiscretePose and DiscreteAction are the validated per-value view at the API
edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    Clamping first sends raw = +-inf to an edge bin, as pose_bin_row does."""
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


def pose_bin_row(pose: Sequence[float], bounds: WorkspaceBounds) -> tuple[int, int, int, int, int, int]:
    """Six numbers x, y, z, roll, pitch, yaw, the angles wrapped as a Pose6's
    and an Episode's are, as six bins: discretize_translation's and
    discretize_rotation's arithmetic inline, without their checks, as bounds
    hold min < max."""
    (x0, x1), (y0, y1), (z0, z1) = bounds.limits
    x, y, z, roll, pitch, yaw = pose
    n, k, top, last = TRANSLATION_BINS, _DEGREES_PER_RADIAN, TRANSLATION_BINS - 1, ROTATION_BINS - 1
    tx, ty, tz = (x - x0) / (x1 - x0) * n, (y - y0) / (y1 - y0) * n, (z - z0) / (z1 - z0) * n
    rr, rp, ry = roll * k / DEGREES_PER_BIN, pitch * k / DEGREES_PER_BIN, yaw * k / DEGREES_PER_BIN
    # Clamped to the edge bins as min and max would; degrees are >= 0, so int() floors.
    return (
        0 if tx < 0.0 else top if tx >= top else int(tx),
        0 if ty < 0.0 else top if ty >= top else int(ty),
        0 if tz < 0.0 else top if tz >= top else int(tz),
        last if rr >= last else int(rr),
        last if rp >= last else int(rp),
        last if ry >= last else int(ry),
    )


def discretize_pose(pose: Pose6, bounds: WorkspaceBounds) -> DiscretePose:
    return DiscretePose(*pose_bin_row(pose.as_list(), bounds))


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


def dediscretize_pose(dp: DiscretePose, bounds: WorkspaceBounds) -> Pose6:
    return row_pose(dp.as_tuple(), bounds)


def discretize_action(action: Action, bounds: WorkspaceBounds) -> DiscreteAction:
    return DiscreteAction(discretize_pose(action.pose, bounds), action.gripper.to_bit())


def dediscretize_action(da: DiscreteAction, bounds: WorkspaceBounds) -> Action:
    return Action(dediscretize_pose(da.pose, bounds), GripperState.from_bit(da.gripper))

"""Deterministic desk-scale tabletop simulator.

Kinematic only: the gripper teleports to each commanded pose. Closing it
grasps the nearest cube within GRASP_RADIUS_M that no cube rests on; the
held cube's center follows the tool tip, keeping its own yaw (the carry rule,
stated once in _carried_pose for execute_action and replay_pose_rows); opening
it settles the cube on the highest cube nearer in x, y than their half edges
summed, or on the table (_settle, which also stacks destack_cube's start). An
empty gripper entering a button's press zone logs a press of it. Everything
is a pure function of (task, seed, bounds), so runs reproduce.

Everything task-specific is one TaskSpec row in _SPECS: its roster,
variations (or a drawn chain), placement group, stacked start, instruction
template, goal predicate, the expert's placement rule (or a press chain)
and the task its demos come from. reset, check_success and the expert
read the row; none of them names a task.

Object pose convention: z is the object's resting base height (bottom
face), so a cube sitting on the table has z = 0 and a cube stacked on
another has z equal to the supporter's top face.

Scripted experts record array-backed episodes: scripted_experts lays out
each leg and dwell of a whole pool's plans in one numpy pass as rows of the
T x 6 pose and T gripper-bit arrays, and the T x 7 joint velocities follow
from the pose steps; Episode.pool checks the block once and hands each
episode read-only views of it. scripted_expert is the one-world case.
execute_action takes one per-frame Action; replay_pose_rows replays a whole
demo pool as pose arrays, executing only the frames where the gripper changes.
The inflated reach limits every action is checked against, and reset's
bounds check and placement draws, are computed once per WorkspaceBounds.
reset's generator is default_rng([group, seed]), seeded from seed_state's row
of a cached block of 64 aligned seeds, hashed in one uint32 pass of NumPy's
SeedSequence (test_sim's seed_state property test); harness._noise_seed keeps
a SeedSequence per call, as its per-keyframe tags would hash sparse blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    TWO_PI,
    Action,
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
    WorkspaceBounds,
    wrap_angle,
    wrap_angles,
)

CUBE_EDGE_M = 0.04
BUTTON_RADIUS_M = 0.025
TARGET_HALF_M = 0.06
GRASP_RADIUS_M = 0.02
PRESS_HEIGHT_M = 0.01
MIN_SEPARATION_M = 0.08
MAX_RESET_DRAWS = 1000
STEP_SIZE_M = 0.02
MAX_COORDINATE_M = 10.0  # bounds reset accepts: squares stay finite, plans short
DWELL_STEPS = 3
MIN_EPISODE_STEPS = 60
TRAVEL_HEIGHT_M = 0.15
PRESS_Z_M = 0.004
HOME_POSE = Pose6(0.0, 0.0, 0.30, 0.0, 0.0, 0.0)
STACK_TOLERANCE_M = 0.01
BOUNDS_INFLATION = 0.1  # fraction of each axis span added per side
CHAIN_SEPARATOR = ", then "  # joins the steps of a chained instruction

BASE_SIGMA_TRANSLATION_M = 0.0168
BASE_SIGMA_ROTATION_RAD = math.radians(4.61)
_BASE_SIGMAS = np.array((BASE_SIGMA_TRANSLATION_M,) * 3 + (BASE_SIGMA_ROTATION_RAD,) * 3)
_SEED_OUTPUT_CONSTS = np.cumprod([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)[:, None]  # seed_state's output hash


class TaskId(Enum):
    __hash__ = object.__hash__  # members are singletons, equal only to themselves: a C hash, not Enum's of the name
    STACK_CUBE = "stack_cube"
    DESTACK_CUBE = "destack_cube"
    PUSH_BUTTON = "push_button"
    PUSH_MULTIPLE_BUTTONS = "push_multiple_buttons"
    SLIDE_BLOCK = "slide_block"


class Kind(Enum):
    CUBE = "cube"
    BUTTON = "button"
    TARGET = "target"  # flat goal region, neither graspable nor pressable


@dataclass
class SimObject:
    """A scene object. `size` is the cube edge, button radius, or target
    half-width depending on kind."""

    name: str
    kind: Kind
    pose: Pose6
    size: float
    supported_by: str | None = None

    def center(self) -> tuple[float, float, float]:
        z = self.pose.z + self.size / 2.0 if self.kind is Kind.CUBE else self.pose.z
        return (self.pose.x, self.pose.y, z)

    def top(self) -> float:
        return self.pose.z + self.size if self.kind is Kind.CUBE else self.pose.z


@dataclass
class WorldState:
    """Mutable simulator state; evolves through execute_action."""

    objects: list[SimObject]
    gripper_pose: Pose6
    gripper: GripperState
    bounds: WorkspaceBounds
    attached: str | None = None
    press_log: list[str] = field(default_factory=list)

    def object(self, name: str) -> SimObject:
        for obj in self.objects:
            if obj.name == name:
                return obj
        raise KeyError(f"no object named {name!r} in world")

    def clone(self) -> "WorldState":
        """An independent copy: new objects and press log; poses and bounds
        are frozen values, so the copy shares them."""
        return WorldState(
            objects=[
                SimObject(o.name, o.kind, o.pose, o.size, o.supported_by)
                for o in self.objects
            ],
            gripper_pose=self.gripper_pose,
            gripper=self.gripper,
            bounds=self.bounds,
            attached=self.attached,
            press_log=list(self.press_log),
        )


@dataclass(frozen=True)
class TaskVariation:
    """Which concrete goal a reset drew; empty fields do not apply."""

    top: str | None = None
    bottom: str | None = None
    buttons: tuple[str, ...] = ()


@dataclass(frozen=True)
class TaskSpec:
    """Every fact of a task, as one row of _SPECS."""

    task: TaskId
    roster: tuple[tuple[str, Kind, float], ...]  # the object order of every world
    variations: tuple[TaskVariation, ...]  # empty: reset draws a chain of 1-6 roster names
    group: int  # tasks in one group draw identical layouts at equal seeds
    template: str  # filled from a variation by render_instruction
    goal: Callable[[WorldState, TaskVariation], bool]  # read only with an empty gripper
    # The expert picks the first object the instruction names and releases it
    # at place(world, first, second); None: it presses the named buttons in order.
    place: Callable[[WorldState, SimObject, SimObject], tuple[float, float, float]] | None
    stacked: bool = False  # the roster's two cubes start one on the other
    demos_from: TaskId | None = None  # the task whose demos teach this one; None: its own


class PlacementError(Exception):
    """reset() exhausted its rejection-sampling budget."""


class ExecutionError(Exception):
    """An action pose fell outside the inflated workspace bounds."""


class ExpertError(Exception):
    """The scripted expert could not plan for the given world/instruction."""


_CUBES = (("blue cube", Kind.CUBE, CUBE_EDGE_M), ("yellow cube", Kind.CUBE, CUBE_EDGE_M))
COLORS = ("red", "yellow", "green", "blue")  # of the buttons; llm.instruction_template wildcards them
_BUTTONS = tuple((f"{c} button", Kind.BUTTON, BUTTON_RADIUS_M) for c in COLORS)
_SLIDE = (("block", Kind.CUBE, CUBE_EDGE_M), ("target", Kind.TARGET, TARGET_HALF_M))
_CUBE_VARIATIONS = (
    TaskVariation(top="blue cube", bottom="yellow cube"),
    TaskVariation(top="yellow cube", bottom="blue cube"),
)
_BUTTON_VARIATIONS = tuple(TaskVariation(buttons=(name,)) for name, _, _ in _BUTTONS)


def _stacked(world: WorldState, variation: TaskVariation) -> bool:
    top, bottom = world.object(variation.top), world.object(variation.bottom)
    return (
        math.hypot(top.pose.x - bottom.pose.x, top.pose.y - bottom.pose.y) <= bottom.size / 2.0
        and abs(top.pose.z - bottom.top()) <= STACK_TOLERANCE_M
    )


def _on_table(world: WorldState, variation: TaskVariation) -> bool:
    moved = world.object(variation.top)
    return moved.pose.z <= moved.size / 2.0 + STACK_TOLERANCE_M


def _on_target(world: WorldState, variation: TaskVariation) -> bool:
    """The block's center lies inside the (possibly rotated) target square."""
    block, target = world.object("block"), world.object("target")
    dx, dy = block.pose.x - target.pose.x, block.pose.y - target.pose.y
    c, s = math.cos(-target.pose.yaw), math.sin(-target.pose.yaw)
    return abs(c * dx - s * dy) <= target.size and abs(s * dx + c * dy) <= target.size


# One row per task, the one place where its facts are stated. push_button and
# push_multiple_buttons share a placement group so single-button demos can
# exist in a multi-button world.
_SPECS = {
    spec.task: spec
    for spec in (
        TaskSpec(TaskId.STACK_CUBE, _CUBES, _CUBE_VARIATIONS, 0, "stack the {top} on the {bottom}", _stacked,
                 lambda world, top, bottom: (bottom.pose.x, bottom.pose.y, bottom.top() + top.size / 2.0)),
        TaskSpec(TaskId.DESTACK_CUBE, _CUBES, _CUBE_VARIATIONS, 1, "destack the {top} that is on the {bottom}",
                 _on_table, lambda world, top, _: (*_free_spot(world, top.pose.x, top.pose.y), top.size / 2.0),
                 stacked=True),
        TaskSpec(TaskId.PUSH_BUTTON, _BUTTONS, _BUTTON_VARIATIONS, 2, "push the {button}",
                 lambda world, v: v.buttons[0] in world.press_log, None),
        TaskSpec(TaskId.PUSH_MULTIPLE_BUTTONS, _BUTTONS, (), 2, "push the {button}",
                 lambda world, v: tuple(world.press_log) == v.buttons, None, demos_from=TaskId.PUSH_BUTTON),
        TaskSpec(TaskId.SLIDE_BLOCK, _SLIDE, (TaskVariation(),), 3, "slide the block onto the target", _on_target,
                 lambda world, block, target: (target.pose.x, target.pose.y, block.size / 2.0)),
    )
}


def task_spec(task: TaskId) -> TaskSpec:
    return _SPECS[task]


def render_instruction(task: TaskId, variation: TaskVariation) -> str:
    """The task's template filled from the variation; a chain of buttons
    fills it once per button, joined with CHAIN_SEPARATOR."""
    template = _SPECS[task].template
    if variation.buttons:
        return CHAIN_SEPARATOR.join(template.format(button=name) for name in variation.buttons)
    return template.format(top=variation.top, bottom=variation.bottom)


def _placement_region(bounds: WorkspaceBounds) -> tuple[float, float, float, float]:
    """Central x/y box objects are placed in, 10% of span in from each edge."""
    mx = 0.1 * (bounds.x_max - bounds.x_min)
    my = 0.1 * (bounds.y_max - bounds.y_min)
    return (bounds.x_min + mx, bounds.x_max - mx, bounds.y_min + my, bounds.y_max - my)


def seed_words(*values: int) -> np.ndarray:
    """The uint32 words numpy's seed coercion makes of a list of non-negative
    ints: each int's words, least significant first. Seeding with them gives
    the state the list itself gives, without numpy coercing it on every call."""
    words = []
    for n in values:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of words: xor its constant, times the next, xorshift by 16."""
    h = (words ^ consts[:-1]) * consts[1:]
    return h ^ (h >> 16)


@functools.lru_cache(maxsize=64)
def _seed_block(prefix: tuple[int, ...], block: int) -> np.ndarray:
    """Row v % 64 is SeedSequence(seed_words(*prefix, v)).generate_state(4, np.uint64) for the 64 v of an aligned
    block, in one uint32 pass of NumPy's SeedSequence (NEP 19); its v differ only in the low 6 bits of one word."""
    entropy = seed_words(*prefix, block << 6)
    words = np.zeros((max(len(entropy), 4), 64), dtype=np.uint32)  # a pool word past the entropy hashes 0
    words[: len(entropy)] = entropy[:, None]
    words[len(seed_words(*prefix))] += np.arange(64, dtype=np.uint32)
    consts, k = np.cumprod([0x43B0D7E5] + [0x931E8875] * 4 * len(words), dtype=np.uint32)[:, None], 4
    words[:4] = _hash(words[:4], consts[:5])  # the pool
    for src in range(len(words)):  # each pool word into the three others, then each word past the pool into all
        dst = [d for d in range(4) if d != src]
        r = words[dst] * 0xCA01F9DD - _hash(words[src], consts[k : k + len(dst) + 1]) * 0x4973F715
        words[dst], k = r ^ (r >> 16), k + len(dst)
    state = _hash(words[[0, 1, 2, 3] * 2], _SEED_OUTPUT_CONSTS)
    rows = (state[0::2] | state[1::2].astype(np.uint64) << 32).T.copy()  # little-endian word pairs
    rows.flags.writeable = False  # every caller of the block shares it
    return rows


def seed_state(*values: int) -> np.ndarray:
    """default_rng(seed_words(*values))'s PCG64 seed state, from the cached block of 64 holding the last value."""
    *prefix, value = values
    return _seed_block(tuple(prefix), value >> 6)[value & 63]


@functools.cache
def _state_row() -> type:
    """The ISeedSequence that hands PCG64 (its one caller) a seed_state row: made on the first reset, as a
    numpy.random import with the package would slow every start."""
    methods = {"__init__": lambda self, row: setattr(self, "row", row), "generate_state": lambda self, *_: self.row}
    return type("StateRow", (np.random.bit_generator.ISeedSequence,), methods)


@functools.lru_cache(maxsize=16)
def _placement_draws(bounds: WorkspaceBounds) -> tuple[np.ndarray, np.ndarray]:
    """reset's bounds check, then low and span of its (x, y, yaw, yaw) draws:
    low + span * rng.random(n) is rng.uniform(low, high)'s arithmetic on the
    same draws, without uniform's per-call argument handling."""
    for axis, (lo, hi) in zip("xyz", bounds.limits):
        if lo < -MAX_COORDINATE_M or hi > MAX_COORDINATE_M:
            raise ValueError(
                f"the simulator needs bounds within [-{MAX_COORDINATE_M:g}, {MAX_COORDINATE_M:g}] m, "
                f"got {axis} limits [{lo:g}, {hi:g}]"
            )
    lo_x, hi_x, lo_y, hi_y = _placement_region(bounds)
    low = np.array((lo_x, lo_y, 0.0, 0.0))
    span = np.array((hi_x, hi_y, TWO_PI, TWO_PI)) - low
    low.flags.writeable = span.flags.writeable = False  # every reset on the box shares them
    return low, span


def observations_of(world: WorldState) -> tuple[ObjectObservation, ...]:
    """Snapshot the scene as named pose observations, roster order."""
    return tuple(ObjectObservation(o.name, o.pose) for o in world.objects)


def _validate_world(world: WorldState) -> None:
    if world.attached is not None and world.gripper is not GripperState.CLOSED:
        raise RuntimeError("invariant violation: attached object with open gripper")
    for obj in world.objects:
        if obj.supported_by is not None:
            supporter = world.object(obj.supported_by)
            if abs(obj.pose.z - supporter.top()) > 1e-9:
                raise RuntimeError(
                    f"invariant violation: {obj.name!r} not resting on {supporter.name!r} top"
                )


def reset(task: TaskId, seed: int, bounds: WorkspaceBounds) -> tuple[WorldState, str, TaskVariation]:
    """Build the initial world for (task, seed): same inputs, same world.

    Placements are drawn before the variation so tasks in one placement
    group share layouts at equal seeds. Worlds that would already satisfy
    check_success are rejected and redrawn. Bounds with a limit beyond
    MAX_COORDINATE_M raise ValueError.
    """
    low, span = _placement_draws(bounds)
    spec = _SPECS[task]
    rng = np.random.Generator(np.random.PCG64(_state_row()(seed_state(spec.group, seed))))  # default_rng([group, seed])
    for _ in range(MAX_RESET_DRAWS):
        if spec.stacked:
            x, y, yaw_bottom, yaw_top = (low + span * rng.random(4)).tolist()
            placements = [(x, y, yaw_bottom), (x, y, yaw_top)]
        else:
            placements = (low[:3] + span[:3] * rng.random((len(spec.roster), 3))).tolist()
            if any(math.hypot(a[0] - b[0], a[1] - b[1]) < MIN_SEPARATION_M for a, b in combinations(placements, 2)):
                continue

        if not spec.variations:
            count = int(rng.integers(1, 7))
            names = tuple(spec.roster[int(i)][0] for i in rng.integers(0, len(spec.roster), size=count))
            variation = TaskVariation(buttons=names)
        elif len(spec.variations) == 1:
            variation = spec.variations[0]  # no draw, so later draws do not move
        else:
            variation = spec.variations[int(rng.integers(0, len(spec.variations)))]

        if spec.stacked and variation.top == spec.roster[0][0]:
            placements.reverse()  # drawn bottom cube first; objects follow the roster
        objects = [
            SimObject(name, kind, Pose6(x, y, 0.0, 0.0, 0.0, yaw), size)
            for (name, kind, size), (x, y, yaw) in zip(spec.roster, placements)
        ]
        world = WorldState(objects, HOME_POSE, GripperState.OPEN, bounds)
        if spec.stacked:
            _settle(world, world.object(variation.top))  # drawn at the bottom cube's x, y
        if check_success(task, world, variation):
            continue  # e.g. the block sampled already inside the target square
        _validate_world(world)
        return world, render_instruction(task, variation), variation
    raise PlacementError(f"no legal placement for {task.value} seed {seed} in {MAX_RESET_DRAWS} draws")


def _settle(world: WorldState, cube: SimObject) -> None:
    """Rest cube on the highest cube whose x, y distance is under their half edges summed, or on the table."""
    under = [
        obj for obj in world.objects
        if obj is not cube and obj.kind is Kind.CUBE
        and math.hypot(cube.pose.x - obj.pose.x, cube.pose.y - obj.pose.y) < (cube.size + obj.size) / 2.0
    ]
    support = max(under, key=SimObject.top, default=None)  # the first of equal tops
    z = 0.0 if support is None else support.top()
    cube.pose = Pose6(cube.pose.x, cube.pose.y, z, 0.0, 0.0, cube.pose.yaw)
    cube.supported_by = None if support is None else support.name


def _press_zone(button: SimObject, pose: Pose6) -> bool:
    return pose.z <= PRESS_HEIGHT_M and math.hypot(pose.x - button.pose.x, pose.y - button.pose.y) <= button.size


@functools.lru_cache(maxsize=16)
def _reach_limits(bounds: WorkspaceBounds) -> tuple[tuple[float, float], ...]:
    """Each axis's (low, high) limit, inflated by BOUNDS_INFLATION of its span per side."""
    return tuple((lo - BOUNDS_INFLATION * (hi - lo), hi + BOUNDS_INFLATION * (hi - lo)) for lo, hi in bounds.limits)


def _check_reachable(bounds: WorkspaceBounds, translation: Sequence[float]) -> None:
    for axis, v, (lo, hi) in zip("xyz", translation, _reach_limits(bounds)):
        if not lo <= v <= hi:
            raise ExecutionError(f"action pose {axis}={v:.3f} outside inflated bounds [{lo:.3f}, {hi:.3f}]")


def _carried_pose(x, y, z, edge, yaw):
    """The carry rule, on floats or arrays alike: a held cube's base half its edge below the tip, roll and pitch 0."""
    return x, y, z - edge / 2.0, 0.0, 0.0, yaw


def execute_action(world: WorldState, action: Action) -> None:
    """One macro-step: teleport the gripper, then apply grasp/release/press
    rules at the destination. Mutates the world in place.

    Raises ExecutionError when the commanded pose leaves the workspace
    bounds inflated by 10% of each axis span per side.
    """
    pose = action.pose
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = _reach_limits(world.bounds)
    if not (x_lo <= pose.x <= x_hi and y_lo <= pose.y <= y_hi and z_lo <= pose.z <= z_hi):
        _check_reachable(world.bounds, pose.translation())  # raises, naming the first axis outside

    prev_pose = world.gripper_pose
    world.gripper_pose = pose

    if action.gripper is GripperState.CLOSED and world.gripper is GripperState.OPEN:
        # Attach the nearest cube within reach that no other cube rests on, if any.
        supporters = {obj.supported_by for obj in world.objects}
        best: tuple[float, SimObject] | None = None
        for obj in world.objects:
            if obj.kind is not Kind.CUBE or obj.name in supporters:
                continue
            cx, cy, cz = obj.center()
            d = math.sqrt((pose.x - cx) ** 2 + (pose.y - cy) ** 2 + (pose.z - cz) ** 2)
            if d <= GRASP_RADIUS_M and (best is None or d < best[0]):
                best = (d, obj)
        if best is not None:
            world.attached = best[1].name

    # Whatever is held follows the gripper and settles where the gripper opens.
    if world.attached is not None:
        held = world.object(world.attached)
        held.pose = Pose6(*_carried_pose(pose.x, pose.y, pose.z, held.size, held.pose.yaw))
        held.supported_by = None
        if action.gripper is GripperState.OPEN:
            world.attached = None
            _settle(world, held)

    world.gripper = action.gripper

    # Press fires on the transition into the zone, with an empty hand.
    if world.attached is None:
        for obj in world.objects:
            if obj.kind is not Kind.BUTTON:
                continue
            if _press_zone(obj, pose) and not _press_zone(obj, prev_pose):
                world.press_log.append(obj.name)

    _validate_world(world)


def replay_pose_rows(items: Sequence[tuple[WorldState, Episode, Sequence[int]]]) -> list[np.ndarray]:
    """Per (world, episode, frames) of a pool, replayed on a copy of the world: a frames x objects x 6 array of the
    objects' pose rows after each frame, bit for bit those of executing every frame. One pass checks every pose and
    raises the ExecutionError that a one-by-one replay raises first; execute_action then runs only where the gripper
    bit changes. In between, only the unobserved gripper and the held cube move: _carried_pose gives the cube's rows."""
    if not items:
        return []
    lengths = np.array([episode.length for _, episode, _ in items])
    starts = np.cumsum(lengths) - lengths
    poses = np.concatenate([episode.poses for _, episode, _ in items])
    owner = np.repeat(np.arange(len(items)), lengths)
    limits = np.array([_reach_limits(world.bounds) for world, _, _ in items])[owner]
    for t in np.flatnonzero(((poses[:, :3] < limits[..., 0]) | (poses[:, :3] > limits[..., 1])).any(axis=1))[:1]:
        _check_reachable(items[owner[t]][0].bounds, poses[t, :3].tolist())  # the first item's first pose outside
    bits = np.concatenate([episode.gripper_bits for _, episode, _ in items])
    previous = np.concatenate(([0], bits[:-1]))
    previous[starts] = [world.gripper.to_bit() for world, _, _ in items]
    changes = np.flatnonzero(bits != previous)
    scenes = []  # at each start and change: per object its pose row and, held, its edge (else -1)
    for (world, episode, _), start, toggles in zip(items, starts, np.split(changes, changes.searchsorted(starts[1:]))):
        world = world.clone() if toggles.size else world
        for t in [None, *(toggles - start).tolist()]:
            if t is not None:
                execute_action(world, episode.action(t))
            scenes.append([[*o.pose.as_list(), o.size if o.name == world.attached else -1] for o in world.objects])
    at = np.concatenate([np.arange(s, s + ep.length)[np.asarray(f, np.intp)] for (_, ep, f), s in zip(items, starts)])
    rows = np.array(scenes)[owner[at] + np.searchsorted(changes, at, side="right")]
    frame, cube = np.nonzero(rows[..., 6] >= 0)
    carried = _carried_pose(*poses[at[frame], :3].T, rows[frame, cube, 6], rows[frame, cube, 5])
    rows[frame, cube, :6] = np.column_stack(np.broadcast_arrays(*carried))
    return np.split(rows[..., :6], np.cumsum([len(frames) for _, _, frames in items])[:-1])


def check_success(task: TaskId, world: WorldState, variation: TaskVariation) -> bool:
    """The task's goal predicate on the current world state, read only
    once the gripper holds no cube."""
    return world.attached is None and _SPECS[task].goal(world, variation)


def synth_joint_velocities(poses: np.ndarray) -> np.ndarray:
    """Stand-in joint velocities (T x 7) for a T x 6 pose trajectory, whose
    row norm equals the translational speed.

    Each of the seven components is speed/sqrt(7), so a dwell step reads
    as exactly zero and a motion step's norm equals the step length.
    """
    # np.square (x * x) and Python's float ** 2 (C pow) differ in the last
    # bit on some inputs. float_power calls C pow as ** does, so the squares,
    # summed in Python's order, are Python's and recorded velocities do not move.
    squares = np.float_power(np.diff(poses[:, :3], axis=0), 2.0)
    speeds = np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2])
    components = np.concatenate(([0.0], speeds)) / math.sqrt(7.0)
    return np.repeat(components[:, np.newaxis], 7, axis=1)


class _Waypoint(NamedTuple):
    x: float
    y: float
    z: float
    yaw: float
    grip: GripperState  # gripper state to hold after this waypoint's dwell


def _expand_waypoints(
    plans: Sequence[tuple[Pose6, GripperState, Sequence[_Waypoint]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense trajectories of (start pose, start gripper, waypoints) plans
    in one pass, end to end as T x 6 poses and T gripper bits, and each
    plan's frame count: linear legs at <= STEP_SIZE_M per step, then a
    DWELL_STEPS dwell at each waypoint; gripper toggles happen inside
    dwells. Leg yaws turn the short way round and are left unwrapped (the
    Episode wraps them)."""
    # Segments of frames: (x, y, z, yaw) base, the leg span from it (None
    # for a hold at the base), the frame count, and the gripper bit.
    segments: list[tuple[tuple[float, ...], tuple[float, ...] | None, int, int]] = []
    lengths = []
    for start_pose, start_grip, waypoints in plans:
        first = len(segments)
        here = (start_pose.x, start_pose.y, start_pose.z, start_pose.yaw)
        bit = start_grip.to_bit()
        segments.append((here, None, DWELL_STEPS, bit))  # initial dwell marks the home keyframe
        for wp in waypoints:
            x, y, z, yaw = here
            dist = math.sqrt((wp.x - x) ** 2 + (wp.y - y) ** 2 + (wp.z - z) ** 2)
            steps = math.ceil(dist / STEP_SIZE_M)
            if steps:
                turn = ((wp.yaw - yaw + math.pi) % TWO_PI) - math.pi
                segments.append((here, (wp.x - x, wp.y - y, wp.z - z, turn), steps, bit))
            here = (wp.x, wp.y, wp.z, wrap_angle(wp.yaw))
            segments.append((here, None, 1, bit))
            bit = wp.grip.to_bit()
            segments.append((here, None, DWELL_STEPS - 1, bit))
        total = sum(segment[2] for segment in segments[first:])
        if total < MIN_EPISODE_STEPS:
            segments.append((here, None, MIN_EPISODE_STEPS - total, bit))
        lengths.append(max(total, MIN_EPISODE_STEPS))

    bases, spans, counts, bits = zip(*segments)
    counts = np.array(counts)
    base = np.repeat(np.array(bases), counts, axis=0)
    span = np.repeat(np.array([d or (0.0,) * 4 for d in spans]), counts, axis=0)
    # frac = s/steps for the s-th frame (from 1) of each leg
    s = np.arange(len(base)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    frac = s / np.repeat(counts, counts)
    poses = np.zeros((len(base), 6))
    poses[:, [0, 1, 2, 5]] = base + span * frac[:, np.newaxis]  # a hold's span is zero
    return poses, np.repeat(np.array(bits, dtype=np.int8), counts), np.array(lengths)


def _named(text: str, world: WorldState) -> list[SimObject]:
    """The world's objects whose names text holds, in order of first mention; ties keep roster order."""
    return sorted((o for o in world.objects if o.name in text), key=lambda o: text.find(o.name))


def _free_spot(
    world: WorldState, avoid_x: float, avoid_y: float
) -> tuple[float, float]:
    lo_x, hi_x, lo_y, hi_y = _placement_region(world.bounds)
    for dx, dy in ((0.15, 0.0), (-0.15, 0.0), (0.0, 0.15), (0.0, -0.15), (0.15, 0.15), (-0.15, -0.15)):
        x, y = avoid_x + dx, avoid_y + dy
        if lo_x <= x <= hi_x and lo_y <= y <= hi_y:
            return x, y
    raise ExpertError("no free table spot inside the placement region")


def _pick_and_place(pick: SimObject, place_x: float, place_y: float, place_z: float) -> list[_Waypoint]:
    """Grasp pick, carry it at TRAVEL_HEIGHT_M and release it at the place point; _plan appends the homing tail."""
    px, py, pz = pick.center()
    yaw = pick.pose.yaw
    return [
        _Waypoint(px, py, TRAVEL_HEIGHT_M, yaw, GripperState.OPEN),
        _Waypoint(px, py, pz, yaw, GripperState.CLOSED),
        _Waypoint(px, py, TRAVEL_HEIGHT_M, yaw, GripperState.CLOSED),
        _Waypoint(place_x, place_y, TRAVEL_HEIGHT_M, yaw, GripperState.CLOSED),
        _Waypoint(place_x, place_y, place_z, yaw, GripperState.OPEN),
    ]


def _plan(task: TaskId, world: WorldState, instruction: str) -> list[_Waypoint]:
    """The expert's waypoints for the world and instruction: a pick and place or a chain of presses, then
    the homing tail, gripper open: up to TRAVEL_HEIGHT_M over the last waypoint at yaw 0, then HOME_POSE."""
    place = _SPECS[task].place
    if place is not None:
        ordered = _named(instruction, world)
        if len(ordered) != 2:
            raise ExpertError(f"cannot identify two objects in instruction {instruction!r}")
        moving, other = ordered
        waypoints = _pick_and_place(moving, *place(world, moving, other))
    else:
        sequence = []
        for segment in instruction.split(CHAIN_SEPARATOR):
            hit = _named(segment, world)
            if len(hit) != 1:
                raise ExpertError(f"cannot identify a button in segment {segment!r}")
            sequence.append(hit[0])
        waypoints = [
            _Waypoint(button.pose.x, button.pose.y, z, 0.0, GripperState.OPEN)
            for button in sequence
            for z in (TRAVEL_HEIGHT_M, PRESS_Z_M)
        ]
    last = waypoints[-1]
    waypoints.append(_Waypoint(last.x, last.y, TRAVEL_HEIGHT_M, 0.0, GripperState.OPEN))
    waypoints.append(_Waypoint(HOME_POSE.x, HOME_POSE.y, HOME_POSE.z, 0.0, GripperState.OPEN))
    return waypoints


def scripted_experts(task: TaskId, items: Sequence[tuple[WorldState, str]]) -> list[Episode]:
    """Plan and record a demonstration for each (world, instruction) in one
    array pass: one _expand_waypoints call, then one synth_joint_velocities
    call on the concatenated poses, each episode's first row set to the 0.0
    its own call gives, then one Episode.pool check of the whole block, whose
    views the episodes hold. Does not mutate the worlds. Each episode is dense
    (>= 60 steps); replaying its keyframe actions through execute_action
    solves the task.
    """
    if not items:
        return []
    poses, bits, lengths = _expand_waypoints(
        [(world.gripper_pose, world.gripper, _plan(task, world, instruction)) for world, instruction in items]
    )
    velocities = synth_joint_velocities(poses)
    velocities[np.cumsum(lengths)[:-1]] = 0.0  # no step leads into an episode's first row
    heads = [(instruction, observations_of(world)) for world, instruction in items]
    return Episode.pool(heads, poses, bits, velocities, lengths)


def scripted_expert(task: TaskId, world: WorldState, instruction: str) -> Episode:
    """scripted_experts on one world."""
    return scripted_experts(task, [(world, instruction)])[0]


def add_pose_noise(
    observations: Sequence[ObjectObservation], k: float, seed: int
) -> tuple[ObjectObservation, ...]:
    """Perturb poses with zero-mean Gaussian noise whose std per axis is k
    times BASE_SIGMA_TRANSLATION_M (x, y, z) or BASE_SIGMA_ROTATION_RAD
    (roll, pitch, yaw).

    k = 0 returns the observations unchanged. Deterministic per seed.
    """
    if k < 0:
        raise ValueError(f"noise scale k must be >= 0, got {k}")
    if k == 0:
        return tuple(observations)
    poses = np.array([obs.pose.as_list() for obs in observations], dtype=np.float64).reshape(-1, 6)
    moved = scale_pose_rows(poses, k, pose_noise_draws(len(observations), seed)).tolist()
    return tuple(ObjectObservation(obs.name, Pose6(*pose)) for obs, pose in zip(observations, moved))


def pose_noise_draws(n: int, seed: int) -> np.ndarray:
    """The n x 6 standard normal draws that add_pose_noise scales by k."""
    return np.random.default_rng(seed_words(seed)).normal(0.0, 1.0, size=(n, 6))


def scale_pose_rows(poses: np.ndarray, k: float, draws: np.ndarray) -> np.ndarray:
    """Move each axis of an M x 6 pose array by its draw times k times the axis's
    base sigma, then wrap the angles as Pose6 does. The first row that leaves
    the float range raises the ValueError that Pose6 raises for it."""
    with np.errstate(over="ignore"):  # d * k past the float range is +-inf, as in Python
        moved = poses + draws * k * _BASE_SIGMAS
    finite = np.isfinite(moved).all(axis=1)
    if not finite.all():
        Pose6(*moved[np.argmin(finite)].tolist())  # raises for the first bad row's first bad axis
    moved[:, 3:] = wrap_angles(moved[:, 3:])
    return moved


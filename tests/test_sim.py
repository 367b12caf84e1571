"""Simulator: reset determinism and placement rules, action semantics
(attach, settle, press), success predicates, scripted experts, synthetic
velocities, observation noise.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iclmanip.sim as sim
from iclmanip.harness import demo_task
from iclmanip.keyframes import extract_keyframes, sample_uniform
from iclmanip.model import (
    Action,
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
    WorkspaceBounds,
)
from iclmanip.sim import (
    BUTTON_RADIUS_M,
    CUBE_EDGE_M,
    GRASP_RADIUS_M,
    HOME_POSE,
    MAX_COORDINATE_M,
    MIN_EPISODE_STEPS,
    MIN_SEPARATION_M,
    STEP_SIZE_M,
    ExecutionError,
    ExpertError,
    Kind,
    PlacementError,
    SimObject,
    TaskId,
    TaskVariation,
    WorldState,
    add_pose_noise,
    check_success,
    execute_action,
    observations_of,
    render_instruction,
    replay_pose_rows,
    reset,
    scripted_expert,
    scripted_experts,
    seed_words,
    synth_joint_velocities,
    task_spec,
)

from conftest import ASYMMETRIC, BOUNDS

OPEN = GripperState.OPEN
CLOSED = GripperState.CLOSED


def act(x, y, z, grip=OPEN, yaw=0.0):
    return Action(Pose6(x, y, z, 0.0, 0.0, yaw), grip)


def button_world(x=0.0, y=0.0):
    objects = [
        SimObject("red button", Kind.BUTTON, Pose6(x, y, 0, 0, 0, 0), BUTTON_RADIUS_M)
    ]
    return WorldState(objects, HOME_POSE, OPEN, BOUNDS)


def two_cube_world(bx=-0.1, by=0.0, yx=0.1, yy=0.0):
    objects = [
        SimObject("blue cube", Kind.CUBE, Pose6(bx, by, 0, 0, 0, 0), CUBE_EDGE_M),
        SimObject("yellow cube", Kind.CUBE, Pose6(yx, yy, 0, 0, 0, 0), CUBE_EDGE_M),
    ]
    return WorldState(objects, HOME_POSE, OPEN, BOUNDS)


# ---------------------------------------------------------------- reset


def test_reset_is_deterministic_per_seed():
    for task in TaskId:
        a_world, a_instr, a_var = reset(task, 7, BOUNDS)
        b_world, b_instr, b_var = reset(task, 7, BOUNDS)
        assert a_instr == b_instr
        assert a_var == b_var
        assert [o.pose for o in a_world.objects] == [o.pose for o in b_world.objects]
        c_world, c_instr, c_var = reset(task, 8, BOUNDS)
        assert (
            [o.pose for o in a_world.objects] != [o.pose for o in c_world.objects]
            or a_instr != c_instr
        )


def _sha256_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _pose_hex(observation):
    return observation.name + " " + " ".join(float.hex(v) for v in observation.pose.as_list())


# sha256 over seeds 0-199 of each reset's instruction, variation and pose
# bits, and over add_pose_noise of ten worlds per task at three scales:
# pinned when reset drew one scalar per Generator call.
RESET_SHA256 = {
    TaskId.STACK_CUBE: "b3bebf173e798e4cec8892e8eaaf7df7040d0bab60abf390df9e1e96c3964d2c",
    TaskId.DESTACK_CUBE: "7804bc13b28ff7c285dc60ef6429434149af171958c7cb2adce9eac0d5b45b30",
    TaskId.PUSH_BUTTON: "e86573c9d2dc94525900a79c05b1c00acd7e9e84ff5202ee959003823334974e",
    TaskId.PUSH_MULTIPLE_BUTTONS: "3d1158745f8e5cfb8a6d10702cb1c72c01edf9fd8657a6a64cb935f1511a4f63",
    TaskId.SLIDE_BLOCK: "9a8a8379d2d4f45ae65db619398fa8a9615439c7f124e74574d147765647cfd8",
}
NOISE_SHA256 = "d96d466f315286af8b71f85ef95ca045cea82968bf2a18f10b665e7ee351442e"
# The same on the ASYMMETRIC box, each object also naming its supporter:
# pinned before the task facts moved into one table.
RESET_ASYMMETRIC_SHA256 = {
    TaskId.STACK_CUBE: "12b4201f76a85e72cceea1478bae21237413d4a846fe0e3653fc2284fa973350",
    TaskId.DESTACK_CUBE: "004bc166ceaf707a790faacc8b6f3ab22669e0b74bbafb813c5e390cc07c1235",
    TaskId.PUSH_BUTTON: "e8528f12c25aee19fa4b0db4c3748685389aee5ccd4f00b6f3e396df1f97e4d9",
    TaskId.PUSH_MULTIPLE_BUTTONS: "5b9919242ff8808c07f35a331682a470552846b606713709157b1ffdf5a23816",
    TaskId.SLIDE_BLOCK: "29c800dbb33c390edaa3615abcd4f90257ae33c0d8e60db1c0ffde9ae155a9ab",
}

# The same on a narrow box far off the origin, where placement draws have
# other magnitudes than on the two boxes above: pinned while reset still
# called rng.uniform.
NARROW_OFF_CENTRE = WorkspaceBounds(-9.9, -9.4, 3.0, 9.0, 0.0, 0.5)
RESET_NARROW_SHA256 = {
    TaskId.STACK_CUBE: "8d8e85df553558cea3fd79ab022cab1703e1baa9015b09af60f794e8ab9c3d8a",
    TaskId.DESTACK_CUBE: "2053ee02762d9e0de2d2a37088895a5ef543f64e6e3ca5fc7256723173edd3e9",
    TaskId.PUSH_BUTTON: "787693203bfe79e7e180da852534aa849b3f383c85e268f3b82cf7733834c779",
    TaskId.PUSH_MULTIPLE_BUTTONS: "49f8e2aa2fad19d2004c3bcbc2b98929a87ffc6176c6a6e9e79521239902b6fe",
    TaskId.SLIDE_BLOCK: "ca2af36006672de78c8b57037f35b235e38ed0d3afd5557bd87cbc12ec4944ae",
}


# The same for 50 seeds from each of 2**32 - 25, 3e10 and 2**64, which numpy
# coerces to two or three uint32 words (perfbench draws base seeds >= 1e10):
# pinned while reset still seeded its generator with [group, seed].
MULTI_WORD_STARTS = (2**32 - 25, 3 * 10**10, 2**64)
RESET_MULTI_WORD_SHA256 = {
    TaskId.STACK_CUBE: "5483dcc4480ee396c15ad565ce13d1e864ae264cbc6441d7de98845503fc0485",
    TaskId.DESTACK_CUBE: "c6a636700832919a0a1fb1bac2ffbdb03c54e62efbd1a512dba0799d56a9a84f",
    TaskId.PUSH_BUTTON: "05ef828d14c7558a2478f258f8e769ad66389889a5887e4bf2ceba49f7062b42",
    TaskId.PUSH_MULTIPLE_BUTTONS: "ea305ce32ecd46d2b0f632015514912973866b5433318dc8b67d5841718fbe08",
    TaskId.SLIDE_BLOCK: "421ccffbed722d5de95b2a8d3cc8c96b4ee1b3c807973fb25625968b00d2d11d",
}


@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_reset_worlds_are_pinned_bit_for_bit(task):
    lines = []
    for seed in range(200):
        world, instruction, variation = reset(task, seed, BOUNDS)
        lines.append(f"{seed}|{instruction}|{variation!r}|" + "|".join(_pose_hex(o) for o in world.objects))
    assert _sha256_lines(lines) == RESET_SHA256[task]
    for bounds, pinned in ((ASYMMETRIC, RESET_ASYMMETRIC_SHA256), (NARROW_OFF_CENTRE, RESET_NARROW_SHA256)):
        lines = []
        for seed in range(200):
            world, instruction, variation = reset(task, seed, bounds)
            objects = "|".join(f"{_pose_hex(o)} on {o.supported_by}" for o in world.objects)
            lines.append(f"{seed}|{instruction}|{variation!r}|{objects}")
        assert _sha256_lines(lines) == pinned[task], bounds


@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_reset_worlds_on_multi_word_seeds_are_pinned_bit_for_bit(task):
    lines = []
    for seed in (start + i for start in MULTI_WORD_STARTS for i in range(50)):
        world, instruction, variation = reset(task, seed, BOUNDS)
        objects = "|".join(f"{_pose_hex(o)} on {o.supported_by}" for o in world.objects)
        lines.append(f"{seed}|{instruction}|{variation!r}|{objects}")
    assert _sha256_lines(lines) == RESET_MULTI_WORD_SHA256[task]


def test_seed_words_give_the_generator_state_of_the_seed_list():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def state(seed):
        return np.random.default_rng(seed).bit_generator.state

    # Seeds either side of one, two and three uint32 words.
    @hypothesis.given(st.integers(0, 3), st.integers(0, 2**100))
    @hypothesis.example(3, 2**32 - 1)
    @hypothesis.example(3, 2**32)
    @hypothesis.example(1, 2**64)
    def check(group, seed):
        assert state(seed_words(group, seed)) == state([group, seed])
        assert state(seed_words(seed)) == state(seed)

    check()
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        seed_words(0, -1)


def test_seed_state_blocks_give_the_seed_sequence_state_of_each_seed():
    """Each row of a cached block of 64 seeds is SeedSequence's state for its seed, on 1 to 5+ entropy words."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    near_word_edges = st.builds(
        lambda e, d: max(2**e + d, 0), st.sampled_from((32, 64, 96)), st.integers(-130, 130)
    )
    values = st.one_of(near_word_edges, st.integers(0, 2**130))

    @hypothesis.given(st.lists(st.integers(0, 2**70), min_size=1, max_size=3), values)
    @hypothesis.example([0], 0)
    @hypothesis.example([3], 2**32 - 1)
    @hypothesis.example([1, 2, 3], 2**64)
    @hypothesis.example([2**64, 2**40, 7], 2**130)
    def check(prefix, value):
        expected = np.random.SeedSequence(seed_words(*prefix, value)).generate_state(4, np.uint64)
        assert np.array_equal(sim.seed_state(*prefix, value), expected)

    check()
    for values in ((0, -1), (-1, 5)):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            sim.seed_state(*values)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        reset(TaskId.STACK_CUBE, -1, BOUNDS)


def test_importing_the_package_loads_no_numpy_random():
    """reset builds its generator type on first use, so a fresh import stays clear of numpy.random."""
    code = "import sys, iclmanip; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))"
    src = str(Path(sim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pose_noise_is_pinned_bit_for_bit():
    lines = []
    for task in TaskId:
        for seed in range(10):
            obs = observations_of(reset(task, seed, BOUNDS)[0])
            for k in (0.5, 1.0, 2.0):
                noised = add_pose_noise(obs, k, seed=seed * 7 + 1)
                lines.append(f"{task.value}|{seed}|{k}|" + "|".join(_pose_hex(o) for o in noised))
    assert _sha256_lines(lines) == NOISE_SHA256


def test_reset_objects_separated_and_inside_region():
    for task in TaskId:
        span_x = BOUNDS.x_max - BOUNDS.x_min
        span_y = BOUNDS.y_max - BOUNDS.y_min
        lo_x, hi_x = BOUNDS.x_min + 0.1 * span_x, BOUNDS.x_max - 0.1 * span_x
        lo_y, hi_y = BOUNDS.y_min + 0.1 * span_y, BOUNDS.y_max - 0.1 * span_y
        for seed in range(40):
            world, _, _ = reset(task, seed, BOUNDS)
            ground = [o for o in world.objects if o.supported_by is None]
            for i, a in enumerate(ground):
                assert lo_x <= a.pose.x <= hi_x and lo_y <= a.pose.y <= hi_y
                for b in ground[i + 1 :]:
                    d = math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y)
                    assert d >= MIN_SEPARATION_M - 1e-12


def test_reset_gives_up_when_region_cannot_separate():
    # Region shrinks to a point; two ground objects can never be 8 cm apart.
    tight = WorkspaceBounds(-0.001, 0.001, -0.001, 0.001, 0.0, 0.5)
    with pytest.raises(PlacementError):
        reset(TaskId.STACK_CUBE, 0, tight)


def test_reset_rejects_bounds_beyond_max_coordinate():
    wide = WorkspaceBounds(-5e5, 5e5, -5e5, 5e5, 0.0, 0.5)
    message = r"^the simulator needs bounds within \[-10, 10\] m, got x limits \[-500000, 500000\]$"
    with pytest.raises(ValueError, match=message):
        reset(TaskId.STACK_CUBE, 0, wide)
    # The limit itself is accepted (no expert is planned on a box this wide).
    m = MAX_COORDINATE_M
    reset(TaskId.STACK_CUBE, 0, WorkspaceBounds(-m, m, -m, m, -m, m))


def test_reset_destack_starts_stacked():
    world, instr, var = reset(TaskId.DESTACK_CUBE, 3, BOUNDS)
    top = world.object(var.top)
    bottom = world.object(var.bottom)
    assert top.supported_by == bottom.name
    assert top.pose.z == pytest.approx(CUBE_EDGE_M)
    assert (top.pose.x, top.pose.y) == (bottom.pose.x, bottom.pose.y)
    assert var.top in instr and var.bottom in instr


def test_reset_never_returns_a_solved_world():
    for task in TaskId:
        for seed in range(60):
            world, _, var = reset(task, seed, BOUNDS)
            assert not check_success(task, world, var)


def test_reset_redraws_a_world_that_already_meets_its_goal(monkeypatch):
    first, _, _ = reset(TaskId.SLIDE_BLOCK, 0, BOUNDS)
    calls = []
    real = sim.check_success

    def first_draw_solved(task, world, variation):
        calls.append(task)
        return len(calls) == 1 or real(task, world, variation)

    monkeypatch.setattr(sim, "check_success", first_draw_solved)
    world, _, variation = reset(TaskId.SLIDE_BLOCK, 0, BOUNDS)
    assert len(calls) >= 2
    assert observations_of(world) != observations_of(first)
    assert not real(TaskId.SLIDE_BLOCK, world, variation)


def test_reset_button_layouts_shared_between_single_and_multi():
    # Multi-button episodes learn from single-button demos, so at equal
    # seeds both tasks must see the buttons in the same places.
    for seed in range(10):
        single, _, _ = reset(TaskId.PUSH_BUTTON, seed, BOUNDS)
        multi, _, _ = reset(TaskId.PUSH_MULTIPLE_BUTTONS, seed, BOUNDS)
        assert [o.pose for o in single.objects] == [o.pose for o in multi.objects]


def test_reset_variation_coverage():
    seen = set()
    for seed in range(60):
        _, _, var = reset(TaskId.PUSH_BUTTON, seed, BOUNDS)
        seen.add(var.buttons)
    assert len(seen) == 4  # every button color shows up as the goal

    lengths = set()
    for seed in range(80):
        _, _, var = reset(TaskId.PUSH_MULTIPLE_BUTTONS, seed, BOUNDS)
        lengths.add(len(var.buttons))
    assert lengths == {1, 2, 3, 4, 5, 6}


def test_render_instruction_templates():
    assert render_instruction(
        TaskId.STACK_CUBE, TaskVariation(top="blue cube", bottom="yellow cube")
    ) == "stack the blue cube on the yellow cube"
    assert render_instruction(
        TaskId.DESTACK_CUBE, TaskVariation(top="blue cube", bottom="yellow cube")
    ) == "destack the blue cube that is on the yellow cube"
    assert render_instruction(
        TaskId.PUSH_BUTTON, TaskVariation(buttons=("red button",))
    ) == "push the red button"
    assert render_instruction(
        TaskId.PUSH_MULTIPLE_BUTTONS,
        TaskVariation(buttons=("red button", "blue button")),
    ) == "push the red button, then push the blue button"
    assert render_instruction(TaskId.SLIDE_BLOCK, TaskVariation()) == (
        "slide the block onto the target"
    )


def test_task_spec_rosters():
    assert [n for n, _, _ in task_spec(TaskId.STACK_CUBE).roster] == ["blue cube", "yellow cube"]
    assert [n for n, _, _ in task_spec(TaskId.PUSH_BUTTON).roster] == [
        "red button",
        "yellow button",
        "green button",
        "blue button",
    ]
    assert len(task_spec(TaskId.STACK_CUBE).variations) == 2
    assert len(task_spec(TaskId.PUSH_BUTTON).variations) == 4
    for task in TaskId:  # one stored spec per task
        assert task_spec(task) is task_spec(task) and task_spec(task).task is task
        # Demos are planned on the demo task's worlds and shown beside this
        # task's: one roster and one placement group give both one layout.
        source = task_spec(demo_task(task))
        assert (source.roster, source.group) == (task_spec(task).roster, task_spec(task).group)
    assert len({task_spec(t).group for t in TaskId}) == 4


# ------------------------------------------------------- execute_action


def test_execute_teleports_the_gripper():
    world = button_world()
    execute_action(world, act(0.1, 0.2, 0.3))
    assert world.gripper_pose.x == pytest.approx(0.1)
    execute_action(world, act(0.0, 0.0, 0.3))
    assert world.gripper_pose.x == pytest.approx(0.0)


def test_execute_rejects_poses_outside_inflated_bounds():
    world = button_world()
    # x span is 1.0, inflation 0.1 per side: [-0.6, 0.6] is legal.
    execute_action(world, act(0.59, 0.0, 0.3))
    with pytest.raises(ExecutionError):
        execute_action(world, act(0.61, 0.0, 0.3))
    with pytest.raises(ExecutionError):
        execute_action(world, act(0.0, 0.0, 0.61))  # z span 0.5 inflates to 0.55


def test_object_lookup_names_a_missing_object():
    with pytest.raises(KeyError, match="no object named 'red cube' in world"):
        two_cube_world().object("red cube")


def test_grasp_requires_transition_and_proximity():
    world = two_cube_world()
    blue = world.object("blue cube")
    cx, cy, cz = blue.center()

    # Closing exactly at the center attaches.
    execute_action(world, act(cx, cy, cz, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    assert world.attached == "blue cube"

    # The cube snaps to the tool tip and tracks it while held.
    execute_action(world, act(0.0, 0.3, 0.2, CLOSED))
    assert blue.pose.x == pytest.approx(0.0)
    assert blue.pose.y == pytest.approx(0.3)
    assert blue.center()[2] == pytest.approx(0.2)
    assert blue.supported_by is None


def test_grasp_outside_radius_does_nothing():
    world = two_cube_world()
    blue = world.object("blue cube")
    cx, cy, cz = blue.center()
    off = GRASP_RADIUS_M + 0.005
    execute_action(world, act(cx + off, cy, cz, OPEN))
    execute_action(world, act(cx + off, cy, cz, CLOSED))
    assert world.attached is None
    assert world.gripper is CLOSED
    # Closing while already closed near the cube still attaches nothing.
    execute_action(world, act(cx, cy, cz, CLOSED))
    assert world.attached is None


def test_grasp_picks_nearest_cube():
    world = two_cube_world(bx=-0.011, by=0.0, yx=0.011, yy=0.0)
    # Gripper slightly nearer the yellow cube.
    execute_action(world, act(0.002, 0.0, 0.02, OPEN))
    execute_action(world, act(0.002, 0.0, 0.02, CLOSED))
    assert world.attached == "yellow cube"


def test_release_settles_on_table():
    world = two_cube_world()
    blue = world.object("blue cube")
    cx, cy, cz = blue.center()
    execute_action(world, act(cx, cy, cz, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    execute_action(world, act(0.3, 0.3, 0.2, CLOSED))
    execute_action(world, act(0.3, 0.3, 0.2, OPEN))
    assert world.attached is None
    assert blue.pose.z == pytest.approx(0.0)
    assert blue.supported_by is None


def test_release_settles_on_other_cube():
    world = two_cube_world()
    blue = world.object("blue cube")
    yellow = world.object("yellow cube")
    cx, cy, cz = blue.center()
    execute_action(world, act(cx, cy, cz, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    execute_action(world, act(yellow.pose.x, yellow.pose.y, 0.2, CLOSED))
    execute_action(world, act(yellow.pose.x, yellow.pose.y, 0.2, OPEN))
    assert blue.pose.z == pytest.approx(CUBE_EDGE_M)
    assert blue.supported_by == "yellow cube"
    assert check_success(
        TaskId.STACK_CUBE,
        world,
        TaskVariation(top="blue cube", bottom="yellow cube"),
    )


def test_release_rests_on_the_higher_of_two_stacked_cubes():
    # Both stacked cubes lie under the released cube's center, in either roster order.
    green = SimObject("green cube", Kind.CUBE, Pose6(0.0, 0.0, 0, 0, 0, 0), CUBE_EDGE_M)
    yellow = SimObject("yellow cube", Kind.CUBE, Pose6(0.0, 0.0, CUBE_EDGE_M, 0, 0, 0), CUBE_EDGE_M)
    yellow.supported_by = "green cube"
    for stack in ((green, yellow), (yellow, green)):
        blue = SimObject("blue cube", Kind.CUBE, Pose6(0.2, 0.0, 0, 0, 0, 0), CUBE_EDGE_M)
        world = WorldState([*map(_copy_obj, stack), blue], HOME_POSE, OPEN, BOUNDS)
        cx, cy, cz = blue.center()
        execute_action(world, act(cx, cy, cz, OPEN))
        execute_action(world, act(cx, cy, cz, CLOSED))
        execute_action(world, act(0.005, 0.0, 0.2, CLOSED))
        execute_action(world, act(0.005, 0.0, 0.2, OPEN))
        assert blue.pose.z == 2 * CUBE_EDGE_M
        assert blue.supported_by == "yellow cube"


def test_release_off_center_rests_on_the_cube_it_overlaps():
    # Blue's center lands 2.5 cm from yellow's: beyond yellow's half edge, but
    # within their two half edges summed (4 cm), so blue rests on yellow.
    world = two_cube_world(yx=0.10)
    blue, yellow = world.object("blue cube"), world.object("yellow cube")
    for x, y, z, grip in (
        (*blue.center(), OPEN), (*blue.center(), CLOSED), (0.125, 0.0, 0.15, CLOSED), (0.125, 0.0, 0.15, OPEN),
    ):
        execute_action(world, act(x, y, z, grip))
    assert (blue.pose.x, blue.pose.z, blue.supported_by) == (0.125, CUBE_EDGE_M, "yellow cube")
    # Yellow now holds blue up, so closing on yellow grasps nothing.
    execute_action(world, act(*yellow.center(), OPEN))
    execute_action(world, act(*yellow.center(), CLOSED))
    assert world.attached is None
    assert (yellow.pose.z, blue.pose.z) == (0.0, CUBE_EDGE_M)


def test_held_cube_keeps_its_own_yaw():
    world = two_cube_world()
    blue = world.object("blue cube")
    blue.pose = Pose6(blue.pose.x, blue.pose.y, 0.0, 0.0, 0.0, 0.7)
    cx, cy, cz = blue.center()
    for x, y, z, grip, yaw in (
        (cx, cy, cz, OPEN, 2.0),
        (cx, cy, cz, CLOSED, 2.5),  # grasp
        (0.0, 0.3, 0.2, CLOSED, 4.0),  # carry
        (0.0, 0.3, 0.2, OPEN, 5.5),  # release onto the table
    ):
        execute_action(world, act(x, y, z, grip, yaw=yaw))
        assert blue.pose.yaw == 0.7
    assert (blue.pose.z, blue.supported_by) == (0.0, None)


def test_execute_refuses_a_cube_floating_over_its_supporter():
    # destack_cube's start, built by hand, with the top cube raised 1 cm off its supporter.
    yellow = SimObject("yellow cube", Kind.CUBE, Pose6(0.0, 0.0, 0, 0, 0, 0), CUBE_EDGE_M)
    blue = SimObject("blue cube", Kind.CUBE, Pose6(0.0, 0.0, CUBE_EDGE_M + 0.01, 0, 0, 0), CUBE_EDGE_M, "yellow cube")
    world = WorldState([blue, yellow], HOME_POSE, OPEN, BOUNDS)
    with pytest.raises(RuntimeError, match="^invariant violation: 'blue cube' not resting on 'yellow cube' top$"):
        execute_action(world, act(0.2, 0.2, 0.2))


def test_a_cube_another_rests_on_cannot_be_grasped():
    # destack_cube's stacked start: closing on the bottom cube grasps nothing.
    world, _, var = reset(TaskId.DESTACK_CUBE, 0, BOUNDS)
    bottom = world.object(var.bottom)
    before = [(o.pose, o.supported_by) for o in world.objects]
    for z, grip in ((0.15, OPEN), (0.025, OPEN), (0.025, CLOSED)):
        execute_action(world, act(bottom.pose.x, bottom.pose.y, z, grip))
    assert world.attached is None
    assert [(o.pose, o.supported_by) for o in world.objects] == before

    # After a stack, the bottom cube cannot be grasped; the top one still can.
    world = two_cube_world()
    blue, yellow = world.object("blue cube"), world.object("yellow cube")
    cx, cy, cz = blue.center()
    above = (yellow.pose.x, yellow.pose.y, 0.2)
    for x, y, z, grip in (
        (cx, cy, cz, OPEN), (cx, cy, cz, CLOSED), (*above, CLOSED), (*above, OPEN),
        (*yellow.center(), OPEN), (*yellow.center(), CLOSED),
    ):
        execute_action(world, act(x, y, z, grip))
    assert world.attached is None
    assert (yellow.pose.z, blue.supported_by) == (0.0, "yellow cube")
    execute_action(world, act(*blue.center(), OPEN))
    execute_action(world, act(*blue.center(), CLOSED))
    assert world.attached == "blue cube"


def test_press_requires_empty_gripper_descent():
    world = button_world()
    execute_action(world, act(0.0, 0.0, 0.2, OPEN))
    execute_action(world, act(0.0, 0.0, 0.005, OPEN))
    assert world.press_log == ["red button"]


def test_press_logs_transitions_not_dwell():
    world = button_world()
    execute_action(world, act(0.0, 0.0, 0.005))
    execute_action(world, act(0.001, 0.0, 0.005))  # still inside: no new entry
    execute_action(world, act(0.0, 0.0, 0.2))      # leave
    execute_action(world, act(0.0, 0.0, 0.005))    # re-enter: logs again
    assert world.press_log == ["red button", "red button"]


def test_press_needs_xy_within_radius_and_low_z():
    world = button_world()
    execute_action(world, act(BUTTON_RADIUS_M + 0.002, 0.0, 0.005))
    assert world.press_log == []
    execute_action(world, act(0.0, 0.0, 0.02))  # above press height
    assert world.press_log == []


def test_carried_cube_does_not_press():
    objects = [
        SimObject("red button", Kind.BUTTON, Pose6(0, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
        SimObject("blue cube", Kind.CUBE, Pose6(0.2, 0.0, 0, 0, 0, 0), CUBE_EDGE_M),
    ]
    world = WorldState(objects, HOME_POSE, OPEN, BOUNDS)
    cube = world.object("blue cube")
    cx, cy, cz = cube.center()
    execute_action(world, act(cx, cy, cz, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    execute_action(world, act(0.0, 0.0, 0.005, CLOSED))
    assert world.press_log == []


def test_clone_is_independent():
    objects = [
        SimObject("red button", Kind.BUTTON, Pose6(0, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
        SimObject("blue cube", Kind.CUBE, Pose6(0.2, 0.0, 0, 0, 0, 0), CUBE_EDGE_M),
    ]
    world = WorldState(objects, HOME_POSE, OPEN, BOUNDS)
    before = [(o.pose, o.supported_by) for o in world.objects]
    copy = world.clone()
    execute_action(copy, act(0.0, 0.0, 0.005))  # press
    cx, cy, cz = copy.object("blue cube").center()
    execute_action(copy, act(cx, cy, cz, OPEN))
    execute_action(copy, act(cx, cy, cz, CLOSED))  # grasp
    execute_action(copy, act(cx, cy, 0.2, CLOSED))  # carry
    assert copy.attached == "blue cube"
    assert copy.press_log == ["red button"]
    assert copy.object("blue cube").pose.z > 0.1
    assert [(o.pose, o.supported_by) for o in world.objects] == before
    assert world.press_log == [] and world.attached is None
    assert world.gripper_pose == HOME_POSE and world.gripper is OPEN


def test_clone_copies_every_field():
    world = WorldState(
        objects=[
            SimObject("red button", Kind.BUTTON, Pose6(0, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
            SimObject("green cube", Kind.CUBE, Pose6(0.2, 0, 0, 0, 0, 0.3), CUBE_EDGE_M),
            SimObject(
                "blue cube", Kind.CUBE, Pose6(0.2, 0, CUBE_EDGE_M, 0, 0, 0), CUBE_EDGE_M,
                supported_by="green cube",
            ),
        ],
        gripper_pose=Pose6(0.1, 0.1, 0.2, 0, 0, 0),
        gripper=CLOSED,
        bounds=BOUNDS,
        attached="blue cube",
        press_log=["red button"],
    )
    copy = world.clone()
    assert copy == world
    assert copy.press_log is not world.press_log
    assert all(a is not b for a, b in zip(copy.objects, world.objects))


# --------------------------------------------------------- check_success


def test_destack_success_predicate():
    world, _, var = reset(TaskId.DESTACK_CUBE, 5, BOUNDS)
    assert not check_success(TaskId.DESTACK_CUBE, world, var)
    top = world.object(var.top)
    top.pose = Pose6(0.3, 0.3, 0.0, 0, 0, 0)
    top.supported_by = None
    assert check_success(TaskId.DESTACK_CUBE, world, var)


def test_stack_success_requires_released_gripper():
    world = two_cube_world()
    blue = world.object("blue cube")
    yellow = world.object("yellow cube")
    cx, cy, cz = blue.center()
    execute_action(world, act(cx, cy, cz, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    execute_action(world, act(yellow.pose.x, yellow.pose.y, CUBE_EDGE_M + CUBE_EDGE_M / 2, CLOSED))
    var = TaskVariation(top="blue cube", bottom="yellow cube")
    # Perfectly placed but still held: not done yet.
    assert not check_success(TaskId.STACK_CUBE, world, var)
    execute_action(world, act(yellow.pose.x, yellow.pose.y, CUBE_EDGE_M + CUBE_EDGE_M / 2, OPEN))
    assert check_success(TaskId.STACK_CUBE, world, var)


def test_slide_success_requires_released_gripper():
    # The block carried over the target, still closed, hovers there: not slid.
    world, _, var = reset(TaskId.SLIDE_BLOCK, 0, BOUNDS)
    block, target = world.object("block"), world.object("target")
    cx, cy, cz = block.center()
    execute_action(world, act(cx, cy, 0.15, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    execute_action(world, act(cx, cy, 0.15, CLOSED))
    execute_action(world, act(target.pose.x, target.pose.y, 0.15, CLOSED))
    assert world.attached == "block" and block.pose.z == pytest.approx(0.13)
    assert not check_success(TaskId.SLIDE_BLOCK, world, var)


def test_destack_success_requires_released_gripper():
    # The top cube carried 15 cm aside and lowered to table height, still
    # closed, is held there: not destacked.
    world, _, var = reset(TaskId.DESTACK_CUBE, 0, BOUNDS)
    top = world.object(var.top)
    cx, cy, cz = top.center()
    execute_action(world, act(cx, cy, cz, OPEN))
    execute_action(world, act(cx, cy, cz, CLOSED))
    execute_action(world, act(cx, cy, 0.15, CLOSED))
    execute_action(world, act(cx + 0.15, cy, 0.045, CLOSED))
    assert world.attached == var.top and top.pose.z == pytest.approx(0.025)
    assert not check_success(TaskId.DESTACK_CUBE, world, var)


def test_multi_button_success_needs_exact_order():
    objects = [
        SimObject("red button", Kind.BUTTON, Pose6(-0.2, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
        SimObject("blue button", Kind.BUTTON, Pose6(0.2, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
    ]
    var = TaskVariation(buttons=("red button", "blue button"))

    def run(order):
        world = WorldState([o for o in map(_copy_obj, objects)], HOME_POSE, OPEN, BOUNDS)
        for name in order:
            b = world.object(name)
            execute_action(world, act(b.pose.x, b.pose.y, 0.2))
            execute_action(world, act(b.pose.x, b.pose.y, 0.005))
            execute_action(world, act(b.pose.x, b.pose.y, 0.2))
        return check_success(TaskId.PUSH_MULTIPLE_BUTTONS, world, var)

    assert run(["red button", "blue button"])
    assert not run(["blue button", "red button"])
    assert not run(["red button"])
    assert not run(["red button", "blue button", "red button"])


def test_push_button_success_follows_the_press_log():
    # The goal button counts once the log holds it, whatever was pressed
    # before; another button alone does not.
    objects = [
        SimObject("red button", Kind.BUTTON, Pose6(-0.2, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
        SimObject("blue button", Kind.BUTTON, Pose6(0.2, 0, 0, 0, 0, 0), BUTTON_RADIUS_M),
    ]
    var = TaskVariation(buttons=("blue button",))

    def run(order):
        world = WorldState([_copy_obj(o) for o in objects], HOME_POSE, OPEN, BOUNDS)
        for name in order:
            b = world.object(name)
            execute_action(world, act(b.pose.x, b.pose.y, 0.2))
            execute_action(world, act(b.pose.x, b.pose.y, 0.005))
        assert world.press_log == order
        return check_success(TaskId.PUSH_BUTTON, world, var)

    assert run(["red button", "blue button"])
    assert not run(["red button"])
    assert not run([])


def _copy_obj(o):
    return SimObject(o.name, o.kind, o.pose, o.size, o.supported_by)


def test_slide_success_respects_target_rotation():
    # Target rotated 45 degrees: a block just past the axis-aligned corner
    # distance still counts when inside the rotated square.
    yaw = math.radians(45)
    half = 0.06
    objects = [
        SimObject("block", Kind.CUBE, Pose6(0.0, 0.0, 0, 0, 0, 0), CUBE_EDGE_M),
        SimObject("target", Kind.TARGET, Pose6(0.2, 0.2, 0, 0, 0, yaw), half),
    ]
    var = TaskVariation()

    def block_at(x, y):
        world = WorldState([_copy_obj(o) for o in objects], HOME_POSE, OPEN, BOUNDS)
        world.object("block").pose = Pose6(x, y, 0, 0, 0, 0)
        return check_success(TaskId.SLIDE_BLOCK, world, var)

    assert block_at(0.2, 0.2)
    # Along the rotated diagonal the reach is half*sqrt(2).
    assert block_at(0.2 + 0.080, 0.2)
    assert not block_at(0.2 + 0.090, 0.2)
    # Along the rotated edge direction the reach is half.
    assert block_at(0.2 + 0.059 / math.sqrt(2), 0.2 + 0.059 / math.sqrt(2))
    assert not block_at(0.2 + 0.070 / math.sqrt(2), 0.2 + 0.070 / math.sqrt(2))


# ------------------------------------------------------ scripted experts

# sha256 over seeds 0-99 of every task of each expert episode's instruction
# and the float.hex of its poses, gripper bits and joint velocities: pinned
# while every episode was planned in its own scripted_expert call.
EXPERT_SHA256 = "519156f03dcda9db5e5c678892d90a94010a23e6de47e7f760c7719eec2246f9"


def test_expert_episodes_are_pinned_bit_for_bit():
    lines = []
    for task in TaskId:
        for seed in range(100):
            world, instruction, _ = reset(task, seed, BOUNDS)
            episode = scripted_expert(task, world, instruction)
            arrays = (episode.poses.ravel(), episode.gripper_bits, episode.joint_velocities.ravel())
            hexes = "|".join(" ".join(float.hex(float(v)) for v in array.tolist()) for array in arrays)
            lines.append(f"{task.value}|{seed}|{instruction}|{hexes}")
    assert _sha256_lines(lines) == EXPERT_SHA256


def _same_episode(a, b):
    return (a.instruction, a.objects) == (b.instruction, b.objects) and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("poses", "gripper_bits", "joint_velocities")
    )


@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_a_pool_planned_in_one_call_equals_each_world_planned_alone(task):
    items = [reset(task, seed, BOUNDS)[:2] for seed in range(40)]
    for seed in range(0, 40, 3):  # an episode that starts away from where the last one ended
        world = items[seed][0].clone()
        world.gripper_pose = Pose6(0.01 * seed - 0.2, 0.1, 0.2, 0.0, 0.0, 0.1 * seed)
        items[seed] = (world, items[seed][1])
    alone = [scripted_expert(task, world, instruction) for world, instruction in items]
    for episode in alone:  # a pool of one gets its velocities from its own poses
        assert episode.joint_velocities.tobytes() == synth_joint_velocities(episode.poses).tobytes()
    if task is TaskId.PUSH_MULTIPLE_BUTTONS:  # chains of 1-6 buttons: episodes of many lengths
        assert {instruction.count(sim.CHAIN_SEPARATOR) + 1 for _, instruction in items} == set(range(1, 7))
        assert len({episode.length for episode in alone}) > 10
    for start, stop in ((0, 40), (0, 1), (39, 40), (3, 9), (10, 27)):
        pool = scripted_experts(task, items[start:stop])
        assert len(pool) == stop - start
        assert all(_same_episode(a, b) for a, b in zip(pool, alone[start:stop])), (start, stop)
    assert scripted_experts(task, []) == []


def test_expert_episodes_replay_to_success():
    for task in TaskId:
        for seed in range(12):
            world, instruction, var = reset(task, seed, BOUNDS)
            episode = scripted_expert(task, world, instruction)
            assert episode.length >= MIN_EPISODE_STEPS
            frames = extract_keyframes(episode, 0.01)
            assert 5 <= len(frames) <= 15, (task, seed, len(frames))
            replay = world.clone()
            for t in list(frames)[1:]:
                execute_action(replay, episode.actions[t])
            assert check_success(task, replay, var), (task, seed)


def dense_replay_observations(world, episode, frames):
    """Reference for replay_pose_rows: execute every frame in order."""
    wanted = set(frames)
    observed = {}
    for t, action in enumerate(episode.actions):
        execute_action(world, action)
        if t in wanted:
            observed[t] = observations_of(world)
    return observed


def dense_rows(world, episode, frames):
    """The reference's scene at each frame, in frame order, as float.hex pose rows."""
    observed = dense_replay_observations(world.clone(), episode, frames)
    return [[[v.hex() for v in o.pose.as_list()] for o in observed[t]] for t in frames]


def event_rows(world, episode, frames):
    """replay_pose_rows on the one item, as float.hex pose rows; the world is not mutated."""
    before = [(o.name, o.pose, o.supported_by) for o in world.objects]
    (rows,) = replay_pose_rows([(world, episode, frames)])
    assert rows.dtype == np.float64 and rows.shape == (len(frames), len(world.objects), 6)
    assert [(o.name, o.pose, o.supported_by) for o in world.objects] == before
    return [[[v.hex() for v in obj] for obj in scene] for scene in rows.tolist()]


def replay_outcome(replay, *args):
    try:
        return replay(*args)
    except ExecutionError as exc:
        return f"ExecutionError: {exc}"


HIGH_FLOOR = WorkspaceBounds(-0.5, 0.5, -0.5, 0.5, 0.05, 0.5)  # button presses leave it


@pytest.mark.parametrize("bounds", [BOUNDS, HIGH_FLOOR], ids=["default", "high-floor"])
@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_event_replay_matches_dense_replay(task, bounds):
    outcomes = []
    for seed in range(50):
        world, instruction, _ = reset(task, seed, bounds)
        episode = scripted_expert(task, world, instruction)
        for frames in (extract_keyframes(episode, 0.01), sample_uniform(episode.length, 10)):
            dense = replay_outcome(dense_rows, world, episode, frames)
            event = replay_outcome(event_rows, world, episode, frames)
            assert event == dense, (task.value, seed, list(frames))
            if not isinstance(dense, str):
                assert len(dense) == len(frames)
            outcomes.append(dense)
    errors = {o for o in outcomes if isinstance(o, str)}
    if bounds is HIGH_FLOOR and task in (TaskId.PUSH_BUTTON, TaskId.PUSH_MULTIPLE_BUTTONS):
        assert errors == {"ExecutionError: action pose z=0.004 outside inflated bounds [0.005, 0.545]"}
    else:
        assert not errors


def pool_outcome(items):
    """replay_pose_rows on a pool: each item's rows as (shape, bytes), or the error text."""
    return replay_outcome(lambda: [(rows.shape, rows.tobytes()) for rows in replay_pose_rows(items)])


@pytest.mark.parametrize("bounds", [BOUNDS, HIGH_FLOOR], ids=["default", "high-floor"])
@pytest.mark.parametrize("task", list(TaskId), ids=lambda t: t.value)
def test_a_pool_replayed_at_once_equals_each_demo_replayed_alone(task, bounds):
    items = []
    for seed in range(12):
        world, instruction, _ = reset(task, seed, bounds)
        episode = scripted_expert(task, world, instruction)
        if seed % 3 == 2:  # the gripper starts and stays closed for 5 frames, on the first free cube if any, tilted
            world = world.clone()
            bits = episode.gripper_bits.copy()
            bits[:5] = CLOSED.to_bit()
            episode = Episode(instruction, episode.objects, episode.poses, bits, episode.joint_velocities)
            world.gripper = CLOSED
            free = [o for o in world.objects if o.kind is Kind.CUBE]
            free = [o for o in free if o.name not in {o.supported_by for o in world.objects}]
            world.attached = free[0].name if free else None
            if free:
                free[0].pose = Pose6(*free[0].pose.translation(), 0.25, -0.5, free[0].pose.yaw)
        frames = extract_keyframes(episode, 0.01) if seed % 2 else sample_uniform(episode.length, 7)
        items.append((world, episode, frames))
        assert replay_outcome(event_rows, *items[-1]) == replay_outcome(dense_rows, *items[-1])
    buttons = task in (TaskId.PUSH_BUTTON, TaskId.PUSH_MULTIPLE_BUTTONS)
    assert any(world.attached for world, _, _ in items) is not buttons
    alone = [pool_outcome([item]) for item in items]
    for start, stop in ((0, 12), (0, 1), (11, 12), (3, 9)):
        first_error = next((o for o in alone[start:stop] if isinstance(o, str)), None)
        assert pool_outcome(items[start:stop]) == (first_error or [r for o in alone[start:stop] for r in o])
    assert replay_pose_rows([]) == []
    if not isinstance(alone[0], str):
        world, episode, _ = items[0]
        with pytest.raises(IndexError):  # a frame past its own episode, not one of the next episode's
            replay_pose_rows([(world, episode, [episode.length]), *items[1:2]])


def _pushed(seed, bounds, t=None, **moved):
    """A push_button demo on (seed, bounds), with the pose at frame t moved to the given x, y or z."""
    world, instruction, _ = reset(TaskId.PUSH_BUTTON, seed, bounds)
    episode = scripted_expert(TaskId.PUSH_BUTTON, world, instruction)
    poses = episode.poses.copy()
    for axis, value in moved.items():
        poses[t, "xyz".index(axis)] = value
    return world, Episode(instruction, episode.objects, poses, episode.gripper_bits, episode.joint_velocities), [0, 9]


def test_a_pool_raises_the_error_that_a_one_by_one_replay_raises_first():
    # A push demo passes on the default box and fails at its first press on
    # HIGH_FLOOR (z); one moved out in x and z before its press fails on x,
    # one moved out in y at its last frame on y. Each pool of them raises what
    # its first failing demo raises alone, and a pool that none fails in
    # gives each demo's rows.
    demos = [_pushed(0, BOUNDS), _pushed(1, HIGH_FLOOR), _pushed(2, HIGH_FLOOR, 5, x=0.9, z=-1.0),
             _pushed(3, BOUNDS, -1, y=-0.9), _pushed(4, BOUNDS)]
    alone = [pool_outcome([demo]) for demo in demos]
    assert [o[:29] if isinstance(o, str) else None for o in alone] == [
        None, "ExecutionError: action pose z", "ExecutionError: action pose x", "ExecutionError: action pose y", None
    ]
    for order in itertools.permutations(range(len(demos))):
        for stop in (1, 2, 3, 5):
            pool = [demos[i] for i in order[:stop]]
            first_error = next((alone[i] for i in order[:stop] if isinstance(alone[i], str)), None)
            assert pool_outcome(pool) == (first_error or [r for i in order[:stop] for r in alone[i]]), order[:stop]


def test_event_replay_executes_only_the_gripper_changes(monkeypatch):
    executed = []
    original = sim.execute_action

    def recording(w, action):
        executed.append(action)
        original(w, action)

    monkeypatch.setattr(sim, "execute_action", recording)
    world, instruction, _ = reset(TaskId.STACK_CUBE, 3, BOUNDS)
    episode = scripted_expert(TaskId.STACK_CUBE, world, instruction)
    bits = episode.gripper_bits
    toggles = [t for t in range(1, episode.length) if bits[t] != bits[t - 1]]
    replay_pose_rows([(world, episode, [5, 40])])
    assert executed == [episode.action(t) for t in toggles]
    assert len(toggles) == 2  # one grasp, one release
    world, instruction, _ = reset(TaskId.PUSH_MULTIPLE_BUTTONS, 3, BOUNDS)
    chain = scripted_expert(TaskId.PUSH_MULTIPLE_BUTTONS, world, instruction)
    assert len(instruction.split(sim.CHAIN_SEPARATOR)) > 1
    executed.clear()
    replay_pose_rows([(world, chain, extract_keyframes(chain, 0.01))] * 3)
    assert executed == []  # a press chain never closes the gripper


def test_expert_does_not_mutate_world():
    world, instruction, _ = reset(TaskId.STACK_CUBE, 1, BOUNDS)
    before = [(o.name, o.pose) for o in world.objects]
    scripted_expert(TaskId.STACK_CUBE, world, instruction)
    assert [(o.name, o.pose) for o in world.objects] == before
    assert world.gripper_pose == HOME_POSE


def test_expert_step_size_and_dwells():
    world, instruction, _ = reset(TaskId.STACK_CUBE, 2, BOUNDS)
    episode = scripted_expert(TaskId.STACK_CUBE, world, instruction)
    poses = [a.pose for a in episode.actions]
    steps = [
        math.dist(a.translation(), b.translation()) for a, b in zip(poses, poses[1:])
    ]
    assert max(steps) <= STEP_SIZE_M + 1e-9
    # Dwells exist: some consecutive frames do not move.
    assert sum(1 for s in steps if s < 1e-12) >= 8


@pytest.mark.parametrize(
    "task, instruction",
    [
        (TaskId.PUSH_BUTTON, "push the purple button"),
        (TaskId.STACK_CUBE, "stack the blue cube on the purple cube"),
        (TaskId.DESTACK_CUBE, "destack the purple cube that is on the yellow cube"),
        (TaskId.SLIDE_BLOCK, "slide the block onto the shelf"),
        (TaskId.PUSH_MULTIPLE_BUTTONS, "push the red button, then push the purple button"),
    ],
    ids=["button", "stack", "destack", "slide", "chain"],
)
def test_expert_rejects_unknown_instruction(task, instruction):
    world, _, _ = reset(task, 0, BOUNDS)
    with pytest.raises(ExpertError):
        scripted_expert(task, world, instruction)


def test_observations_match_roster_order():
    world, _, _ = reset(TaskId.PUSH_BUTTON, 0, BOUNDS)
    names = [o.name for o in observations_of(world)]
    assert names == ["red button", "yellow button", "green button", "blue button"]


# --------------------------------------------- velocities and keyframes


def test_synth_velocities_norm_equals_step_distance():
    poses = [
        Pose6(0.0, 0.0, 0.1, 0, 0, 0),
        Pose6(STEP_SIZE_M, 0.0, 0.1, 0, 0, 0),
        Pose6(STEP_SIZE_M, 0.0, 0.1, 0, 0, 0),
        Pose6(STEP_SIZE_M, 0.03, 0.1, 0, 0, 0),
    ]
    array = synth_joint_velocities(np.array([p.as_list() for p in poses]))
    assert array.shape == (4, 7)
    norms = [math.sqrt(sum(v * v for v in row)) for row in array.tolist()]
    assert norms[0] == pytest.approx(0.0, abs=1e-15)
    assert norms[1] == pytest.approx(STEP_SIZE_M, abs=1e-12)
    assert norms[2] == pytest.approx(0.0, abs=1e-15)
    assert norms[3] == pytest.approx(0.03, abs=1e-12)
    # Equal components: the norm is spread evenly over the seven joints.
    assert len(set(array[1].tolist())) == 1


def per_frame_velocities(poses):
    """Reference for synth_joint_velocities: the per-frame formula on floats."""
    rows = []
    for t, pose in enumerate(poses):
        prev = poses[t - 1] if t else pose
        speed = math.sqrt((pose[0] - prev[0]) ** 2 + (pose[1] - prev[1]) ** 2 + (pose[2] - prev[2]) ** 2)
        rows.append([speed / math.sqrt(7.0)] * 7)
    return rows


def test_synth_velocities_match_per_frame_formula_bit_for_bit():
    # Seeds 0..199 include expert episodes (stack_cube 111 and 194,
    # slide_block 60 and 110) where squaring with numpy instead of
    # Python's float ** 2 changes the last bit of a velocity.
    for task in TaskId:
        for seed in range(200):
            world, instruction, _ = reset(task, seed, BOUNDS)
            poses = scripted_expert(task, world, instruction).poses
            assert synth_joint_velocities(poses).tolist() == per_frame_velocities(poses.tolist()), (task, seed)


def test_synth_velocities_match_per_frame_formula_on_any_trajectory():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # T frames from a start row; each step's size is 10 ** e for e drawn in
    # [lowest, lowest + width] within [-300, 3], and some frames repeat the last.
    @hypothesis.given(
        st.integers(2, 300),
        st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
        st.floats(-300.0, 3.0),
        st.floats(0.0, 303.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def check(T, start, lowest, width, repeat_share, seed):
        rng = np.random.default_rng(seed)
        exponents = rng.uniform(lowest, min(lowest + width, 3.0), size=(T - 1, 1))
        steps = rng.uniform(-1.0, 1.0, size=(T - 1, 6)) * 10.0 ** exponents
        steps[rng.random(T - 1) < repeat_share] = 0.0
        poses = np.cumsum(np.vstack([start, steps]), axis=0)
        assert synth_joint_velocities(poses).tolist() == per_frame_velocities(poses.tolist())

    check()


def test_far_apart_cubes_make_long_episodes():
    # On a desk four times wider, travel legs stretch past 200 frames.
    wide = WorkspaceBounds(-2.0, 2.0, -2.0, 2.0, 0.0, 0.5)
    best = 0
    for seed in range(30):
        world, instruction, _ = reset(TaskId.STACK_CUBE, seed, wide)
        episode = scripted_expert(TaskId.STACK_CUBE, world, instruction)
        best = max(best, episode.length)
    assert best > 200


# ------------------------------------------------------- behaviour pin

# Tool-tip heights: in a press zone, a cube's center, just over a cube, a
# stacked cube's center, travel height.
BEHAVIOUR_Z_M = (0.005, 0.02, 0.045, 0.06, 0.15)

# sha256 over the behaviour_digests lines: pinned while each task's start,
# expert and goal were branches of reset, _plan and check_success.
SIM_BEHAVIOUR_SHA256 = "911c0e1ba61840e4a6d128090aea8f28a336543780dc1c036af4a153299630cf"


def behaviour_digests():
    """(task, seed, success, sha256) of 100 seeds per task, each reset and
    then driven by 40 random actions from default_rng([7, task index, seed]):
    xy near a random object (sigma 2 cm), z from BEHAVIOUR_Z_M, a uniform
    yaw, the gripper closed with p = 0.5. The digest covers the final
    object poses (float.hex), supports, held cube, press log, any error and
    check_success, so grasp, carry, settle, press and every goal predicate
    are pinned on actions no expert takes."""
    rows = []
    for index, task in enumerate(TaskId):
        for seed in range(100):
            world, _, variation = reset(task, seed, BOUNDS)
            rng = np.random.default_rng([7, index, seed])
            error = ""
            try:
                for _ in range(40):
                    near = world.objects[int(rng.integers(len(world.objects)))].pose
                    x, y = rng.normal((near.x, near.y), 0.02).tolist()
                    z = BEHAVIOUR_Z_M[int(rng.integers(len(BEHAVIOUR_Z_M)))]
                    yaw = float(rng.uniform(-math.pi, math.pi))
                    grip = CLOSED if rng.random() < 0.5 else OPEN
                    execute_action(world, act(x, y, z, grip, yaw))
            except (ExecutionError, RuntimeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            success = check_success(task, world, variation)
            state = "|".join(
                f"{_pose_hex(ObjectObservation(o.name, o.pose))} on {o.supported_by}" for o in world.objects
            )
            line = f"{state}|held {world.attached}|pressed {','.join(world.press_log)}|{error}|{success}"
            rows.append((task.value, seed, success, hashlib.sha256(line.encode()).hexdigest()))
    return rows


def test_random_actions_are_pinned_bit_for_bit():
    rows = behaviour_digests()
    assert _sha256_lines(" ".join(map(str, row)) for row in rows) == SIM_BEHAVIOUR_SHA256
    for task in TaskId:  # every goal predicate is reached both ways
        assert 0 < sum(success for name, _, success, _ in rows if name == task.value) < 100


# ----------------------------------------------------------------- noise


def test_noise_zero_k_is_identity():
    obs = observations_of(reset(TaskId.STACK_CUBE, 0, BOUNDS)[0])
    assert add_pose_noise(obs, 0.0, seed=1) == tuple(obs)


def test_noise_is_deterministic_per_seed():
    obs = observations_of(reset(TaskId.STACK_CUBE, 0, BOUNDS)[0])
    a = add_pose_noise(obs, 1.0, seed=9)
    b = add_pose_noise(obs, 1.0, seed=9)
    c = add_pose_noise(obs, 1.0, seed=10)
    assert a == b
    assert a != c


def test_noise_rejects_negative_k():
    obs = observations_of(reset(TaskId.STACK_CUBE, 0, BOUNDS)[0])
    with pytest.raises(ValueError):
        add_pose_noise(obs, -0.5, seed=1)


def test_noise_scales_with_k():
    obs = (ObjectObservation("blue cube", Pose6(0, 0, 0.25, 1, 1, 1)),)
    dx1, dx2 = [], []
    for seed in range(4000):
        dx1.append(add_pose_noise(obs, 1.0, seed=seed)[0].pose.x)
        dx2.append(add_pose_noise(obs, 2.0, seed=seed)[0].pose.x)
    s1, s2 = np.std(dx1), np.std(dx2)
    assert s2 / s1 == pytest.approx(2.0, rel=0.05)
    assert s1 == pytest.approx(0.0168, rel=0.06)


def test_noise_preserves_names_and_wraps_angles():
    obs = (ObjectObservation("blue cube", Pose6(0, 0, 0.25, 0.01, 6.27, 3.0)),)
    for seed in range(50):
        noisy = add_pose_noise(obs, 2.0, seed=seed)[0]
        assert noisy.name == "blue cube"
        assert all(0 <= a < 2 * math.pi for a in noisy.pose.as_list()[3:])


if __name__ == "__main__":
    # One line per behaviour-pin episode: a change that moves
    # SIM_BEHAVIOUR_SHA256 diffs this output against its parent's to list
    # the episodes it moved. Run as PYTHONPATH=src python tests/test_sim.py
    for row in behaviour_digests():
        print(*row)

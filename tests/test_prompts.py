"""Prompt building against hand-derived golden files, and parser behavior
over friendly, hostile, and byte-garbage inputs.

Golden poses sit at bin centers so the expected bins are hand-computable:
translation bin b on [-0.5, 0.5] centers at -0.5 + (b + 0.5)/100, z on
[0, 0.5] at (b + 0.5)*0.005, rotation bin r at (5r + 2.5) degrees.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from iclmanip.discretize import (
    DiscreteAction,
    DiscretePose,
    discretize_action,
    discretize_rotation,
    discretize_translation,
)
from iclmanip.keyframes import KeyframeIndices
from iclmanip.model import (
    Episode,
    GripperState,
    ObjectObservation,
    Pose6,
)
from iclmanip.prompts import (
    IclExample,
    ParseError,
    PromptBundle,
    assemble_prompt,
    build_closed_loop_examples,
    build_example_input,
    build_icl_example,
    default_system_prompts,
    format_action,
    parse_response,
    read_prompts,
)
from iclmanip import prompts

from conftest import ASYMMETRIC, BOUNDS

GOLDEN = Path(__file__).parent / "golden"
OPEN = GripperState.OPEN


def deg(d):
    return math.radians(d)


def tc(b):
    """Center of translation bin b on [-0.5, 0.5]."""
    return -0.5 + (b + 0.5) / 100


def zc(b):
    """Center of translation bin b on [0, 0.5]."""
    return (b + 0.5) * 0.005


def rc(b):
    """Center of rotation bin b, radians."""
    return deg(5 * b + 2.5)


def pose(bx, by, bz, br=0, bp=0, byaw=0):
    return Pose6(tc(bx), tc(by), zc(bz), rc(br), rc(bp), rc(byaw))


def episode_with_actions(objects, instruction, poses, grips=None):
    """A still episode (zero velocities) commanding `poses`, gripper open
    unless `grips` gives the states."""
    grips = grips or [OPEN] * len(poses)
    return Episode(
        instruction,
        objects,
        [p.as_list() for p in poses],
        [g.to_bit() for g in grips],
        np.zeros((len(poses), 7)),
    )


def golden(name):
    return (GOLDEN / name).read_bytes().decode("utf-8")


def test_open_loop_single_demo_matches_golden():
    button = (ObjectObservation("red button", pose(50, 0, 0)),)
    ep = episode_with_actions(
        button,
        "push the red button",
        [
            pose(50, 50, 60),
            pose(50, 50, 60),
            pose(50, 0, 30, 0, 0, 1),
            pose(50, 0, 10),
            pose(50, 0, 0),
        ],
    )
    example = build_icl_example(ep, KeyframeIndices((0, 2, 4)), BOUNDS)
    test_obs = (ObjectObservation("red button", pose(0, 50, 0)),)
    test_input = build_example_input(test_obs, "push the red button", BOUNDS)
    bundle = assemble_prompt([example], test_input, default_system_prompts()[0])
    assert bundle.body == golden("open_loop_1demo.txt")


def test_open_loop_three_demos_match_golden():
    instruction = "stack the blue cube on the yellow cube"
    demos = [
        # (blue pose, yellow pose, final action pose)
        ((0, 0, 0), (50, 50, 0, 0, 0, 1), (50, 50, 9)),
        ((60, 70, 0), (30, 20, 0, 0, 2, 0), (30, 20, 9)),
        ((90, 39, 0, 71, 0, 0), (70, 60, 0), (70, 60, 9)),
    ]
    examples = []
    for blue, yellow, act in demos:
        objects = (
            ObjectObservation("blue cube", pose(*blue)),
            ObjectObservation("yellow cube", pose(*yellow)),
        )
        ep = episode_with_actions(
            objects, instruction, [pose(50, 50, 60), pose(*act)], [OPEN, GripperState.CLOSED]
        )
        examples.append(build_icl_example(ep, KeyframeIndices((0, 1)), BOUNDS))
    test_obs = (
        ObjectObservation("blue cube", pose(10, 80, 0)),
        ObjectObservation("yellow cube", pose(50, 40, 0)),
    )
    test_input = build_example_input(test_obs, instruction, BOUNDS)
    bundle = assemble_prompt(examples, test_input, default_system_prompts()[0])
    assert bundle.body == golden("open_loop_3demo.txt")


def test_closed_loop_demo_matches_golden():
    button = (ObjectObservation("red button", pose(50, 0, 0)),)
    ep = episode_with_actions(
        button,
        "push the red button",
        [
            pose(50, 50, 60),
            pose(50, 50, 60),
            pose(50, 0, 30),
            pose(50, 0, 10),
            pose(50, 0, 0),
        ],
    )
    # Static scene: every keyframe sees the same observations, so the two
    # observation blocks in the prompt must be byte-identical.
    rows = np.array([[button[0].pose.as_list()]] * 2)
    example = build_closed_loop_examples([(ep, KeyframeIndices((0, 4)), rows, None)], BOUNDS)[0]
    test_obs = (ObjectObservation("red button", pose(0, 50, 0)),)
    test_input = build_example_input(test_obs, "push the red button", BOUNDS)
    bundle = assemble_prompt([example], test_input, default_system_prompts()[0])
    assert bundle.body == golden("closed_loop_1demo.txt")
    obs_text = "red button: [50, 0, 0, 0, 0, 0]"
    assert example.input.count(obs_text) == 1
    assert example.output.count(obs_text) == 1


def test_closed_loop_rejects_missing_or_renamed_observations():
    button = (ObjectObservation("red button", pose(50, 0, 0)),)
    ep = episode_with_actions(
        button, "push the red button", [pose(50, 50, 60), pose(50, 0, 0)]
    )
    frames = KeyframeIndices((0, 1))
    row = button[0].pose.as_list()
    with pytest.raises(ValueError, match="got 1 observation blocks for 2 keyframes"):
        build_closed_loop_examples([(ep, frames, np.array([[row]]), None)], BOUNDS)
    with pytest.raises(ValueError, match="the episode has 1"):  # a second object's rows
        build_closed_loop_examples([(ep, frames, np.array([[row, row]] * 2), None)], BOUNDS)


_EDGE_ANGLES = (0.0, -0.0, 2 * math.pi, -2 * math.pi, 2 * math.pi - 1e-15, 1e-300, -1e-300)
_FAR_TRANSLATIONS = (1e300, -1e300, sys.float_info.max, -sys.float_info.max)


@pytest.mark.parametrize("bounds", [BOUNDS, ASYMMETRIC])
def test_demo_action_texts_equal_the_per_value_path(bounds):
    # Every action text build_icl_example writes is format_action of the
    # validated per-value view, also for angles at the wrap edges and for
    # translations far outside the bounds; and that view's bins are the
    # scalar functions' on each value.
    rng = np.random.default_rng(47)
    lo, hi = np.array(bounds.limits).T
    span = hi - lo
    objects = (ObjectObservation("red button", Pose6(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),)
    for _ in range(300):
        length = int(rng.integers(2, 10))
        poses = np.concatenate(
            (rng.uniform(lo - span, hi + span, (length, 3)), rng.uniform(-4 * math.pi, 4 * math.pi, (length, 3))),
            axis=1,
        )
        edges = rng.random(poses.shape) < 0.3
        poses[:, :3][edges[:, :3]] = rng.choice(_FAR_TRANSLATIONS, int(edges[:, :3].sum()))
        poses[:, 3:][edges[:, 3:]] = rng.choice(_EDGE_ANGLES, int(edges[:, 3:].sum()))
        ep = Episode("push the red button", objects, poses, rng.integers(0, 2, length), np.zeros((length, 7)))
        example = build_icl_example(ep, KeyframeIndices(tuple(range(length))), bounds)
        actions = [discretize_action(ep.action(t), bounds) for t in range(1, length)]
        assert example.output == "{" + ", ".join(map(format_action, actions)) + "}"
        for t, action in enumerate(actions, 1):
            x, y, z, *angles = ep.action(t).pose.as_list()
            scalar = [discretize_translation(v, a, b) for v, (a, b) in zip((x, y, z), bounds.limits)]
            assert action.pose.as_tuple() == (*scalar, *map(discretize_rotation, angles))


def test_system_prompts_match_reference_files():
    data = Path(__file__).parent / "data"
    for i, text in enumerate(default_system_prompts()):
        assert text == (data / f"system_prompt_{i}.txt").read_bytes().decode("utf-8")


def test_build_icl_example_needs_two_keyframes():
    button = (ObjectObservation("red button", pose(50, 0, 0)),)
    ep = episode_with_actions(button, "push the red button", [pose(0, 0, 0), pose(1, 1, 1)])
    with pytest.raises(ValueError):
        build_icl_example(ep, KeyframeIndices((1,)), BOUNDS)
    with pytest.raises(ValueError):
        build_icl_example(ep, KeyframeIndices((0, 4)), BOUNDS)  # length mismatch


def test_bundle_requires_output_slot():
    with pytest.raises(ValueError):
        PromptBundle(system="s", body="{a} > {b}")
    PromptBundle(system="s", body="{a} > ")


def random_action(rng):
    p = DiscretePose(*(int(rng.integers(0, 100)) for _ in range(3)),
                     *(int(rng.integers(0, 72)) for _ in range(3)))
    return DiscreteAction(p, int(rng.integers(0, 2)))


def test_parse_format_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        actions = [random_action(rng) for _ in range(int(rng.integers(1, 8)))]
        text = "{" + ", ".join(format_action(a) for a in actions) + "}"
        assert parse_response(text) == actions


def test_parse_lenient_accepts_wrappers():
    body = "[1, 2, 3, 4, 5, 6, 1], [7, 8, 9, 10, 11, 12, 0]"
    want = parse_response("{" + body + "}")
    assert parse_response(body) == want  # no braces
    assert parse_response(f"Sure! Here are the actions:\n{{{body}}}\nDone.") == want
    assert parse_response(f"```json\n{{{body}}}\n```") == want
    assert parse_response(f"```\n[1, 2, 3, 4, 5, 6, 1]\n[7, 8, 9, 10, 11, 12, 0]\n```") == want
    assert parse_response(("{" + body + "}").encode("utf-8")) == want


def test_parse_skips_observation_echoes():
    text = "{[5, 5, 5, 0, 0, 0, 1], red button: [9, 9, 9, 0, 0, 0], [6, 6, 6, 0, 0, 0, 0]}"
    got = parse_response(text)
    assert len(got) == 2
    assert got[0].pose.tx == 5 and got[1].pose.tx == 6
    # A colon-preceded bracket holding 7 integers is an action, not an echo.
    got = parse_response("Step 1: [50, 0, 30, 0, 0, 1, 1]\nStep 2: [50, 0, 0, 0, 0, 0, 1]")
    assert [a.pose.tz for a in got] == [30, 0]
    got = parse_response("Here are the actions: [5, 5, 5, 0, 0, 0, 1], [6, 6, 6, 0, 0, 0, 0].")
    assert [a.pose.tx for a in got] == [5, 6]


def test_parse_bare_six_int_bracket_is_arity_error():
    with pytest.raises(ParseError) as err:
        parse_response("{[1, 2, 3, 4, 5, 6]}")
    assert err.value.kind == "arity"
    assert err.value.position == 1


def test_parse_error_kinds():
    with pytest.raises(ParseError) as err:
        parse_response("no brackets here")
    assert err.value.kind == "no_actions"

    with pytest.raises(ParseError, match="expected text, got int") as err:
        parse_response(42)
    assert err.value.kind == "no_actions"

    with pytest.raises(ParseError) as err:
        parse_response("{[1, 2, 3, 4, 5, 6, 7, 8]}")
    assert err.value.kind == "arity"

    with pytest.raises(ParseError) as err:
        parse_response("{[100, 2, 3, 4, 5, 6, 1]}")
    assert err.value.kind == "range"

    with pytest.raises(ParseError) as err:
        parse_response("{[1, 2, 3, 72, 5, 6, 1]}")
    assert err.value.kind == "range"

    with pytest.raises(ParseError) as err:
        parse_response("{[1, 2, 3, 4, 5, 6, 2]}")
    assert err.value.kind == "range"

    with pytest.raises(ParseError) as err:
        parse_response("{[-1, 2, 3, 4, 5, 6, 1]}")
    assert err.value.kind == "range"

    with pytest.raises(ParseError) as err:
        parse_response("{[9999999999999, 2, 3, 4, 5, 6, 1]}")
    assert err.value.kind == "range"


def test_parse_fuzz_never_crashes():
    rng = np.random.default_rng(32)
    alphabet = b"{}[]();:, \n\t0123456789-+abcdefXYZ\xff\xe2\x80"
    for _ in range(3000):
        n = int(rng.integers(0, 300))
        blob = bytes(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
        try:
            out = parse_response(blob)
            assert isinstance(out, list) and out
        except ParseError:
            pass  # the only acceptable failure mode


def test_parse_megabyte_input():
    blob = b"x" * (1024 * 1024 - 30) + b"{[1, 2, 3, 4, 5, 6, 1]}"
    got = parse_response(blob)
    assert len(got) == 1


def test_read_prompts_inverts_assemble_prompt():
    stack = "stack the blue cube on the yellow cube"
    demos, test_bins, test_instruction = next(read_prompts([golden("open_loop_3demo.txt")]))
    assert [d.bins for d in demos] == [
        (0, 0, 0, 0, 0, 0, 50, 50, 0, 0, 0, 1),
        (60, 70, 0, 0, 0, 0, 30, 20, 0, 0, 2, 0),
        (90, 39, 0, 71, 0, 0, 70, 60, 0, 0, 0, 0),
    ]
    assert [d.instruction for d in demos] == [stack] * 3
    assert [d.output for d in demos] == [
        "{[50, 50, 9, 0, 0, 0, 0]}",
        "{[30, 20, 9, 0, 0, 0, 0]}",
        "{[70, 60, 9, 0, 0, 0, 0]}",
    ]
    assert test_bins == (10, 80, 0, 0, 0, 0, 50, 40, 0, 0, 0, 0)
    assert test_instruction == stack

    # Closed-loop outputs carry observation blocks; they come back verbatim.
    (demo,), test_bins, _ = next(read_prompts([golden("closed_loop_1demo.txt")]))
    assert demo.bins == (50, 0, 0, 0, 0, 0)
    assert demo.output == (
        "{[50, 50, 60, 0, 0, 0, 1], red button: [50, 0, 0, 0, 0, 0], [50, 0, 0, 0, 0, 0, 1]}"
    )
    assert test_bins == (0, 50, 0, 0, 0, 0)

    # A composed instruction keeps its commas; a prompt without demos reads as none.
    test_input = build_example_input(
        (ObjectObservation("red button", pose(1, 2, 3)),),
        "push the red button, then push the blue button",
        BOUNDS,
    )
    demos, test_bins, test_instruction = next(read_prompts([assemble_prompt([], test_input, "s").body]))
    assert demos == ()
    assert test_bins == (1, 2, 3, 0, 0, 0)
    assert test_instruction == "push the red button, then push the blue button"


@pytest.mark.parametrize(
    "body",
    [
        "{a} > ",  # no observations
        "{red button: [1, 2, 3, 4, 5, 6]} > ",  # no instruction
        "hello {red button: [1, 2, 3, 4, 5, 6], push} > ",  # text before the demos
        "{red button: [1, 2, 3, 4, 5, 6], push} > {[1]} {red button: [1, 2, 3, 4, 5, 6], push} > ",
        "{red {button: [1, 2, 3, 4, 5, 6], push} > {[1]}, {red button: [1, 2, 3, 4, 5, 6], push} > ",  # `{` in a demo input
        "{red button: [1, 2, 3, 4, 5, 6], push} > {[1, {2]}, {red button: [1, 2, 3, 4, 5, 6], push} > ",  # and output
        "{red button: [1234567, 2, 3, 4, 5, 6], push} > ",  # a bin of more than 6 digits
        "{red button: [\u0661, 2, 3, 4, 5, 6], push} > ",  # a bin in Arabic-Indic digits
        "{red button: [\uff11, 2, 3, 4, 5, 6], push} > ",  # and in a full-width digit
        "{blue cube: [1, 2, 3, 4, 5, 6], red button: [1, 2, 3], push} > ",  # an observation of three bins
        "{blue cube: [1, 2, 3, 4, 5, 6], red button: [1, 2, 3], push} > {[1]}, {red button: [1, 2, 3, 4, 5, 6], push} > ",  # in a demo input
        "{red button: [1, 2, 3, 4, 5, 6], push}",  # no trailing "> "
    ],
)
def test_read_prompts_rejects_bodies_assemble_prompt_cannot_make(body):
    with pytest.raises(ValueError):
        next(read_prompts([body]))


def test_read_input_cache_answers_as_a_cold_read():
    # Two prompts whose inputs have equal lengths but different bins, read
    # A, B, A on one cache; each read must equal one made on an empty cache.
    def body(demo_bin, test_bin):
        demo, test = (
            build_example_input((ObjectObservation("red button", pose(b, 20, 3)),), "push the red button", BOUNDS)
            for b in (demo_bin, test_bin)
        )
        return assemble_prompt([IclExample(demo, "{[1, 2, 3, 0, 0, 0, 1]}")], test, "s").body

    a, b = body(11, 12), body(13, 14)
    assert len(a) == len(b) and a != b
    prompts._read_input.cache_clear()
    warm = [next(read_prompts([text])) for text in (a, b, a)]
    cold = []
    for text in (a, b, a):
        prompts._read_input.cache_clear()
        cold.append(next(read_prompts([text])))
    assert warm == cold
    assert [bins[0] for _, bins, _ in warm] == [12, 14, 12]
    assert prompts._read_input.cache_info().maxsize is not None

    # A malformed input raises on every read, and no failure is kept.
    size = prompts._read_input.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="observations and an instruction"):
            next(read_prompts(["{red button: [1, 2, 3, 4, 5, 6]} > "]))
    assert prompts._read_input.cache_info().currsize == size


def test_icl_example_rejects_empty_fields():
    with pytest.raises(ValueError):
        IclExample("", "{}")
    with pytest.raises(ValueError):
        IclExample("{}", "")
    with pytest.raises(ValueError, match="need at least one observation"):
        build_example_input((), "push the red button", BOUNDS)
    with pytest.raises(ValueError, match="instruction must be non-empty"):
        build_example_input((ObjectObservation("red button", pose(1, 2, 3)),), "", BOUNDS)
    with pytest.raises(ValueError, match="test_input must be non-empty"):
        assemble_prompt([], "", "s")


def test_format_observation_shape():
    observation = ObjectObservation("red button", pose(1, 2, 3, 4, 5, 6))
    assert build_example_input((observation,), "push", BOUNDS) == "{red button: [1, 2, 3, 4, 5, 6], push}"
    dp = DiscretePose(1, 2, 3, 4, 5, 6)
    da = DiscreteAction(dp, 1)
    assert format_action(da) == "[1, 2, 3, 4, 5, 6, 1]"

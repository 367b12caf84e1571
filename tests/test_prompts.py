"""Prompt building against hand-derived golden files, and parser behavior
over friendly, hostile, and byte-garbage inputs.

Golden poses sit at bin centers so the expected bins are hand-computable:
translation bin b on [-0.5, 0.5] centers at -0.5 + (b + 0.5)/100, z on
[0, 0.5] at (b + 0.5)*0.005, rotation bin r at (5r + 2.5) degrees.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from iclmanip.discretize import DiscreteAction, DiscretePose
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
    build_closed_loop_example,
    build_example_input,
    build_icl_example,
    default_system_prompts,
    format_action,
    parse_response,
    read_prompt,
)

from conftest import BOUNDS

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
    example = build_icl_example(ep, KeyframeIndices((0, 2, 4), 5), BOUNDS)
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
        examples.append(build_icl_example(ep, KeyframeIndices((0, 1), 2), BOUNDS))
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
    example = build_closed_loop_example(ep, KeyframeIndices((0, 4), 5), BOUNDS, [button, button])
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
    frames = KeyframeIndices((0, 1), 2)
    with pytest.raises(ValueError):
        build_closed_loop_example(ep, frames, BOUNDS, [button])
    renamed = (ObjectObservation("blue button", pose(50, 0, 0)),)
    with pytest.raises(ValueError):
        build_closed_loop_example(ep, frames, BOUNDS, [button, renamed])


def test_system_prompts_match_reference_files():
    data = Path(__file__).parent / "data"
    for i, text in enumerate(default_system_prompts()):
        assert text == (data / f"system_prompt_{i}.txt").read_bytes().decode("utf-8")


def test_build_icl_example_needs_two_keyframes():
    button = (ObjectObservation("red button", pose(50, 0, 0)),)
    ep = episode_with_actions(button, "push the red button", [pose(0, 0, 0), pose(1, 1, 1)])
    with pytest.raises(ValueError):
        build_icl_example(ep, KeyframeIndices((1,), 2), BOUNDS)
    with pytest.raises(ValueError):
        build_icl_example(ep, KeyframeIndices((0, 4), 5), BOUNDS)  # length mismatch


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


def test_read_prompt_inverts_assemble_prompt():
    stack = "stack the blue cube on the yellow cube"
    demos, test_bins, test_instruction = read_prompt(golden("open_loop_3demo.txt"))
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
    (demo,), test_bins, _ = read_prompt(golden("closed_loop_1demo.txt"))
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
    demos, test_bins, test_instruction = read_prompt(assemble_prompt([], test_input, "s").body)
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
    ],
)
def test_read_prompt_rejects_bodies_assemble_prompt_cannot_make(body):
    with pytest.raises(ValueError):
        read_prompt(body)


def test_icl_example_rejects_empty_fields():
    with pytest.raises(ValueError):
        IclExample("", "{}")
    with pytest.raises(ValueError):
        IclExample("{}", "")


def test_format_observation_shape():
    observation = ObjectObservation("red button", pose(1, 2, 3, 4, 5, 6))
    assert build_example_input((observation,), "push", BOUNDS) == "{red button: [1, 2, 3, 4, 5, 6], push}"
    dp = DiscretePose(1, 2, 3, 4, 5, 6)
    da = DiscreteAction(dp, 1)
    assert format_action(da) == "[1, 2, 3, 4, 5, 6, 1]"

"""Property test: parse_response returns exactly the generated actions
whatever decoration a chat model wraps them in (code fences, `Step k:`
numbering, bullets, surrounding prose, echoed observations).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from iclmanip.discretize import ROTATION_BINS, TRANSLATION_BINS, DiscreteAction, DiscretePose
from iclmanip.prompts import parse_response

_translation = st.integers(0, TRANSLATION_BINS - 1)
_rotation = st.integers(0, ROTATION_BINS - 1)
_pose_bins = st.tuples(_translation, _translation, _translation, _rotation, _rotation, _rotation)
_action_bins = st.tuples(_pose_bins, st.integers(0, 1))
# Prose never holds brackets or backticks; colons and digits are fair game.
_prose = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz ABCXYZ0123456789.,;:!?-'", max_size=60
)


def _bracket(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


@st.composite
def decorated_replies(draw):
    actions = draw(st.lists(_action_bins, min_size=1, max_size=8))
    style = draw(st.sampled_from(["inline", "steps", "bullets"]))
    lines = []
    for k, (pose, gripper) in enumerate(actions, start=1):
        if draw(st.booleans()):
            name = draw(st.sampled_from(["red button", "blue cube", "block", "target"]))
            lines.append(f"{name}: {_bracket(draw(_pose_bins))}")
        prefix = {
            "inline": "",
            "steps": f"Step {k}: ",
            "bullets": draw(st.sampled_from(["- ", "* ", "• ", f"{k}. "])),
        }[style]
        lines.append(prefix + _bracket((*pose, gripper)))
    if style == "inline":
        body = draw(st.sampled_from([", ", " ", "\n"])).join(lines)
        if draw(st.booleans()):
            body = "{" + body + "}"
    else:
        body = "\n".join(lines)
    if draw(st.booleans()):
        fence = "```" + draw(st.sampled_from(["", "json", "text"]))
        body = f"{fence}\n{body}\n```"
    text = f"{draw(_prose)}\n{body}\n{draw(_prose)}"
    expected = [DiscreteAction(DiscretePose(*pose), gripper) for pose, gripper in actions]
    return text, expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(decorated_replies())
def test_parse_response_recovers_decorated_actions(reply):
    text, expected = reply
    assert parse_response(text) == expected

"""Property tests of the reply parser.

parse_response returns exactly the generated actions whatever decoration
a chat model wraps them in (code fences, `Step k:` numbering, bullets,
surrounding prose, echoed observations). parse_bins, and parse_response
over it, agree with the per-bracket parser they replaced, kept below as
the oracle, on every outcome: the rows, or the error's kind, position
and message.

Example counts come from the active hypothesis profile (tests/conftest.py).
"""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from iclmanip.discretize import ROTATION_BINS, TRANSLATION_BINS, DiscreteAction, DiscretePose
from iclmanip.prompts import ParseError, parse_bins, parse_response

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


@settings(deadline=None, derandomize=True)
@given(decorated_replies())
def test_parse_response_recovers_decorated_actions(reply):
    text, expected = reply
    assert parse_response(text) == expected


# --- oracle: the per-bracket parser as it stood before parse_bins --------

_BRACKET = re.compile(r"\[([^\[\]]*)\]")
_INT_TOKEN = re.compile(r"[+-]?\d+")
_FENCE = re.compile(r"```[a-zA-Z0-9_-]*")
_STRICT_ACTION = r"\[\d+(?:, \d+){6}\]"
_STRICT_BODY = re.compile(r"\{" + _STRICT_ACTION + r"(?:, " + _STRICT_ACTION + r")*\}")

_COMPONENT_LIMITS = (
    ("tx", TRANSLATION_BINS),
    ("ty", TRANSLATION_BINS),
    ("tz", TRANSLATION_BINS),
    ("rr", ROTATION_BINS),
    ("rp", ROTATION_BINS),
    ("ry", ROTATION_BINS),
)


def _int_list(content: str) -> list[int] | None:
    """Parse a comma-separated integer list, or None if it is not one."""
    tokens = [t.strip() for t in content.split(",")]
    if not tokens or any(not t for t in tokens):
        return None
    values = []
    for t in tokens:
        if not _INT_TOKEN.fullmatch(t):
            return None
        digits = t.lstrip("+-")
        if len(digits) > 6:
            # Cannot be a valid bin; flag as range rather than converting
            # arbitrarily long digit strings.
            raise ParseError("range", 0, f"integer {t[:12]}... far outside any bin range")
        values.append(int(t))
    return values


def _action_from_ints(values: list[int], position: int) -> DiscreteAction:
    for (name, limit), v in zip(_COMPONENT_LIMITS, values):
        if not 0 <= v < limit:
            raise ParseError(
                "range", position, f"{name} bin {v} out of range [0, {limit}) at offset {position}"
            )
    g = values[6]
    if g not in (0, 1):
        raise ParseError("range", position, f"gripper bit {g} must be 0 or 1 at offset {position}")
    return DiscreteAction(DiscretePose(*values[:6]), g)


def _is_observation_echo(text: str, bracket_start: int) -> bool:
    # Observation blocks look like "name: [...]"; their brackets are not actions.
    j = bracket_start - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j >= 0 and text[j] == ":"


def oracle_parse_response(text: str | bytes, strict: bool = False) -> list[DiscreteAction]:
    """Extract the predicted action sequence from a model reply.

    Lenient mode tolerates surrounding prose, markdown fences, optional
    braces, and observation echoes; it fails only on integer brackets with
    the wrong arity, bins out of range, or no actions at all. Strict mode
    additionally requires the exact output grammar.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    if not isinstance(text, str):
        raise ParseError("no_actions", 0, f"expected text, got {type(text).__name__}")
    if strict:
        if not _STRICT_BODY.fullmatch(text):
            raise ParseError("grammar", 0, "text does not match the strict output grammar")
    cleaned = _FENCE.sub("", text)
    actions: list[DiscreteAction] = []
    for match in _BRACKET.finditer(cleaned):
        # Colon-preceded brackets holding an action's 7 integers ("Step 1: [...]")
        # are actions, not echoes.
        echo = not strict and _is_observation_echo(cleaned, match.start())
        try:
            values = _int_list(match.group(1))
        except ParseError as exc:
            if echo:
                continue
            raise ParseError(exc.kind, match.start(), str(exc)) from None
        if values is None or (echo and len(values) != 7):
            continue
        if len(values) != 7:
            raise ParseError(
                "arity",
                match.start(),
                f"action bracket has {len(values)} integers, expected 7, at offset {match.start()}",
            )
        actions.append(_action_from_ints(values, match.start()))
    if not actions:
        raise ParseError("no_actions", 0, "no action brackets found")
    return actions


# --- differential property -------------------------------------------------

_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_digit_strings = st.one_of(
    st.integers(0, 150).map(str),  # in range, and just past each limit
    st.integers(0, 10**9).map(str),  # up to ten digits
    st.sampled_from(["0", "1", "2", "007", "000099", "0000001", "71", "72", "99", "100"]),
    st.integers(0, 99).map(lambda n: str(n).translate(_FULLWIDTH)),
    st.sampled_from(["٣", "१२", "߁"]),  # Arabic-Indic, Devanagari and N'Ko digits
)
_token = st.one_of(
    st.tuples(
        st.sampled_from(["", "", " ", "\t", "  "]),
        st.sampled_from(["", "", "", "+", "-"]),
        _digit_strings,
        st.sampled_from(["", "", " ", "\t"]),
    ).map("".join),
    st.sampled_from(["", " ", "x", "1.5", "1e3", "+", "-1-"]),  # empty and non-integer tokens
)
_separator = st.sampled_from([", ", ", ", ",", " , ", ",\t", "\t,"])


@st.composite
def _canonical_bracket(draw):
    """An action as a prompt example holds it; now and then one value is out of range."""
    values = draw(st.lists(st.integers(0, ROTATION_BINS - 1), min_size=6, max_size=6))
    values.append(draw(st.integers(0, 1)))
    texts = [str(v) for v in values]
    if draw(st.integers(0, 3)) == 0:
        texts[draw(st.integers(0, 6))] = str(draw(st.integers(0, 150)))
    if draw(st.integers(0, 3)) == 0:  # zero-padded to the six-digit limit, or past it
        k = draw(st.integers(0, 6))
        texts[k] = texts[k].zfill(draw(st.sampled_from([6, 7])))
    return "[" + ", ".join(texts) + "]"


@st.composite
def _edge_bracket(draw):
    kind = draw(st.sampled_from(["canonical", "canonical", "tokens", "observation"]))
    if kind == "canonical":
        return draw(_canonical_bracket())
    if kind == "observation":
        values = draw(st.lists(st.integers(0, 99), min_size=6, max_size=6))
        return "[" + ", ".join(map(str, values)) + "]"
    tokens = draw(st.lists(_token, min_size=0, max_size=9))
    return "[" + draw(_separator).join(tokens) + "]"


_prefix = st.sampled_from(
    ["", "", "", "Step 3: ", "red button: ", "block:", ": \t", "\t:", "- ", "1. ", "obs : "]
)
_stray = st.sampled_from(
    ["[", "]", "[[", "]]", "[]", "[ ]", "{", "}", "```", "```json", "```py3", "done.", "\n", "1, 2"]
)


@st.composite
def _nested(draw):
    inner = draw(_edge_bracket())
    return draw(st.sampled_from(["[{}]", "[{}, 3]", "[1, {}]", "[[{}]]"])).format(inner)


@st.composite
def edge_replies(draw):
    if draw(st.integers(0, 3)) == 0:
        # Bodies in the exact output grammar, as the prompt's examples write them.
        brackets = draw(st.lists(_canonical_bracket(), min_size=1, max_size=6))
        return "{" + ", ".join(brackets) + "}"
    pieces = draw(
        st.lists(
            st.one_of(
                st.tuples(_prefix, _edge_bracket()).map("".join),
                st.tuples(_prefix, _edge_bracket()).map("".join),
                _stray,
                _nested(),
            ),
            min_size=0,
            max_size=8,
        )
    )
    body = draw(st.sampled_from([", ", ",", " ", "\n", ""])).join(pieces)
    if draw(st.booleans()):
        body = "{" + body + "}"
    if draw(st.booleans()):
        body = draw(st.sampled_from(["```\n{}\n```", "```json\n{}\n```", "```{}"])).format(body)
    return body


def _outcome(parse, text):
    try:
        return [tuple(row) for row in parse(text)]
    except ParseError as exc:
        return (exc.kind, exc.position, str(exc))


def _oracle_rows(text):
    return [a.as_tuple() for a in oracle_parse_response(text)]


def _new_rows(text):
    rows = parse_bins(text)
    assert all(type(row) is tuple and len(row) == 7 and all(type(v) is int for v in row) for row in rows)
    return rows


@settings(deadline=None, derandomize=True)
@given(edge_replies())
def test_parse_bins_matches_per_bracket_oracle(text):
    expected = _outcome(_oracle_rows, text)
    assert _outcome(_new_rows, text) == expected
    api = _outcome(lambda t: [a.as_tuple() for a in parse_response(t)], text)
    assert api == expected

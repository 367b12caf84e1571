"""Prompt wire format: build ICL examples from episodes and parse replies.

The grammar is deliberately rigid so that prompts are reproducible byte
for byte:

    observation   name: [tx, ty, tz, rr, rp, ry]
    action        [tx, ty, tz, rr, rp, ry, g]
    example in    {obs, obs, ..., instruction}
    example out   {[action], [action], ...}
    prompt body   in > out, in > out, ..., test_in >

Inside the pipeline bins stay int rows: examples are formatted straight
from an episode's keyframe rows and from each observed pose's six bins,
and parse_bins reads a reply into an N x 7 int array of action rows. It is
total: any byte string either yields rows or raises ParseError with a kind
of no_actions, arity, range, or (strict mode only) grammar.
parse_response is its API-edge view, the same rows as DiscreteActions.
read_prompt inverts a prompt body back into its demos and test input; the
offline oracles answer from what it reads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .discretize import (
    ROTATION_BINS,
    TRANSLATION_BINS,
    DiscreteAction,
    DiscretePose,
    pose_bin_row,
    pose_bins,
)
from .keyframes import KeyframeIndices
from .model import Episode, ObjectObservation, WorkspaceBounds

SYSTEM_PROMPT_ORIGINAL = (
    "You are a Franka Panda robot with a parallel gripper. We provide you with some "
    "demos in the format of observation>[action_1, action_2, ...]. Then you will "
    "receive a new observation and you need to output a sequence of actions that "
    "match the trends in the demos. Do not output anything else."
)

SYSTEM_PROMPT_PARAPHRASE_1 = (
    "You are an end-effector Franka Panda robot equipped with a parallel gripper. "
    "We will give you a series of demonstrations in the format "
    "observation>[action_1, action_2, ...]. Afterward, you will receive a new "
    "observation, and your task is to generate a sequence of actions that align "
    "with the patterns shown in the demos. Make sure to only output the actions "
    "and nothing else."
)

SYSTEM_PROMPT_PARAPHRASE_2 = (
    "You are a Franka Panda robot equipped with a parallel gripper. We will provide "
    "you with demonstrations in the format: observation>[action_1, action_2, ...]. "
    "Afterward, you will receive a new observation and must generate a sequence of "
    "actions that align with the patterns shown in the demos. Ensure that nothing "
    "else is included in your output."
)


def default_system_prompts() -> tuple[str, str, str]:
    """Three interchangeable system prompts; index 0 is the canonical one."""
    return (SYSTEM_PROMPT_ORIGINAL, SYSTEM_PROMPT_PARAPHRASE_1, SYSTEM_PROMPT_PARAPHRASE_2)


@dataclass(frozen=True)
class IclExample:
    """One in-context example: formatted input and output strings."""

    input: str
    output: str

    def __post_init__(self):
        if not self.input or not self.output:
            raise ValueError("IclExample input and output must be non-empty")


@dataclass(frozen=True)
class PromptBundle:
    """A complete prompt: system text plus the assembled body."""

    system: str
    body: str

    def __post_init__(self):
        if not self.body.endswith("> "):
            raise ValueError("PromptBundle.body must end with '> '")


class ParseError(Exception):
    """Response text could not be converted to actions.

    kind is one of: no_actions, arity, range, grammar.
    position is a character offset into the input text.
    """

    def __init__(self, kind: str, position: int, message: str):
        super().__init__(message)
        self.kind = kind
        self.position = position


_OBSERVATION_TEXT = "%s: [%d, %d, %d, %d, %d, %d]"
_ACTION_TEXT = "[%d, %d, %d, %d, %d, %d, %d]"


def format_action(action: DiscreteAction) -> str:
    return _ACTION_TEXT % action.as_tuple()


def _action_texts(episode: Episode, frames: Sequence[int], bounds: WorkspaceBounds) -> list[str]:
    """The formatted actions at `frames`, binned straight from the arrays."""
    index = list(frames)
    rows = np.empty((len(index), 7), dtype=np.int64)
    rows[:, :6] = pose_bins(episode.poses[index], bounds)
    rows[:, 6] = episode.gripper_bits[index]
    return [_ACTION_TEXT % tuple(row) for row in rows.tolist()]


def _observation_block(observations: Sequence[ObjectObservation], bounds: WorkspaceBounds) -> str:
    # A scene holds two to five objects: scalar binning beats numpy here.
    return ", ".join(
        _OBSERVATION_TEXT % (o.name, *pose_bin_row(o.pose, bounds)) for o in observations
    )


def build_example_input(
    observations: Sequence[ObjectObservation], instruction: str, bounds: WorkspaceBounds
) -> str:
    """Format the input half of an example: observations then the instruction."""
    if not observations:
        raise ValueError("need at least one observation")
    if not instruction:
        raise ValueError("instruction must be non-empty")
    return "{" + _observation_block(observations, bounds) + ", " + instruction + "}"


def _check_keyframes(episode: Episode, keyframes: KeyframeIndices) -> None:
    if len(keyframes) < 2:
        raise ValueError(f"need at least 2 keyframes to build an example, got {len(keyframes)}")
    if keyframes.episode_length != episode.length:
        raise ValueError(
            f"keyframes were taken on length {keyframes.episode_length}, episode has {episode.length}"
        )


def build_icl_example(
    episode: Episode, keyframes: KeyframeIndices, bounds: WorkspaceBounds
) -> IclExample:
    """Open-loop example: initial observations in, keyframe actions out.

    The first keyframe's action is dropped; the starting action carries no
    information because every episode begins from the same home state.
    """
    _check_keyframes(episode, keyframes)
    return IclExample(
        input=build_example_input(episode.objects, episode.instruction, bounds),
        output="{" + ", ".join(_action_texts(episode, keyframes[1:], bounds)) + "}",
    )


def build_closed_loop_example(
    episode: Episode,
    keyframes: KeyframeIndices,
    bounds: WorkspaceBounds,
    observations: Sequence[Sequence[ObjectObservation]],
) -> IclExample:
    """Closed-loop example: one observation block per keyframe, paired with
    that keyframe's action.

    Input holds the first keyframe's observations plus the instruction;
    output interleaves the remaining blocks with the actions, starting with
    the first keyframe's action. `observations` holds the scene seen at
    each keyframe, in keyframe order, in the episode's roster order.
    """
    _check_keyframes(episode, keyframes)
    if len(observations) != len(keyframes):
        raise ValueError(f"got {len(observations)} observation blocks for {len(keyframes)} keyframes")
    roster = tuple(o.name for o in episode.objects)
    blocks: list[str] = []
    for t, scene in zip(keyframes, observations):
        names = tuple(o.name for o in scene)
        if names != roster:
            raise ValueError(f"observation names {names} at t={t} differ from episode roster {roster}")
        blocks.append(_observation_block(scene, bounds))
    actions = _action_texts(episode, keyframes, bounds)
    parts = [actions[0]]
    for block, act in zip(blocks[1:], actions[1:]):
        parts.append(block)
        parts.append(act)
    return IclExample(
        input="{" + blocks[0] + ", " + episode.instruction + "}",
        output="{" + ", ".join(parts) + "}",
    )


def assemble_prompt(
    examples: Sequence[IclExample], test_input: str, system: str
) -> PromptBundle:
    """Join examples as `in > out` pairs and append the test input with a
    trailing `> ` so the model completes the final output slot."""
    if not test_input:
        raise ValueError("test_input must be non-empty")
    pieces = [f"{e.input} > {e.output}" for e in examples]
    pieces.append(f"{test_input} > ")
    return PromptBundle(system=system, body=", ".join(pieces[:-1]) + (", " if examples else "") + pieces[-1])


_BRACKET = re.compile(r"\[([^\[\]]*)\]")
_INT_TOKEN = re.compile(r"[+-]?\d+")
_FENCE = re.compile(r"```[a-zA-Z0-9_-]*")
_STRICT_ACTION = r"\[\d+(?:, \d+){6}\]"
_STRICT_BODY = re.compile(r"\{" + _STRICT_ACTION + r"(?:, " + _STRICT_ACTION + r")*\}")
# Brackets as build_icl_example and build_closed_loop_example write them,
# in ASCII digits: an observation echo (six bins after "name: ", no
# groups) or an action (seven bins, one group each).
_BIN = r"[0-9]{1,6}"
_CANONICAL_BRACKET = re.compile(
    r": \[" + ", ".join([_BIN] * 6) + r"\]|\[" + ", ".join([f"({_BIN})"] * 7) + r"\]"
)

_COMPONENT_LIMITS = (
    ("tx", TRANSLATION_BINS),
    ("ty", TRANSLATION_BINS),
    ("tz", TRANSLATION_BINS),
    ("rr", ROTATION_BINS),
    ("rp", ROTATION_BINS),
    ("ry", ROTATION_BINS),
)
# Exclusive upper bound of each action column; the gripper bit is 0 or 1.
_ROW_LIMITS = np.array([limit for _, limit in _COMPONENT_LIMITS] + [2])


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


def _check_row(values: list[int], position: int) -> list[int]:
    for (name, limit), v in zip(_COMPONENT_LIMITS, values):
        if not 0 <= v < limit:
            raise ParseError(
                "range", position, f"{name} bin {v} out of range [0, {limit}) at offset {position}"
            )
    g = values[6]
    if g not in (0, 1):
        raise ParseError("range", position, f"gripper bit {g} must be 0 or 1 at offset {position}")
    return values


def _is_observation_echo(text: str, bracket_start: int) -> bool:
    # Observation blocks look like "name: [...]"; their brackets are not actions.
    j = bracket_start - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j >= 0 and text[j] == ":"


def _rows_by_bracket(cleaned: str, strict: bool) -> list[list[int]]:
    """The per-bracket rules: every bracket in order, first failure raised."""
    rows: list[list[int]] = []
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
        rows.append(_check_row(values, match.start()))
    return rows


def parse_bins(text: str | bytes, strict: bool = False) -> np.ndarray:
    """Extract the predicted actions from a model reply as a read-only
    N x 7 int64 array of bin rows (tx ty tz rr rp ry g).

    Lenient mode tolerates surrounding prose, markdown fences, optional
    braces, and observation echoes; it fails only on integer brackets with
    the wrong arity, bins out of range, or no actions at all. Strict mode
    additionally requires the exact output grammar.

    A reply whose every `[` opens a canonical bracket, an action or an
    observation echo as the prompt's examples hold them, is read in one
    regex pass and range-checked with one vector compare; any other reply,
    and any range failure, goes through the per-bracket rules, which give
    the error's kind, position and message.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    if not isinstance(text, str):
        raise ParseError("no_actions", 0, f"expected text, got {type(text).__name__}")
    if strict:
        if not _STRICT_BODY.fullmatch(text):
            raise ParseError("grammar", 0, "text does not match the strict output grammar")
    cleaned = _FENCE.sub("", text)
    found = _CANONICAL_BRACKET.findall(cleaned)
    rows = None
    if len(found) == cleaned.count("["):  # every `[` opens a canonical bracket
        rows = np.array([f for f in found if f[0]], dtype=np.int64).reshape(-1, 7)
        if not (rows < _ROW_LIMITS).all():
            rows = None
    if rows is None:
        rows = np.array(_rows_by_bracket(cleaned, strict), dtype=np.int64).reshape(-1, 7)
    if not len(rows):
        raise ParseError("no_actions", 0, "no action brackets found")
    rows.flags.writeable = False
    return rows


def parse_response(text: str | bytes, strict: bool = False) -> list[DiscreteAction]:
    """parse_bins at the API edge: the same rows as DiscreteActions, and
    the same ParseError for a reply that does not parse."""
    return [
        DiscreteAction(DiscretePose(*row[:6]), row[6]) for row in parse_bins(text, strict).tolist()
    ]


class PromptDemo(NamedTuple):
    """One demo read back out of a prompt body."""

    bins: tuple[int, ...]  # every observation's six pose bins, in order
    instruction: str
    output: str


_INPUT_OBSERVATION = re.compile(r"[^{}\[\]:,]+: \[(\d+(?:, \d+){5})\], ")
_DEMO_PAIR = re.compile(r"(\{[^{}]*\}) > (\{[^{}]*\}), ")


def _read_input(text: str) -> tuple[tuple[int, ...], str]:
    # Observations use [...] and never braces, so `{` and `}` only frame the input.
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"example input must be wrapped in braces: {text[:40]!r}")
    bins: list[int] = []
    cursor = 1
    while (match := _INPUT_OBSERVATION.match(text, cursor)) is not None:
        bins.extend(int(b) for b in match.group(1).split(", "))
        cursor = match.end()
    instruction = text[cursor:-1]
    if not bins or not instruction:
        raise ValueError(f"example input needs observations and an instruction: {text[:40]!r}")
    return tuple(bins), instruction


@functools.lru_cache(maxsize=1)
def _read_demos(prefix: str) -> tuple[PromptDemo, ...]:
    # Every episode of a run shares this prefix, so it is parsed once per run.
    demos = []
    cursor = 0
    while (match := _DEMO_PAIR.match(prefix, cursor)) is not None:
        demos.append(PromptDemo(*_read_input(match.group(1)), match.group(2)))
        cursor = match.end()
    if cursor != len(prefix):
        raise ValueError(f"prompt body is not a sequence of demos at offset {cursor}")
    return tuple(demos)


def read_prompt(body: str) -> tuple[tuple[PromptDemo, ...], tuple[int, ...], str]:
    """Inverse of assemble_prompt over build_example_input inputs: the demos,
    then the test input's concatenated pose bins and its instruction."""
    if not body.endswith("} > "):
        raise ValueError("prompt body must end with the test input and '> '")
    split = body.rfind("{")
    return (_read_demos(body[:split]), *_read_input(body[split:-3]))

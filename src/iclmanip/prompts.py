"""Prompt wire format: build ICL examples from episodes and parse replies.

The grammar is deliberately rigid so that prompts are reproducible byte
for byte:

    observation   name: [tx, ty, tz, rr, rp, ry]
    action        [tx, ty, tz, rr, rp, ry, g]
    example in    {obs, obs, ..., instruction}
    example out   {[action], [action], ...}
    prompt body   in > out, in > out, ..., test_in >

Inside the pipeline bins stay tuples of plain ints: examples are formatted
from pose_bin_row's six bins of each keyframe pose and observed pose, and
parse_bins reads a reply into a list of 7-int action rows. It is total:
any byte string either yields rows or raises ParseError with a kind of
no_actions, arity or range.
parse_response is its API-edge view, the same rows as DiscreteActions.
read_prompt inverts a prompt body back into its demos and test input; the
offline oracles answer from what it reads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .discretize import ROW_COLUMNS, DiscreteAction, DiscretePose, pose_bin_row
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

    kind is one of: no_actions, arity, range.
    position is a character offset into the input text.
    """

    def __init__(self, kind: str, position: int, message: str):
        super().__init__(message)
        self.kind = kind
        self.position = position


_OBSERVATION_TEXT = "%s: [%d, %d, %d, %d, %d, %d]"
ACTION_TEXT = "[%d, %d, %d, %d, %d, %d, %d]"


def format_action(action: DiscreteAction) -> str:
    return ACTION_TEXT % action.as_tuple()


def _action_texts(episode: Episode, frames: Sequence[int], bounds: WorkspaceBounds) -> list[str]:
    """The formatted actions at `frames`."""
    index = list(frames)
    poses, bits = episode.poses[index].tolist(), episode.gripper_bits[index].tolist()
    return [ACTION_TEXT % (*pose_bin_row(pose, bounds), bit) for pose, bit in zip(poses, bits)]


def build_example_input(
    observations: Sequence[ObjectObservation], instruction: str, bounds: WorkspaceBounds
) -> str:
    """Format the input half of an example: observations then the instruction."""
    if not observations:
        raise ValueError("need at least one observation")
    if not instruction:
        raise ValueError("instruction must be non-empty")
    texts = [_OBSERVATION_TEXT % (o.name, *pose_bin_row(o.pose.as_list(), bounds)) for o in observations]
    return "{" + ", ".join(texts) + ", " + instruction + "}"


def _check_keyframes(episode: Episode, keyframes: KeyframeIndices) -> None:
    if len(keyframes) < 2:
        raise ValueError(f"need at least 2 keyframes to build an example, got {len(keyframes)}")
    if keyframes.episode_length != episode.length:
        raise ValueError(
            f"keyframes were taken on length {keyframes.episode_length}, episode has {episode.length}"
        )


def build_icl_example(
    episode: Episode, keyframes: KeyframeIndices, bounds: WorkspaceBounds,
    observations: Sequence[ObjectObservation] | None = None,
) -> IclExample:
    """Open-loop example: initial observations (default: the episode's objects) in, keyframe actions out.

    The first keyframe's action is dropped; the starting action carries no
    information because every episode begins from the same home state.
    """
    _check_keyframes(episode, keyframes)
    start = episode.objects if observations is None else observations
    return IclExample(
        input=build_example_input(start, episode.instruction, bounds),
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
    # Per roster slot, the last pose formatted and its text: a still object keeps its pose.
    seen: list[tuple[object, str]] = [(None, "")] * len(roster)
    blocks: list[str] = []
    for t, scene in zip(keyframes, observations):
        names = tuple(o.name for o in scene)
        if names != roster:
            raise ValueError(f"observation names {names} at t={t} differ from episode roster {roster}")
        for i, o in enumerate(scene):
            if o.pose is not seen[i][0]:
                seen[i] = (o.pose, _OBSERVATION_TEXT % (o.name, *pose_bin_row(o.pose.as_list(), bounds)))
        blocks.append(", ".join([text for _, text in seen]))
    actions = _action_texts(episode, keyframes, bounds)
    parts = [actions[0]] + [text for pair in zip(blocks[1:], actions[1:]) for text in pair]
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
# Brackets as build_icl_example and build_closed_loop_example write them,
# in ASCII digits: an observation echo (six bins after "name: ", no
# groups) or an action (seven bins, one group each).
_BIN = r"[0-9]{1,6}"
_CANONICAL_BRACKET = re.compile(
    r": \[" + ", ".join([_BIN] * 6) + r"\]|\[" + ", ".join([f"({_BIN})"] * 7) + r"\]"
)
# Each action column's bin count, for the canonical rows' range check.
_ROW_BINS = tuple(bins for _, bins in ROW_COLUMNS)


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


def _check_row(values: list[int], position: int) -> tuple[int, ...]:
    for (name, bins), v in zip(ROW_COLUMNS, values[:6]):
        if not 0 <= v < bins:
            raise ParseError("range", position, f"{name} bin {v} out of range [0, {bins}) at offset {position}")
    if values[6] not in (0, 1):
        raise ParseError("range", position, f"gripper bit {values[6]} must be 0 or 1 at offset {position}")
    return tuple(values)


def _is_observation_echo(text: str, bracket_start: int) -> bool:
    # Observation blocks look like "name: [...]"; their brackets are not actions.
    j = bracket_start - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j >= 0 and text[j] == ":"


def _rows_by_bracket(cleaned: str) -> list[tuple[int, ...]]:
    """The per-bracket rules: every bracket in order, first failure raised."""
    rows: list[tuple[int, ...]] = []
    for match in _BRACKET.finditer(cleaned):
        at = match.start()
        # Colon-preceded brackets holding an action's 7 integers ("Step 1: [...]")
        # are actions, not echoes.
        echo = _is_observation_echo(cleaned, at)
        try:
            values = _int_list(match.group(1))
        except ParseError as exc:
            if echo:
                continue
            raise ParseError(exc.kind, at, str(exc)) from None
        if values is None or (echo and len(values) != 7):
            continue
        if len(values) != 7:
            raise ParseError("arity", at, f"action bracket has {len(values)} integers, expected 7, at offset {at}")
        rows.append(_check_row(values, at))
    return rows


def parse_bins(text: str | bytes) -> list[tuple[int, ...]]:
    """Extract the predicted actions from a model reply as a list of bin
    rows, each a tuple of seven ints (tx ty tz rr rp ry g).

    It tolerates surrounding prose, markdown fences, optional braces, and
    observation echoes; it fails only on integer brackets with the wrong
    arity, bins out of range, or no actions at all.

    A reply whose every `[` opens a canonical bracket, an action or an
    observation echo as the prompt's examples hold them, is read in one
    regex pass and range-checked column by column; any other reply,
    and any range failure, goes through the per-bracket rules, which give
    the error's kind, position and message.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    if not isinstance(text, str):
        raise ParseError("no_actions", 0, f"expected text, got {type(text).__name__}")
    cleaned = _FENCE.sub("", text)
    found = _CANONICAL_BRACKET.findall(cleaned)
    rows = None
    if len(found) == cleaned.count("["):  # every `[` opens a canonical bracket
        rows = [tuple(map(int, f)) for f in found if f[0]]
        if any(max(column) >= bins for column, bins in zip(zip(*rows), _ROW_BINS)):
            rows = None  # the regex admits no sign, so only the upper bound can fail
    if rows is None:
        rows = _rows_by_bracket(cleaned)
    if not rows:
        raise ParseError("no_actions", 0, "no action brackets found")
    return rows


def parse_response(text: str | bytes) -> list[DiscreteAction]:
    """parse_bins at the API edge: the same rows as DiscreteActions, and
    the same ParseError for a reply that does not parse."""
    return [DiscreteAction(DiscretePose(*row[:6]), row[6]) for row in parse_bins(text)]


class PromptDemo(NamedTuple):
    """One demo read back out of a prompt body."""

    bins: tuple[int, ...]  # every observation's six pose bins, in order
    instruction: str
    output: str


_INPUT_OBSERVATION = re.compile(r"[^{}\[\]:,]+: \[(\d+(?:, \d+){5})\], ")
_DEMO_PAIR = re.compile(r"(\{[^{}]*\}) > (\{[^{}]*\}), ")


@functools.lru_cache(maxsize=1024)  # per text: a base's five default sweeps send about 175 distinct inputs
def _read_input(text: str) -> tuple[tuple[int, ...], str]:
    # Observations use [...] and never braces, so `{` and `}` only frame the input.
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"example input must be wrapped in braces: {text[:40]!r}")
    bins: list[int] = []
    cursor = 1
    while (match := _INPUT_OBSERVATION.match(text, cursor)) is not None:
        bins.extend(map(int, match.group(1).split(", ")))
        cursor = match.end()
    instruction = text[cursor:-1]
    if not bins or not instruction:
        raise ValueError(f"example input needs observations and an instruction: {text[:40]!r}")
    return tuple(bins), instruction


@functools.lru_cache(maxsize=1)
def _read_demos(prefix: str) -> tuple[PromptDemo, ...]:
    # Split once per run (its episodes share this prefix); _read_input reads each demo input once per text.
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

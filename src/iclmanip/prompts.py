"""Prompt wire format: build ICL examples from episodes and parse replies.

The grammar is deliberately rigid so that prompts are reproducible byte
for byte:

    observation   name: [tx, ty, tz, rr, rp, ry]
    action        [tx, ty, tz, rr, rp, ry, g]
    example in    {obs, obs, ..., instruction}
    example out   {[action], [action], ...}
    prompt body   in > out, in > out, ..., test_in >

The batch builders bin every observed pose (noised by k times its draws if
asked) and every keyframe pose in one pass and format only int rows;
build_icl_example and build_example_input are their one-item noiseless case.
parse_bins reads a reply into 7-int rows. It is total: any byte string
either yields rows or raises ParseError with a kind of no_actions, arity or
range.
parse_response is its API-edge view, the same rows as DiscreteActions.
assemble_prompts joins the demo prefix once for a run's test inputs, and
read_prompts inverts the bodies, reading a prefix once while it repeats;
the offline oracles answer from what it reads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .discretize import ROW_COLUMNS, DiscreteAction, DiscretePose, pose_bin_rows
from .keyframes import KeyframeIndices
from .model import Episode, ObjectObservation, WorkspaceBounds
from .sim import scale_pose_rows

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


_POSE_TEXT = "[%d, %d, %d, %d, %d, %d]"  # an observation is its name, ": " and this
ACTION_TEXT = "[%d, %d, %d, %d, %d, %d, %d]"


def format_action(action: DiscreteAction) -> str:
    return ACTION_TEXT % action.as_tuple()


Scene = Sequence[ObjectObservation]  # one block in roster order: anything with a name and a pose


def _scene_poses(scenes: Sequence[Scene]) -> np.ndarray:
    """Every pose of the scenes, in order, as one observations x 6 array of rows."""
    return np.array([o.pose.as_list() for scene in scenes for o in scene], dtype=np.float64).reshape(-1, 6)


def _examples(
    items: Sequence[tuple[Sequence[str], int, Sequence[np.ndarray | None], str, Episode | None, Sequence[int]]],
    poses: np.ndarray, bounds: WorkspaceBounds, k: float | None,
) -> list[tuple[str, str]]:
    """Per item (names, blocks, draws per block, instruction, episode, frames), whose blocks' rows of the named
    objects come next in `poses`: the input, the first block then the instruction, and the output, the actions at
    the frames, each but the first after its frame's block if any. Every observed pose, moved by k times its draws
    when k is set, and every action pose are binned at once."""
    if k and len(poses):
        poses = scale_pose_rows(poses, k, np.concatenate([d for _, _, draws, *_ in items for d in draws]))
    acted = [(episode, frames) for *_, episode, frames in items if frames]
    bins = pose_bin_rows(np.concatenate([poses, *(ep.poses.take(f, axis=0) for ep, f in acted)]), bounds)
    names = [name for block_names, blocks, *_ in items for _ in range(blocks) for name in block_names]
    texts = iter([f"{name}: {text}" for name, text in zip(names, _row_texts(_POSE_TEXT, bins[: len(poses)]))])
    bits = np.concatenate([np.zeros(0, np.int64), *(ep.gripper_bits.take(f) for ep, f in acted)])
    actions = iter(_row_texts(ACTION_TEXT, np.column_stack((bins[len(poses):], bits))))
    out = []
    for block_names, blocks, _, instruction, _, frames in items:
        seen = [", ".join(islice(texts, len(block_names))) for _ in range(blocks)]
        done = list(islice(actions, len(frames)))
        if not seen[0]:
            raise ValueError("need at least one observation")
        if not instruction:
            raise ValueError("instruction must be non-empty")
        parts = done[:1] + [f"{b}, {a}" for b, a in zip(seen[1:], done[1:])] + done[len(seen):]
        out.append(("{" + seen[0] + ", " + instruction + "}", "{" + ", ".join(parts) + "}"))
    return out


def _row_texts(template: str, rows: np.ndarray) -> list[str]:
    """template % row for each row of an int array, in one % call: the texts hold no NUL, so it splits them."""
    return ("\0".join([template] * len(rows)) % tuple(rows.ravel().tolist())).split("\0")


def build_example_inputs(
    items: Sequence[tuple[Scene, str, np.ndarray | None]], bounds: WorkspaceBounds, k: float | None = None
) -> list[str]:
    """The input half of an example per (observations, instruction, draws): the
    observations, moved by k times their draws when k is set, then the instruction."""
    blocks = [([o.name for o in s], 1, [d], i, None, ()) for s, i, d in items]
    return [text for text, _ in _examples(blocks, _scene_poses([s for s, _, _ in items]), bounds, k)]


def build_example_input(observations: Scene, instruction: str, bounds: WorkspaceBounds) -> str:
    """build_example_inputs for one input, without noise."""
    return build_example_inputs([(observations, instruction, None)], bounds)[0]


def _check_keyframes(episode: Episode, keyframes: KeyframeIndices) -> None:
    if len(keyframes) < 2:
        raise ValueError(f"need at least 2 keyframes to build an example, got {len(keyframes)}")
    if keyframes[-1] != episode.length - 1:
        raise ValueError(f"keyframes end at step {keyframes[-1]}; the episode's last step is {episode.length - 1}")


def build_icl_examples(
    items: Sequence[tuple[Episode, KeyframeIndices, np.ndarray | None]], bounds: WorkspaceBounds, k: float | None = None
) -> list[IclExample]:
    """Open-loop examples, per (episode, keyframes, draws): the episode's objects,
    moved by k times their draws when k is set, in; keyframe actions out.

    The first keyframe's action is dropped; the starting action carries no
    information because every episode begins from the same home state.
    """
    for episode, keyframes, _ in items:
        _check_keyframes(episode, keyframes)
    blocks = [([o.name for o in ep.objects], 1, [d], ep.instruction, ep, kf[1:]) for ep, kf, d in items]
    poses = _scene_poses([ep.objects for ep, _, _ in items])
    return [IclExample(*texts) for texts in _examples(blocks, poses, bounds, k)]


def build_icl_example(episode: Episode, keyframes: KeyframeIndices, bounds: WorkspaceBounds) -> IclExample:
    """build_icl_examples for one episode, without noise."""
    return build_icl_examples([(episode, keyframes, None)], bounds)[0]


def build_closed_loop_examples(
    items: Sequence[tuple[Episode, KeyframeIndices, np.ndarray, Sequence[np.ndarray] | None]],
    bounds: WorkspaceBounds, k: float | None = None,
) -> list[IclExample]:
    """Closed-loop examples, per (episode, keyframes, rows, draws): one
    observation block per keyframe, moved by k times its draws when k is
    set, paired with that keyframe's action.

    Input holds the first keyframe's observations plus the instruction;
    output interleaves the remaining blocks with the actions, starting with
    the first keyframe's action. `rows` is the scene seen at each keyframe, a
    keyframes x objects x 6 array as sim.replay_pose_rows gives, of the episode's objects.
    """
    for ep, keyframes, rows, _ in items:
        _check_keyframes(ep, keyframes)
        if len(rows) != len(keyframes):
            raise ValueError(f"got {len(rows)} observation blocks for {len(keyframes)} keyframes")
        if rows.shape[1] != len(ep.objects):
            raise ValueError(f"observation rows hold {rows.shape[1]} objects; the episode has {len(ep.objects)}")
    blocks = [([o.name for o in ep.objects], len(rows), draws, ep.instruction, ep, kf) for ep, kf, rows, draws in items]
    poses = np.concatenate([np.zeros((0, 6)), *(rows.reshape(-1, 6) for *_, rows, _ in items)])
    return [IclExample(*texts) for texts in _examples(blocks, poses, bounds, k)]


def assemble_prompts(examples: Sequence[IclExample], test_inputs: Iterable[str], system: str) -> Iterator[PromptBundle]:
    """Join examples as `in > out, ` pairs once, then yield that prefix plus each
    test input and a trailing `> `, so the model completes the final output slot."""
    prefix = "".join([f"{e.input} > {e.output}, " for e in examples])
    for test_input in test_inputs:
        if not test_input:
            raise ValueError("test_input must be non-empty")
        yield PromptBundle(system=system, body=prefix + test_input + " > ")


def assemble_prompt(examples: Sequence[IclExample], test_input: str, system: str) -> PromptBundle:
    """assemble_prompts for one test input."""
    return next(assemble_prompts(examples, [test_input], system))


_BRACKET = re.compile(r"\[([^\[\]]*)\]")
_INT_TOKEN = re.compile(r"[+-]?\d+")
_FENCE = re.compile(r"```[a-zA-Z0-9_-]*")
MAX_BIN_DIGITS = 6  # the most digits of a bin read from a reply or a prompt, so int64 squared distances are exact
# Brackets as build_icl_examples and build_closed_loop_examples write them,
# in ASCII digits: an observation echo (six bins after "name: ", no
# groups) or an action (seven bins, one group each).
_BIN = r"[0-9]{1,%d}" % MAX_BIN_DIGITS
_CANONICAL_BRACKET = re.compile(
    r": \[" + ", ".join([_BIN] * 6) + r"\]|\[" + ", ".join([f"({_BIN})"] * 7) + r"\]"
)
# Each action column's bin count, for the canonical rows' range check.
_ROW_BINS = tuple(bins for _, bins in ROW_COLUMNS)


def _int_list(content: str) -> list[int] | None:
    """Parse a comma-separated integer list, or None if it is not one."""
    tokens = [t.strip() for t in content.split(",")]
    if any(not t for t in tokens):
        return None
    values = []
    for t in tokens:
        if not _INT_TOKEN.fullmatch(t):
            return None
        digits = t.lstrip("+-")
        if len(digits) > MAX_BIN_DIGITS:
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


# An input observation; and one with a bin of more than MAX_BIN_DIGITS digits.
_INPUT_OBSERVATION = re.compile(r"[^{}\[\]:,]+: \[(%s(?:, %s){5})\], " % (_BIN, _BIN))
_LONG_OBSERVATION = re.compile(r"[^{}\[\]:,]+: \[[0-9]+(?:, [0-9]+){5}\], ")
_DEMO_PAIR = re.compile(r"(\{[^}]*\}) > (\{[^}]*\}), ")  # `[^}]` scans fast; a pair must hold just two `{`


@functools.lru_cache(maxsize=1024)  # per text: a base's five default sweeps send about 175 distinct inputs
def _read_input(text: str) -> tuple[tuple[int, ...], str]:
    # read_prompts passes a braced input. Observations use [...] and never braces, so `{` and `}` only frame it.
    bins: list[int] = []
    cursor = 1
    while (match := _INPUT_OBSERVATION.match(text, cursor)) is not None:
        bins.extend(map(int, match.group(1).split(", ")))
        cursor = match.end()
    if _LONG_OBSERVATION.match(text, cursor):
        raise ValueError(f"example input has a bin of more than {MAX_BIN_DIGITS} digits at offset {cursor}")
    instruction = text[cursor:-1]
    if not bins or not instruction:
        raise ValueError(f"example input needs observations and an instruction: {text[:40]!r}")
    if "[" in instruction:
        raise ValueError(f"example input has an observation it cannot read at offset {cursor}")
    return tuple(bins), instruction


def read_prompts(bodies: Iterable[str]) -> Iterator[tuple[tuple[PromptDemo, ...], tuple[int, ...], str]]:
    """Inverse of assemble_prompts over build_example_input inputs: per body, the demos, then the test
    input's pose bins and instruction. A body's demo prefix is read only when it is not the last one read."""
    prefix, demos = "", ()  # what an empty prefix reads as
    for body in bodies:
        if not body.endswith("} > "):
            raise ValueError("prompt body must end with the test input and '> '")
        split = body.rfind("{")
        if split != len(prefix) or not body.startswith(prefix):
            prefix, read, cursor = body[:split], [], 0
            while (match := _DEMO_PAIR.match(prefix, cursor)) and match.group().count("{") == 2:
                read.append(PromptDemo(*_read_input(match.group(1)), match.group(2)))
                cursor = match.end()
            if cursor != len(prefix):
                raise ValueError(f"prompt body is not a sequence of demos at offset {cursor}")
            demos = tuple(read)
        yield (demos, *_read_input(body[split:-3]))

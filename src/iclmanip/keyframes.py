"""Keyframe selection: compress a dense episode to its decision points.

A timestep qualifies when the arm is nearly still (joint-velocity norm
below delta) or the gripper is about to change state. Runs of adjacent
qualifying timesteps collapse to their last index, and the final timestep
is always included, so a few hundred frames reduce to a handful.

Both criteria are masks over a pool's arrays end to end: the row norms of
the T x 7 joint velocities (model.velocity_norms, a plain sum of squares per
row) and the changes in the T gripper bits, except across an episode boundary.
extract_keyframes_batch keyframes a pool in one pass; extract_keyframes is its
one-item view. KeyframeIndices is a tuple of ints, checked at construction:
non-empty, non-negative, strictly increasing.
"""

from __future__ import annotations

import numpy as np

from .model import Episode, velocity_norms


class KeyframeIndices(tuple):
    """Strictly increasing, non-negative timestep indices, as a tuple of ints; the last is T-1."""

    def __new__(cls, indices):
        self = super().__new__(cls, (int(i) for i in indices))
        if not self:
            raise ValueError("KeyframeIndices must be non-empty")
        for a, b in zip(self, self[1:]):
            if not a < b:
                raise ValueError(f"KeyframeIndices must be strictly increasing, got {self}")
        if self[0] < 0:
            raise ValueError(f"KeyframeIndices must be non-negative, got {self}")
        return self


def _qualifying_mask(episodes: list[Episode], delta: float) -> tuple[np.ndarray, np.ndarray]:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    ends = np.cumsum([episode.length for episode in episodes])
    mask = velocity_norms(np.concatenate([episode.joint_velocities for episode in episodes])) < delta
    bits = np.concatenate([episode.gripper_bits for episode in episodes])
    changes = bits[:-1] != bits[1:]
    changes[ends[:-1] - 1] = False  # a change across an episode boundary does not count
    mask[:-1] |= changes
    return mask, ends


def qualifying_indices(episode: Episode, delta: float) -> list[int]:
    """Return every timestep satisfying the raw criterion, pre-collapse.

    Index t qualifies iff the joint-velocity norm at t is below `delta`,
    or t < T-1 and the gripper state changes between t and t+1.
    """
    return np.flatnonzero(_qualifying_mask([episode], delta)[0]).tolist()


def extract_keyframes_batch(episodes: list[Episode], delta: float) -> list[KeyframeIndices]:
    """extract_keyframes on each of one or more episodes, from one mask over them all."""
    mask, ends = _qualifying_mask(episodes, delta)
    run_ends = mask.copy()
    run_ends[:-1] &= ~mask[1:]
    run_ends[ends - 1] = True
    return [KeyframeIndices(np.flatnonzero(part).tolist()) for part in np.split(run_ends, ends[:-1])]


def extract_keyframes(episode: Episode, delta: float) -> KeyframeIndices:
    """Collapse qualifying runs to their last index and ensure T-1 is kept."""
    return extract_keyframes_batch([episode], delta)[0]


def sample_uniform(episode_length: int, interval: int) -> KeyframeIndices:
    """Every `interval`-th index from 0, with T-1 appended when absent."""
    if episode_length < 2:
        raise ValueError(f"episode_length must be >= 2, got {episode_length}")
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    picks = list(range(0, episode_length, interval))
    if picks[-1] != episode_length - 1:
        picks.append(episode_length - 1)
    return KeyframeIndices(picks)

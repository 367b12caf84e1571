"""Keyframe selection: compress a dense episode to its decision points.

A timestep qualifies when the arm is nearly still (joint-velocity norm
below delta) or the gripper is about to change state. Runs of adjacent
qualifying timesteps collapse to their last index, and the final timestep
is always included, so a few hundred frames reduce to a handful.

Both criteria are masks over the episode's arrays: the row norms of its
T x 7 joint velocities (model.velocity_norms, a plain sum of squares per
row) and the changes in its T gripper bits. KeyframeIndices is a tuple of
ints, checked at construction: non-empty, non-negative, strictly increasing.
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


def _qualifying_mask(episode: Episode, delta: float) -> np.ndarray:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    mask = velocity_norms(episode.joint_velocities) < delta
    bits = episode.gripper_bits
    mask[:-1] |= bits[:-1] != bits[1:]
    return mask


def qualifying_indices(episode: Episode, delta: float) -> list[int]:
    """Return every timestep satisfying the raw criterion, pre-collapse.

    Index t qualifies iff the joint-velocity norm at t is below `delta`,
    or t < T-1 and the gripper state changes between t and t+1.
    """
    return np.flatnonzero(_qualifying_mask(episode, delta)).tolist()


def extract_keyframes(episode: Episode, delta: float) -> KeyframeIndices:
    """Collapse qualifying runs to their last index and ensure T-1 is kept."""
    mask = _qualifying_mask(episode, delta)
    run_ends = mask.copy()
    run_ends[:-1] &= ~mask[1:]
    run_ends[-1] = True
    return KeyframeIndices(np.flatnonzero(run_ends).tolist())


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

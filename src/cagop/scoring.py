"""Segment-level pronunciation scores from posteriorgrams.

Scores are natural-log based so entropies and log-posteriors live on one
scale. Posteriors are floored at ``PROB_FLOOR`` before any log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PROB_FLOOR,
    DataError,
    PhoneSegment,
    Posteriorgram,
    slice_segment,
)

ENTROPY_FLOOR = 1e-8


@dataclass(frozen=True)
class FrameScores:
    """Per-frame diagnostics behind a transition-aware score."""

    log_posteriors: np.ndarray
    entropies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.log_posteriors)
        if n < 1 or len(self.entropies) != n or len(self.weights) != n:
            raise DataError("frame score arrays must share a nonzero length")


def _floored_log(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, PROB_FLOOR))


def frame_entropy(row: np.ndarray) -> float:
    """Shannon entropy (nats) of one posterior row, with 0*log(0) = 0."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.size < 1:
        raise DataError("entropy expects a 1-D probability vector")
    if np.any(row < 0) or not np.isfinite(row).all():
        raise DataError("entropy expects non-negative finite probabilities")
    if abs(row.sum() - 1.0) > 1e-6:
        raise DataError(f"probability vector sums to {row.sum()!r}, expected 1")
    positive = row[row > 0]
    return float(-np.sum(positive * np.log(positive)))


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    safe = np.where(rows > 0, rows, 1.0)
    return -np.sum(np.where(rows > 0, rows * np.log(safe), 0.0), axis=1)


def gop(pg: Posteriorgram, seg: PhoneSegment) -> float:
    """Duration-normalized log posterior of the segment's phone."""
    rows = slice_segment(pg, seg)
    return float(np.mean(_floored_log(rows[:, seg.phone])))


def center_gop(pg: Posteriorgram, seg: PhoneSegment) -> float:
    """Log posterior of the segment's phone at its center frame."""
    rows = slice_segment(pg, seg)
    center = seg.length // 2
    return float(_floored_log(rows[center : center + 1, seg.phone])[0])


def tascore(pg: Posteriorgram, seg: PhoneSegment) -> tuple[float, FrameScores]:
    """Transition-aware score: frame log posteriors weighted by 1/entropy.

    Each frame's entropy is floored at ``ENTROPY_FLOOR`` so a one-hot frame
    dominates the weighting instead of overflowing it. Weights are the
    normalized reciprocals and sum to 1.

    The weights depend on the frame entropies and nothing else, so a change
    that keeps every frame's entropy and raises a reference posterior (say,
    swapping it with a larger one of its row) never lowers the score. A
    change that moves an entropy can: phone 0 over frames ``[[0.01, 0,
    0.99], [0, 0.04, 0.96]]`` scores -9.21, and -18.67 with frame 0 raised
    to ``[0.5, 0, 0.5]``, whose entropy rises and whose weight falls.
    """
    rows = slice_segment(pg, seg)
    log_post = _floored_log(rows[:, seg.phone])
    entropies = _row_entropies(rows)
    reciprocal = 1.0 / np.maximum(entropies, ENTROPY_FLOOR)
    weights = reciprocal / reciprocal.sum()
    score = float(np.sum(weights * log_post))
    return score, FrameScores(log_post, entropies, weights)


def entropy_profile(pg: Posteriorgram) -> np.ndarray:
    """Per-frame posterior entropy over the whole utterance (length F)."""
    return _row_entropies(pg.probs)

"""Evaluation metrics: correlations, duration error, detection counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import DataError


def _paired_arrays(x, y, name: str):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise DataError(f"{name} expects 1-D inputs")
    if x.shape != y.shape:
        raise DataError(f"{name}: length mismatch {x.size} vs {y.size}")
    if x.size < 2:
        raise DataError(f"{name} needs at least two points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError(f"{name}: non-finite input")
    return x, y


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; rejects constant inputs rather than returning NaN."""
    x, y = _paired_arrays(x, y, "pearson")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum()) * np.sqrt((yc * yc).sum())
    if denom == 0.0:
        raise DataError("pearson undefined for constant input")
    r = float((xc * yc).sum() / denom)
    # rounding can push |r| a hair past 1
    return min(1.0, max(-1.0, r))


def rankdata(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, ties averaged (fractional ranks)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise DataError("rankdata expects a 1-D input")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # each run of equal values, firsts[k]..ends[k], shares its mean rank
    firsts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[firsts[1:], values.size]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (firsts + ends + 1), ends - firsts)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman correlation, defined as pearson on average ranks."""
    x, y = _paired_arrays(x, y, "spearman")
    return pearson(rankdata(x), rankdata(y))


def mean_rater_correlation(
    system: Mapping[str, float],
    utt_ids: Sequence[str],
    rater_ids: Sequence[str],
    ratings: Sequence[float],
) -> tuple[Optional[float], Optional[float], int, int]:
    """Mean Pearson and Spearman correlation of system and rater scores.

    Each rater (in order of first appearance) is compared on the sorted
    utterances both scored; one with fewer than two, or with constant
    scores on them, is left out. Returns both means (None when every rater
    is left out), the number of raters averaged and of all raters.
    """
    by_rater: dict[str, dict[str, float]] = {}
    for utt_id, rater, score in zip(utt_ids, rater_ids, ratings):
        by_rater.setdefault(rater, {})[utt_id] = score
    per_pearson, per_spearman = [], []
    for scores in by_rater.values():
        common = sorted(set(system) & set(scores))
        x = [system[u] for u in common]
        y = [scores[u] for u in common]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        per_pearson.append(pearson(x, y))
        per_spearman.append(spearman(x, y))
    if not per_pearson:
        return None, None, 0, len(by_rater)
    return (float(np.mean(per_pearson)), float(np.mean(per_spearman)),
            len(per_pearson), len(by_rater))


def mae_frames(
    predicted: Sequence[float], actual: Sequence[float]
) -> float:
    """Mean absolute duration error in frames."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise DataError(
            f"mae: length mismatch {predicted.size} vs {actual.size}"
        )
    if predicted.size == 0:
        raise DataError("mae of empty sequences")
    return float(np.mean(np.abs(predicted - actual)))


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary detection counts; positive class = mispronounced."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise DataError("accuracy undefined with no observations")
        return (self.tp + self.tn) / self.total

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        if denom == 0:
            raise DataError("f1 undefined: no positives predicted or present")
        return 2 * self.tp / denom


def confusion_counts(
    predicted: Sequence[bool], actual: Sequence[bool]
) -> ConfusionCounts:
    predicted = [bool(p) for p in predicted]
    actual = [bool(a) for a in actual]
    if len(predicted) != len(actual):
        raise DataError(
            f"confusion: length mismatch {len(predicted)} vs {len(actual)}"
        )
    tp = sum(1 for p, a in zip(predicted, actual) if p and a)
    fp = sum(1 for p, a in zip(predicted, actual) if p and not a)
    fn = sum(1 for p, a in zip(predicted, actual) if not p and a)
    tn = sum(1 for p, a in zip(predicted, actual) if not p and not a)
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)

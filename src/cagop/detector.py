"""Score fusion, threshold calibration, and mispronunciation decisions.

The headline score multiplies the transition-aware score by a duration
factor, cagop = (1 - beta * delta) * tascore. Ablation variants swap out
either factor. Detection flags a phone when its score falls strictly below
a phone-dependent threshold calibrated on a labeled development set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

# lookup_tolerance is the per-phone oracle of lookup_tolerances;
# benchmarks/tracing.py counts its calls under this module name.
from .balance import (  # noqa: F401
    BalanceTable,
    delta as duration_delta,
    lookup_tolerance,
    lookup_tolerances,
)
from .model import (
    PROB_FLOOR,
    Alignment,
    DataError,
    PhoneScore,
    PhoneSet,
    Posteriorgram,
    ScoreReport,
    SegmentColumns,
    utterance_speeds,
)
# gop and center_gop are the per-segment oracles of score_utterances;
# benchmarks/tracing.py counts their calls under these module names.
from .scoring import (  # noqa: F401
    ENTROPY_FLOOR,
    FrameScores,
    center_gop,
    entropy_profile,
    gop,
)

VARIANTS = ("gop", "center_gop", "cagop", "cagop_minus_dur", "cagop_minus_ta")
# the variants whose score is scaled by the duration factor (1 - beta*delta)
DURATION_VARIANTS = ("cagop", "cagop_minus_ta")
CALIBRATION_MIN_COUNT = 10


@dataclass(frozen=True)
class DetectorConfig:
    beta: float = 0.1
    variant: str = "cagop"

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise DataError(f"beta must be finite and >= 0, got {self.beta}")
        if self.variant not in VARIANTS:
            raise DataError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )

    @property
    def needs_durations(self) -> bool:
        """Duration inputs are only needed when the factor can move the score."""
        return self.variant in DURATION_VARIANTS and self.beta > 0


def cagop_score(ta_score, delta, beta: float):
    """(1 - beta*delta) * ta_score, elementwise on floats or arrays.

    The formula is applied literally: a negative delta (a duration within
    tolerance) lifts the multiplier above 1, and a large positive delta can
    make it negative and flip the score's sign.
    """
    return (1.0 - beta * delta) * ta_score


def tascore(frames, lengths: np.ndarray) -> tuple[np.ndarray, FrameScores]:
    """``scoring.tascore`` of consecutive segments in one pass.

    ``frames`` pairs the posterior of the segment's phone with the row
    entropy at each segment frame, the segments' frames concatenated in
    order. Segment sums are taken with ``np.add.reduceat``.
    """
    posteriors, entropies = frames
    firsts = np.cumsum(lengths) - lengths
    log_post = np.log(np.maximum(posteriors, PROB_FLOOR))
    reciprocal = 1.0 / np.maximum(entropies, ENTROPY_FLOOR)
    weights = reciprocal / np.repeat(np.add.reduceat(reciprocal, firsts), lengths)
    scores = np.add.reduceat(weights * log_post, firsts)
    return scores, FrameScores(log_post, entropies, weights)


@dataclass(frozen=True, eq=False)
class ScoreColumns:
    """Per-phone scores of many utterances, one array per field.

    The first ``counts[0]`` rows are ``utterance_ids[0]``'s non-silence
    segments, and so on; ``delta`` is None when the duration factor is off.
    """

    utterance_ids: tuple[str, ...]
    counts: np.ndarray
    sentence_scores: np.ndarray
    phone: np.ndarray
    start: np.ndarray
    length: np.ndarray
    gop: np.ndarray
    center_gop: np.ndarray
    tascore: np.ndarray
    delta: Optional[np.ndarray]
    score: np.ndarray


def score_utterances(
    segments: SegmentColumns,
    posteriorgrams: Iterable[Posteriorgram],
    cfg: DetectorConfig,
    predicted_durations: Optional[Sequence[float]] = None,
    balance: Optional[BalanceTable] = None,
) -> ScoreColumns:
    """Score the non-silence ``segments`` of many utterances in one pass.

    ``posteriorgrams`` yields each utterance's posteriorgram in order; only
    the segment phone's posterior and the row entropy at each segment frame
    are kept, so posteriorgrams loaded one at a time are held one at a
    time. predicted_durations holds one prediction per row of ``segments``;
    it and a balance table are required when the duration factor is live.
    """
    if cfg.needs_durations and (predicted_durations is None or balance is None):
        raise DataError(
            f"variant {cfg.variant!r} with beta={cfg.beta} needs predicted "
            "durations and a balance table"
        )
    ids, counts = segments.utterance_ids, segments.counts
    phone, start, length = segments.phone, segments.start, segments.length
    if not ids:
        raise DataError("no utterances to score")
    if cfg.needs_durations:
        preds = np.asarray(predicted_durations, dtype=np.float64)
        if len(preds) != len(phone):
            raise DataError(f"{len(preds)} duration predictions for "
                            f"{len(phone)} aligned phones")
    # Each segment frame's index in its posteriorgram, and its phone.
    ends = start + length
    firsts = np.cumsum(length) - length
    frames = np.arange(length.sum()) + np.repeat(start - firsts, length)
    frame_phones = np.repeat(phone, length)
    row_bounds = [0, *np.cumsum(counts).tolist()]
    frame_bounds = np.r_[0, np.cumsum(length)][row_bounds].tolist()
    posteriors, entropies = [], []
    for utt_id, a, b, fa, fb, pg in zip(
        ids, row_bounds, row_bounds[1:], frame_bounds, frame_bounds[1:],
        posteriorgrams,
    ):
        if a == b:
            raise DataError(f"no non-silence phones to score in {utt_id!r}")
        if ends[b - 1] > pg.num_frames:
            bad = a + int(np.argmax(ends[a:b] > pg.num_frames))
            raise DataError(f"segment [{start[bad]},{ends[bad]}) exceeds "
                            f"{pg.num_frames} frames in {utt_id!r}")
        posteriors.append(pg.probs[frames[fa:fb], frame_phones[fa:fb]])
        entropies.append(entropy_profile(pg)[frames[fa:fb]])
    if len(posteriors) != len(ids):
        raise DataError(f"{len(posteriors)} posteriorgrams for {len(ids)} "
                        "utterances")
    ta, frame_scores = tascore(
        (np.concatenate(posteriors), np.concatenate(entropies)), length)
    gop_scores = np.add.reduceat(frame_scores.log_posteriors, firsts) / length
    center = frame_scores.log_posteriors[firsts + length // 2]
    deltas = None if not cfg.needs_durations else duration_delta(
        length, preds, lookup_tolerances(
            balance, phone, np.repeat(utterance_speeds(length, counts), counts)))
    score = {
        "gop": gop_scores, "center_gop": center, "cagop_minus_dur": ta,
        "cagop": ta, "cagop_minus_ta": gop_scores,
    }[cfg.variant]
    if cfg.variant in DURATION_VARIANTS:
        score = cagop_score(score, 0.0 if deltas is None else deltas, cfg.beta)
    sentences = [score[a:b].mean() for a, b in zip(row_bounds, row_bounds[1:])]
    return ScoreColumns(ids, counts, np.array(sentences), phone, start,
                        length, gop_scores, center, ta, deltas, score)


def score_utterance(
    pg: Posteriorgram,
    alignment: Alignment,
    phone_set: PhoneSet,
    cfg: DetectorConfig,
    predicted_durations: Optional[Sequence[float]] = None,
    balance: Optional[BalanceTable] = None,
    utterance_id: str = "",
) -> ScoreReport:
    """``score_utterances`` on one utterance, as a report of records.

    predicted_durations parallels the non-silence segments.
    """
    segments = SegmentColumns.from_alignments([(utterance_id, alignment)])
    cols = score_utterances(segments.non_silence(phone_set), [pg], cfg,
                            predicted_durations, balance)
    n = len(cols.score)
    deltas = [None] * n if cols.delta is None else cols.delta.tolist()
    records = tuple(
        PhoneScore(seg.phone, seg, *fields) for seg, *fields in zip(
            alignment.non_silence(phone_set), cols.gop.tolist(),
            cols.center_gop.tolist(), cols.tascore.tolist(), deltas,
            cols.score.tolist(),
        )
    )
    return ScoreReport(utterance_id, cfg.variant, records,
                       float(cols.sentence_scores[0]))


@dataclass(frozen=True)
class ThresholdTable:
    per_phone: Mapping[int, float]
    global_threshold: float

    def __post_init__(self):
        for t in [*self.per_phone.values(), self.global_threshold]:
            if not math.isfinite(t):
                raise DataError(f"threshold must be finite, got {t}")


def _sweep_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold maximizing F1 of (score < threshold => mispronounced).

    Candidates are the midpoints of consecutive distinct sorted scores plus
    one flag-everything value above the maximum; without the latter the
    sweep could be beaten by a fixed threshold when the positive class
    scores high. Midpoint ties go to the higher threshold; the
    flag-everything candidate is chosen only when strictly better, since
    it generalizes worst.
    """
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    pos = labels[order].astype(np.int64)
    cum_pos = np.cumsum(pos)
    total_pos = int(cum_pos[-1])

    boundaries = np.nonzero(s[:-1] != s[1:])[0]
    midpoints = (s[boundaries] + s[boundaries + 1]) / 2.0
    tp = cum_pos[boundaries].astype(np.float64)
    flagged = (boundaries + 1).astype(np.float64)
    f1 = 2.0 * tp / (2.0 * tp + (flagged - tp) + (total_pos - tp))
    flag_all_f1 = 2.0 * total_pos / (total_pos + s.size)
    if midpoints.size and f1.max() >= flag_all_f1:
        best = np.nonzero(f1 == f1.max())[0][-1]
        return float(midpoints[best])
    return float(s[-1] + 1.0)


def calibrate_thresholds(
    phones: Sequence[int],
    scores: Sequence[float],
    labels: Sequence[bool],
    min_count: int = CALIBRATION_MIN_COUNT,
) -> ThresholdTable:
    """Per-phone detection thresholds from labeled development scores.

    A phone gets its own threshold only with at least min_count instances
    covering both classes; everything else defers to the global threshold
    fitted on the pooled data. labels: True = mispronounced.
    """
    phones = np.asarray(phones, dtype=np.int64)
    score_arr = np.asarray(scores, dtype=np.float64)
    label_arr = np.asarray([bool(x) for x in labels])
    if not phones.size:
        raise DataError("empty calibration set")
    if not phones.shape == score_arr.shape == label_arr.shape:
        raise DataError("phones, scores, labels must have equal length")
    if not np.isfinite(score_arr).all():
        raise DataError("non-finite calibration score")
    if label_arr.all() or not label_arr.any():
        raise DataError("calibration set needs both label classes")

    global_threshold = _sweep_threshold(score_arr, label_arr)
    per_phone: dict[int, float] = {}
    for phone in np.unique(phones):
        sel = phones == phone
        if sel.sum() < min_count:
            continue
        sub_labels = label_arr[sel]
        if sub_labels.all() or not sub_labels.any():
            continue
        per_phone[int(phone)] = _sweep_threshold(score_arr[sel], sub_labels)
    return ThresholdTable(per_phone=per_phone, global_threshold=global_threshold)


def threshold_for(table: ThresholdTable, phone: int) -> float:
    return table.per_phone.get(phone, table.global_threshold)


def detect_flags(
    phones: Sequence[int], scores: Sequence[float], table: ThresholdTable
) -> list[bool]:
    """Mispronunciation flags: each score strictly below its phone's threshold."""
    if len(phones) != len(scores):
        raise DataError("phones and scores must have equal length")
    return [s < threshold_for(table, p) for p, s in zip(phones, scores)]

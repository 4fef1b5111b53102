"""Score fusion, threshold calibration, and mispronunciation decisions.

The headline score multiplies the transition-aware score by a duration
factor, cagop = (1 - beta * delta) * tascore. Ablation variants swap out
either factor. Detection flags a phone when its score falls strictly below
a phone-dependent threshold calibrated on a labeled development set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .balance import BalanceTable, lookup_tolerance
from .balance import delta as duration_delta
from .duration.net import DurationSample
from .model import (
    PROB_FLOOR,
    Alignment,
    DataError,
    PhoneScore,
    PhoneSegment,
    PhoneSet,
    Posteriorgram,
    ScoreReport,
)
# gop and center_gop are the per-segment oracles of score_utterance;
# benchmarks/tracing.py counts their calls under these module names.
from .scoring import (  # noqa: F401
    ENTROPY_FLOOR,
    FrameScores,
    center_gop,
    entropy_profile,
    gop,
)

VARIANTS = ("gop", "center_gop", "cagop", "cagop_minus_dur", "cagop_minus_ta")
CALIBRATION_MIN_COUNT = 10


@dataclass(frozen=True)
class DetectorConfig:
    beta: float = 0.1
    variant: str = "cagop"
    clamp_delta_at_zero: bool = False

    def __post_init__(self):
        if self.beta < 0:
            raise DataError(f"beta must be >= 0, got {self.beta}")
        if self.variant not in VARIANTS:
            raise DataError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )

    @property
    def needs_durations(self) -> bool:
        """Duration inputs are only needed when the factor can move the score."""
        return self.variant in ("cagop", "cagop_minus_ta") and self.beta > 0


def cagop_score(
    ta_score: float,
    delta: float,
    beta: float,
    clamp_delta_at_zero: bool = False,
) -> float:
    """(1 - beta*delta) * ta_score, optionally clamping delta below at 0.

    The formula is applied literally: a large positive delta can make the
    multiplier negative and flip the score's sign. The clamp option keeps
    the multiplier <= 1 so in-tolerance durations never improve a score.
    """
    if clamp_delta_at_zero:
        delta = max(delta, 0.0)
    return (1.0 - beta * delta) * ta_score


def _segment_offsets(segments: Sequence[PhoneSegment]):
    """Segment lengths and their offsets in the concatenated segment frames."""
    lengths = np.array([s.length for s in segments])
    return lengths, np.cumsum(lengths) - lengths


def tascore(
    pg: Posteriorgram, segments: Sequence[PhoneSegment]
) -> tuple[np.ndarray, FrameScores]:
    """Transition-aware score of every segment in one pass.

    The segment-list form of ``scoring.tascore``: the floored log posterior
    of each segment's phone is gathered once for all segment frames and the
    row entropies once per utterance; segment sums are taken with
    ``np.add.reduceat``. The frame scores cover the segments' frames
    concatenated in order.
    """
    lengths, firsts = _segment_offsets(segments)
    starts = np.array([s.start for s in segments])
    ends = starts + lengths
    if ends[-1] > pg.num_frames:
        bad = segments[int(np.argmax(ends > pg.num_frames))]
        raise DataError(
            f"segment [{bad.start},{bad.end}) exceeds {pg.num_frames} frames"
        )
    frames = np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)
    phones = np.repeat([s.phone for s in segments], lengths)
    log_post = np.log(np.maximum(pg.probs[frames, phones], PROB_FLOOR))
    entropies = entropy_profile(pg)[frames]
    reciprocal = 1.0 / np.maximum(entropies, ENTROPY_FLOOR)
    weights = reciprocal / np.repeat(np.add.reduceat(reciprocal, firsts), lengths)
    scores = np.add.reduceat(weights * log_post, firsts)
    return scores, FrameScores(log_post, entropies, weights)


def score_utterance(
    pg: Posteriorgram,
    alignment: Alignment,
    phone_set: PhoneSet,
    cfg: DetectorConfig,
    predicted_durations: Optional[Sequence[float]] = None,
    balance: Optional[BalanceTable] = None,
    utterance_id: str = "",
) -> ScoreReport:
    """Score every non-silence aligned phone under the configured variant.

    predicted_durations must parallel the non-silence segments and is
    required (with a balance table) whenever the duration factor is live,
    i.e. for cagop and cagop_minus_ta with beta > 0.
    """
    segments = alignment.non_silence(phone_set)
    if not segments:
        raise DataError(f"no non-silence phones to score in {utterance_id!r}")

    deltas: Optional[list[float]] = None
    if cfg.needs_durations:
        if predicted_durations is None or balance is None:
            raise DataError(
                f"variant {cfg.variant!r} with beta={cfg.beta} needs predicted "
                "durations and a balance table"
            )
        if len(predicted_durations) != len(segments):
            raise DataError(
                f"{len(predicted_durations)} duration predictions for "
                f"{len(segments)} aligned phones"
            )
        speed = DurationSample.from_segments(segments).speed
        deltas = [
            duration_delta(
                seg.length, pred, lookup_tolerance(balance, seg.phone, speed)
            )
            for seg, pred in zip(segments, predicted_durations)
        ]

    ta_scores, frames = tascore(pg, segments)
    lengths, firsts = _segment_offsets(segments)
    log_post = frames.log_posteriors
    seg_ta = ta_scores.tolist()
    seg_gop = (np.add.reduceat(log_post, firsts) / lengths).tolist()
    seg_center = log_post[firsts + lengths // 2].tolist()
    base = {
        "gop": seg_gop, "center_gop": seg_center, "cagop_minus_dur": seg_ta,
        "cagop": seg_ta, "cagop_minus_ta": seg_gop,
    }[cfg.variant]
    fused = cfg.variant in ("cagop", "cagop_minus_ta")
    records = []
    for i, seg in enumerate(segments):
        d = deltas[i] if deltas is not None else None
        seg_cagop = (
            cagop_score(base[i], 0.0 if d is None else d, cfg.beta,
                        cfg.clamp_delta_at_zero)
            if fused else None
        )
        records.append(PhoneScore(
            phone=seg.phone,
            segment=seg,
            gop=seg_gop[i],
            center_gop=seg_center[i],
            tascore=seg_ta[i],
            delta=d,
            cagop=seg_cagop,
            score=seg_cagop if fused else base[i],
        ))
    sentence = float(np.mean([r.score for r in records]))
    return ScoreReport(
        utterance_id=utterance_id,
        variant=cfg.variant,
        per_phone=tuple(records),
        sentence_score=sentence,
    )


@dataclass(frozen=True)
class ThresholdTable:
    per_phone: Mapping[int, float]
    global_threshold: float


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


def detect(report: ScoreReport, table: ThresholdTable) -> ScoreReport:
    """Report with flags set: score strictly below the phone's threshold."""
    flagged = tuple(
        replace(r, detected_mispronounced=bool(r.score < threshold_for(table, r.phone)))
        for r in report.per_phone
    )
    return replace(report, per_phone=flagged)


def detect_flags(
    phones: Sequence[int], scores: Sequence[float], table: ThresholdTable
) -> list[bool]:
    """Flag list for bare (phone, score) pairs outside a report."""
    if len(phones) != len(scores):
        raise DataError("phones and scores must have equal length")
    return [s < threshold_for(table, p) for p, s in zip(phones, scores)]

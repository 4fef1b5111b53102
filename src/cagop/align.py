"""Forced alignment of a phone sequence onto a posteriorgram.

Alignment maximizes the summed log posterior of the assigned phones over a
monotone segmentation, directly on posterior rows (no transition model).
Optional silence segments may be inserted before, between, and after the
mandatory phones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .model import (
    PROB_FLOOR,
    Alignment,
    DataError,
    PhoneSegment,
    Posteriorgram,
    slice_segment,
)


@dataclass(frozen=True)
class AlignConfig:
    """Aligner knobs.

    silence_self_loop_penalty is added (log domain) for every frame spent
    inside a silence segment; 0 leaves silences unpenalized. silence_index
    selects the posterior column used for inserted silences and must be set
    whenever allow_optional_silence is.
    """

    allow_optional_silence: bool = False
    min_segment_frames: int = 1
    silence_self_loop_penalty: float = 0.0
    silence_index: Optional[int] = None

    def __post_init__(self):
        if self.min_segment_frames < 1:
            raise DataError(
                f"min_segment_frames must be >= 1, got {self.min_segment_frames}"
            )
        if not math.isfinite(self.silence_self_loop_penalty):
            raise DataError(
                "silence_self_loop_penalty must be finite, "
                f"got {self.silence_self_loop_penalty}"
            )
        if self.silence_index is not None and self.silence_index < 0:
            raise DataError(f"silence_index must be >= 0, got {self.silence_index}")


@dataclass(frozen=True)
class _Element:
    phone: int
    min_len: int
    optional: bool
    is_silence: bool


def _expand_elements(phones: Sequence[int], cfg: AlignConfig) -> list[_Element]:
    elements: list[_Element] = []
    if cfg.allow_optional_silence:
        if cfg.silence_index is None:
            raise DataError("allow_optional_silence requires silence_index")
        sil = _Element(cfg.silence_index, 1, True, True)
        elements.append(sil)
        for p in phones:
            elements.append(_Element(p, cfg.min_segment_frames, False, False))
            elements.append(sil)
    else:
        elements = [
            _Element(p, cfg.min_segment_frames, False, False) for p in phones
        ]
    return elements


def align(
    pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig = AlignConfig()
) -> Alignment:
    """Best monotone segmentation of ``phones`` over the posteriorgram.

    Each mandatory phone occupies at least ``cfg.min_segment_frames``
    contiguous frames; inserted silences occupy at least one. Score ties are
    broken toward the earliest boundary, and toward omitting an optional
    silence when inserting it does not improve the score.

    With E elements (2N+1 for N phones with optional silences, else N) and
    slack = F - N * min_segment_frames spare frames, the dynamic program
    takes O(E * slack) time and memory, plus one cumulative-sum row of F+1
    floats per posterior column.
    """
    phones = list(phones)
    if not phones:
        raise DataError("cannot align an empty phone sequence")
    for p in phones:
        if not 0 <= p < pg.num_phones:
            raise DataError(f"phone index {p} outside posteriorgram columns")
    if cfg.silence_index is not None and cfg.silence_index >= pg.num_phones:
        raise DataError(
            f"silence_index {cfg.silence_index} outside posteriorgram columns"
        )
    num_frames = pg.num_frames
    needed = len(phones) * cfg.min_segment_frames
    if num_frames < needed:
        raise DataError(
            f"infeasible: {len(phones)} phones need >= {needed} frames, "
            f"posteriorgram has {num_frames}"
        )

    elements = _expand_elements(phones, cfg)
    log_probs = np.log(np.maximum(pg.probs, PROB_FLOOR))
    # cums[c, t]: summed log posterior of column c over frames [0, t); the
    # extra last row is the silence column with the per-frame penalty added.
    cums = np.empty((pg.num_phones + 1, num_frames + 1))
    cums[:, 0] = 0.0
    np.cumsum(log_probs.T, axis=1, out=cums[:-1, 1:])
    penalized = cfg.silence_self_loop_penalty != 0.0
    if penalized:
        np.cumsum(log_probs[:, cfg.silence_index] + cfg.silence_self_loop_penalty,
                  out=cums[-1, 1:])
    cum_of = [cums[-1] if el.is_silence and penalized else cums[el.phone]
              for el in elements]

    # lo[i]: frames the mandatory elements before i need. best[i][k] is the
    # best score covering frames [0, lo[i] + k) with elements 0..i-1 done;
    # no other frame count can be reached there and still finish.
    lo = list(accumulate((0 if el.optional else el.min_len for el in elements),
                         initial=0))
    width = num_frames - needed + 1
    best = np.empty((len(elements) + 1, width))
    best[0, 0] = 0.0
    best[0, 1:] = -np.inf
    entry = np.empty(width)
    for i, (el, cum) in enumerate(zip(elements, cum_of)):
        np.subtract(best[i], cum[lo[i] : lo[i] + width], out=entry)
        np.maximum.accumulate(entry, out=entry)
        # a segment ending at lo[i+1] + k starts at lo[i] + k - shift or earlier
        shift = lo[i] + el.min_len - lo[i + 1]
        row = best[i + 1]
        row[:shift] = -np.inf
        np.add(cum[lo[i] + el.min_len : lo[i + 1] + width], entry[: width - shift],
               out=row[shift:])
        if el.optional:
            np.maximum(row, best[i], out=row)

    if not np.isfinite(best[-1, -1]):
        raise DataError("infeasible: no legal segmentation")

    segments: list[PhoneSegment] = []
    t = num_frames
    for i in range(len(elements) - 1, -1, -1):
        el = elements[i]
        if el.optional and best[i, t - lo[i]] == best[i + 1, t - lo[i + 1]]:
            continue  # tie prefers no silence segment
        stop = t - el.min_len + 1
        entry = best[i, : stop - lo[i]] - cum_of[i][lo[i] : stop]
        start = int(lo[i] + np.argmax(entry))  # first occurrence: earliest boundary
        segments.append(PhoneSegment(el.phone, start, t - start))
        t = start
    segments.reverse()
    return Alignment(tuple(segments))


def alignment_log_score(pg: Posteriorgram, al: Alignment) -> float:
    """Sum of floored log posteriors of each segment's phone over its frames."""
    total = 0.0
    for seg in al.segments:
        rows = slice_segment(pg, seg)
        total += float(np.sum(np.log(np.maximum(rows[:, seg.phone], PROB_FLOOR))))
    return total

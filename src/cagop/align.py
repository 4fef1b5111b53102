"""Forced alignment of phone sequences onto posteriorgrams.

Alignment maximizes the summed log posterior of the assigned phones over a
monotone segmentation, directly on posterior rows (no transition model).
Optional silence segments may be inserted before, between, and after the
mandatory phones. ``align_utterances`` runs one banded dynamic program per
padded chunk of utterances; ``align`` runs it on one utterance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import (
    PROB_FLOOR,
    Alignment,
    DataError,
    PhoneSegment,
    Posteriorgram,
    SegmentColumns,
)

# Utterances taken from the input at a time, and the cells of one chunk's
# padded (elements + 1) x utterances x band table; a larger utterance is a
# chunk of its own.
_WINDOW, _CHUNK_CELLS = 64, 1 << 15


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


def _sized(pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig):
    """(elements, band width, phones), once the utterance can be aligned."""
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
    needed = len(phones) * cfg.min_segment_frames
    if pg.num_frames < needed:
        raise DataError(
            f"infeasible: {len(phones)} phones need >= {needed} frames, "
            f"posteriorgram has {pg.num_frames}"
        )
    if cfg.allow_optional_silence and cfg.silence_index is None:
        raise DataError("allow_optional_silence requires silence_index")
    elements = 2 * len(phones) + 1 if cfg.allow_optional_silence else len(phones)
    return elements, pg.num_frames - needed + 1, phones


def align_utterances(
    utterances: Iterable[tuple[str, Posteriorgram, Sequence[int]]],
    cfg: AlignConfig = AlignConfig(),
) -> SegmentColumns:
    """Align each ``(utt_id, posteriorgram, phones)``; segments in input order.

    Each mandatory phone occupies at least ``cfg.min_segment_frames``
    contiguous frames; inserted silences occupy at least one. Score ties are
    broken toward the earliest boundary, and toward omitting an optional
    silence when inserting it does not improve the score. With E elements
    (2N+1 for N phones with optional silences, else N) and slack = F - N *
    min_segment_frames spare frames, an utterance takes O(E * slack) time
    and memory. Utterances are checked in input order as they are taken,
    ``_WINDOW`` at a time; a window is sorted by size and cut into chunks
    whose padded (E+1) x utterances x (slack+1) table stays within
    ``_CHUNK_CELLS`` cells, and each dynamic-program step runs once a chunk.
    """
    ids: list[str] = []
    frames: list[int] = []
    found = [(np.empty(0, np.int64),) * 3]
    it = iter(utterances)
    while True:
        window = []
        for utt_id, pg, phones in islice(it, _WINDOW):
            window.append((*_sized(pg, phones, cfg), len(ids), pg))
            ids.append(utt_id)
            frames.append(pg.num_frames)
        if not window:
            break
        found += (_align_chunk(chunk, cfg) for chunk in _chunks(window))
    owner, phone, start = map(np.concatenate, zip(*found))
    order = np.lexsort((start, owner))
    owner, phone, start = owner[order], phone[order], start[order]
    counts = np.bincount(owner, minlength=len(ids))
    # segments tile their utterance: each ends where the next one starts
    ends = np.empty_like(start)
    ends[:-1] = start[1:]
    ends[np.cumsum(counts) - 1] = frames
    return SegmentColumns(tuple(ids), counts, phone, start, ends - start)


def _chunks(window: list):
    """``window`` by descending (elements, band width), cut at the budget."""
    chunk: list = []
    for item in sorted(window, key=lambda item: item[:2], reverse=True):
        if chunk and (chunk[0][0] + 1) * (len(chunk) + 1) * max(width, item[1]) > _CHUNK_CELLS:
            yield chunk
            chunk = []
        width = max(width, item[1]) if chunk else item[1]
        chunk.append(item)
    yield chunk


def _align_chunk(chunk: list, cfg: AlignConfig):
    """One banded dynamic program over ``chunk``, most elements first.

    Returns each segment's utterance (its input position), phone and start.
    """
    sizes, widths, phone_lists, positions, pgs = zip(*chunk)
    num, num_elements, width = len(chunk), sizes[0], max(widths)
    silence, mandatory = cfg.allow_optional_silence, cfg.min_segment_frames
    # with optional silences, elements alternate silence, phone, ..., silence
    optional = [silence and i % 2 == 0 for i in range(num_elements)]
    min_len = [1 if o else mandatory for o in optional]
    # lo[i]: frames the mandatory elements before i need, the same for every
    # utterance. best[i][u, k] is the best score of utterance u covering
    # frames [0, lo[i] + k) with elements 0..i-1 done; no other frame count
    # can be reached there and still finish.
    lo = list(accumulate((0 if o else mandatory for o in optional), initial=0))
    # rows [0, active[i]) of the chunk have an element i
    active = np.searchsorted(np.negative(sizes), -np.arange(num_elements)).tolist()

    # cums[u, c, t]: summed log posterior of column c over frames [0, t) of
    # utterance u, padded with log 1 = 0 so that every slab is in range; with
    # optional silences, an extra last column is the silence column with the
    # per-frame penalty added.
    columns = max(pg.num_phones for pg in pgs)
    length = lo[-1] + width + 1
    log_probs = np.ones((num, length - 1, columns))
    for u, pg in enumerate(pgs):
        log_probs[u, : pg.num_frames, : pg.num_phones] = pg.probs
    np.log(np.maximum(log_probs, PROB_FLOOR, out=log_probs), out=log_probs)
    cums = np.zeros((num, columns + silence, length))
    np.cumsum(log_probs.transpose(0, 2, 1), axis=2, out=cums[:, :columns, 1:])
    if silence:
        np.cumsum(log_probs[:, :, cfg.silence_index] + cfg.silence_self_loop_penalty,
                  axis=1, out=cums[:, -1, 1:])
    del log_probs
    flat = cums.reshape(-1, length)
    # phone[u, i]: element i's phone; row[i, u]: its row of ``flat``
    phone = np.full((num, num_elements), cfg.silence_index if silence else 0)
    for u, phones in enumerate(phone_lists):
        phone[u, silence :: 1 + silence][: len(phones)] = phones
    row = np.where(optional, columns, phone) + np.arange(num)[:, None] * (columns + silence)
    row = row.T.copy()

    best = np.empty((num_elements + 1, num, width))
    best[0, :, 0] = 0.0
    best[0, :, 1:] = -np.inf
    scratch = np.empty((num, width))
    for i, (cur, nxt) in enumerate(zip(best, best[1:])):
        n, a, b, m = active[i], lo[i], lo[i + 1], min_len[i]
        # A lone row is taken as 1-D, whose cumulative sums are a view and
        # whose ufunc calls cost less; more rows gather their sums.
        rows = 0 if n == 1 else slice(0, n)
        cur, nxt, entry = cur[rows], nxt[rows], scratch[rows]
        # one slab feeds both the entry scores and the segment scores
        slab = flat[row[i, rows], a : b + width]
        np.subtract(cur, slab[..., :width], out=entry)
        np.maximum.accumulate(entry, axis=-1, out=entry)
        # a segment ending at lo[i+1] + k starts at lo[i] + k - shift or earlier
        shift = a + m - b
        if shift:
            nxt[..., :shift] = -np.inf
        np.add(slab[..., m:], entry[..., : width - shift], out=nxt[..., shift:])
        if optional[i]:
            np.maximum(nxt, cur, out=nxt)
    if not np.isfinite(best[sizes, range(num), np.subtract(widths, 1)]).all():
        raise DataError("infeasible: no legal segmentation")

    # Backtrack: ends[u] is where utterance u's next segment (in reverse)
    # ends; each step records its rows, its element and the segments'
    # starts within the band.
    ends = [pg.num_frames for pg in pgs]
    found = []
    for i in range(num_elements - 1, -1, -1):
        a, rows = lo[i], range(active[i])
        if optional[i]:
            # lo[i + 1] == lo[i]; a tie prefers no silence segment
            rows = [u for u, end in zip(rows, ends)
                    if best.item(i, u, end - a) != best.item(i + 1, u, end - a)]
            if not rows:
                continue
        stops = [ends[u] - a - min_len[i] + 1 for u in rows]
        stop = max(stops)
        sel = rows[0] if len(rows) == 1 else rows
        entry = best[i, sel, :stop] - flat[row[i, sel], a : a + stop]
        if len(rows) > 1:
            entry[np.arange(stop) >= np.array(stops)[:, None]] = -np.inf
        # first occurrence: earliest boundary
        offsets = entry.argmax(axis=-1).reshape(-1).tolist()
        for u, k in zip(rows, offsets):
            ends[u] = a + k
        found.append((rows, i, offsets))
    rows = list(chain.from_iterable(rows for rows, _, _ in found))
    elements = [i for _, i, offsets in found for _ in offsets]
    offsets = np.fromiter(chain.from_iterable(k for _, _, k in found), np.int64)
    return (np.take(positions, rows), phone[rows, elements],
            offsets + np.take(lo, elements))


def align(
    pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig = AlignConfig()
) -> Alignment:
    """Best monotone segmentation of ``phones`` over the posteriorgram.

    ``align_utterances`` on this one utterance, as an ``Alignment``: O(E *
    slack) time and memory, as there.
    """
    cols = align_utterances([("", pg, phones)], cfg)
    return Alignment(tuple(map(PhoneSegment, cols.phone.tolist(),
                               cols.start.tolist(), cols.length.tolist())))

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
from itertools import accumulate, islice
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

# Utterances taken from the input at a time, and the budget of one chunk's
# padded (elements + 1) x utterances x band cells, about one byte each of
# its decision arrays; a larger utterance is a chunk of its own, whose
# elements keep decisions only for their window of cells.
_WINDOW, _CHUNK_CELLS = 64, 1 << 15
# Pruning: pass 1 guesses the optimum _KAPPA nats a frame under U(0), as
# paragraphs' optima sit 0.09-0.13 under it and a larger kappa keeps more
# cells; a window's top goes _REACH cells past its need, so that one scalar
# test mostly replaces a count along the band; its ends are trimmed, at
# three NumPy calls, every _TRIM elements, as its bottom rises slowly.
_KAPPA, _REACH, _TRIM = 0.17, 4, 16


@dataclass(frozen=True)
class AlignConfig:
    """Aligner knobs.

    silence_index selects the posterior column that scores inserted
    silences and must be set whenever allow_optional_silence is.
    """

    allow_optional_silence: bool = False
    min_segment_frames: int = 1
    silence_index: Optional[int] = None

    def __post_init__(self):
        if self.min_segment_frames < 1:
            raise DataError(
                f"min_segment_frames must be >= 1, got {self.min_segment_frames}"
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
    min_segment_frames spare frames, an utterance takes O(E * slack) time;
    besides its cumulative sums and three float band rows, it keeps an array
    per element of a byte per window cell, two for an optional element,
    where a window is the band (slack + 1 cells) or its pruned part.
    Utterances are checked in input order as they are taken,
    ``_WINDOW`` at a time; a window is sorted by size and cut into chunks
    whose padded (E+1) x utterances x (slack+1) cells stay within
    ``_CHUNK_CELLS``, and each dynamic-program step runs once a chunk. An
    utterance over the budget alone drops each band cell whose score plus
    U(t), every later frame at its best column read, is below L - margin
    for a lower bound L on the optimum, so no near-best path, and no tie,
    loses a cell. Pass 1 guesses L = U(0) - kappa F; if its optimum falls
    short, pass 2 takes that score as L, or the full band if it found no
    path: at worst one pruned and one full pass. The margin, 1e-6 F |log
    PROB_FLOOR|, exceeds the rounding of the F-term sums.
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
    # utterance u, padded with log 1 = 0 so that every slab is in range.
    columns = max(pg.num_phones for pg in pgs)
    length = lo[-1] + width + 1
    cums = np.ones((num, columns, length))
    for u, pg in enumerate(pgs):
        cums[u, : pg.num_phones, 1 : pg.num_frames + 1] = pg.probs.T
    np.log(np.maximum(cums, PROB_FLOOR, out=cums), out=cums)
    flat = cums.reshape(-1, length)
    # phone[u, i]: element i's phone; row[i, u]: its row of ``flat``
    phone = np.full((num, num_elements), cfg.silence_index if silence else 0)
    for u, phones in enumerate(phone_lists):
        phone[u, silence :: 1 + silence][: len(phones)] = phones
    row = (phone + np.arange(num)[:, None] * columns).T.copy()
    pruned = num == 1 and (num_elements + 1) * width > _CHUNK_CELLS
    if pruned:
        # bound[t] = U(t), the most frames [t, F) can add to a path's score:
        # each at its best column the DP reads (found by a loop, as np.unique
        # or a gathered copy each left peak RSS about 0.5 MiB higher)
        peak = flat[row[0, 0]].copy()
        for r in set(row.flat):
            np.fmax(peak, flat[r], out=peak)
        bound = np.zeros(length)
        np.cumsum(peak[:0:-1], out=bound[-2::-1])
    np.cumsum(cums, axis=2, out=cums)

    def forward(thr):
        """spans and final scores; a cell under ``thr`` may be dropped."""
        # scores[i % 2] is best[i] while element i is taken; scores[2] is
        # scratch. Element i's running maximum of entry scores rises at
        # band cell k of its window; silence i is taken at k when it lifts
        # best[i + 1] there. spans[i] is (rise, took, w0, top): element i's
        # rise bits for cells [w0, end) and an optional element's took bits
        # for [w0, top), a row per active utterance (1-D for a lone row).
        scores = np.full((3, num, width), -np.inf)
        scores[0, :, 0] = 0.0
        spans = []
        # best[i] is -inf outside band cells [w0, w1)
        w0, w1, n = 0, width if thr is None else 1, 0
        for i in range(num_elements):
            a, b, m = lo[i], lo[i + 1], min_len[i]
            if active[i] != n:
                # A lone row is taken as 1-D, whose cumulative sums are a
                # view and whose ufunc calls cost less; more rows gather
                # their sums.
                n = active[i]
                rows = 0 if n == 1 else slice(0, n)
                parity = scores[0, rows], scores[1, rows]
                entry = scores[2, rows]
                index = row[:, 0].tolist() if n == 1 else row[:, :n]
            cur, nxt = parity[i % 2], parity[1 - i % 2]
            # one slab feeds both the entry scores and the segment scores
            slab = flat[index[i], a : b + width]
            run = entry[..., w0:w1]
            np.subtract(cur[..., w0:w1], slab[..., w0:w1], out=run)
            np.fmax.accumulate(run, axis=-1, out=run)
            # a segment ending at lo[i+1] + k starts at lo[i] + k - shift or
            # earlier. Pruned, best[i + 1][k] is high + cums for k >= w1, and
            # cums[c, t] + U(t) never rises with t: best[i + 1] keeps
            # [w0, top), where the cell at top fails the test.
            shift, top = a + m - b, width
            if thr is not None:
                high, c = entry.item(w1 - 1), index[i]
                top = min(width, w1 + shift + _REACH)
                if top < width and flat.item(c, b + top) + bound.item(b + top) >= thr - high:
                    tail = flat[c, b + top : b + width] + bound[b + top : b + width]
                    top += int(np.count_nonzero(tail >= thr - high))
                entry[w1 : top - shift] = high
                if shift:
                    cur[w1:top] = -np.inf
            end = max(w1, top - shift)
            rise = np.empty((n, end - w0) if n > 1 else end - w0, bool)
            rise[..., 0] = True  # cell w0 counts as a rise
            np.greater(entry[..., w0 + 1 : end], entry[..., w0 : end - 1], out=rise[..., 1:])
            if shift:
                nxt[..., w0] = -np.inf
            np.add(slab[..., w0 + m : top + m - shift], entry[..., w0 : top - shift],
                   out=nxt[..., w0 + shift : top])
            took = None
            if optional[i]:
                held, taken = cur[..., w0:top], nxt[..., w0:top]
                took = np.greater(taken, held)
                np.maximum(taken, held, out=taken)
            spans.append((rise, took, w0, top))
            w1 = top
            if thr is not None and i % _TRIM == _TRIM - 1:
                kept = np.flatnonzero(nxt[w0:w1] + bound[b + w0 : b + w1] >= thr)
                if not kept.size:
                    return spans, [-np.inf]
                w0, w1 = w0 + int(kept[0]), w0 + int(kept[-1]) + 1
        # no later step writes a finished row, so best[sizes[u]] is still there
        finals = scores[np.remainder(sizes, 2), range(num), np.subtract(widths, 1)]
        return spans, finals if w1 == width else [-np.inf]

    if pruned:
        frames = pgs[0].num_frames
        margin = 1e-6 * frames * -math.log(PROB_FLOOR)
        lower = bound[0] - _KAPPA * frames
        spans, finals = forward(lower - margin)
        if not finals[0] >= lower:
            del spans
            spans, finals = forward(finals[0] - margin if finals[0] > -np.inf else None)
    else:
        spans, finals = forward(None)
    if not np.isfinite(finals).all():
        raise DataError("infeasible: no legal segmentation")

    # Backtrack: ends[u] is where utterance u's next segment (in reverse)
    # ends. It starts where entry[w0 : top + 1] first peaks, top = ends[u] -
    # lo[i] - min_len[i]: at the last rise at or before top. That segment
    # ends on a cell of best[i + 1] that step i wrote, so top lies in the
    # window [w0, end) and, for a silence (lo[i + 1] == lo[i]), ends[u] - lo[i]
    # lies in [w0, top).
    ends = [pg.num_frames for pg in pgs]
    falling = np.arange(width - 1, -1, -1)
    found = []  # (row, element, start) of each segment
    for i in range(num_elements - 1, -1, -1):
        a, n, m = lo[i], active[i], min_len[i]
        rise, took, w0, top = spans[i]
        rows, offsets = range(n), ()
        if optional[i]:  # a tie leaves the silence out (a flat index reads either shape)
            rows = [u for u in rows if took.item(u * (top - w0) + ends[u] - a - w0)]
        if len(rows) == 1:
            t = ends[rows[0]] - a - m - w0
            seen = rise[rows[0], t::-1] if n > 1 else rise[t::-1]
            offsets = (w0 + t - int(seen.argmax()),)
        elif rows:
            tops = [ends[u] - a - m - w0 for u in rows]
            t = max(tops)
            seen = rise[:, t::-1] if len(rows) == n else rise[rows, t::-1]
            seen = seen & (falling[-t - 1 :] <= np.array(tops)[:, None])
            offsets = (w0 + t - seen.argmax(axis=1)).tolist()
        for u, k in zip(rows, offsets):
            ends[u] = a + k
            found.append((u, i, a + k))
    rows, elements, starts = zip(*found)
    return np.take(positions, rows), phone[rows, elements], np.array(starts)


def align(
    pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig = AlignConfig()
) -> Alignment:
    """Best monotone segmentation of ``phones`` over the posteriorgram.

    ``align_utterances`` on this one utterance, as an ``Alignment``: O(E *
    slack) time, and per element an array of one or two bytes per window cell.
    A long utterance runs on a pruned band with the full band's segments;
    its windows hold about a fifth of the band's cells.
    """
    cols = align_utterances([("", pg, phones)], cfg)
    return Alignment(tuple(map(PhoneSegment, cols.phone.tolist(),
                               cols.start.tolist(), cols.length.tolist())))

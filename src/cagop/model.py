"""Core domain types: phone sets, posteriorgrams, segments, alignments, reports.

Everything here is immutable after construction and safe to share across
workers, except that ``normalize_posteriors`` renormalizes near-one rows
in place. Probabilities are stored and computed in float64; storage formats
may be narrower (see formats module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, pairwise
from typing import Iterable, Optional, Sequence

import numpy as np

ROW_SUM_TOL = 1e-6
PROB_FLOOR = 1e-10
DEFAULT_FRAME_SHIFT_MS = 30.0


class CagopError(Exception):
    """Base class for all library errors."""


class DataError(CagopError):
    """Invalid input data: bad values, bad formats, infeasible requests."""


class FormatError(DataError):
    """A file does not conform to its documented format."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class NumericError(CagopError):
    """Numerical failure: NaN losses, divergence."""


@dataclass(frozen=True)
class PhoneSet:
    """Ordered phone inventory; indices are positions in ``phones``."""

    phones: tuple[str, ...]
    silence_index: Optional[int] = None

    def __post_init__(self):
        if not self.phones:
            raise DataError("phone set is empty")
        object.__setattr__(self, "phones", tuple(self.phones))
        for label in self.phones:
            if not label or label != label.strip():
                raise DataError(f"bad phone label {label!r}")
        index = {label: i for i, label in enumerate(self.phones)}
        if len(index) != len(self.phones):
            raise DataError("duplicate phone labels")
        object.__setattr__(self, "_index", index)
        if self.silence_index is not None and not (
            0 <= self.silence_index < len(self.phones)
        ):
            raise DataError(f"silence index {self.silence_index} out of range")

    def __len__(self) -> int:
        return len(self.phones)

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.phones):
            raise DataError(f"phone index {index} out of range")
        return self.phones[index]

    def index(self, label: str) -> int:
        return self.indices((label,))[0]

    def indices(self, labels: Iterable[str]) -> list[int]:
        try:
            return list(map(self._index.__getitem__, labels))
        except KeyError as exc:
            raise DataError(f"unknown phone label {exc.args[0]!r}") from None

    def is_silence(self, index: int) -> bool:
        return self.silence_index is not None and index == self.silence_index


@dataclass(frozen=True)
class Posteriorgram:
    """F x |A| matrix of per-frame phone posteriors plus frame metadata."""

    probs: np.ndarray
    frame_shift_ms: float = DEFAULT_FRAME_SHIFT_MS

    def __post_init__(self):
        # The object's own float64 copy, converted and copied in one step.
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise DataError(f"posteriorgram must be 2-D, got shape {probs.shape}")
        if probs.shape[0] < 1 or probs.shape[1] < 1:
            raise DataError(f"posteriorgram must be non-empty, got shape {probs.shape}")
        if not (math.isfinite(self.frame_shift_ms) and self.frame_shift_ms > 0):
            raise DataError(
                f"frame shift must be finite and positive, got {self.frame_shift_ms}"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def num_phones(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class PhoneSegment:
    """A run of frames assigned to one phone."""

    phone: int
    start: int
    length: int

    def __post_init__(self):
        if self.phone < 0:
            raise DataError(f"negative phone index {self.phone}")
        if self.start < 0:
            raise DataError(f"negative segment start {self.start}")
        if self.length < 1:
            raise DataError(f"segment length must be >= 1, got {self.length}")

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class Alignment:
    """Ordered, non-overlapping phone segments over one utterance."""

    segments: tuple[PhoneSegment, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if not segments:
            raise DataError("alignment has no segments")
        for prev, cur in zip(segments, segments[1:]):
            if cur.start < prev.end:
                raise DataError(
                    f"overlapping segments: [{prev.start},{prev.end}) then "
                    f"[{cur.start},{cur.end})"
                )

    def non_silence(self, phone_set: PhoneSet) -> tuple[PhoneSegment, ...]:
        return tuple(s for s in self.segments if not phone_set.is_silence(s.phone))

    def phone_sequence(self, phone_set: PhoneSet) -> tuple[int, ...]:
        """Reference phone order implied by the alignment, silences dropped."""
        return tuple(s.phone for s in self.non_silence(phone_set))


@dataclass(frozen=True, eq=False)
class SegmentColumns:
    """Phone segments of many utterances, one int64 array per field.

    The first ``counts[0]`` rows are ``utterance_ids[0]``'s segments, in
    order, and so on. This class alone maps rows to utterances, in
    ``bounds``, ``row_ids``, ``positions``, ``split``, ``speech`` and
    ``alignments``. The constructor rejects counts that miss a row or run
    past the last one, a negative phone or start, and a length below 1,
    with a ``DataError`` naming the utterance.
    """

    utterance_ids: tuple[str, ...]
    counts: np.ndarray
    phone: np.ndarray
    start: np.ndarray
    length: np.ndarray

    def __post_init__(self):
        ids, counts, rows = self.utterance_ids, self.counts, len(self.phone)
        if not (len(counts) == len(ids) and
                len(self.start) == len(self.length) == rows):
            raise DataError(f"{len(counts)} counts for {len(ids)} utterances, "
                            f"columns of {rows}, {len(self.start)} and "
                            f"{len(self.length)} rows")
        ends = np.cumsum(counts)
        bad = np.flatnonzero((counts < 0) | (ends > rows))
        if bad.size:
            k = int(bad[0])
            raise DataError(f"{ids[k]!r} has {counts[k]} rows from row "
                            f"{ends[k] - counts[k]}, of {rows} rows")
        if counts.sum() < rows:
            raise DataError(f"{rows - counts.sum()} rows belong to no "
                            "utterance")
        for column, low, what in ((self.phone, 0, "phone index"),
                                  (self.start, 0, "segment start"),
                                  (self.length, 1, "segment length")):
            if rows and column.min() < low:
                r = int(np.argmax(column < low))
                raise DataError(f"{what} {column[r]} is below {low} in "
                                f"{ids[np.searchsorted(ends, r, 'right')]!r}")

    @classmethod
    def from_alignments(
        cls, entries: Iterable[tuple[str, Alignment]]
    ) -> "SegmentColumns":
        ids, alignments = tuple(zip(*entries)) or ((), ())
        rows = [(s.phone, s.start, s.length) for a in alignments
                for s in a.segments]
        counts = np.array([len(a.segments) for a in alignments], np.int64)
        return cls(ids, counts, *np.array(rows, np.int64).reshape(-1, 3).T)

    def alignments(self) -> list[tuple[str, Alignment]]:
        """``(utt_id, Alignment)`` pairs, as ``from_alignments`` takes."""
        rows = list(map(PhoneSegment, self.phone.tolist(), self.start.tolist(),
                        self.length.tolist()))
        return list(zip(self.utterance_ids, map(Alignment, self.split(rows))))

    def row_ids(self) -> tuple[str, ...]:
        """The utterance id of each row."""
        ids, counts = self.utterance_ids, self.counts.tolist()
        return tuple([u for u, n in zip(ids, counts) for _ in range(n)])

    def positions(self) -> tuple[int, ...]:
        """Each row's position among its utterance's rows, from 0."""
        return tuple([k for n in self.counts.tolist() for k in range(n)])

    def non_silence(self, phone_set: PhoneSet) -> "SegmentColumns":
        """The same utterances without their silence rows; counts may be 0."""
        if phone_set.silence_index is None:
            return self
        keep = self.phone != phone_set.silence_index
        owner = np.repeat(np.arange(len(self.counts)), self.counts)
        counts = np.bincount(owner[keep], minlength=len(self.counts))
        return SegmentColumns(self.utterance_ids, counts, self.phone[keep],
                              self.start[keep], self.length[keep])

    def speech(self, phone_set: PhoneSet) -> "SegmentColumns":
        """The non-silence rows of the utterances that have any."""
        cols = self.non_silence(phone_set)
        kept = cols.counts > 0
        return SegmentColumns(tuple(compress(cols.utterance_ids, kept)),
                              cols.counts[kept], cols.phone, cols.start,
                              cols.length)

    def bounds(self) -> list[int]:
        """Row offsets: utterance k has rows ``bounds[k]:bounds[k + 1]``."""
        return [0, *np.cumsum(self.counts).tolist()]

    def split(self, values: Sequence) -> list:
        """``values``, one per row, cut into one slice per utterance."""
        return [values[a:b] for a, b in pairwise(self.bounds())]


def utterance_speeds(length: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each utterance's speed: the mean length of its non-silence segments.

    ``length`` holds every utterance's lengths back to back, ``counts[k]``
    (> 0) of them for utterance k. Integer lengths sum exactly, so each
    speed equals ``np.mean`` of its lengths bit for bit.
    """
    return np.add.reduceat(length, np.cumsum(counts) - counts) / counts


@dataclass(frozen=True)
class PhoneScore:
    """Per-phone scoring record. ``score`` is the configured variant's value."""

    phone: int
    segment: PhoneSegment
    gop: float
    center_gop: float
    tascore: float
    delta: Optional[float]
    score: float


@dataclass(frozen=True)
class ScoreReport:
    """Scores for every non-silence reference phone plus the sentence mean."""

    utterance_id: str
    variant: str
    per_phone: tuple[PhoneScore, ...]
    sentence_score: float

    def __post_init__(self):
        object.__setattr__(self, "per_phone", tuple(self.per_phone))
        if not self.per_phone:
            raise DataError(f"empty score report for {self.utterance_id!r}")
        mean = float(np.mean([r.score for r in self.per_phone]))
        if abs(mean - self.sentence_score) > 1e-12:
            raise DataError(
                f"sentence score {self.sentence_score} is not the per-phone mean {mean}"
            )

    @property
    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.per_phone], dtype=np.float64)


def validate_posteriorgram(pg: Posteriorgram, phone_set: PhoneSet) -> Posteriorgram:
    """``normalize_posteriors(pg)``, once its columns match ``phone_set``."""
    if pg.num_phones != len(phone_set):
        raise DataError(
            f"posteriorgram has {pg.num_phones} phone columns, "
            f"phone set has {len(phone_set)}"
        )
    return normalize_posteriors(pg)


def normalize_posteriors(pg: Posteriorgram) -> Posteriorgram:
    """Check that each row of ``pg`` is a distribution; returns ``pg``.

    Rows whose sums are within ``ROW_SUM_TOL`` of 1 are divided by their
    sums in place, so they sum to 1 to within 1e-15 and no value moves by
    more than that tolerance; anything worse is an error.
    """
    probs = pg.probs
    # NaN fails these comparisons too, so one min and one max scan suffice
    if not 0.0 <= probs.min() <= probs.max() <= 1.0:
        bad = ~np.isfinite(probs)
        what = "non-finite posterior" if bad.any() else "posterior outside [0, 1]"
        bad = np.argwhere(bad if bad.any() else (probs < 0) | (probs > 1))
        raise DataError(f"{what} at frame {int(bad[0][0])}")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(off):
        bad = int(np.argmax(off))
        raise DataError(
            f"row {bad} sums to {sums[bad]:.8f}, outside tolerance {ROW_SUM_TOL}"
        )
    probs.setflags(write=True)
    np.divide(probs, sums[:, None], out=probs)
    probs.setflags(write=False)
    return pg


def slice_segment(pg: Posteriorgram, seg: PhoneSegment) -> np.ndarray:
    """Rows ``seg.start .. seg.end`` of the posteriorgram."""
    if seg.end > pg.num_frames:
        raise DataError(
            f"segment [{seg.start},{seg.end}) exceeds {pg.num_frames} frames"
        )
    return pg.probs[seg.start : seg.end]

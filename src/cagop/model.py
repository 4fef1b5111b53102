"""Core domain types: phone sets, posteriorgrams, segments, alignments, reports.

Everything here is immutable after construction and safe to share across
workers. Probabilities are stored and computed in float64; storage formats
may be narrower (see formats module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
        if len(set(self.phones)) != len(self.phones):
            raise DataError("duplicate phone labels")
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
        try:
            return self.phones.index(label)
        except ValueError:
            raise DataError(f"unknown phone label {label!r}") from None

    def is_silence(self, index: int) -> bool:
        return self.silence_index is not None and index == self.silence_index


@dataclass(frozen=True)
class Posteriorgram:
    """F x |A| matrix of per-frame phone posteriors plus frame metadata."""

    probs: np.ndarray
    frame_shift_ms: float = DEFAULT_FRAME_SHIFT_MS

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise DataError(f"posteriorgram must be 2-D, got shape {probs.shape}")
        if probs.shape[0] < 1 or probs.shape[1] < 1:
            raise DataError(f"posteriorgram must be non-empty, got shape {probs.shape}")
        if not (math.isfinite(self.frame_shift_ms) and self.frame_shift_ms > 0):
            raise DataError(
                f"frame shift must be finite and positive, got {self.frame_shift_ms}"
            )
        probs = probs.copy()
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

    @property
    def num_frames(self) -> int:
        return self.segments[-1].end

    def non_silence(self, phone_set: PhoneSet) -> tuple[PhoneSegment, ...]:
        return tuple(s for s in self.segments if not phone_set.is_silence(s.phone))

    def phone_sequence(self, phone_set: PhoneSet) -> tuple[int, ...]:
        """Reference phone order implied by the alignment, silences dropped."""
        return tuple(s.phone for s in self.non_silence(phone_set))


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
    """Check posteriorgram invariants against ``phone_set``.

    Rows whose sums are within ``ROW_SUM_TOL`` of 1 are renormalized to sum
    to 1 (to within 1e-15); anything worse is an error. Returns the input
    object unchanged when nothing needed fixing.
    """
    probs = pg.probs
    if probs.shape[1] != len(phone_set):
        raise DataError(
            f"posteriorgram has {probs.shape[1]} phone columns, "
            f"phone set has {len(phone_set)}"
        )
    if not np.all(np.isfinite(probs)):
        bad = int(np.argwhere(~np.isfinite(probs))[0][0])
        raise DataError(f"non-finite posterior at frame {bad}")
    if np.any(probs < 0) or np.any(probs > 1):
        bad = int(np.argwhere((probs < 0) | (probs > 1))[0][0])
        raise DataError(f"posterior outside [0, 1] at frame {bad}")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(off):
        bad = int(np.argmax(off))
        raise DataError(
            f"row {bad} sums to {sums[bad]:.8f}, outside tolerance {ROW_SUM_TOL}"
        )
    if np.all(sums == 1.0):
        return pg
    return Posteriorgram(probs / sums[:, None], frame_shift_ms=pg.frame_shift_ms)


def slice_segment(pg: Posteriorgram, seg: PhoneSegment) -> np.ndarray:
    """Rows ``seg.start .. seg.end`` of the posteriorgram."""
    if seg.end > pg.num_frames:
        raise DataError(
            f"segment [{seg.start},{seg.end}) exceeds {pg.num_frames} frames"
        )
    return pg.probs[seg.start : seg.end]

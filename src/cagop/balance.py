"""Duration tolerance factors and the duration mismatch term.

A fitted table maps (phone, speed bucket) to a tolerance T = mean + 1.5 *
population std of the absolute duration error seen for that cell, with
per-phone and global fallbacks for sparse cells. The mismatch of an
observed phone is then |aligned - predicted| - T; negative means the
duration is within normal variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import DataError

DEFAULT_BUCKET_WIDTH = 1.0
DEFAULT_BUCKET_RANGE = (2, 20)
MIN_CELL_COUNT = 5
STD_WEIGHT = 1.5


def _check_buckets(bucket_width: float, bucket_range: tuple[int, int]) -> None:
    if not (math.isfinite(bucket_width) and bucket_width > 0):
        raise DataError(
            f"bucket_width must be finite and positive, got {bucket_width}"
        )
    if bucket_range[0] > bucket_range[1]:
        raise DataError(f"bucket_range is inverted: {bucket_range}")


def speed_bucket(
    speed,
    bucket_width: float = DEFAULT_BUCKET_WIDTH,
    bucket_range: tuple[int, int] = DEFAULT_BUCKET_RANGE,
):
    """Clamped round-half-up bucket index of a speed in frames (or array)."""
    _check_buckets(bucket_width, bucket_range)
    speed = np.asarray(speed, dtype=np.float64)
    if not np.isfinite(speed).all():
        raise DataError(f"speed must be finite, got {speed}")
    # floor(x + 0.5) rather than round(): no banker's rounding surprises
    index = np.minimum(np.maximum(np.floor(speed / bucket_width + 0.5),
                                  bucket_range[0]), bucket_range[1])
    return index.astype(np.int64) if index.ndim else int(index)


@dataclass(frozen=True)
class BalanceTable:
    entries: Mapping[tuple[int, int], float]
    phone_backoff: Mapping[int, float]
    global_backoff: float
    bucket_width: float = DEFAULT_BUCKET_WIDTH
    bucket_range: tuple[int, int] = DEFAULT_BUCKET_RANGE

    def __post_init__(self):
        _check_buckets(self.bucket_width, self.bucket_range)
        for t in list(self.entries.values()) + list(self.phone_backoff.values()):
            if t < 0 or not np.isfinite(t):
                raise DataError(f"tolerance must be finite and >= 0, got {t}")
        if self.global_backoff < 0 or not np.isfinite(self.global_backoff):
            raise DataError(
                f"global tolerance must be finite and >= 0, got {self.global_backoff}"
            )
        # The backoff resolved once into a (phone x bucket) grid: a column
        # per in-range bucket that has a cell, then one for every other
        # bucket; phones past the largest one named read its last, global, row.
        named = [*self.phone_backoff, *(phone for phone, _ in self.entries)]
        if min(named, default=0) < 0:
            raise DataError(f"negative phone index {min(named)}")
        lo, hi = self.bucket_range
        cells = {key: t for key, t in self.entries.items() if lo <= key[1] <= hi}
        buckets = np.array(sorted({b for _, b in cells}), np.int64)
        grid = np.full((max(named, default=-1) + 2, buckets.size + 1),
                       self.global_backoff)
        for phone, tolerance in self.phone_backoff.items():
            grid[phone] = tolerance
        for (phone, bucket), tolerance in cells.items():
            grid[phone, np.searchsorted(buckets, bucket)] = tolerance
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_buckets", buckets)


def _tolerance(errors: Sequence[float]) -> float:
    # Sorting first makes the sum independent of corpus record order.
    arr = np.sort(np.asarray(errors, dtype=np.float64))
    return float(arr.mean() + STD_WEIGHT * arr.std())


def _grouped_tolerances(keys: np.ndarray, errors: np.ndarray, min_count: int):
    """key -> ``_tolerance`` of its errors, for keys seen min_count times.

    One sort by (key, error) leaves each key's errors contiguous and
    already in the order ``_tolerance`` sums them in.
    """
    order = np.lexsort((errors, keys))
    errors = errors[order]
    return {key: _tolerance(errors[a:b])
            for key, a, b in runs(keys[order]) if b - a >= min_count}


def runs(keys: np.ndarray) -> list[tuple[int, int, int]]:
    """``(key, first, end)`` of each run of equal values in sorted ``keys``."""
    firsts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]).tolist()
    return list(zip(keys[firsts].tolist(), firsts, [*firsts[1:], len(keys)]))


def fit_balance_table(
    phones: Sequence[int],
    lengths: Sequence[float],
    predicted: Sequence[float],
    speeds: Sequence[float],
    bucket_width: float = DEFAULT_BUCKET_WIDTH,
    bucket_range: tuple[int, int] = DEFAULT_BUCKET_RANGE,
    min_count: int = MIN_CELL_COUNT,
) -> BalanceTable:
    """Fit per-(phone, speed-bucket) tolerances with two-level backoff.

    The four columns hold one entry per aligned phone: its phone, aligned
    length, positive predicted duration, and its utterance's speed
    (``utterance_speeds``), which is also the speed scoring looks its
    tolerances up by. Cells with fewer than min_count observations are
    dropped; lookups for them fall back to the phone-level tolerance and
    then to the global one.
    """
    phones = np.asarray(phones, dtype=np.int64)
    columns = [np.asarray(c, dtype=np.float64)
               for c in (lengths, predicted, speeds)]
    if not phones.size:
        raise DataError("cannot fit a balance table from an empty corpus")
    if any(c.shape != phones.shape for c in columns):
        raise DataError("phone, length, prediction and speed columns differ "
                        f"in length: {[len(c) for c in (phones, *columns)]}")
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    lengths, predicted, speeds = columns
    if not (predicted > 0).all():
        raise DataError("predicted durations must be positive")
    errors = np.abs(lengths - predicted)
    buckets = speed_bucket(speeds, bucket_width, bucket_range)
    lo, width = bucket_range[0], bucket_range[1] - bucket_range[0] + 1
    cells = _grouped_tolerances(phones * width + (buckets - lo), errors,
                                min_count)
    return BalanceTable(
        entries={(cell // width, cell % width + lo): t
                 for cell, t in cells.items()},
        phone_backoff=_grouped_tolerances(phones, errors, 1),
        global_backoff=_tolerance(errors),
        bucket_width=bucket_width,
        bucket_range=bucket_range,
    )


def lookup_tolerance(table: BalanceTable, phone: int, speed: float) -> float:
    """Cell tolerance, else phone backoff, else the global value."""
    bucket = speed_bucket(speed, table.bucket_width, table.bucket_range)
    cell = table.entries.get((phone, bucket))
    if cell is not None:
        return cell
    phone_level = table.phone_backoff.get(phone)
    if phone_level is not None:
        return phone_level
    return table.global_backoff


def lookup_tolerances(
    table: BalanceTable, phones: np.ndarray, speeds: np.ndarray
) -> np.ndarray:
    """``lookup_tolerance`` of each (phone, speed) pair, by one index."""
    grid, named = table._grid, table._buckets
    buckets = speed_bucket(speeds, table.bucket_width, table.bucket_range)
    columns = np.where(np.isin(buckets, named),
                       np.searchsorted(named, buckets), named.size)
    return grid[np.minimum(phones, len(grid) - 1), columns]


def delta(d_align: float, d_pred: float, tolerance: float) -> float:
    """Duration mismatch |d_align - d_pred| - tolerance; negative is normal."""
    return abs(d_align - d_pred) - tolerance

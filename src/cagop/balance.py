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

from .duration.net import DurationSample
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
        # The backoff resolved once into a dense (phone x bucket) grid;
        # phones past the largest one named read its last, global, row.
        named = [*self.phone_backoff, *(phone for phone, _ in self.entries)]
        if min(named, default=0) < 0:
            raise DataError(f"negative phone index {min(named)}")
        lo, hi = self.bucket_range
        grid = np.full((max(named, default=-1) + 2, hi - lo + 1),
                       self.global_backoff)
        for phone, tolerance in self.phone_backoff.items():
            grid[phone] = tolerance
        for (phone, bucket), tolerance in self.entries.items():
            if lo <= bucket <= hi:
                grid[phone, bucket - lo] = tolerance
        object.__setattr__(self, "_grid", grid)


def _tolerance(errors: Sequence[float]) -> float:
    # Sorting first makes the sum independent of corpus record order.
    arr = np.sort(np.asarray(errors, dtype=np.float64))
    return float(arr.mean() + STD_WEIGHT * arr.std())


def fit_balance_table(
    samples: Sequence[DurationSample],
    predicted: Sequence[Sequence[float]],
    bucket_width: float = DEFAULT_BUCKET_WIDTH,
    bucket_range: tuple[int, int] = DEFAULT_BUCKET_RANGE,
    min_count: int = MIN_CELL_COUNT,
) -> BalanceTable:
    """Fit per-(phone, speed-bucket) tolerances with two-level backoff.

    ``predicted`` holds one positive prediction per phone of each sample.
    A sample is bucketed by its speed, the mean aligned duration, which is
    also the speed scoring looks its tolerances up by. Cells with fewer
    than min_count observations are dropped; lookups for them fall back to
    the phone-level tolerance and then to the global one.
    """
    if not samples:
        raise DataError("cannot fit a balance table from an empty corpus")
    if len(predicted) != len(samples):
        raise DataError(
            f"{len(predicted)} prediction sequences for {len(samples)} samples"
        )
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    by_cell: dict[tuple[int, int], list[float]] = {}
    by_phone: dict[int, list[float]] = {}
    everything: list[float] = []
    buckets = speed_bucket([s.speed for s in samples], bucket_width,
                           bucket_range).tolist()
    for sample, preds, bucket in zip(samples, predicted, buckets):
        preds = [float(p) for p in preds]
        if len(preds) != len(sample):
            raise DataError(f"{len(preds)} predictions for {len(sample)} phones")
        if not all(p > 0 for p in preds):
            raise DataError("predicted durations must be positive")
        for phone, d_align, d_pred in zip(sample.phones, sample.durations, preds):
            err = abs(d_align - d_pred)
            by_cell.setdefault((phone, bucket), []).append(err)
            by_phone.setdefault(phone, []).append(err)
            everything.append(err)
    entries = {
        cell: _tolerance(errs)
        for cell, errs in by_cell.items()
        if len(errs) >= min_count
    }
    phone_backoff = {phone: _tolerance(errs) for phone, errs in by_phone.items()}
    return BalanceTable(
        entries=entries,
        phone_backoff=phone_backoff,
        global_backoff=_tolerance(everything),
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
    grid = table._grid
    buckets = speed_bucket(speeds, table.bucket_width, table.bucket_range)
    return grid[np.minimum(phones, len(grid) - 1),
                buckets - table.bucket_range[0]]


def delta(d_align: float, d_pred: float, tolerance: float) -> float:
    """Duration mismatch |d_align - d_pred| - tolerance; negative is normal."""
    return abs(d_align - d_pred) - tolerance

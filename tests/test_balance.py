"""Duration tolerance fitting, speed bucketing, and the mismatch measure."""

import numpy as np
import pytest

from cagop import (
    BalanceTable,
    delta,
    fit_balance_table,
    lookup_tolerance,
    speed_bucket,
    utterance_speeds,
)
from cagop.model import DataError


def columns(rows):
    """Per-phone columns of (phones, aligned, predicted) utterance rows."""
    counts = [len(aligned) for _, aligned, _ in rows]
    phones, aligned, predicted = (
        np.concatenate([np.asarray(row[k], dtype=float) for row in rows])
        for k in range(3))
    speeds = np.repeat(utterance_speeds(aligned, counts), counts)
    return phones.astype(int), aligned, predicted, speeds


def fit(rows, **kwargs):
    """Table fitted on (phones, aligned, predicted) rows, one per utterance."""
    return fit_balance_table(*columns(rows), **kwargs)


def rec(phone, aligned, predicted):
    return [phone] * len(aligned), [float(a) for a in aligned], predicted


def test_constant_errors_fit_to_that_error():
    # std of identical values is zero, so T collapses to the error itself
    table = fit([rec(1, [6, 6, 6, 6, 6], [4, 4, 4, 4, 4])])
    assert lookup_tolerance(table, 1, 6.0) == 2.0
    assert table.global_backoff == 2.0


def test_two_error_fixture_mean_plus_std():
    # errors {1, 3}: mean 2, population std 1, T = 3.5
    table = fit([rec(2, [5, 7], [4, 4])], min_count=2)
    assert abs(lookup_tolerance(table, 2, 6.0) - 3.5) <= 1e-12
    assert abs(table.global_backoff - 3.5) <= 1e-12


def test_fit_matches_numpy_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        errs = np.abs(rng.normal(0.0, 3.0, size=40))
        aligned = 6.0 + errs
        table = fit([rec(0, aligned, [6.0] * 40)])
        expected = errs.mean() + 1.5 * errs.std()
        speed = float(np.mean(aligned))
        assert abs(lookup_tolerance(table, 0, speed) - expected) <= 1e-12


def test_record_order_does_not_matter():
    rng = np.random.default_rng(77)
    records = []
    for _ in range(30):
        phone = int(rng.integers(0, 4))
        n = int(rng.integers(1, 6))
        aligned = rng.uniform(2, 12, size=n)
        predicted = rng.uniform(2, 12, size=n)
        records.append(rec(phone, aligned, predicted.tolist()))
    base = fit(records)
    for seed in range(5):
        shuffled = list(records)
        np.random.default_rng(seed).shuffle(shuffled)
        other = fit(shuffled)
        assert other.entries == base.entries
        assert other.phone_backoff == base.phone_backoff
        assert other.global_backoff == base.global_backoff


def test_sparse_cell_falls_back_to_phone():
    # phone 1: five observations at speed 6, two at speed 9
    records = [
        rec(1, [6, 6, 6, 6, 6], [5, 5, 5, 5, 5]),
        rec(1, [9, 9], [5, 5]),
    ]
    table = fit(records, min_count=5)
    assert (1, speed_bucket(9.0)) not in table.entries
    got = lookup_tolerance(table, 1, 9.0)
    assert got == table.phone_backoff[1]
    # phone backoff pools both cells: errors 1x5 and 4x2
    errs = np.array([1, 1, 1, 1, 1, 4, 4], dtype=float)
    assert abs(got - (errs.mean() + 1.5 * errs.std())) <= 1e-12


def test_unseen_phone_falls_back_to_global():
    table = fit([rec(0, [6, 6, 6, 6, 6], [5, 5, 5, 5, 5])])
    assert lookup_tolerance(table, 3, 6.0) == table.global_backoff


def test_tolerances_are_nonnegative():
    rng = np.random.default_rng(123)
    records = []
    for _ in range(50):
        n = int(rng.integers(1, 7))
        records.append((
            rng.integers(0, 5, size=n).tolist(),
            rng.uniform(1, 15, size=n).tolist(),
            rng.uniform(1, 15, size=n).tolist(),
        ))
    table = fit(records)
    assert table.global_backoff >= 0.0
    assert all(v >= 0.0 for v in table.entries.values())
    assert all(v >= 0.0 for v in table.phone_backoff.values())


def test_gaussian_errors_rarely_exceed_their_tolerance():
    # mean + 1.5 std leaves only a small tail above T
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        errs = np.abs(rng.normal(0.0, 2.0, size=300))
        table = fit([rec(0, 6.0 + errs, [6.0] * 300)])
        t = lookup_tolerance(table, 0, float(np.mean(6.0 + errs)))
        assert (errs > t).mean() <= 0.15


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        fit_balance_table([], [], [], [])


def test_record_length_mismatch_rejected():
    phones, aligned, _, speeds = columns([((0, 1), (5.0, 4.0), (4.0, 4.0))])
    with pytest.raises(DataError, match=r"in length: \[2, 2, 1, 2\]"):
        fit_balance_table(phones, aligned, [4.0], speeds)


def test_prediction_count_must_match_samples():
    phones, aligned, predicted, _ = columns([((0, 1), (5.0, 4.0), (4.0, 4.0))])
    with pytest.raises(DataError, match=r"in length: \[2, 2, 2, 1\]"):
        fit_balance_table(phones, aligned, predicted, [4.5])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_predictions_must_be_positive(bad):
    with pytest.raises(DataError, match="positive"):
        fit([((0, 1), (5.0, 4.0), (4.0, bad))])


def test_samples_are_bucketed_by_their_mean_duration():
    # mean duration 8.5 rounds to bucket 9, whatever the phone lengths
    table = fit([rec(1, [8, 9] * 3, [7] * 6)])
    assert set(table.entries) == {(1, 9)}


def test_bucket_rounds_to_nearest():
    assert speed_bucket(5.0) == 5
    assert speed_bucket(5.4) == 5
    assert speed_bucket(5.5) == 6
    assert speed_bucket(4.6) == 5


def test_bucket_clamps_to_range():
    assert speed_bucket(0.3) == 2
    assert speed_bucket(57.0) == 20


@pytest.mark.parametrize("entries, backoff", [({(-1, 5): 1.0}, {}),
                                              ({}, {-2: 1.0})])
def test_table_rejects_negative_phones(entries, backoff):
    with pytest.raises(DataError, match="negative phone index"):
        BalanceTable(entries=entries, phone_backoff=backoff,
                     global_backoff=1.0)


def test_bucket_of_an_array_is_the_bucket_of_each_speed():
    speeds = [0.3, 1.49, 1.5, 4.6, 5.4, 5.5, 19.49, 19.5, 57.0]
    got = speed_bucket(np.array(speeds))
    assert got.dtype == np.int64
    assert got.tolist() == [speed_bucket(s) for s in speeds]
    assert type(speed_bucket(5.0)) is int


@pytest.mark.parametrize("speed", [float("nan"), float("inf")])
def test_bucket_requires_a_finite_speed(speed):
    with pytest.raises(DataError, match="speed must be finite"):
        speed_bucket(speed)
    with pytest.raises(DataError, match="speed must be finite"):
        speed_bucket([4.0, speed])


@pytest.mark.parametrize("bucket", [1, 21, -3])
def test_table_rejects_a_cell_outside_the_bucket_range(bucket):
    with pytest.raises(DataError, match=f"bucket {bucket} of phone 1 lies "
                                        "outside 2-20"):
        BalanceTable({(1, 2): 1.0, (1, 20): 1.0, (1, bucket): 1.0}, {}, 1.0)


def test_delta_zero_mismatch_is_minus_tolerance():
    for x in (1.0, 4.0, 9.5, 20.0):
        for t in (0.0, 1.5, 3.25):
            assert delta(x, x, t) == -t


def test_delta_fixture_values():
    assert delta(10.0, 8.0, 1.5) == 0.5
    assert delta(8.0, 10.0, 1.5) == delta(10.0, 8.0, 1.5)

"""Correlation, detection, and duration-error metrics against oracles."""

import numpy as np
import pytest
from scipy import stats

from cagop.metrics import (
    ConfusionCounts,
    accuracy,
    confusion_counts,
    f1_score,
    mae_frames,
    mae_ms,
    mean_rater_correlation,
    pearson,
    rankdata,
    spearman,
)
from cagop.model import DataError


def test_pearson_identity():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_affine_anticorrelation():
    x = [0.5, 1.0, 4.0, 9.0]
    y = [-2 * v + 7 for v in x]
    assert pearson(x, y) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_fixture():
    assert abs(pearson([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-9


def test_pearson_rejects_constant_input():
    with pytest.raises(DataError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        pearson([1.0, 2.0], [5.0, 5.0])


def test_pearson_needs_two_points():
    with pytest.raises(DataError):
        pearson([1.0], [2.0])


def test_pearson_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        assert -1.0 <= pearson(x, y) <= 1.0


def test_pearson_positive_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=10)
    y = rng.normal(size=10)
    base = pearson(x, y)
    assert pearson(3.0 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(x, 0.5 * y - 4.0) == pytest.approx(base, abs=1e-12)


def test_rank_average_ties_fixture():
    assert np.array_equal(rankdata([1.0, 1.0, 2.0]), [1.5, 1.5, 3.0])


def test_ranks_match_scipy_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(25):
        vals = rng.integers(0, 5, size=12).astype(float)
        assert np.array_equal(rankdata(vals), stats.rankdata(vals))


def test_spearman_rank_invariance():
    x = [0.1, 0.7, 1.3, 2.0, 5.0]
    y = [np.exp(v) for v in x]  # strictly increasing transform
    assert spearman(x, y) == pytest.approx(1.0, abs=1e-12)


def test_spearman_hand_fixture():
    assert abs(spearman([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-9


def test_spearman_is_exactly_pearson_of_ranks():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.integers(0, 6, size=10).astype(float)  # ties guaranteed
        y = rng.normal(size=10)
        if len(set(x.tolist())) < 2:
            continue
        assert spearman(x, y) == pearson(rankdata(x), rankdata(y))


def test_correlations_match_scipy():
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=14)
        y = 0.6 * x + rng.normal(size=14)
        assert abs(pearson(x, y) - stats.pearsonr(x, y).statistic) <= 1e-12
        assert abs(spearman(x, y) - stats.spearmanr(x, y).statistic) <= 1e-12
        xt = rng.integers(0, 4, size=14).astype(float)
        assert abs(spearman(xt, y) - stats.spearmanr(xt, y).statistic) <= 1e-12


def test_perfect_detection_metrics():
    actual = [True, False, True, False]
    assert accuracy(actual, actual) == 1.0
    assert f1_score(actual, actual) == 1.0


def test_confusion_fixture():
    c = ConfusionCounts(tp=3, fp=1, fn=1, tn=5)
    assert c.accuracy == pytest.approx(0.8, abs=1e-15)
    assert c.f1 == pytest.approx(0.75, abs=1e-15)


def test_counts_from_flag_lists():
    predicted = [True, True, False, False, True]
    actual = [True, False, True, False, True]
    c = confusion_counts(predicted, actual)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)
    assert accuracy(predicted, actual) == c.accuracy
    assert f1_score(predicted, actual) == c.f1


def test_all_negative_predictions_give_zero_f1():
    predicted = [False, False, False]
    actual = [True, False, True]
    assert f1_score(predicted, actual) == 0.0


def test_f1_undefined_without_any_positive():
    with pytest.raises(DataError):
        f1_score([False, False], [False, False])


def test_flag_list_length_mismatch():
    with pytest.raises(DataError):
        f1_score([True], [True, False])


def test_mae_fixtures():
    assert mae_frames([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert mae_frames([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae_frames([2.0, 4.0], [3.0, 3.0]) == 1.0
    assert mae_frames([1.5], [1.0]) == 0.5
    assert mae_ms([4.0, 6.0], [3.0, 4.0], frame_shift_ms=30.0) == 45.0
    assert mae_ms([2.5], [2.0], frame_shift_ms=30.0) == 15.0


def test_mae_rejects_bad_shapes():
    with pytest.raises(DataError):
        mae_frames([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        mae_frames([], [])


def test_single_rater_equals_direct_correlation():
    scores = [0.0, 1.0, 2.0, 4.0]
    rater = [0.1, 0.8, 2.2, 3.9]
    got = mean_rater_correlation(scores, [rater])
    assert got == pearson(scores, rater)


def test_two_raters_average():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=9).tolist()
    r1 = (np.asarray(scores) + rng.normal(scale=0.3, size=9)).tolist()
    r2 = (np.asarray(scores) + rng.normal(scale=1.5, size=9)).tolist()
    expected = 0.5 * (pearson(scores, r1) + pearson(scores, r2))
    assert mean_rater_correlation(scores, [r1, r2]) == pytest.approx(
        expected, abs=1e-15
    )
    assert mean_rater_correlation(scores, [r2, r1]) == pytest.approx(
        expected, abs=1e-15
    )


def test_rater_mean_supports_spearman():
    scores = [1.0, 2.0, 3.0]
    rater = [2.0, 3.0, 1.0]
    got = mean_rater_correlation(scores, [rater], method="spearman")
    assert got == spearman(scores, rater)


def test_rater_mean_propagates_undefined():
    with pytest.raises(DataError):
        mean_rater_correlation([1.0, 2.0], [[3.0, 3.0]])

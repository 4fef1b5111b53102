"""Correlation, detection, and duration-error metrics against oracles."""

import numpy as np
import pytest
from scipy import stats

from cagop import PhoneSet
from cagop.cli import main
from cagop.formats import (
    AnnotationSet,
    ScoreFile,
    write_annotations,
    write_phone_set,
    write_score_file,
)
from cagop.metrics import (
    ConfusionCounts,
    confusion_counts,
    mae_frames,
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
    vals = rng.integers(0, 300, size=5000).astype(float)
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
    assert confusion_counts(actual, actual).accuracy == 1.0
    assert confusion_counts(actual, actual).f1 == 1.0


def test_confusion_fixture():
    c = ConfusionCounts(tp=3, fp=1, fn=1, tn=5)
    assert c.accuracy == pytest.approx(0.8, abs=1e-15)
    assert c.f1 == pytest.approx(0.75, abs=1e-15)


def test_counts_from_flag_lists():
    predicted = [True, True, False, False, True]
    actual = [True, False, True, False, True]
    c = confusion_counts(predicted, actual)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)
    assert c.accuracy == 0.6
    assert c.f1 == pytest.approx(2 / 3, abs=1e-15)


def test_all_negative_predictions_give_zero_f1():
    predicted = [False, False, False]
    actual = [True, False, True]
    assert confusion_counts(predicted, actual).f1 == 0.0


def test_f1_undefined_without_any_positive():
    with pytest.raises(DataError):
        confusion_counts([False, False], [False, False]).f1


def test_flag_list_length_mismatch():
    with pytest.raises(DataError):
        confusion_counts([True], [True, False])


def test_mae_fixtures():
    assert mae_frames([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert mae_frames([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae_frames([2.0, 4.0], [3.0, 3.0]) == 1.0
    assert mae_frames([1.5], [1.0]) == 0.5
    assert mae_frames([4.0, 6.0], [3.0, 4.0]) == 1.5


def test_mae_rejects_bad_shapes():
    with pytest.raises(DataError):
        mae_frames([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        mae_frames([], [])


# --- per-rater sentence correlation, as `cagop evaluate` reports it ------------


def evaluate_correlations(tmp_path, system, raters):
    """eval.tsv of `cagop evaluate` for sentence scores and rater id -> scores.

    Utterance ids sort in the order of ``system``; every utterance has one
    flagged, labelled phone so that detection is defined too.
    """
    ps = PhoneSet(("SIL", "A"), silence_index=0)
    utts = [f"u{i:02d}" for i in range(len(system))]
    paths = {k: tmp_path / f"{k}.tsv" for k in ("phones", "scores", "ann", "out")}
    write_phone_set(paths["phones"], ps)
    n = len(utts)
    write_score_file(paths["scores"], ScoreFile(
        variant="gop", utt_ids=tuple(utts), positions=(0,) * n,
        phones=(1,) * n, starts=(0,) * n, lengths=(2,) * n,
        scores=tuple(system), flags=tuple(i % 2 == 0 for i in range(n)),
        sentences=tuple(zip(utts, system)),
    ), ps)
    rated = [(u, rater, score) for rater, scores in raters.items()
             for u, score in zip(utts, scores)]
    write_annotations(paths["ann"], AnnotationSet(
        tuple(utts), (0,) * n, tuple(i % 3 == 0 for i in range(n)),
        *zip(*rated),
    ))
    assert main(["evaluate", "--scores", str(paths["scores"]),
                 "--annotations", str(paths["ann"]),
                 "--phones", str(paths["phones"]),
                 "--out", str(paths["out"])]) == 0
    return {name: float(value) for name, value in (
        line.split("\t") for line in paths["out"].read_text().splitlines())}


def test_single_rater_equals_direct_correlation(tmp_path):
    scores = [0.0, 1.0, 2.0, 4.0]
    rater = [0.1, 0.8, 2.2, 3.9]
    got = evaluate_correlations(tmp_path, scores, {"r1": rater})
    assert got["sentence_pearson"] == pearson(scores, rater)


def test_two_raters_average(tmp_path):
    rng = np.random.default_rng(5)
    scores = rng.normal(size=9)
    r1 = np.clip(5.0 + scores + rng.normal(scale=0.3, size=9), 0, 10).tolist()
    r2 = np.clip(5.0 + scores + rng.normal(scale=1.5, size=9), 0, 10).tolist()
    scores = scores.tolist()
    expected = 0.5 * (pearson(scores, r1) + pearson(scores, r2))
    got = evaluate_correlations(tmp_path, scores, {"r1": r1, "r2": r2})
    assert got["sentence_pearson"] == pytest.approx(expected, abs=1e-15)
    swapped = evaluate_correlations(tmp_path, scores, {"r2": r2, "r1": r1})
    assert swapped["sentence_pearson"] == pytest.approx(expected, abs=1e-15)


def test_rater_mean_supports_spearman(tmp_path):
    scores = [1.0, 2.0, 3.0]
    rater = [2.0, 3.0, 1.0]
    got = evaluate_correlations(tmp_path, scores, {"r1": rater})
    assert got["sentence_spearman"] == spearman(scores, rater)


def test_constant_rater_is_left_out_of_the_mean(tmp_path):
    scores = [1.0, 2.0, 4.0]
    varied = [2.0, 3.0, 7.0]
    got = evaluate_correlations(tmp_path, scores,
                                {"flat": [3.0] * 3, "r2": varied})
    assert got["sentence_pearson"] == pearson(scores, varied)
    only_flat = evaluate_correlations(tmp_path, scores, {"flat": [3.0] * 3})
    assert "sentence_pearson" not in only_flat


def test_evaluate_reports_how_many_raters_it_averaged(tmp_path, capsys):
    scores = [1.0, 2.0, 4.0]
    evaluate_correlations(tmp_path, scores,
                          {"flat": [3.0] * 3, "r2": [2.0, 3.0, 7.0]})
    out, err = capsys.readouterr()
    assert "sentence correlation over 1 of 2 raters" in out
    assert "warning" not in err
    evaluate_correlations(tmp_path, scores, {"flat": [3.0] * 3})
    out, err = capsys.readouterr()
    assert "sentence correlation over 0 of 1 raters" in out
    assert "warning: all 1 raters left out of the sentence correlation" in err


def test_mean_rater_correlation_matches_scipy():
    rng = np.random.default_rng(17)
    utts = [f"u{i:02d}" for i in range(12)]
    system = dict(zip(utts, rng.normal(size=12).tolist()))
    # rater columns in file order: r2 first, r1 on a subset, r3 constant,
    # r4 on a single common utterance
    rows = [(u, "r2", float(rng.uniform(0, 10))) for u in utts]
    rows += [(u, "r1", float(rng.uniform(0, 10))) for u in utts[::2]]
    rows += [(u, "r3", 4.0) for u in utts[:5]]
    rows += [("u03", "r4", 1.0), ("elsewhere", "r4", 2.0)]
    rng.shuffle(rows)
    p_mean, s_mean, used, raters = mean_rater_correlation(system, *zip(*rows))
    per_rater = []
    for rater in ("r1", "r2"):
        by_utt = {u: score for u, r, score in rows if r == rater}
        common = sorted(set(system) & set(by_utt))
        x = [system[u] for u in common]
        y = [by_utt[u] for u in common]
        per_rater.append((stats.pearsonr(x, y).statistic,
                          stats.spearmanr(x, y).statistic))
    want_p, want_s = np.mean(per_rater, axis=0)
    assert (used, raters) == (2, 4)
    assert abs(p_mean - want_p) <= 1e-12 and abs(s_mean - want_s) <= 1e-12


def test_mean_rater_correlation_without_usable_raters():
    got = mean_rater_correlation({"a": 1.0, "b": 2.0}, ("a", "b"),
                                 ("flat", "flat"), (3.0, 3.0))
    assert got == (None, None, 0, 1)

"""Score fusion, variant dispatch, threshold calibration, and detection."""

import numpy as np
import pytest

from cagop import (
    AlignConfig,
    DataError,
    DetectorConfig,
    PhoneSet,
    align,
    Alignment,
    PhoneSegment,
    SegmentColumns,
    BalanceTable,
    ThresholdTable,
    VARIANTS,
    cagop_score,
    calibrate_thresholds,
    center_gop,
    DurationSample,
    delta,
    detect_flags,
    entropy_profile,
    gop,
    lookup_tolerance,
    score_utterance,
    tascore,
    threshold_for,
)
import cagop.detector
from cagop.balance import lookup_tolerances
from cagop.detector import _sweep_threshold, score_utterances

from conftest import fit_on_samples, make_pg, random_pg

# composition of the 2-frame scoring fixture with delta -1.5, beta 0.1
FIX_TASCORE = -0.23742194311661857
FIX_CAGOP = -0.27303523458411133


def test_zero_delta_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ta = float(-rng.uniform(0, 5))
        beta = float(rng.uniform(0, 2))
        assert cagop_score(ta, 0.0, beta) == ta


def test_zero_beta_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ta = float(-rng.uniform(0, 5))
        d = float(rng.uniform(-4, 4))
        assert cagop_score(ta, d, 0.0) == ta


def test_plain_arithmetic_case():
    assert cagop_score(-1.0, 2.0, 0.1) == -0.8


def test_fixture_composition():
    assert cagop_score(FIX_TASCORE, -1.5, 0.1) == FIX_CAGOP


def test_sign_flip_without_clamp():
    # multiplier goes negative once beta*delta exceeds 1
    assert cagop_score(-1.0, 20.0, 0.1) == 1.0


def test_array_form_matches_scalar_form():
    rng = np.random.default_rng(2)
    ta = -rng.uniform(0, 5, size=30)
    d = rng.uniform(-4, 12, size=30)
    got = cagop_score(ta, d, 0.1)
    assert got.tolist() == [cagop_score(float(t), float(x), 0.1) for t, x in zip(ta, d)]


def test_beta_must_be_nonnegative():
    with pytest.raises(DataError):
        DetectorConfig(beta=-0.1, variant="gop")
    with pytest.raises(DataError):
        DetectorConfig(variant="nope")


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_beta_must_be_finite(beta):
    with pytest.raises(DataError, match="beta"):
        DetectorConfig(beta=beta, variant="gop")


def scored_case(seed, variant_cfg, balance=None, preds=None):
    rng = np.random.default_rng(seed)
    ps = PhoneSet(("SIL", "A", "B", "C"), silence_index=0)
    pg = random_pg(rng, 12, 4)
    al = align(pg, [1, 2, 3], AlignConfig(min_segment_frames=2))
    return score_utterance(
        pg, al, ps, variant_cfg, predicted_durations=preds, balance=balance,
        utterance_id=f"u{seed}",
    )


def test_cagop_with_zero_beta_collapses_to_tascore_variant():
    for seed in range(10):
        a = scored_case(seed, DetectorConfig(variant="cagop", beta=0.0))
        b = scored_case(seed, DetectorConfig(variant="cagop_minus_dur", beta=0.0))
        assert np.array_equal(a.scores, b.scores)
        assert a.sentence_score == b.sentence_score


def test_cagop_minus_ta_with_zero_beta_collapses_to_gop():
    for seed in range(10):
        a = scored_case(seed, DetectorConfig(variant="cagop_minus_ta", beta=0.0))
        b = scored_case(seed, DetectorConfig(variant="gop", beta=0.0))
        assert np.array_equal(a.scores, b.scores)


def test_score_field_follows_variant():
    rep = scored_case(3, DetectorConfig(variant="gop", beta=0.0))
    for r in rep.per_phone:
        assert r.score == r.gop
    rep = scored_case(3, DetectorConfig(variant="center_gop", beta=0.0))
    for r in rep.per_phone:
        assert r.score == r.center_gop


def test_duration_variant_requires_inputs():
    with pytest.raises(DataError):
        scored_case(4, DetectorConfig(variant="cagop", beta=0.1))


def test_duration_variant_consumes_balance_and_predictions():
    balance = fit_on_samples(
        [DurationSample.from_durations((p,) * 6, (5.0,) * 6) for p in (1, 2, 3)],
        [(4.0,) * 6] * 3,
    )
    rep = scored_case(
        5,
        DetectorConfig(variant="cagop", beta=0.1),
        balance=balance,
        preds=[4.0, 4.0, 4.0],
    )
    for r in rep.per_phone:
        assert r.delta is not None
        assert r.score == cagop_score(r.tascore, r.delta, 0.1)


def test_silence_segments_are_not_scored():
    rng = np.random.default_rng(6)
    ps = PhoneSet(("SIL", "A", "B"), silence_index=0)
    pg = random_pg(rng, 10, 3)
    cfg = AlignConfig(allow_optional_silence=True, silence_index=0)
    al = align(pg, [1, 2], cfg)
    rep = score_utterance(pg, al, ps, DetectorConfig(variant="gop", beta=0.0))
    assert [r.phone for r in rep.per_phone] == [1, 2]


def test_report_tascore_matches_scoring_module():
    rep = scored_case(7, DetectorConfig(variant="cagop_minus_dur", beta=0.0))
    rng = np.random.default_rng(7)
    pg = random_pg(rng, 12, 4)
    al = align(pg, [1, 2, 3], AlignConfig(min_segment_frames=2))
    # segment sums are taken by np.add.reduceat, which may associate them
    # differently from np.sum over the segment's slice
    for r, seg in zip(rep.per_phone, al.segments):
        assert r.tascore == pytest.approx(tascore(pg, seg)[0], rel=1e-12, abs=0)


def test_segment_list_tascore_concatenates_per_segment_frame_scores():
    rng = np.random.default_rng(11)
    pg = random_pg(rng, 20, 4)
    segments = [PhoneSegment(1, 0, 1), PhoneSegment(3, 2, 5),
                PhoneSegment(2, 7, 13)]
    frames = np.concatenate([np.arange(s.start, s.end) for s in segments])
    lengths = np.array([s.length for s in segments])
    phones = np.repeat([s.phone for s in segments], lengths)
    scores, frames = cagop.detector.tascore(
        (pg.probs[frames, phones], entropy_profile(pg)[frames]), lengths)
    oracle = [tascore(pg, seg) for seg in segments]
    assert scores == pytest.approx([s for s, _ in oracle], rel=1e-12, abs=0)
    for field in ("log_posteriors", "entropies", "weights"):
        want = np.concatenate([getattr(f, field) for _, f in oracle])
        np.testing.assert_allclose(getattr(frames, field), want,
                                   rtol=1e-12, atol=0)


def _random_segmentation(rng, num_frames, num_phones):
    """Ordered segments with gaps and silences; may stop short of the end."""
    segments, start = [], 0
    while start < num_frames:
        start += int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
        length = int(rng.integers(1, 6))
        if start + length > num_frames:
            break
        segments.append(PhoneSegment(int(rng.integers(0, num_phones)), start,
                                     length))
        start += length
    return segments


def test_one_pass_scorer_matches_per_segment_oracle():
    ps = PhoneSet(("SIL", "A", "B", "C", "D"), silence_index=0)
    balance = fit_on_samples(
        [DurationSample.from_durations((p,) * 6, (5.0, 4.0, 6.0, 5.0, 3.0, 7.0))
         for p in (1, 2, 3)],
        [(4.0,) * 6] * 3,
    )
    rng = np.random.default_rng(2024)
    checked = one_frame = ends_at_last = 0
    while checked < 200:
        num_frames = int(rng.integers(1, 40))
        segments = _random_segmentation(rng, num_frames, len(ps))
        speech = [s for s in segments if s.phone != 0]
        if not speech:
            continue
        checked += 1
        one_frame += any(s.length == 1 for s in speech)
        ends_at_last += speech[-1].end == num_frames
        pg = random_pg(rng, num_frames, len(ps))
        preds = [float(p) for p in rng.uniform(0.5, 8.0, size=len(speech))]
        speed = float(np.mean([s.length for s in speech]))
        for variant in ("gop", "center_gop", "cagop", "cagop_minus_dur",
                        "cagop_minus_ta"):
            cfg = DetectorConfig(variant=variant, beta=0.3)
            rep = score_utterance(
                pg, Alignment(tuple(segments)), ps, cfg,
                predicted_durations=preds, balance=balance,
            )
            assert [r.segment for r in rep.per_phone] == speech
            for r, seg, pred in zip(rep.per_phone, speech, preds):
                want_ta = tascore(pg, seg)[0]
                assert r.phone == seg.phone
                assert r.gop == pytest.approx(gop(pg, seg), rel=1e-12, abs=0)
                assert r.center_gop == center_gop(pg, seg)
                assert r.tascore == pytest.approx(want_ta, rel=1e-12, abs=0)
                want = {"gop": gop(pg, seg), "center_gop": center_gop(pg, seg),
                        "cagop_minus_dur": want_ta}.get(variant)
                if cfg.needs_durations:
                    d = delta(seg.length, pred,
                              lookup_tolerance(balance, seg.phone, speed))
                    base = want_ta if variant == "cagop" else gop(pg, seg)
                    want = cagop_score(base, d, cfg.beta)
                    assert r.delta == d
                else:
                    assert r.delta is None
                assert r.score == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert one_frame > 0 and ends_at_last > 0


def test_segment_past_the_last_frame_is_rejected():
    rng = np.random.default_rng(13)
    ps = PhoneSet(("SIL", "A", "B"), silence_index=0)
    pg = random_pg(rng, 6, 3)
    al = Alignment((PhoneSegment(1, 0, 3), PhoneSegment(2, 3, 4)))
    with pytest.raises(DataError, match=r"segment \[3,7\) exceeds 6 frames"):
        score_utterance(pg, al, ps, DetectorConfig(variant="gop", beta=0.0))


def _random_utterances(rng, ps, count):
    """(utt_id, alignment, posteriorgram, predictions) of varied lengths."""
    utts = []
    while len(utts) < count:
        num_frames = int(rng.integers(1, 40))
        segments = _random_segmentation(rng, num_frames, len(ps))
        speech = [s for s in segments if not ps.is_silence(s.phone)]
        if speech:
            preds = rng.uniform(0.5, 8.0, size=len(speech)).tolist()
            utts.append((f"u{len(utts)}", Alignment(tuple(segments)),
                         random_pg(rng, num_frames, len(ps)), preds))
    return utts


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_scoring_utterances_together_matches_one_at_a_time_bitwise():
    ps = PhoneSet(("SIL", "A", "B", "C", "D"), silence_index=0)
    balance = fit_on_samples(
        [DurationSample.from_durations((p,) * 6, (5.0, 4.0, 6.0, 5.0, 3.0, 7.0))
         for p in (1, 2, 3)],
        [(4.0,) * 6] * 3,
    )
    utts = _random_utterances(np.random.default_rng(2024), ps, 200)
    assert len({pg.num_frames for _, _, pg, _ in utts}) > 20
    segments = SegmentColumns.from_alignments(
        (u, al) for u, al, _, _ in utts).non_silence(ps)
    predicted = np.concatenate([preds for *_, preds in utts])
    thresholds = ThresholdTable({1: -1.2, 3: -0.4}, -0.8)
    for variant in VARIANTS:
        cfg = DetectorConfig(variant=variant, beta=0.3)
        cols = score_utterances(segments, (pg for _, _, pg, _ in utts),
                                cfg, predicted, balance)
        reports = [score_utterance(pg, al, ps, cfg, preds, balance, u)
                   for u, al, pg, preds in utts]
        records = [r for rep in reports for r in rep.per_phone]
        rows = cols.segments
        assert rows.utterance_ids == tuple(u for u, *_ in utts)
        assert rows.counts.tolist() == [len(r.per_phone) for r in reports]
        assert rows.phone.tolist() == [r.phone for r in records]
        assert rows.start.tolist() == [r.segment.start for r in records]
        assert rows.length.tolist() == [r.segment.length for r in records]
        for field in ("gop", "center_gop", "tascore", "score"):
            assert _bits(getattr(cols, field)) == _bits(
                [getattr(r, field) for r in records]), field
        if cfg.needs_durations:
            assert _bits(cols.delta) == _bits([r.delta for r in records])
        else:
            assert cols.delta is None
            assert all(r.delta is None for r in records)
        assert _bits(cols.sentence_scores) == _bits(
            [rep.sentence_score for rep in reports])
        flags = detect_flags(rows.phone.tolist(), cols.score.tolist(),
                             thresholds)
        assert any(flags) and not all(flags)
        assert flags == [
            flag for rep in reports for flag in detect_flags(
                [r.phone for r in rep.per_phone], rep.scores, thresholds)
        ]


def test_dense_tolerances_equal_lookup_tolerance():
    table = BalanceTable(
        entries={(1, 2): 0.5, (1, 7): 1.5, (2, 20): 2.5, (7, 5): 8.0},
        phone_backoff={1: 1.0, 2: 2.0, 4: 4.5, 9: 9.5},
        global_backoff=3.0,
    )
    # below the range, half-way points, inside, the edges, above the range
    speeds = [0.2, 1.5, 2.0, 2.49, 2.5, 4.5, 5.49, 7.0, 7.49, 7.5, 19.8, 20.0,
              20.5, 80.0]
    # phones 10 and 11 lie past every phone the table names
    phones = np.repeat(np.arange(12), len(speeds))
    speed_col = np.tile(speeds, 12)
    got = lookup_tolerances(table, phones, speed_col)
    want = [lookup_tolerance(table, int(p), float(s))
            for p, s in zip(phones, speed_col)]
    assert got.tolist() == want
    # every level of the backoff is exercised
    assert {0.5, 1.5, 2.5, 8.0, 1.0, 2.0, 4.5, 3.0} <= set(want)


def test_segment_past_the_last_frame_names_the_utterance():
    rng = np.random.default_rng(13)
    ps = PhoneSet(("SIL", "A", "B"), silence_index=0)
    pg = random_pg(rng, 6, 3)
    fine = Alignment((PhoneSegment(1, 0, 3), PhoneSegment(2, 3, 3)))
    late = Alignment((PhoneSegment(1, 0, 3), PhoneSegment(2, 3, 4)))
    with pytest.raises(DataError,
                       match=r"segment \[3,7\) exceeds 6 frames in 'late'"):
        score_utterances(
            SegmentColumns.from_alignments([("fine", fine), ("late", late)]),
            [pg, pg], DetectorConfig(variant="gop", beta=0.0))
    with pytest.raises(DataError, match="no utterances to score"):
        score_utterances(SegmentColumns.from_alignments([]), [],
                         DetectorConfig(variant="gop", beta=0.0))


# Rows of a "fine" utterance, then a "bad" one, over 5 frames and 3 phones:
# (phone, start, length) columns, per-utterance counts, and the error.
MALFORMED = {
    "start_wraps_around": ([1, 2, 1], [0, 2, -2], [2, 3, 2], [2, 1],
                           r"segment start -2 is below 0 in 'bad'"),
    "zero_length": ([1, 2, 1, 2], [0, 2, 0, 2], [2, 3, 2, 0], [2, 2],
                    r"segment length 0 is below 1 in 'bad'"),
    "phone_past_columns": ([1, 2, 1, 3], [0, 2, 0, 2], [2, 3, 2, 3], [2, 2],
                           r"phone index 3 outside the 3 posterior columns "
                           r"in 'bad'"),
    "inner_row_past_last_frame": ([1, 2, 1, 2], [0, 2, 0, 2], [2, 3, 6, 3],
                                  [2, 2], r"segment \[0,6\) exceeds 5 frames "
                                  r"in 'bad'"),
    "counts_past_rows": ([1, 2, 1, 2], [0, 2, 0, 2], [2, 3, 2, 3], [2, 3],
                         r"'bad' has 3 rows from row 2, of 4 rows"),
    "negative_count": ([1, 2, 1, 2], [0, 2, 0, 2], [2, 3, 2, 3], [4, -1],
                       r"'bad' has -1 rows from row 4, of 4 rows"),
    "rows_past_counts": ([1, 2, 1, 2], [0, 2, 0, 2], [2, 3, 2, 3], [2, 1],
                         r"1 rows belong to no utterance"),
    "ragged_columns": ([1, 2, 1, 2], [0, 2, 0], [2, 3, 2, 3], [2, 2],
                       r"columns of 4, 3 and 4 rows"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_rows_are_data_errors_naming_the_utterance(case):
    *columns, counts, match = MALFORMED[case]
    pg = random_pg(np.random.default_rng(3), 5, 3)
    with pytest.raises(DataError, match=match):
        score_utterances(
            SegmentColumns(("fine", "bad"), np.array(counts),
                           *(np.array(c, dtype=np.int64) for c in columns)),
            [pg, pg], DetectorConfig(variant="gop", beta=0.0))


def test_sentence_score_is_the_mean():
    rep = scored_case(8, DetectorConfig(variant="gop", beta=0.0))
    assert abs(rep.sentence_score - np.mean(rep.scores)) <= 1e-12


# --- calibration ------------------------------------------------------------


def test_separable_fixture_picks_the_gap_midpoint():
    table = calibrate_thresholds(
        [1, 1, 1, 1], [-0.1, -0.2, -0.9, -1.0], [False, False, True, True]
    )
    assert table.global_threshold == pytest.approx(-0.55, abs=1e-15)


def test_single_split_case():
    table = calibrate_thresholds([0, 0], [-1.0, -0.2], [True, False])
    assert table.global_threshold == pytest.approx(-0.6, abs=1e-15)


def test_tie_breaks_toward_higher_threshold():
    scores = [-5.0, -4.0, -3.0, -2.0, -1.0]
    labels = [True, False, False, True, False]
    assert _sweep_threshold(np.array(scores), np.array(labels)) == -1.5


def test_flag_everything_needs_a_strict_win():
    # tied F1 between a midpoint and the flag-all candidate keeps the midpoint
    scores = np.array([-4.0, -3.0, -2.0, -1.0])
    labels = np.array([True, False, False, True])
    assert _sweep_threshold(scores, labels) == -3.5
    # but a strictly better flag-all candidate is taken
    scores = np.array([-3.0, -2.0, -1.0])
    labels = np.array([True, False, True])
    assert _sweep_threshold(scores, labels) == 0.0


def test_sweep_dominates_every_fixed_threshold():
    from cagop.metrics import confusion_counts

    def f1_score(flags, labels):
        return confusion_counts(flags, labels).f1

    for seed in range(15):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(5, 60))
        scores = np.round(-rng.uniform(0, 3, size=n), 2)
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        chosen = _sweep_threshold(scores, labels)
        chosen_f1 = f1_score((scores < chosen).tolist(), labels.tolist())
        grid = np.concatenate([scores - 1e-9, scores + 1e-9, [scores.min() - 1]])
        for theta in grid:
            flags = (scores < theta).tolist()
            if not any(flags) and not labels.any():
                continue
            assert chosen_f1 >= f1_score(flags, labels.tolist()) - 1e-12


def test_sparse_or_single_class_phones_use_global():
    phones, scores, labels = [], [], []
    # phone 0: 10 separable instances -> own threshold
    for i in range(5):
        phones += [0, 0]
        scores += [-1.0 - 0.01 * i, -0.1 - 0.01 * i]
        labels += [True, False]
    # phone 1: plentiful but single-class
    for i in range(12):
        phones.append(1)
        scores.append(-0.15 - 0.01 * i)
        labels.append(False)
    # phone 2: both classes but only 4 instances
    phones += [2, 2, 2, 2]
    scores += [-2.0, -1.9, -0.05, -0.04]
    labels += [True, True, False, False]
    table = calibrate_thresholds(phones, scores, labels)
    assert 0 in table.per_phone
    assert 1 not in table.per_phone
    assert 2 not in table.per_phone
    assert threshold_for(table, 1) == table.global_threshold
    assert threshold_for(table, 0) == table.per_phone[0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_threshold_table_rejects_non_finite(bad):
    with pytest.raises(DataError, match="threshold must be finite"):
        ThresholdTable(per_phone={1: bad}, global_threshold=-0.5)
    with pytest.raises(DataError, match="threshold must be finite"):
        ThresholdTable(per_phone={}, global_threshold=bad)


def test_single_class_overall_rejected():
    with pytest.raises(DataError):
        calibrate_thresholds([0, 0], [-1.0, -2.0], [True, True])


def test_empty_calibration_rejected():
    with pytest.raises(DataError):
        calibrate_thresholds([], [], [])


# --- detection --------------------------------------------------------------


def test_strictly_below_threshold_flags():
    table = calibrate_thresholds(
        [1, 1, 1, 1], [-0.1, -0.2, -0.9, -1.0], [False, False, True, True]
    )
    flags = detect_flags([1, 1, 1], [-0.56, -0.55, -0.54], table)
    assert flags == [True, False, False]


def test_unseen_phone_uses_global_threshold():
    table = calibrate_thresholds(
        [1, 1, 1, 1], [-0.1, -0.2, -0.9, -1.0], [False, False, True, True]
    )
    assert detect_flags([42], [-0.7], table) == [True]


def test_detect_marks_report_rows():
    rep = scored_case(9, DetectorConfig(variant="gop", beta=0.0))
    mid = float(np.median(rep.scores))
    table = calibrate_thresholds(
        [1, 2], [mid - 1.0, mid + 1.0], [True, False]
    )
    flags = detect_flags([r.phone for r in rep.per_phone], rep.scores, table)
    assert flags == [r.score < threshold_for(table, r.phone)
                     for r in rep.per_phone]
    assert any(flags) and not all(flags)


def test_lowering_a_score_never_clears_a_flag():
    table = calibrate_thresholds(
        [1, 1, 1, 1], [-0.1, -0.2, -0.9, -1.0], [False, False, True, True]
    )
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = float(-rng.uniform(0, 2))
        drop = float(rng.uniform(0, 3))
        before = detect_flags([1], [s], table)[0]
        after = detect_flags([1], [s - drop], table)[0]
        assert after or not before


def test_detect_flags_length_mismatch():
    table = calibrate_thresholds([0, 0], [-1.0, -0.2], [True, False])
    with pytest.raises(DataError):
        detect_flags([0, 1], [-0.5], table)

"""Core type invariants: posteriorgram validation, segments, alignments, reports."""

import numpy as np
import pytest

from cagop import (
    Alignment,
    DataError,
    PhoneScore,
    PhoneSegment,
    PhoneSet,
    Posteriorgram,
    ScoreReport,
    slice_segment,
    validate_posteriorgram,
)

from conftest import make_pg, random_pg


def ps2():
    return PhoneSet(("A", "B"), silence_index=None)


def test_valid_rows_accepted():
    pg = make_pg([[0.5, 0.5], [1.0, 0.0]])
    out = validate_posteriorgram(pg, ps2())
    assert np.array_equal(out.probs, pg.probs)


@pytest.mark.parametrize("shift", [float("nan"), float("inf"), 0.0, -30.0])
def test_frame_shift_must_be_finite_and_positive(shift):
    with pytest.raises(DataError, match="frame shift"):
        Posteriorgram(np.full((1, 2), 0.5), frame_shift_ms=shift)


def test_row_sum_violation_rejected():
    pg = make_pg([[0.7, 0.7]])
    with pytest.raises(DataError, match="1.4"):
        validate_posteriorgram(pg, ps2())


def test_near_one_row_renormalized_exactly():
    pg = make_pg([[0.5000004, 0.4999996]])
    out = validate_posteriorgram(pg, ps2())
    assert abs(out.probs[0].sum() - 1.0) <= 1e-15


def test_random_rows_renormalize_to_exact_sums():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4), size=6)
        probs *= 1.0 + rng.uniform(-9e-7, 9e-7, size=(6, 1))
        out = validate_posteriorgram(
            Posteriorgram(probs), PhoneSet(("A", "B", "C", "D"))
        )
        assert np.all(np.abs(out.probs.sum(axis=1) - 1.0) <= 1e-15)


def test_negative_entry_rejected():
    pg = make_pg([[1.2, -0.2]])
    with pytest.raises(DataError):
        validate_posteriorgram(pg, ps2())


def test_nan_rejected():
    pg = make_pg([[float("nan"), 1.0]])
    with pytest.raises(DataError):
        validate_posteriorgram(pg, ps2())


def test_phone_count_mismatch_rejected():
    pg = make_pg([[0.5, 0.5]])
    with pytest.raises(DataError):
        validate_posteriorgram(pg, PhoneSet(("A", "B", "C")))


def test_slice_returns_requested_rows():
    pg = make_pg([[1, 0], [0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]])
    rows = slice_segment(pg, PhoneSegment(phone=0, start=1, length=2))
    assert np.array_equal(rows, pg.probs[1:3])


def test_slice_out_of_bounds_rejected():
    pg = make_pg([[0.5, 0.5]] * 5)
    with pytest.raises(DataError):
        slice_segment(pg, PhoneSegment(phone=0, start=4, length=2))


def test_slice_whole_range_is_identity():
    rng = np.random.default_rng(3)
    pg = random_pg(rng, 5, 3)
    rows = slice_segment(pg, PhoneSegment(phone=0, start=0, length=5))
    assert np.array_equal(rows, pg.probs)


def test_segment_requires_positive_length():
    with pytest.raises(DataError):
        PhoneSegment(phone=0, start=0, length=0)


def test_alignment_rejects_overlap():
    with pytest.raises(DataError):
        Alignment((PhoneSegment(0, 0, 3), PhoneSegment(1, 2, 2)))


def test_alignment_rejects_disorder():
    with pytest.raises(DataError):
        Alignment((PhoneSegment(0, 4, 2), PhoneSegment(1, 0, 2)))


def test_alignment_phone_sequence_drops_silence():
    ps = PhoneSet(("SIL", "A", "B"), silence_index=0)
    al = Alignment(
        (
            PhoneSegment(0, 0, 2),
            PhoneSegment(1, 2, 3),
            PhoneSegment(0, 5, 1),
            PhoneSegment(2, 6, 2),
        )
    )
    assert al.phone_sequence(ps) == (1, 2)
    assert [s.phone for s in al.non_silence(ps)] == [1, 2]


def _score(phone, value):
    seg = PhoneSegment(phone, 0, 1)
    return PhoneScore(
        phone=phone,
        segment=seg,
        gop=value,
        center_gop=value,
        tascore=value,
        delta=None,
        score=value,
    )


def test_report_sentence_score_must_match_mean():
    per = (_score(0, -1.0), _score(1, -3.0))
    rep = ScoreReport("u", "gop", per, sentence_score=-2.0)
    assert rep.sentence_score == -2.0
    with pytest.raises(DataError):
        ScoreReport("u", "gop", per, sentence_score=-1.9)


def test_report_mean_tolerance_is_tight():
    # 1e-12 band on the mean invariant
    per = (_score(0, -1.0), _score(1, -3.0))
    ScoreReport("u", "gop", per, sentence_score=-2.0 + 5e-13)
    with pytest.raises(DataError):
        ScoreReport("u", "gop", per, sentence_score=-2.0 + 5e-12)


def test_phone_set_lookup_roundtrip():
    ps = PhoneSet(("SIL", "AA", "B"), silence_index=0)
    for i, label in enumerate(("SIL", "AA", "B")):
        assert ps.label(i) == label
        assert ps.index(label) == i
    assert ps.is_silence(0) and not ps.is_silence(1)
    with pytest.raises(DataError):
        ps.index("ZZ")


def test_phone_set_rejects_duplicates():
    with pytest.raises(DataError):
        PhoneSet(("A", "A"))

"""Synthetic corpus generation: determinism, validity, and duration rules."""

import filecmp
import hashlib

import numpy as np
import pytest

from cagop import DataError, validate_posteriorgram
from cagop.formats import (
    read_annotations,
    read_ctm,
    read_phone_set,
    read_posteriorgram,
    read_text_manifest_rows,
)
from cagop.synth import (
    CLEAR_MASS,
    MAX_TEMPO,
    MEAN_FRAMES,
    MUMBLE_ALPHA,
    NUM_RATERS,
    STOPS,
    SynthConfig,
    default_phone_set,
    generate_corpus,
    _simplex,
    _uniform,
    rule_durations,
    write_corpus,
)

from oracles import rule_duration_corpus

SMALL = SynthConfig(num_utterances=30, seed=5)


def test_rule_base_value_without_context():
    ps = default_phone_set()
    rng = np.random.default_rng(0)
    durs = rule_durations(rng, ps, [ps.index("AA")], tempo=1.0, noise=0.0)
    assert durs == [round(MEAN_FRAMES["AA"])]


def test_rule_lengthens_before_stop():
    ps = default_phone_set()
    rng = np.random.default_rng(0)
    assert "K" in STOPS
    with_stop = rule_durations(
        rng, ps, [ps.index("AA"), ps.index("K")], tempo=1.0, noise=0.0
    )
    alone = rule_durations(rng, ps, [ps.index("AA")], tempo=1.0, noise=0.0)
    assert with_stop[0] == round(MEAN_FRAMES["AA"] + 1.2)
    assert with_stop[0] > alone[0]


def test_rule_applies_post_vowel_effects():
    ps = default_phone_set()
    rng = np.random.default_rng(0)
    seq = [ps.index("AA"), ps.index("S"), ps.index("IY"), ps.index("EH")]
    durs = rule_durations(rng, ps, seq, tempo=1.0, noise=0.0)
    assert durs[1] == round(MEAN_FRAMES["S"] + 0.7)  # consonant after vowel
    assert durs[3] == round(MEAN_FRAMES["EH"] - 0.8)  # vowel after vowel


def test_rule_scales_with_tempo():
    ps = default_phone_set()
    rng = np.random.default_rng(0)
    seq = [ps.index("AA"), ps.index("M"), ps.index("IY")]
    slow = rule_durations(rng, ps, seq, tempo=1.3, noise=0.0)
    fast = rule_durations(rng, ps, seq, tempo=0.7, noise=0.0)
    assert all(s >= f for s, f in zip(slow, fast))


def test_rule_clamps_to_two_frames():
    ps = default_phone_set()
    rng = np.random.default_rng(0)
    durs = rule_durations(rng, ps, [ps.index("T")] * 4, tempo=0.1, noise=0.0)
    assert all(d == 2 for d in durs)


def test_rule_corpus_is_deterministic():
    a = rule_duration_corpus(20, seed=3)
    b = rule_duration_corpus(20, seed=3)
    assert a == b
    c = rule_duration_corpus(20, seed=4)
    assert a != c


def test_rule_corpus_sample_shapes():
    samples = rule_duration_corpus(50, seed=9, min_len=4, max_len=12)
    assert len(samples) == 50
    for s in samples:
        assert 4 <= len(s.phones) <= 12
        assert all(d >= 2 for d in s.durations)
        assert abs(s.speed - np.mean(s.durations)) <= 1e-9


def test_generate_corpus_is_deterministic():
    a = generate_corpus(SMALL)
    b = generate_corpus(SMALL)
    assert len(a.utterances) == len(b.utterances) == 30
    for ua, ub in zip(a.utterances, b.utterances):
        assert ua.utt_id == ub.utt_id
        assert ua.reference_phones == ub.reference_phones
        assert ua.mispronounced == ub.mispronounced
        assert ua.ratings == ub.ratings
        assert np.array_equal(ua.posteriorgram.probs, ub.posteriorgram.probs)


def _utterance_digest(utt) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(utt.posteriorgram.probs, dtype="<f8").tobytes())
    h.update(utt.text.encode())
    h.update(np.asarray(utt.reference_phones, dtype="<i8").tobytes())
    h.update(np.asarray([(s.phone, s.start, s.length)
                         for s in utt.alignment.segments], dtype="<i8").tobytes())
    h.update(np.asarray(utt.mispronounced, dtype="u1").tobytes())
    h.update(np.asarray(utt.ratings, dtype="<f8").tobytes())
    return h.hexdigest()


# sha256 over the per-utterance digests (float64 posterior bytes, text,
# reference phones, alignment, flags, ratings), recorded on the per-frame
# generator that the vectorized renderer replaced.
CORPUS_DIGESTS = [
    (SynthConfig(num_utterances=400, seed=1),
     "3c945802b09635352153b8db62c1f121f7e5f116b29f4c137aa1db7425a17933"),
    (SynthConfig(num_utterances=1, seed=1003, min_words=200, max_words=200),
     "0fe6a34d7fb039ed4c82090c07c2a9c4b77b27da979c9603ac3369230f10ba19"),
]


@pytest.mark.parametrize("cfg, expected", CORPUS_DIGESTS,
                         ids=["400-utterances", "paragraph"])
def test_corpus_bytes_are_pinned(cfg, expected):
    h = hashlib.sha256()
    for utt in generate_corpus(cfg).utterances:
        h.update(_utterance_digest(utt).encode())
    assert h.hexdigest() == expected


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_draw_helpers_match_numpy_bit_for_bit(seed):
    """The renderer's arithmetic is NumPy's: a release that changes either
    algorithm fails here instead of silently moving every corpus."""
    n = 3000

    def same(expected, got, ref_rng, rng):
        assert np.asarray(expected).tobytes() == got.tobytes()
        assert ref_rng.bit_generator.state == rng.bit_generator.state

    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    same([ref.uniform(*CLEAR_MASS) for _ in range(n)],
         _uniform(*CLEAR_MASS, rng.random(n)), ref, rng)
    same([ref.dirichlet(np.ones(12)) for _ in range(n)],
         _simplex(rng.standard_exponential((n, 12))), ref, rng)
    same([ref.dirichlet(np.full(13, MUMBLE_ALPHA)) for _ in range(n)],
         _simplex(rng.standard_gamma(MUMBLE_ALPHA, (n, 13))), ref, rng)


@pytest.mark.parametrize("low, high", [
    (float("nan"), 1.0), (0.8, float("nan")), (0.8, float("inf")),
    (float("-inf"), 1.0), (0.0, 1.0), (-0.5, 1.0), (-1.0, -0.5),
    (1.25, 0.8), (1e12, 1e12), (1.0, 1e12), (1.0, MAX_TEMPO * (1 + 1e-15)),
])
def test_config_rejects_bad_tempo_range(low, high):
    with pytest.raises(DataError, match="tempo"):
        SynthConfig(tempo_low=low, tempo_high=high)


def test_config_accepts_the_tempo_cap():
    cfg = SynthConfig(num_utterances=1, seed=5, tempo_low=MAX_TEMPO, tempo_high=MAX_TEMPO)
    utt = generate_corpus(cfg).utterances[0]
    # at least the 2-frame floor, and about MEAN_FRAMES x 10 per phone
    assert utt.posteriorgram.num_frames >= 20 * len(utt.reference_phones)


def test_config_accepts_a_fixed_tempo():
    cfg = SynthConfig(num_utterances=3, seed=4, tempo_low=1.1, tempo_high=1.1)
    assert len(generate_corpus(cfg).utterances) == 3


def test_corpus_utterances_are_internally_consistent():
    corpus = generate_corpus(SMALL)
    ps = corpus.phone_set
    ids = set()
    for utt in corpus.utterances:
        ids.add(utt.utt_id)
        validate_posteriorgram(utt.posteriorgram, ps)
        assert len(utt.mispronounced) == len(utt.reference_phones)
        assert not any(ps.is_silence(p) for p in utt.reference_phones)
        non_sil = utt.alignment.non_silence(ps)
        assert len(non_sil) == len(utt.reference_phones)
        covered = sum(s.length for s in utt.alignment.segments)
        assert covered == utt.posteriorgram.num_frames
        assert len(utt.ratings) == NUM_RATERS
        for score in utt.ratings:
            assert 0.0 <= score <= 10.0
        for word in utt.text.split():
            assert word in corpus.lexicon
    assert len(ids) == 30


def test_corpus_contains_both_classes_at_sane_rates():
    corpus = generate_corpus(SynthConfig(num_utterances=120, seed=11))
    flags = [f for u in corpus.utterances for f in u.mispronounced]
    frac = np.mean(flags)
    assert 0.05 <= frac <= 0.5
    assert any(flags) and not all(flags)


def test_wrong_utterances_are_rated_lower():
    corpus = generate_corpus(SynthConfig(num_utterances=120, seed=13))
    clean, dirty = [], []
    for u in corpus.utterances:
        mean_rating = np.mean(u.ratings)
        if any(u.mispronounced):
            dirty.append(mean_rating)
        else:
            clean.append(mean_rating)
    assert np.mean(clean) > np.mean(dirty)


def test_write_corpus_layout_and_readback(tmp_path):
    corpus = generate_corpus(SMALL)
    out = tmp_path / "corpus"
    write_corpus(out, corpus)
    for name in ("phones.txt", "lexicon.txt", "text.tsv", "reference.ctm",
                 "annotations.tsv"):
        assert (out / name).exists()
    assert read_phone_set(out / "phones.txt") == corpus.phone_set
    manifest = read_text_manifest_rows(out / "text.tsv")
    assert [u for _, u, _ in manifest] == [u.utt_id for u in corpus.utterances]
    ctm = read_ctm(out / "reference.ctm", corpus.phone_set)
    assert [u for u, _ in ctm] == [u.utt_id for u in corpus.utterances]
    assert ctm[0][1] == corpus.utterances[0].alignment
    ann = read_annotations(out / "annotations.tsv")
    assert ann == corpus.annotations()
    first = corpus.utterances[0]
    pg = read_posteriorgram(out / "post" / f"{first.utt_id}.pgm")
    assert np.array_equal(
        pg.probs,
        first.posteriorgram.probs.astype(np.float32).astype(np.float64),
    )


def test_write_corpus_twice_is_byte_identical(tmp_path):
    corpus = generate_corpus(SMALL)
    write_corpus(tmp_path / "a", corpus)
    write_corpus(tmp_path / "b", generate_corpus(SMALL))
    report = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not report.diff_files
    assert not report.left_only and not report.right_only
    sub = report.subdirs["post"]
    assert not sub.diff_files and not sub.left_only and not sub.right_only
    # dircmp compares os.stat by default; confirm one payload byte for byte
    utt = corpus.utterances[0].utt_id
    a = (tmp_path / "a" / "post" / f"{utt}.pgm").read_bytes()
    b = (tmp_path / "b" / "post" / f"{utt}.pgm").read_bytes()
    assert a == b

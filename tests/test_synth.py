"""Synthetic corpus generation: determinism, validity, and duration rules."""

import filecmp

import numpy as np

from cagop import validate_posteriorgram
from cagop.formats import (
    read_annotations,
    read_ctm,
    read_phone_set,
    read_posteriorgram,
)
from cagop.synth import (
    MEAN_FRAMES,
    NUM_RATERS,
    STOPS,
    SynthConfig,
    default_phone_set,
    generate_corpus,
    read_text_manifest,
    rule_duration_corpus,
    rule_durations,
    write_corpus,
)

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
        for r in utt.ratings:
            assert 0.0 <= r.score <= 10.0
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
        mean_rating = np.mean([r.score for r in u.ratings])
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
    manifest = read_text_manifest(out / "text.tsv")
    assert [u for u, _ in manifest] == [u.utt_id for u in corpus.utterances]
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

"""Aligner correctness against exhaustive enumeration plus fixture cases."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cagop import (
    AlignConfig,
    Alignment,
    DataError,
    PhoneSegment,
    align,
    align_utterances,
)
from cagop.model import CagopError
from cagop.synth import SynthConfig, generate_corpus

from conftest import make_pg, random_pg
from oracles import alignment_log_score


def brute_force_best(pg, phones, cfg):
    """Enumerate every legal segmentation and return the best log score.

    Optional silences are enumerated as present/absent slots around each
    mandatory phone. Only usable for tiny cases.
    """
    num_frames = pg.num_frames
    log_probs = np.log(np.maximum(pg.probs, 1e-10))
    best = -np.inf

    slots = [(p, cfg.min_segment_frames, False) for p in phones]
    layouts = [slots]
    if cfg.allow_optional_silence:
        layouts = []
        for mask in itertools.product([0, 1], repeat=len(phones) + 1):
            layout = []
            for i, p in enumerate(phones):
                if mask[i]:
                    layout.append((cfg.silence_index, 1, True))
                layout.append((p, cfg.min_segment_frames, False))
            if mask[-1]:
                layout.append((cfg.silence_index, 1, True))
            layouts.append(layout)

    for layout in layouts:
        k = len(layout)
        min_total = sum(m for _, m, _ in layout)
        if min_total > num_frames:
            continue
        # compositions of num_frames into k parts respecting minimums
        for cuts in itertools.combinations(range(1, num_frames), k - 1):
            bounds = (0,) + cuts + (num_frames,)
            lengths = [bounds[i + 1] - bounds[i] for i in range(k)]
            if any(l < m for l, (_, m, _) in zip(lengths, layout)):
                continue
            score = 0.0
            for (phone, _, is_sil), s, e in zip(layout, bounds, bounds[1:]):
                score += log_probs[s:e, phone].sum()
                if is_sil:
                    score += cfg.silence_self_loop_penalty * (e - s)
            best = max(best, score)
    return best


def aligned_together(cases, cfg):
    """align_utterances on every (pg, phones) case, one Alignment each."""
    cols = align_utterances(
        [(f"u{k}", pg, phones) for k, (pg, phones) in enumerate(cases)], cfg)
    assert cols.utterance_ids == tuple(f"u{k}" for k in range(len(cases)))
    return [Alignment(tuple(map(PhoneSegment, *(c.tolist() for c in columns))))
            for columns in zip(cols.split(cols.phone), cols.split(cols.start),
                               cols.split(cols.length))]


def test_two_phone_fixture_splits_at_the_obvious_boundary():
    pg = make_pg([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
    al = align(pg, [0, 1], AlignConfig())
    assert al.segments == (PhoneSegment(0, 0, 2), PhoneSegment(1, 2, 2))


def test_single_phone_covers_everything():
    rng = np.random.default_rng(0)
    pg = random_pg(rng, 6, 3)
    al = align(pg, [2], AlignConfig())
    assert al.segments == (PhoneSegment(2, 0, 6),)


def test_infeasible_when_frames_run_out():
    pg = make_pg([[0.5, 0.5]])
    with pytest.raises(DataError):
        align(pg, [0, 1], AlignConfig())


def test_min_segment_frames_respected():
    rng = np.random.default_rng(5)
    pg = random_pg(rng, 9, 3)
    cfg = AlignConfig(min_segment_frames=3)
    al = align(pg, [0, 1, 2], cfg)
    assert all(seg.length >= 3 for seg in al.segments)


def test_empty_phone_sequence_rejected():
    pg = make_pg([[0.5, 0.5]])
    with pytest.raises(DataError):
        align(pg, [], AlignConfig())


def test_log_score_certain_alignment_is_zero():
    pg = make_pg([[1.0, 0.0], [1.0, 0.0]])
    al = align(pg, [0], AlignConfig())
    assert alignment_log_score(pg, al) == 0.0


def test_log_score_half_probability_frames():
    pg = make_pg([[0.5, 0.5], [0.5, 0.5]])
    al = align(pg, [0], AlignConfig())
    assert abs(alignment_log_score(pg, al) - 2 * math.log(0.5)) < 1e-12


def test_log_score_uses_probability_floor():
    pg = make_pg([[0.0, 1.0]])
    al = align(pg, [0], AlignConfig())
    assert abs(alignment_log_score(pg, al) - math.log(1e-10)) < 1e-9


def test_uniform_tie_breaks_to_earliest_boundary():
    # every split has equal score; leftmost boundaries win
    pg = make_pg(np.full((5, 2), 0.5))
    al = align(pg, [0, 1], AlignConfig())
    assert al.segments == (PhoneSegment(0, 0, 1), PhoneSegment(1, 1, 4))


def test_matches_brute_force_without_silence():
    for min_frames, min_cases in ((1, 100), (2, 80), (3, 60)):
        cfg = AlignConfig(min_segment_frames=min_frames)
        cases, alignments = [], []
        for seed in range(120):
            rng = np.random.default_rng(1000 + seed)
            num_frames = int(rng.integers(2, 11))
            num_phones = int(rng.integers(2, 4))
            n_ref = int(rng.integers(1, 4))
            if n_ref * min_frames > num_frames:
                continue
            pg = random_pg(rng, num_frames, num_phones)
            phones = [int(p) for p in rng.integers(0, num_phones, size=n_ref)]
            al = align(pg, phones, cfg)
            got = alignment_log_score(pg, al)
            assert abs(got - brute_force_best(pg, phones, cfg)) <= 1e-9
            assert [s.phone for s in al.segments] == phones
            cases.append((pg, phones))
            alignments.append(al)
        assert len(cases) >= min_cases
        # the same cases several at a time (posteriorgrams of 2 and 3
        # columns, 1 to 3 phones), each alignment unchanged
        assert aligned_together(cases, cfg) == alignments


def penalized_log_score(pg, al, cfg):
    """alignment_log_score plus the silence penalty over silence frames."""
    silence_frames = sum(s.length for s in al.segments if s.phone == cfg.silence_index)
    return alignment_log_score(pg, al) + cfg.silence_self_loop_penalty * silence_frames


def test_matches_brute_force_with_optional_silence():
    for min_frames, penalty, min_cases in ((1, 0.0, 60), (2, -0.5, 55), (3, 0.4, 45)):
        cfg = AlignConfig(allow_optional_silence=True, silence_index=0,
                          min_segment_frames=min_frames,
                          silence_self_loop_penalty=penalty)
        cases, alignments = [], []
        for seed in range(60):
            rng = np.random.default_rng(2000 + seed)
            num_frames = int(rng.integers(3, 11))
            n_ref = int(rng.integers(1, 3))
            pg = random_pg(rng, num_frames, 3)
            phones = [int(p) for p in rng.integers(1, 3, size=n_ref)]
            if n_ref * min_frames > num_frames:
                continue
            al = align(pg, phones, cfg)
            got = penalized_log_score(pg, al, cfg)
            assert abs(got - brute_force_best(pg, phones, cfg)) <= 1e-9
            assert [s.phone for s in al.segments if s.phone != 0] == phones
            assert all(s.length >= min_frames for s in al.segments if s.phone != 0)
            cases.append((pg, phones))
            alignments.append(al)
        assert len(cases) >= min_cases
        assert aligned_together(cases, cfg) == alignments


def test_optional_silence_never_hurts():
    for seed in range(40):
        rng = np.random.default_rng(3000 + seed)
        pg = random_pg(rng, 8, 3)
        phones = [1, 2]
        plain = alignment_log_score(pg, align(pg, phones, AlignConfig()))
        cfg = AlignConfig(allow_optional_silence=True, silence_index=0)
        with_sil = alignment_log_score(pg, align(pg, phones, cfg))
        assert with_sil >= plain - 1e-12


def test_silence_penalty_discourages_insertion():
    # silence column dominates everywhere, but a harsh per-frame penalty
    # must make the penalized score no better than the unpenalized one
    pg = make_pg([[0.98, 0.01, 0.01]] * 6)
    phones = [1, 2]
    free = AlignConfig(allow_optional_silence=True, silence_index=0)
    taxed = AlignConfig(
        allow_optional_silence=True, silence_index=0, silence_self_loop_penalty=-50.0
    )
    al_free = align(pg, phones, free)
    al_taxed = align(pg, phones, taxed)
    assert any(s.phone == 0 for s in al_free.segments)
    assert not any(s.phone == 0 for s in al_taxed.segments)
    # the taxed result obeys the brute-force optimum under the same penalty
    got = alignment_log_score(pg, al_taxed)
    assert abs(got - brute_force_best(pg, phones, taxed)) <= 1e-9


def test_silence_requires_index():
    pg = make_pg([[0.5, 0.5]] * 4)
    with pytest.raises(DataError):
        align(pg, [0], AlignConfig(allow_optional_silence=True))


@pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_silence_penalty(penalty):
    with pytest.raises(DataError, match="silence_self_loop_penalty must be finite"):
        AlignConfig(allow_optional_silence=True, silence_index=0,
                    silence_self_loop_penalty=penalty)


def test_config_rejects_negative_silence_index():
    with pytest.raises(DataError, match="silence_index must be >= 0"):
        AlignConfig(allow_optional_silence=True, silence_index=-1)


def test_silence_index_outside_columns_rejected():
    pg = make_pg([[0.5, 0.5]] * 4)
    cfg = AlignConfig(allow_optional_silence=True, silence_index=2)
    with pytest.raises(DataError, match="silence_index 2 outside"):
        align(pg, [0], cfg)


def test_alignment_reproduces_phone_order():
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        pg = random_pg(rng, 10, 3)
        phones = [int(p) for p in rng.integers(1, 3, size=3)]
        cfg = AlignConfig(allow_optional_silence=True, silence_index=0)
        al = align(pg, phones, cfg)
        non_sil = [s.phone for s in al.segments if s.phone != 0]
        assert non_sil == phones
        covered = sum(s.length for s in al.segments)
        assert covered == 10


SILENCE_AT_TWO = AlignConfig(allow_optional_silence=True, silence_index=0,
                             min_segment_frames=2)
SHORT_CONFIGS = (
    SILENCE_AT_TWO,
    AlignConfig(allow_optional_silence=True, silence_index=0,
                min_segment_frames=1, silence_self_loop_penalty=-0.5),
    AlignConfig(allow_optional_silence=True, silence_index=0,
                min_segment_frames=3),
    AlignConfig(min_segment_frames=2),
)


def alignment_digest(utterances, cfg):
    """sha256 over every (phone, start, length), or the error type raised."""
    digest = hashlib.sha256()
    for utt in utterances:
        try:
            segments = align(utt.posteriorgram, utt.reference_phones, cfg).segments
            digest.update(repr([(s.phone, s.start, s.length) for s in segments]).encode())
        except CagopError as exc:
            digest.update(type(exc).__name__.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_long_form_alignments_are_pinned():
    # Two 180-word paragraphs (about 540 phones, 3,200-3,300 frames each).
    # The digest was recorded with the unbanded (2N+2) x (F+1) dynamic
    # program, so it pins that the band drops no reachable cell.
    paragraphs = [
        generate_corpus(SynthConfig(num_utterances=1, seed=seed, min_words=180,
                                    max_words=180)).utterances[0]
        for seed in (11, 12)
    ]
    assert alignment_digest(paragraphs, SILENCE_AT_TWO) == (
        "239997c85696c6ff5ba460b19911918cab3536427c058a39f66d2634dcdf2c94")


def test_short_alignments_are_pinned():
    # 50 seed-1 utterances under each config; digests recorded with the
    # unbanded (2N+2) x (F+1) dynamic program, exceptions included.
    utterances = generate_corpus(SynthConfig(num_utterances=50, seed=1)).utterances
    assert [alignment_digest(utterances, cfg) for cfg in SHORT_CONFIGS] == [
        "f3300fd4d3a5c8c1bad98b7d142c1c5562507bc5a13dd5ed902a9874633befa8",
        "7c09444203ba35000604e1579565dfb521036ea31d1dbff9e6f7b46aa510ea7f",
        "f96491a8718345ac1be50beaf47e85eae6aef4fa577c6c50be6cbe9e12fbeebb",
        "1da47f778911f06b0b230dc745bcd185b8d1e10c0e66954b7471ae97e8a1af0b",
    ]


def test_long_form_align_memory_stays_bounded():
    utt = generate_corpus(SynthConfig(num_utterances=1, seed=3, min_words=205,
                                      max_words=205, tempo_low=1.2,
                                      tempo_high=1.2)).utterances[0]
    assert 580 <= len(utt.reference_phones) <= 620  # 600 when written
    assert 4600 <= utt.posteriorgram.num_frames <= 5000  # 4,837 when written
    tracemalloc.start()
    try:
        align(utt.posteriorgram, utt.reference_phones, SILENCE_AT_TWO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Unbanded (2N+2) x (F+1) tables with a cumulative sum per element peak
    # at about 90 MiB here, the banded ones at about 33 MiB.
    assert peak <= 64 * 2**20


@pytest.mark.parametrize("cfg", SHORT_CONFIGS)
def test_aligning_together_matches_aligning_alone(cfg):
    # 1-15-phone utterances of 13-column posteriorgrams, every seed-1 corpus
    # utterance the config can align and one 180-word paragraph, in one call
    rng = np.random.default_rng(6)
    cases = []
    for k in range(60):
        phones = [int(p) for p in rng.integers(1, 13, size=k % 15 + 1)]
        frames = len(phones) * cfg.min_segment_frames + int(rng.integers(0, 40))
        cases.append((random_pg(rng, frames, 13), phones))
    for utt in generate_corpus(SynthConfig(num_utterances=50, seed=1)).utterances:
        needed = len(utt.reference_phones) * cfg.min_segment_frames
        if utt.posteriorgram.num_frames >= needed:
            cases.append((utt.posteriorgram, list(utt.reference_phones)))
    paragraph = generate_corpus(SynthConfig(num_utterances=1, seed=11, min_words=180,
                                            max_words=180)).utterances[0]
    cases.insert(len(cases) // 2,
                 (paragraph.posteriorgram, list(paragraph.reference_phones)))
    assert len(cases) >= 100
    assert aligned_together(cases, cfg) == [align(pg, phones, cfg)
                                            for pg, phones in cases]


def test_align_utterances_reports_the_first_bad_utterance():
    pg = make_pg([[0.5, 0.5]] * 4)
    utterances = [("fine", pg, [0, 1]), ("long", pg, [0, 1, 0, 1, 0]),
                  ("empty", pg, [])]
    with pytest.raises(DataError, match="5 phones need >= 5 frames"):
        align_utterances(utterances, AlignConfig())
    cols = align_utterances([], AlignConfig())
    assert cols.utterance_ids == () and cols.phone.size == 0


def test_align_utterances_memory_stays_bounded():
    # 2,000 short utterances (13 MiB of posteriors): padded tables are
    # made for one chunk at a time, so only the output columns grow with
    # the corpus. The peak was 1.8 MiB when written; padding all 2,000 at
    # once would take over 30 MiB.
    utterances = generate_corpus(SynthConfig(num_utterances=2000, seed=2)).utterances
    peaks = {}
    for n in (500, 2000):
        triples = ((u.utt_id, u.posteriorgram, u.reference_phones)
                   for u in utterances[:n])
        tracemalloc.start()
        try:
            cols = align_utterances(triples, SILENCE_AT_TWO)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cols.utterance_ids) == n
    assert peaks[2000] <= 4 * 2**20
    assert peaks[2000] - peaks[500] < 1.5 * 2**20

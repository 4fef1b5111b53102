"""Direction properties of the scores, on the production scoring path.

A lower score means "more likely mispronounced". Each test draws seeded
random cases and checks that a change which can only make a phone look
better (or worse) never moves its score, sentence score, duration
mismatch or flag the other way. The transition-aware score (TA) weights a
frame by its entropy, so it is checked only under changes that keep every
frame's entropy: raising one frame's posterior with the other phones
scaled down can raise that frame's entropy, shift its weight onto a worse
frame, and lower TA.
"""

import numpy as np

from cagop import (
    BalanceTable,
    DetectorConfig,
    SegmentColumns,
    ThresholdTable,
    detect_flags,
)
from cagop.detector import score_utterances
from cagop.scoring import entropy_profile

from conftest import make_pg

CASES = 1000


def _segments(rng, frames):
    """Random segments tiling ``frames`` frames: (starts, lengths)."""
    cuts = rng.choice(np.arange(1, frames), rng.integers(0, frames), replace=False)
    bounds = np.r_[0, np.sort(cuts), frames]
    return bounds[:-1], np.diff(bounds)


def _raised(row, ref, rng):
    """``row`` with its ``ref`` posterior raised, the others scaled down."""
    if row[ref] >= 1.0:
        return None
    top = row[ref] + (1.0 - row[ref]) * rng.uniform(0.0, 1.0)
    raised = row * ((1.0 - top) / (1.0 - row[ref]))
    raised[ref] = top
    return raised


def _swapped(row, ref, rng):
    """``row`` with its ``ref`` posterior swapped for a larger one."""
    larger = np.flatnonzero(row > row[ref])
    if not larger.size:
        return None
    other = rng.choice(larger)
    swapped = row.copy()
    swapped[[ref, other]] = row[[other, ref]]
    return swapped


def _cases(rng, change=_raised):
    """Utterances as (posteriorgram, phones, starts, lengths), and each with
    one frame of one segment changed to ``change(row, reference phone, rng)``
    (cases where it gives None are left out)."""
    before, after = [], []
    for _ in range(CASES):
        frames, columns = int(rng.integers(1, 10)), int(rng.integers(2, 6))
        probs = rng.dirichlet(np.full(columns, rng.uniform(0.05, 4.0)), frames)
        starts, lengths = _segments(rng, frames) if frames > 1 else ([0], [1])
        phones = rng.integers(0, columns, len(starts))
        k = int(rng.integers(len(starts)))
        frame = starts[k] + int(rng.integers(lengths[k]))
        row = change(probs[frame], phones[k], rng)
        if row is not None:
            changed = probs.copy()
            changed[frame] = row
            before.append((make_pg(probs), phones, starts, lengths))
            after.append((make_pg(changed), phones, starts, lengths))
    return before, after


def _score(utts, cfg, predicted=None, balance=None):
    counts = [len(phones) for _, phones, _, _ in utts]
    segments = SegmentColumns(
        tuple(map(str, range(len(utts)))), np.array(counts),
        *(np.concatenate([u[k] for u in utts]).astype(np.int64) for k in (1, 2, 3)))
    return score_utterances(segments, (pg for pg, *_ in utts), cfg, predicted, balance)


def test_raising_the_reference_posterior_never_lowers_a_score():
    before, after = _cases(np.random.default_rng(12))
    assert len(before) > 0.99 * CASES
    for variant in ("gop", "center_gop"):
        cfg = DetectorConfig(variant=variant, beta=0.0)
        old, new = _score(before, cfg), _score(after, cfg)
        assert (new.score >= old.score).all(), variant
        assert (new.score > old.score).any(), variant
        # a sentence score never falls when one of its phone scores rises
        assert (new.sentence_scores >= old.sentence_scores).all(), variant


def test_a_larger_reference_posterior_at_the_same_entropies_never_lowers_ta():
    before, after = _cases(np.random.default_rng(21), _swapped)
    assert len(before) > 0.6 * CASES
    # A swap keeps each row's entropy, but the row sum behind it may round
    # differently. Where it does (a few ulps), TA's weights may move by a few
    # ulps too; as every log posterior is <= 0, that moves TA, and a
    # sentence mean of such scores, by at most 16 eps of its magnitude.
    old_h, new_h = ([entropy_profile(pg) for pg, *_ in utts]
                    for utts in (before, after))
    assert all((abs(a - b) <= 4 * np.spacing(np.maximum(a, b))).all()
               for a, b in zip(old_h, new_h))
    moved = np.array([(a != b).any() for a, b in zip(old_h, new_h)])
    assert 0 < moved.sum() < len(moved)
    counts = [len(phones) for _, phones, _, _ in before]
    for variant in ("cagop_minus_dur", "gop", "center_gop"):
        cfg = DetectorConfig(variant=variant, beta=0.0)
        old, new = _score(before, cfg), _score(after, cfg)
        rounding = 16 * np.finfo(float).eps * (variant == "cagop_minus_dur")
        assert (new.score >= old.score - rounding * abs(old.score)
                * np.repeat(moved, counts)).all(), variant
        assert (new.score > old.score).any(), variant
        assert (new.sentence_scores >= old.sentence_scores - rounding
                * abs(old.sentence_scores) * moved).all(), variant


def _balance(rng, extra=0.0):
    """A table with cells, phone backoffs and a global value, each + extra."""
    return BalanceTable(
        entries={(int(p), int(b) + 1): rng.uniform(0.0, 3.0) + extra
                 for p, b in zip(rng.integers(0, 4, 12), rng.integers(1, 8, 12))},
        phone_backoff={int(p): rng.uniform(0.0, 3.0) + extra
                       for p in rng.integers(0, 4, 3)},
        global_backoff=rng.uniform(0.0, 3.0) + extra,
    )


def test_delta_rises_with_the_duration_error_and_falls_with_the_tolerance():
    rng = np.random.default_rng(5)
    utts = _cases(rng)[0]
    lengths = np.concatenate([lengths for *_, lengths in utts])
    cfg = DetectorConfig(variant="cagop", beta=0.1)
    # a prediction d * exp(+-g) is further from d as g grows, and positive
    sign = rng.choice([-1.0, 1.0], len(lengths))
    gap = rng.exponential(0.5, len(lengths))
    wider = gap + rng.exponential(0.5, len(lengths)) * rng.integers(0, 2, len(lengths))
    near, far = (lengths * np.exp(sign * g) for g in (gap, wider))
    seed = int(rng.integers(1 << 30))
    table = _balance(np.random.default_rng(seed))
    looser = _balance(np.random.default_rng(seed), extra=rng.uniform(0.0, 1.0))
    base = _score(utts, cfg, near, table).delta
    assert (_score(utts, cfg, far, table).delta >= base).all()
    assert (_score(utts, cfg, near, looser).delta <= base).all()


def test_lowering_a_score_never_clears_its_flag():
    rng = np.random.default_rng(8)
    for _ in range(200):
        thresholds = ThresholdTable(
            {int(p): rng.normal(-1.0, 0.5) for p in rng.integers(0, 6, 3)},
            rng.normal(-1.0, 0.5))
        phones = rng.integers(0, 8, 30).tolist()
        scores = rng.normal(-1.0, 0.7, 30)
        # some scores sit exactly on their threshold, where the flag is off
        on = rng.random(30) < 0.2
        scores[on] = [thresholds.per_phone.get(p, thresholds.global_threshold)
                      for p in np.array(phones)[on]]
        lowered = scores - rng.exponential(0.3, 30) * rng.integers(0, 2, 30)
        old = detect_flags(phones, scores.tolist(), thresholds)
        new = detect_flags(phones, lowered.tolist(), thresholds)
        assert all(n or not o for o, n in zip(old, new))

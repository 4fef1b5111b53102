"""Test oracles: checks and corpora that only the tests use.

They exercise the package's production functions (the duration net's
backward pass and Adam state, the duration rule of the synthetic corpus)
without being part of the package.
"""

import itertools
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from cagop.align import AlignConfig
from cagop.duration.net import (
    DurationNetConfig,
    DurationNetParams,
    DurationSample,
    backward,
    init_params,
    iter_tensors,
)
from cagop.duration.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _AdamState,
    noam_lr,
)
from cagop.model import (
    PROB_FLOOR,
    Alignment,
    DataError,
    NumericError,
    PhoneSegment,
    Posteriorgram,
    slice_segment,
)
from cagop.synth import default_phone_set, rule_durations


def alignment_log_score(pg: Posteriorgram, al: Alignment) -> float:
    """Sum of floored log posteriors of each segment's phone over its frames."""
    total = 0.0
    for seg in al.segments:
        rows = slice_segment(pg, seg)
        total += float(np.sum(np.log(np.maximum(rows[:, seg.phone], PROB_FLOOR))))
    return total


def segmentations(num_frames: int, phones: Sequence[int], cfg: AlignConfig):
    """Every legal segmentation, as ``(element, phone, start, length)`` tuples.

    Elements are numbered as the aligner numbers them: with optional
    silences, element 2j is the silence slot before phone j (2N the one
    after the last phone) and 2j + 1 is phone j; without, element j is phone
    j. An empty silence slot has no tuple. Only usable for tiny cases.
    """
    silence = cfg.allow_optional_silence
    mandatory = [(2 * j + 1 if silence else j, p, cfg.min_segment_frames)
                 for j, p in enumerate(phones)]
    for mask in itertools.product((0, 1), repeat=(len(phones) + 1) * silence):
        layout = sorted(mandatory + [(2 * j, cfg.silence_index, 1)
                                     for j, on in enumerate(mask) if on])
        for cuts in itertools.combinations(range(1, num_frames), len(layout) - 1):
            bounds = (0, *cuts, num_frames)
            lengths = [e - s for s, e in zip(bounds, bounds[1:])]
            if all(n >= m for n, (_, _, m) in zip(lengths, layout)):
                yield tuple((i, p, s, n) for (i, p, _), s, n in zip(layout, bounds, lengths))


def scored_segmentations(pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig):
    """``segmentations`` of ``pg`` with their scores, as (score, segments).

    A score sums the floored log posteriors of each segment's phone over its
    frames.
    """
    log_probs = np.log(np.maximum(pg.probs, PROB_FLOOR))
    for segments in segmentations(pg.num_frames, phones, cfg):
        yield sum(log_probs[s : s + n, p].sum() for _, p, s, n in segments), segments


def brute_force_best(pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig) -> float:
    """Best segmentation score, by enumerating every legal segmentation."""
    return max(score for score, _ in scored_segmentations(pg, phones, cfg))


def tie_rule_alignment(pg: Posteriorgram, phones: Sequence[int], cfg: AlignConfig):
    """The aligner's tie rule by enumeration: (alignment, every optimum).

    Among the segmentations of the best score, the aligner's backtrack
    decides the elements from the last one back: an optional silence is
    left out if some optimum leaves it out, and otherwise the segment starts
    at the earliest frame any remaining optimum allows. That is the least
    optimum under the key below, read from the last element. Scores are
    compared with ``==``, so ties are only exact when every log sum is.
    """
    options = list(scored_segmentations(pg, phones, cfg))
    best = max(score for score, _ in options)
    optima = [segments for score, segments in options if score == best]

    elements = 2 * len(phones) + 1 if cfg.allow_optional_silence else len(phones)

    def key(segments):
        starts = {i: s for i, _, s, _ in segments}
        return [(i in starts, starts.get(i, 0)) for i in reversed(range(elements))]

    chosen = min(optima, key=key)
    return Alignment(tuple(PhoneSegment(p, s, n) for _, p, s, n in chosen)), optima


def phone_mean_baseline_mae(
    train_samples: Sequence[DurationSample],
    eval_samples: Sequence[DurationSample],
) -> float:
    """MAE of predicting each phone's global mean training duration.

    The reference point for duration-model quality: no context, no speed,
    one constant per phone (overall mean for phones unseen in training).
    """
    if not train_samples or not eval_samples:
        raise DataError("baseline needs non-empty train and eval sets")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    total = 0.0
    n = 0
    for s in train_samples:
        for phone, dur in zip(s.phones, s.durations):
            sums[phone] = sums.get(phone, 0.0) + dur
            counts[phone] = counts.get(phone, 0) + 1
            total += dur
            n += 1
    overall = total / n
    means = {p: sums[p] / counts[p] for p in sums}
    err = 0.0
    m = 0
    for s in eval_samples:
        for phone, dur in zip(s.phones, s.durations):
            err += abs(means.get(phone, overall) - dur)
            m += 1
    return err / m


def overfit_single(
    sample: DurationSample,
    cfg: DurationNetConfig,
    num_phones: Optional[int] = None,
    max_steps: int = 2000,
    target_loss: float = 0.01,
) -> tuple[DurationNetParams, list[float]]:
    """Drive the loss on one sample below target_loss; returns the loss trace.

    Dropout is disabled: memorizing a single point is a capacity check, not
    a regularization exercise.
    """
    if num_phones is None:
        num_phones = max(sample.phones) + 1
    eval_cfg = replace(cfg, dropout_rate=0.0, batch_size=1)
    rng = np.random.default_rng(eval_cfg.seed)
    params = init_params(eval_cfg, num_phones, rng)
    adam = _AdamState(params)
    trace: list[float] = []
    for _ in range(max_steps):
        loss, grads = backward(params, eval_cfg, sample)
        if not np.isfinite(loss):
            raise NumericError(
                f"overfit diverged: non-finite loss at step {adam.step + 1}"
            )
        trace.append(loss)
        if loss < target_loss:
            break
        adam.update(params, grads, noam_lr(adam.step + 1, eval_cfg))
    return params, trace


def adam_step_per_tensor(
    params: DurationNetParams,
    grads: DurationNetParams,
    m: DurationNetParams,
    v: DurationNetParams,
    step: int,
    lr: float,
) -> None:
    """One Adam step applied tensor by tensor, in place.

    The reference for ``_AdamState.update``: ``m`` and ``v`` are the first
    and second moments, shaped like ``params``, and ``step`` counts from 1.
    """
    correct1 = 1.0 - ADAM_BETA1 ** step
    correct2 = 1.0 - ADAM_BETA2 ** step
    for (_, p), (_, g), (_, mt), (_, vt) in zip(
        iter_tensors(params), iter_tensors(grads),
        iter_tensors(m), iter_tensors(v),
    ):
        mt *= ADAM_BETA1
        mt += (1.0 - ADAM_BETA1) * g
        vt *= ADAM_BETA2
        vt += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (mt / correct1) / (np.sqrt(vt / correct2) + ADAM_EPS)


def gradient_check(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    sample: DurationSample,
    step: float = 1e-5,
    max_entries_per_tensor: int = 4,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic and central-difference grads.

    Checks a seeded random subset of entries in every tensor. Relative
    error is |fd - an| / max(|fd|, |an|, 1e-8). Dropout must be off, since
    finite differences need a deterministic loss.
    """
    if cfg.dropout_rate != 0.0:
        raise DataError("gradient_check requires dropout_rate == 0")
    _, analytic = backward(params, cfg, sample)
    picker = np.random.default_rng(seed)
    worst = 0.0
    tensors = dict(iter_tensors(params))
    for name, grad in iter_tensors(analytic):
        tensor = tensors[name]
        flat = tensor.reshape(-1)
        total = flat.size
        chosen = (
            np.arange(total)
            if total <= max_entries_per_tensor
            else picker.choice(total, size=max_entries_per_tensor, replace=False)
        )
        for idx in chosen:
            original = flat[idx]
            flat[idx] = original + step
            up, _ = backward(params, cfg, sample)
            flat[idx] = original - step
            down, _ = backward(params, cfg, sample)
            flat[idx] = original
            fd = (up - down) / (2.0 * step)
            an = grad.reshape(-1)[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
    return worst


def rule_duration_corpus(
    num_sequences: int,
    seed: int,
    min_len: int = 4,
    max_len: int = 12,
    tempo_low: float = 0.8,
    tempo_high: float = 1.25,
    noise: float = 0.5,
) -> list[DurationSample]:
    """Duration-only training data following the full duration rule.

    Per-phone base plus neighbor effects plus tempo scaling plus rounding
    noise: a predictor that reads the sequence context and the speed input
    can beat any per-phone constant by a wide margin.
    """
    if num_sequences < 1:
        raise DataError("num_sequences must be >= 1")
    rng = np.random.default_rng(seed)
    phone_set = default_phone_set()
    real = [i for i in range(len(phone_set)) if not phone_set.is_silence(i)]
    samples = []
    for _ in range(num_sequences):
        n = int(rng.integers(min_len, max_len + 1))
        phones = [real[int(rng.integers(len(real)))] for _ in range(n)]
        tempo = rng.uniform(tempo_low, tempo_high)
        durations = [
            float(d)
            for d in rule_durations(rng, phone_set, phones, tempo, noise)
        ]
        samples.append(DurationSample.from_durations(phones, durations))
    return samples

"""Acceptance suite: the guarantees this package ships with.

One test per criterion. Each prints a single verdict line of the form
``[acceptance] criterion N <name>: PASS|FAIL (<numbers>)`` with capture
suspended, so the verdicts are visible in normal pytest runs, then
asserts. Criteria with runtime budgets enforce them.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from cagop import (
    AlignConfig,
    Alignment,
    DetectorConfig,
    PhoneSegment,
    PhoneSet,
    SegmentColumns,
    ThresholdTable,
    align,
    calibrate_thresholds,
    detect_flags,
    fit_balance_table,
    lookup_tolerance,
    score_utterance,
    utterance_speeds,
)
from cagop.balance import BalanceTable
from cagop.detector import VARIANTS, cagop_score
from cagop.duration import (
    DurationSample,
    TrainLogEntry,
    desk_config,
    init_params,
    iter_tensors,
    predict_durations_batch,
    tiny_config,
    train,
)
from cagop.formats import (
    AnnotationSet,
    ScoreFile,
    read_annotations,
    read_balance_table,
    read_checkpoint,
    read_ctm,
    read_lexicon,
    read_phone_set,
    read_posteriorgram_binary,
    read_posteriorgram_text,
    read_score_file,
    read_thresholds,
    read_training_log,
    write_annotations,
    write_balance_table,
    write_checkpoint,
    write_ctm,
    write_lexicon,
    write_phone_set,
    write_posteriorgram_binary,
    write_posteriorgram_text,
    write_score_file,
    write_thresholds,
    write_training_log,
)
from cagop.metrics import (
    confusion_counts,
    mae_frames,
    pearson,
    rankdata,
    spearman,
)
from cagop.scoring import frame_entropy, gop, tascore
from cagop.synth import (
    SynthConfig,
    generate_corpus,
    write_corpus,
)

from conftest import fit_on_samples, make_pg, random_pg
from oracles import (
    alignment_log_score,
    gradient_check,
    overfit_single,
    phone_mean_baseline_mae,
    rule_duration_corpus,
)
from test_align import brute_force_best


@pytest.fixture
def verdict(capfd):
    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        line = (
            f"[acceptance] criterion {num} {name}: "
            f"{'PASS' if ok else 'FAIL'} ({detail})"
        )
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_criterion_01_score_reductions(verdict):
    t0 = perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    bitwise_ok = True
    for _ in range(100):
        num_phones = int(rng.integers(2, 12))
        frames = int(rng.integers(2, 9))
        row = rng.dirichlet(np.full(num_phones, float(rng.uniform(0.3, 4.0))))
        pg = make_pg(np.tile(row, (frames, 1)))
        seg = PhoneSegment(int(rng.integers(num_phones)), 0, frames)
        weighted, _ = tascore(pg, seg)
        worst = max(worst, abs(weighted - gop(pg, seg)))
        ta = float(rng.normal())
        bitwise_ok &= cagop_score(ta, float(rng.normal()), 0.0) == ta
        bitwise_ok &= cagop_score(ta, 0.0, float(rng.uniform(0.0, 2.0))) == ta
    elapsed = perf_counter() - t0
    verdict(
        1, "score reductions",
        worst <= 1e-12 and bitwise_ok and elapsed < 1.0,
        f"constant-entropy gap {worst:.2e} <= 1e-12, zero-weight and "
        f"zero-mismatch collapse bitwise, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_entropy_bounds(verdict):
    t0 = perf_counter()
    rng = np.random.default_rng(21)
    in_bounds = True
    for _ in range(1000):
        k = int(rng.integers(2, 51))
        p = rng.dirichlet(np.full(k, float(rng.uniform(0.2, 5.0))))
        e = frame_entropy(p)
        in_bounds &= 0.0 <= e <= math.log(k) + 1e-12
    onehot_ok = all(frame_entropy(np.eye(k)[0]) == 0.0 for k in (2, 7, 50))
    worst_uniform = max(
        abs(frame_entropy(np.full(k, 1.0 / k)) - math.log(k))
        for k in (2, 7, 50)
    )
    elapsed = perf_counter() - t0
    verdict(
        2, "entropy bounds",
        in_bounds and onehot_ok and worst_uniform <= 1e-12 and elapsed < 1.0,
        f"1000 draws inside [0, ln k], one-hot exactly 0, uniform off by "
        f"{worst_uniform:.2e}, {elapsed:.2f}s < 1s",
    )


def test_criterion_03_gradient_check(verdict):
    t0 = perf_counter()
    cfg = tiny_config(seed=0)
    sample = DurationSample.from_durations(
        [3, 7, 1, 5, 2], [4.0, 9.0, 3.0, 6.0, 5.0]
    )
    params = init_params(cfg, 10, np.random.default_rng(0))
    # a huge per-tensor cap makes the subset check exhaustive
    worst = gradient_check(
        params, cfg, sample, step=1e-5, max_entries_per_tensor=10**9
    )
    elapsed = perf_counter() - t0
    verdict(
        3, "gradient check",
        worst < 1e-4 and elapsed < 30.0,
        f"worst relative error over every parameter {worst:.2e} < 1e-4, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_04_duration_learnability(verdict):
    t0 = perf_counter()
    train_set = rule_duration_corpus(500, seed=101)
    val_set = rule_duration_corpus(100, seed=202)
    _, log = train(train_set, desk_config(seed=0), val_set, epochs=60)
    model_mae = min(entry.val_mae for entry in log)
    base_mae = phone_mean_baseline_mae(train_set, val_set)
    ratio = model_mae / base_mae
    elapsed = perf_counter() - t0
    verdict(
        4, "duration learnability",
        ratio <= 0.75 and elapsed < 600.0,
        f"val MAE {model_mae:.4f} vs per-phone-mean {base_mae:.4f}, "
        f"ratio {ratio:.3f} <= 0.75, {elapsed:.0f}s < 600s",
    )


def test_criterion_05_single_sample_overfit(verdict):
    t0 = perf_counter()
    sample = DurationSample.from_durations(
        [3, 7, 1, 5, 2, 4], [4.0, 9.0, 3.0, 6.0, 5.0, 7.0]
    )
    _, trace = overfit_single(sample, desk_config(seed=0), num_phones=10)
    elapsed = perf_counter() - t0
    verdict(
        5, "single-sample overfit",
        trace[-1] < 0.01 and len(trace) <= 2000 and elapsed < 60.0,
        f"loss {trace[-1]:.4f} < 0.01 after {len(trace)} steps (cap 2000), "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_06_aligner_optimality(verdict):
    t0 = perf_counter()
    cases = 0
    worst = 0.0
    for seed in range(120):
        rng = np.random.default_rng(5000 + seed)
        frames = int(rng.integers(2, 11))
        num_phones = int(rng.integers(2, 4))
        n_ref = int(rng.integers(1, min(3, frames) + 1))
        pg = random_pg(rng, frames, num_phones)
        phones = [int(p) for p in rng.integers(0, num_phones, size=n_ref)]
        cfg = AlignConfig()
        got = alignment_log_score(pg, align(pg, phones, cfg))
        worst = max(worst, abs(got - brute_force_best(pg, phones, cfg)))
        cases += 1
    for seed in range(80):
        rng = np.random.default_rng(6000 + seed)
        frames = int(rng.integers(3, 11))
        n_ref = int(rng.integers(1, 3))
        pg = random_pg(rng, frames, 3)
        phones = [int(p) for p in rng.integers(1, 3, size=n_ref)]
        cfg = AlignConfig(allow_optional_silence=True, silence_index=0)
        got = alignment_log_score(pg, align(pg, phones, cfg))
        worst = max(worst, abs(got - brute_force_best(pg, phones, cfg)))
        cases += 1
    elapsed = perf_counter() - t0
    verdict(
        6, "aligner optimality",
        cases == 200 and worst <= 1e-9 and elapsed < 10.0,
        f"{cases} cases, worst gap to enumerated optimum {worst:.2e} "
        f"<= 1e-9, {elapsed:.1f}s < 10s",
    )


def test_criterion_07_detection_ordering(verdict):
    t0 = perf_counter()
    corpus = generate_corpus(SynthConfig(num_utterances=240, seed=0))
    ps = corpus.phone_set
    acfg = AlignConfig(
        allow_optional_silence=True, min_segment_frames=2,
        silence_index=ps.silence_index,
    )
    aligned = [
        (utt, align(utt.posteriorgram, list(utt.reference_phones), acfg))
        for utt in corpus.utterances
    ]

    speech = SegmentColumns.from_alignments(
        (utt.utt_id, al) for utt, al in aligned).non_silence(ps)
    samples = [
        DurationSample.from_durations(phones, lengths)
        for phones, lengths in zip(speech.split(speech.phone),
                                   speech.split(speech.length))
    ]
    order = np.random.default_rng(0).permutation(len(samples))
    n_val = max(1, len(samples) // 10)
    val = [samples[i] for i in order[:n_val]]
    tr = [samples[i] for i in order[n_val:]]
    dcfg = desk_config(seed=0)
    params, _ = train(tr, dcfg, val, num_phones=len(ps), epochs=30)

    predicted = predict_durations_batch(
        params, dcfg, [(s.phones, s.speed) for s in samples]
    )
    table = fit_balance_table(
        speech.phone, speech.length, np.concatenate(predicted),
        np.repeat(utterance_speeds(speech.length, speech.counts),
                  speech.counts),
    )

    variant_cfgs = {
        "gop": DetectorConfig(variant="gop", beta=0.0),
        "cagop_minus_dur": DetectorConfig(variant="cagop_minus_dur", beta=0.0),
        "cagop": DetectorConfig(variant="cagop", beta=0.1),
        "cagop_minus_ta": DetectorConfig(variant="cagop_minus_ta", beta=0.1),
    }
    per_variant = {name: [] for name in variant_cfgs}
    for idx, ((utt, alignment), preds) in enumerate(zip(aligned, predicted)):
        for name, vcfg in variant_cfgs.items():
            report = score_utterance(
                utt.posteriorgram, alignment, ps, vcfg,
                predicted_durations=preds if vcfg.needs_durations else None,
                balance=table if vcfg.needs_durations else None,
                utterance_id=utt.utt_id,
            )
            for pos, rec in enumerate(report.per_phone):
                per_variant[name].append(
                    (idx, rec.phone, rec.score, utt.mispronounced[pos])
                )

    f1 = {}
    for name, rows in per_variant.items():
        dev = [r for r in rows if r[0] % 2 == 0]
        ev = [r for r in rows if r[0] % 2 == 1]
        thresholds = calibrate_thresholds(
            [r[1] for r in dev], [r[2] for r in dev], [r[3] for r in dev]
        )
        flags = detect_flags([r[1] for r in ev], [r[2] for r in ev], thresholds)
        f1[name] = confusion_counts(flags, [r[3] for r in ev]).f1

    ordered = (
        f1["cagop"] >= f1["cagop_minus_dur"] >= f1["gop"]
        and f1["cagop"] >= f1["cagop_minus_ta"]
    )
    elapsed = perf_counter() - t0
    verdict(
        7, "detection ordering",
        ordered and elapsed < 300.0,
        "eval-half F1 " + " ".join(
            f"{name}={f1[name]:.4f}"
            for name in ("gop", "cagop_minus_ta", "cagop_minus_dur", "cagop")
        ) + f", {elapsed:.0f}s < 300s",
    )


def test_criterion_08_metric_fixtures(verdict):
    detection = confusion_counts([True, True, True, False, False],
                                 [True, True, False, True, False])
    fixture_errors = [
        abs(pearson([1, 2, 3, 4], [2, 4, 6, 8]) - 1.0),
        abs(pearson([1, 2, 3], [6, 4, 2]) + 1.0),
        abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8),
        abs(spearman([1, 1, 2], [3, 5, 10]) - math.sqrt(3) / 2),
        abs(spearman([1, 2, 3], [1.0, 7.389, 8103.08]) - 1.0),
        abs(detection.f1 - 2.0 / 3.0),
        abs(detection.accuracy - 0.6),
        abs(mae_frames([4, 7], [3, 5]) - 1.5),
    ]
    worst = max(fixture_errors)

    ranks_agree = True
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 6, size=n).astype(np.float64)  # ties likely
        x[0], x[1] = 0.0, 5.0  # never constant
        y = rng.normal(size=n)
        ranks_agree &= spearman(x, y) == pearson(rankdata(x), rankdata(y))

    verdict(
        8, "metric fixtures",
        worst <= 1e-9 and ranks_agree,
        f"worst fixture error {worst:.2e} <= 1e-9; rank correlation equals "
        "correlation of ranks bitwise on 50 draws",
    )


def _fit_errors(rows, **kwargs):
    """Table fitted on (phone, signed errors, speed) rows, one per utterance.

    Every phone of a row lasts ``speed`` frames, so the row's mean duration
    is that speed, and is predicted to last ``speed + error`` frames.
    """
    return fit_on_samples(
        [DurationSample.from_durations([phone] * len(errors), [speed] * len(errors))
         for phone, errors, speed in rows],
        [[speed + e for e in errors] for _, errors, speed in rows],
        **kwargs,
    )


def test_criterion_09_tolerance_construction(verdict):
    # symmetric unit errors: mean 1, zero spread, tolerance exactly 1
    fixture = _fit_errors([(2, [-1.0, 1.0], 5.0)], min_count=2)
    # absolute errors {1, 3}: mean 2 plus 1.5 * unit spread = 3.5
    two_value = _fit_errors([(2, [1.0, 3.0], 5.0)], min_count=2)
    fixture_ok = (
        lookup_tolerance(fixture, 2, 5.0) == 1.0
        and abs(lookup_tolerance(two_value, 2, 5.0) - 3.5) <= 1e-12
    )

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(5, 40))
        errors = np.abs(rng.normal(0.0, 3.0, size=n))
        table = _fit_errors([(0, errors.tolist(), 5.0)])
        expected = errors.mean() + 1.5 * errors.std()
        worst = max(worst, abs(lookup_tolerance(table, 0, 5.0) - expected))

    chained = _fit_errors([(1, [2.0] * 5, 5.0), (1, [3.0, 3.0], 9.0)])
    pooled = np.array([2.0] * 5 + [3.0] * 2)
    chain_ok = (
        lookup_tolerance(chained, 1, 5.0) == 2.0  # dense cell
        and abs(
            lookup_tolerance(chained, 1, 9.0)  # sparse cell -> phone pool
            - (pooled.mean() + 1.5 * pooled.std())
        ) <= 1e-12
        and lookup_tolerance(chained, 3, 5.0) == chained.global_backoff
    )

    verdict(
        9, "tolerance construction",
        fixture_ok and worst <= 1e-12 and chain_ok,
        f"two-value cell hits 3.5, worst mean+1.5*std gap {worst:.2e} "
        "<= 1e-12, backoff walks cell -> phone -> global",
    )


def _roundtrip_posteriorgrams(rng, tmp_path) -> int:
    done = 0
    for i in range(100):
        pg = random_pg(rng, int(rng.integers(1, 7)), int(rng.integers(2, 7)),
                       frame_shift_ms=float(rng.uniform(5.0, 50.0)))
        bin_a = tmp_path / "pg_a.pgm"
        bin_b = tmp_path / "pg_b.pgm"
        write_posteriorgram_binary(bin_a, pg)
        back = read_posteriorgram_binary(bin_a)
        narrowed = pg.probs.astype(np.float32).astype(np.float64)
        assert np.array_equal(back.probs, narrowed)
        assert back.frame_shift_ms == pg.frame_shift_ms
        write_posteriorgram_binary(bin_b, back)
        assert bin_a.read_bytes() == bin_b.read_bytes()
        txt = tmp_path / "pg.pgt"
        write_posteriorgram_text(txt, back)
        twin = read_posteriorgram_text(txt)
        assert np.array_equal(twin.probs, back.probs)
        assert twin.frame_shift_ms == back.frame_shift_ms
        done += 1
    return done


def _random_phone_set(rng) -> PhoneSet:
    n = int(rng.integers(2, 8))
    labels = tuple(f"P{j}" for j in range(n))
    if rng.random() < 0.5:
        return PhoneSet(("SIL",) + labels, silence_index=0)
    return PhoneSet(labels, silence_index=None)


def _random_alignment(rng, num_phones) -> Alignment:
    segments = []
    start = 0
    for _ in range(int(rng.integers(1, 5))):
        length = int(rng.integers(1, 5))
        segments.append(
            PhoneSegment(int(rng.integers(num_phones)), start, length)
        )
        start += length
    return Alignment(segments=tuple(segments))


def _random_float(rng) -> float:
    return float(rng.normal() * 10.0 ** int(rng.integers(-6, 7)))


def _roundtrip_tables(rng, tmp_path, ps) -> int:
    done = 0
    for i in range(100):
        # phone sets
        ps_i = _random_phone_set(rng)
        write_phone_set(tmp_path / "ps.txt", ps_i)
        assert read_phone_set(tmp_path / "ps.txt") == ps_i

        # lexicon over the shared phone set; words are stored uppercase
        lex = {
            f"W{j}": tuple(
                ps.label(int(rng.integers(1, len(ps))))
                for _ in range(int(rng.integers(1, 4)))
            )
            for j in range(int(rng.integers(1, 5)))
        }
        write_lexicon(tmp_path / "lex.txt", lex)
        assert read_lexicon(tmp_path / "lex.txt", ps) == lex

        # ctm
        entries = [
            (f"u{j}", _random_alignment(rng, len(ps)))
            for j in range(int(rng.integers(1, 4)))
        ]
        write_ctm(tmp_path / "a.ctm", entries, ps)
        assert read_ctm(tmp_path / "a.ctm", ps) == entries

        # annotations
        labels = [
            (f"u{j}", pos, bool(rng.integers(2)))
            for j in range(int(rng.integers(1, 3)))
            for pos in range(int(rng.integers(1, 4)))
        ]
        ratings = [
            (f"u{j}", f"r{k}", float(rng.uniform(0, 10)))
            for j in range(int(rng.integers(1, 3)))
            for k in range(int(rng.integers(1, 3)))
        ]
        ann = AnnotationSet(*zip(*labels), *zip(*ratings))
        write_annotations(tmp_path / "ann.tsv", ann)
        assert read_annotations(tmp_path / "ann.tsv") == ann

        # balance tables
        balance = BalanceTable(
            entries={
                (int(rng.integers(1, len(ps))), int(rng.integers(2, 21))):
                    abs(_random_float(rng))
                for _ in range(int(rng.integers(1, 6)))
            },
            phone_backoff={
                int(rng.integers(1, len(ps))): abs(_random_float(rng))
                for _ in range(int(rng.integers(1, 4)))
            },
            global_backoff=abs(_random_float(rng)),
            bucket_width=float(rng.choice([0.5, 1.0, 2.0])),
            bucket_range=(2, int(rng.integers(10, 21))),
        )
        write_balance_table(tmp_path / "bal.tsv", balance, ps)
        assert read_balance_table(tmp_path / "bal.tsv", ps) == balance

        # thresholds
        thresholds = ThresholdTable(
            per_phone={
                int(rng.integers(1, len(ps))): _random_float(rng)
                for _ in range(int(rng.integers(0, 4)))
            },
            global_threshold=_random_float(rng),
        )
        write_thresholds(tmp_path / "thr.tsv", thresholds, ps)
        assert read_thresholds(tmp_path / "thr.tsv", ps) == thresholds

        # training logs
        log = [
            TrainLogEntry(epoch=j + 1, train_loss=abs(_random_float(rng)),
                          val_mae=abs(_random_float(rng)))
            for j in range(int(rng.integers(1, 5)))
        ]
        write_training_log(tmp_path / "log.tsv", log)
        assert read_training_log(tmp_path / "log.tsv") == log

        # score files
        rows = []
        for j in range(int(rng.integers(1, 3))):
            start = 0
            for pos in range(int(rng.integers(1, 4))):
                length = int(rng.integers(1, 4))
                rows.append((
                    f"u{j}", pos, int(rng.integers(1, len(ps))), start,
                    length, _random_float(rng),
                    [None, True, False][int(rng.integers(3))],
                ))
                start += length
        score_file = ScoreFile(
            VARIANTS[i % len(VARIANTS)], *zip(*rows),
            sentences=tuple(
                (f"u{j}", _random_float(rng))
                for j in range(int(rng.integers(1, 3)))
            ),
        )
        write_score_file(tmp_path / "sc.tsv", score_file, ps)
        assert read_score_file(tmp_path / "sc.tsv", ps) == score_file

        done += 1
    return done


def _roundtrip_checkpoints(rng, tmp_path) -> int:
    done = 0
    for i in range(100):
        cfg = tiny_config(seed=i)
        params = init_params(cfg, int(rng.integers(2, 7)), rng)
        write_checkpoint(tmp_path / "net.ckpt", params, cfg)
        loaded, loaded_cfg = read_checkpoint(tmp_path / "net.ckpt")
        assert loaded_cfg == cfg
        tensors = dict(iter_tensors(params))
        for name, value in iter_tensors(loaded):
            assert np.array_equal(value, tensors[name]), name
        done += 1
    return done


def test_criterion_10_determinism_and_roundtrips(tmp_path, verdict):
    t0 = perf_counter()

    # identical seeds, identical corpora: in memory and on disk
    cfg = SynthConfig(num_utterances=12, seed=3)
    first, second = generate_corpus(cfg), generate_corpus(cfg)
    for a, b in zip(first.utterances, second.utterances):
        assert np.array_equal(a.posteriorgram.probs, b.posteriorgram.probs)
        assert a.mispronounced == b.mispronounced and a.ratings == b.ratings
    write_corpus(tmp_path / "c1", first)
    write_corpus(tmp_path / "c2", second)
    for name in ("phones.txt", "lexicon.txt", "text.tsv", "reference.ctm",
                 "annotations.tsv"):
        assert (tmp_path / "c1" / name).read_bytes() == \
            (tmp_path / "c2" / name).read_bytes()
    for utt in first.utterances:
        assert (tmp_path / "c1" / "post" / f"{utt.utt_id}.pgm").read_bytes() \
            == (tmp_path / "c2" / "post" / f"{utt.utt_id}.pgm").read_bytes()

    # identical seeds, identical training logs
    dataset = rule_duration_corpus(12, seed=2)
    dcfg = desk_config(seed=1)
    _, log_a = train(dataset[:10], dcfg, dataset[10:], epochs=3)
    _, log_b = train(dataset[:10], dcfg, dataset[10:], epochs=3)
    assert log_a == log_b
    write_training_log(tmp_path / "log_a.tsv", log_a)
    write_training_log(tmp_path / "log_b.tsv", log_b)
    assert (tmp_path / "log_a.tsv").read_bytes() == \
        (tmp_path / "log_b.tsv").read_bytes()

    # identical inputs, identical score reports
    ps = first.phone_set
    acfg = AlignConfig(allow_optional_silence=True, min_segment_frames=2,
                       silence_index=ps.silence_index)
    vcfg = DetectorConfig(variant="gop", beta=0.0)
    files = []
    for run in range(2):
        rows = []
        sentences = []
        for utt in first.utterances[:4]:
            alignment = align(utt.posteriorgram, list(utt.reference_phones),
                              acfg)
            report = score_utterance(utt.posteriorgram, alignment, ps, vcfg,
                                     utterance_id=utt.utt_id)
            for pos, rec in enumerate(report.per_phone):
                rows.append((utt.utt_id, pos, rec.phone, rec.segment.start,
                             rec.segment.length, rec.score, None))
            sentences.append((utt.utt_id, report.sentence_score))
        path = tmp_path / f"report_{run}.tsv"
        write_score_file(
            path,
            ScoreFile("gop", *zip(*rows), sentences=tuple(sentences)),
            ps,
        )
        files.append(path.read_bytes())
    assert files[0] == files[1]

    # 100 random instances through every writer/reader pair
    rng = np.random.default_rng(909)
    shared_ps = PhoneSet(("SIL", "AA", "B", "G", "OW"), silence_index=0)
    n_pg = _roundtrip_posteriorgrams(rng, tmp_path)
    n_tables = _roundtrip_tables(rng, tmp_path, shared_ps)
    n_ckpt = _roundtrip_checkpoints(rng, tmp_path)

    elapsed = perf_counter() - t0
    verdict(
        10, "determinism and round-trips",
        n_pg == n_tables == n_ckpt == 100,
        "corpora, training logs, and score reports bit-identical across "
        f"reruns; {n_pg} round-trips per format all exact, {elapsed:.1f}s",
    )

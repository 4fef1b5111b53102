"""The traced benchmark wraps package attributes by name; each must exist.

benchmarks/tracing.py is loaded from its file as it stands, so deleting or
renaming a name it wraps fails here rather than in `bench.py --trace 1`.
The benchmark also reads score records field by field, builds configs by
keyword and runs command lines through ``cli.main``.
"""

import ast
import dataclasses
import importlib
import inspect

import numpy as np

from cagop import AlignConfig, DetectorConfig, PhoneScore, ScoreReport, cli
from cagop.duration import (
    DurationSample, predict_durations_batch, tiny_config, train,
)
from cagop.synth import SynthConfig
from conftest import BENCHMARKS, load_benchmark_module


def test_every_traced_target_resolves():
    tracing = load_benchmark_module("tracing")
    targets = tracing.TARGETS + tracing.MEMORY_TARGETS
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in targets
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert not missing


def test_score_records_keep_the_fields_the_benchmark_reads():
    phone_fields = {f.name for f in dataclasses.fields(PhoneScore)}
    assert {"phone", "segment", "gop", "tascore", "score"} <= phone_fields
    report_fields = {f.name for f in dataclasses.fields(ScoreReport)}
    assert {"per_phone", "sentence_score"} <= report_fields


def test_forward_batch_passes_the_mask_where_the_tracer_reads_it():
    # The tracer's _after_forward hook reads args[4] of _forward_batch as the
    # (B, T) mask to count real tokens and padded slots.
    for name in ("cagop.duration.net", "cagop.duration.training"):
        forward_batch = importlib.import_module(name)._forward_batch
        assert list(inspect.signature(forward_batch).parameters)[4] == "mask"
    tracing = load_benchmark_module("tracing")
    samples = [DurationSample.from_durations([1, 2, 3][:n], [4.0, 2.0, 5.0][:n])
               for n in (1, 2, 3, 3, 2)]
    cfg = tiny_config(seed=0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        params, _ = train(samples[:4], cfg, samples[4:], num_phones=4, epochs=1)
        predict_durations_batch(params, cfg, [(s.phones, s.speed) for s in samples])
    real = sum(len(s) for s in samples)
    # one epoch over four samples, one validation pass, one prediction pass
    assert tracer.counts[("setup", "duration.tokens")] == real + real
    assert tracer.counts[("setup", "duration.steps")] == 1


def test_a_two_argument_tascore_wrapper_still_moves_score_utterance(monkeypatch):
    # benchmarks/selftest.py perturbs the scores by wrapping
    # cagop.detector.tascore this way and expects every reported tascore
    # to move; benchmarks/tracing.py counts its calls the same way.
    import cagop.detector
    from cagop import AlignConfig, DetectorConfig, PhoneSet, align, score_utterance
    from conftest import random_pg

    ps = PhoneSet(("SIL", "A", "B", "C"), silence_index=0)
    pg = random_pg(np.random.default_rng(3), 12, 4)
    al = align(pg, [1, 2, 3], AlignConfig(min_segment_frames=2))
    cfg = DetectorConfig(variant="cagop_minus_dur")
    before = score_utterance(pg, al, ps, cfg)
    original = cagop.detector.tascore

    def skewed(pg, seg):
        score, frames = original(pg, seg)
        return score + 1e-6, frames

    monkeypatch.setattr(cagop.detector, "tascore", skewed)
    after = score_utterance(pg, al, ps, cfg)
    for b, a in zip(before.per_phone, after.per_phone):
        assert a.tascore == b.tascore + 1e-6
        assert a.score == b.score + 1e-6
        assert a.gop == b.gop


def test_workload_config_keywords_are_config_fields():
    fields = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
              for cls in (AlignConfig, DetectorConfig, SynthConfig)}
    source = (BENCHMARKS / "workloads.py").read_text()
    passed = {}
    for call in ast.walk(ast.parse(source)):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name in fields:
                passed.setdefault(name, set()).update(k.arg for k in call.keywords)
    assert set(passed) == set(fields)
    assert {name: keywords - fields[name] for name, keywords in passed.items()} == {
        name: set() for name in passed}


def test_batch_pipeline_parses(monkeypatch, tmp_path):
    # workloads.py imports its sibling ``checks`` as a top-level module
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = load_benchmark_module("workloads")
    pipeline = workloads.Batch(1, tmp_path).pipeline
    parser = cli.build_parser()
    commands = [parser.parse_args(list(map(str, argv))).command for argv in pipeline]
    assert commands == ["align", "fit-balance", "score", "calibrate", "evaluate"]

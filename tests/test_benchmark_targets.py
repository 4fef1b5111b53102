"""The traced benchmark wraps package attributes by name; each must exist.

benchmarks/tracing.py is loaded from its file as it stands, so deleting or
renaming a name it wraps fails here rather than in `bench.py --trace 1`.
The benchmark also reads score records field by field.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from cagop import PhoneScore, ScoreReport
from cagop.duration import (
    DurationSample, predict_durations_batch, tiny_config, train,
)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = load_tracing()
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
    tracing = load_tracing()
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

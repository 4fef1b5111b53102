"""The traced benchmark wraps package attributes by name; each must exist.

benchmarks/tracing.py is loaded from its file as it stands, so deleting or
renaming a name it wraps fails here rather than in `bench.py --trace 1`.
The benchmark also reads score records field by field.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from cagop import PhoneScore, ScoreReport

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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

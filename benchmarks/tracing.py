"""Span tracer for the traced run, kept apart from the timed runs.

Wrappers replace names in the namespace that calls them (for example
``cagop.cli.force_align`` or ``cagop.detector.tascore``) and record, at
that boundary, a span (name, parent, phase, start, end) and counts. Spans
stay in memory and are written out when the run ends. Nothing here is
imported by, or changes, the package under ``src/``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext

MIB = 1024.0 * 1024.0


class NullTracer:
    """Stand-in used by timed runs: every hook is a no-op."""

    def span(self, name):
        return nullcontext()


class Tracer:
    """In-memory spans and counters, each tagged with the current phase."""

    def __init__(self):
        # one list per span: [name, parent index or -1, phase, start_ns, end_ns]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.peaks: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.phase, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[(self.phase, name)] += n

    def peak(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.peaks[key] = max(self.peaks[key], value)

    # -- aggregation -------------------------------------------------------

    def durations_ms(self, name: str, phase: str) -> list[float]:
        return [
            (s[4] - s[3]) / 1e6 for s in self.spans
            if s[0] == name and s[2] == phase
        ]

    def self_ms(self, name: str, phase: str) -> float:
        """Total time of the named spans minus the time of their children."""
        own = {i for i, s in enumerate(self.spans)
               if s[0] == name and s[2] == phase}
        total = sum(self.spans[i][4] - self.spans[i][3] for i in own)
        children = sum(s[4] - s[3] for s in self.spans if s[1] in own)
        return (total - children) / 1e6

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "parent", "phase", "start_ns", "end_ns"],
                "spans": self.spans,
                "counts": [[p, n, v] for (p, n), v in sorted(self.counts.items())],
            }, fh)


# -- wrappers ---------------------------------------------------------------

def _timed(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _counted(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _after_read_posteriorgram(tracer, args, result):
    tracer.count("formats.read_posteriorgram.calls")
    tracer.count("formats.read_posteriorgram.bytes", os.path.getsize(args[0]))


def _after_validate(tracer, args, result):
    tracer.count("model.validate_posteriorgram.renormalized",
                 float(result is not args[0]))


def _after_align(tracer, args, result):
    tracer.count("align.calls")
    tracer.count("align.frames", args[0].num_frames)


def _calls(name):
    return lambda tracer, args, result: tracer.count(name)


def _after_forward(tracer, args, result):
    # _forward_batch(params, cfg, phone_ids, speeds, mask, ...)
    mask = args[4]
    tracer.count("duration.tokens", float(mask.sum()))
    tracer.count("duration.slots", float(mask.size))


# (module, attribute, span or count name, kind, after-hook)
TARGETS = (
    ("cagop.synth", "generate_corpus", "synth.generate_corpus", _timed, None),
    ("cagop.cli", "read_posteriorgram", "formats.read_posteriorgram", _timed,
     _after_read_posteriorgram),
    ("cagop.cli", "read_ctm", "formats.read_ctm", _timed, None),
    ("cagop.cli", "write_ctm", "formats.write_ctm", _timed, None),
    ("cagop.cli", "write_score_file", "formats.write_score_file", _timed, None),
    ("cagop.cli", "validate_posteriorgram", "model.validate_posteriorgram",
     _timed, _after_validate),
    ("cagop.cli", "force_align", "align", _timed, _after_align),
    ("cagop", "align", "align", _timed, _after_align),
    ("cagop.cli", "score_utterance", "detector.score_utterance", _timed,
     _calls("detector.score_utterance.calls")),
    ("cagop", "score_utterance", "detector.score_utterance", _timed,
     _calls("detector.score_utterance.calls")),
    ("cagop.detector", "gop", "scoring.gop", _counted, None),
    ("cagop.detector", "tascore", "scoring.tascore", _counted, None),
    ("cagop.detector", "center_gop", "scoring.center_gop", _counted, None),
    ("cagop.detector", "lookup_tolerance", "balance.lookup_tolerance",
     _counted, None),
    ("cagop.cli", "fit_balance_table", "balance.fit_balance_table", _timed,
     None),
    ("cagop.cli", "predict_durations", "duration.predict_durations", _timed,
     _calls("duration.predict_durations.calls")),
    ("cagop.duration.net", "_forward_batch", "duration.forward_batch",
     _counted, _after_forward),
    ("cagop.duration.training", "_forward_batch", "duration.forward_batch",
     _counted, _after_forward),
    ("cagop.duration.training", "masked_l1_and_grads",
     "duration.masked_l1_and_grads", _timed, _calls("duration.steps")),
    ("cagop.duration.training", "evaluate_mae", "duration.evaluate_mae",
     _timed, None),
    ("cagop.cli", "train", "duration.train", _timed, None),
    ("cagop.cli", "calibrate_thresholds", "detector.calibrate_thresholds",
     _timed, None),
    ("cagop.cli", "pearson", "metrics", _timed, None),
    ("cagop.cli", "spearman", "metrics", _timed, None),
    ("cagop.cli", "confusion_counts", "metrics", _timed, None),
)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Swap every target for its wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, kind, after in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, kind(tracer, name, original, after))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _peak_alloc(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tracer.peak(name, peak / MIB)
    return wrapper


# The memory pass wraps only the aligner: tracemalloc slows every
# allocation, so it never runs during the rounds whose times are reported.
MEMORY_TARGETS = (
    ("cagop.cli", "force_align", "align.peak_alloc_mb", _peak_alloc, None),
    ("cagop", "align", "align.peak_alloc_mb", _peak_alloc, None),
)


# -- per-layer metrics --------------------------------------------------------

def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(tracer: Tracer, traced_rounds: int, setups: int,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures: times and counts per traced round, set-up per set-up.

    A layer the workload never calls reads 0.
    """
    m = "measure"

    def ms(name):
        return _per(sum(tracer.durations_ms(name, m)), traced_rounds)

    def calls(name):
        return _per(tracer.counts.get((m, name), 0.0), traced_rounds)

    out: dict[str, tuple[float, str]] = {}
    for cmd in ("align", "fit_balance", "score", "calibrate", "evaluate",
                "train_dur"):
        out[f"cli.{cmd}.ms"] = (ms(f"cli.{cmd}"), "ms")
    out["formats.read_posteriorgram.ms"] = (ms("formats.read_posteriorgram"), "ms")
    out["formats.read_posteriorgram.calls"] = (
        calls("formats.read_posteriorgram.calls"), "count")
    out["formats.read_posteriorgram.mb"] = (
        calls("formats.read_posteriorgram.bytes") / MIB, "MiB")
    for name in ("read_ctm", "write_ctm", "write_score_file"):
        out[f"formats.{name}.ms"] = (ms(f"formats.{name}"), "ms")
    out["model.validate_posteriorgram.ms"] = (ms("model.validate_posteriorgram"), "ms")
    out["model.validate_posteriorgram.renormalized"] = (
        calls("model.validate_posteriorgram.renormalized"), "count")
    out["align.ms"] = (ms("align"), "ms")
    out["align.calls"] = (calls("align.calls"), "count")
    out["align.frames"] = (calls("align.frames"), "count")
    out["align.peak_alloc_mb"] = (tracer.peaks.get((m, "align.peak_alloc_mb"), 0.0),
                                  "MiB")
    out["detector.score_utterance.ms"] = (ms("detector.score_utterance"), "ms")
    out["detector.score_utterance.calls"] = (
        calls("detector.score_utterance.calls"), "count")
    for name in ("gop", "tascore", "center_gop"):
        out[f"scoring.{name}.calls"] = (calls(f"scoring.{name}.calls"), "count")
    out["balance.lookup_tolerance.calls"] = (
        calls("balance.lookup_tolerance.calls"), "count")
    out["balance.fit_balance_table.ms"] = (ms("balance.fit_balance_table"), "ms")
    out["duration.predict_durations.calls"] = (
        calls("duration.predict_durations.calls"), "count")
    out["duration.predict_durations.ms"] = (ms("duration.predict_durations"), "ms")
    slots = tracer.counts.get((m, "duration.slots"), 0.0)
    tokens = tracer.counts.get((m, "duration.tokens"), 0.0)
    out["duration.pad_efficiency"] = (tokens / slots if slots else 0.0, "ratio")
    steps = tracer.durations_ms("duration.masked_l1_and_grads", m)
    out["duration.masked_l1_and_grads.ms"] = (ms("duration.masked_l1_and_grads"), "ms")
    out["duration.masked_l1_and_grads.step_ms_p50"] = (
        statistics.median(steps) if steps else 0.0, "ms")
    out["duration.steps"] = (calls("duration.steps"), "count")
    out["duration.evaluate_mae.ms"] = (ms("duration.evaluate_mae"), "ms")
    out["duration.train.self_ms"] = (
        _per(tracer.self_ms("duration.train", m), traced_rounds), "ms")
    out["detector.calibrate_thresholds.ms"] = (ms("detector.calibrate_thresholds"), "ms")
    out["metrics.ms"] = (ms("metrics"), "ms")
    out["synth.generate_corpus.ms"] = (
        _per(sum(tracer.durations_ms("synth.generate_corpus", "setup")), setups), "ms")
    out["setup.duration.train.ms"] = (
        _per(sum(tracer.durations_ms("duration.train", "setup")), setups), "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out

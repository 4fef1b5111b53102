"""Shared helpers for building posteriorgrams and segments in tests, and
for loading the benchmark's modules."""

import importlib.util
from pathlib import Path

import numpy as np

from cagop import Posteriorgram, fit_balance_table

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    """benchmarks/<name>.py, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_pg(rows, frame_shift_ms=30.0):
    return Posteriorgram(np.asarray(rows, dtype=np.float64), frame_shift_ms)


def random_pg(rng, num_frames, num_phones, frame_shift_ms=30.0):
    """Dirichlet rows: valid distributions with varied entropy."""
    alpha = rng.uniform(0.3, 4.0)
    probs = rng.dirichlet(np.full(num_phones, alpha), size=num_frames)
    return Posteriorgram(probs, frame_shift_ms)


def fit_on_samples(samples, predicted, **kwargs):
    """fit_balance_table on DurationSamples and one prediction sequence each."""
    return fit_balance_table(
        np.concatenate([s.phones for s in samples]).astype(int),
        np.concatenate([s.durations for s in samples]),
        np.concatenate([np.asarray(p, dtype=float) for p in predicted]),
        np.repeat([s.speed for s in samples], [len(s) for s in samples]),
        **kwargs,
    )

"""Benchmark of the cagop scoring pipeline: three seeded workloads.

Run from the root of a source checkout:

    python3 benchmarks/bench.py --workload batch --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a traced run that also writes its spans to
``.bench_out/``. See benchmarks/README.md.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before NumPy loads: one thread per run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3


def import_package():
    """Import cagop from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cagop" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {src / 'cagop'}; "
                         "run from a cagop source checkout")
    sys.path.insert(0, str(src))
    import cagop

    if Path(cagop.__file__).resolve().parent != (src / "cagop").resolve():
        raise SystemExit(f"bench: imported cagop from {cagop.__file__}, "
                         f"not from {src}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seconds: float, trace: bool, trace_path: Path):
    import tracing

    null = tracing.NullTracer()
    tracer = tracing.Tracer() if trace else null

    def hooked(on: bool):
        return tracing.installed(tracer) if on else contextlib.nullcontext()

    setup_s = []
    for _ in range(SETUPS):
        workload.reset()
        start = time.perf_counter()
        with hooked(trace):
            workload.setup(tracer)
        setup_s.append(time.perf_counter() - start)

    workload.warmup()

    # In the traced run, rounds alternate untraced / traced so the tracing
    # overhead is measured on the same inputs in the same process.
    if trace:
        tracer.phase = "measure"
    round_s = {False: [], True: []}
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        traced = trace and len(round_s[False]) > len(round_s[True])
        start = time.perf_counter()
        with hooked(traced):
            bad = workload.round(tracer if traced else null)
        round_s[traced].append(time.perf_counter() - start)
        attempted += workload.units_per_round
        failed += bad
        # Stop when one more round would end over half a round past the
        # deadline, so a run measures within half a round of --seconds.
        elapsed = time.perf_counter() - begin
        done_rounds = len(round_s[False]) + len(round_s[True])
        done = elapsed * (1.0 + 0.5 / done_rounds) >= seconds
        if done and (not trace or round_s[True]):
            break
    peak = peak_rss_mib()

    if trace and tracer.counts.get(("measure", "align.calls")):
        with tracing.installed(tracer, tracing.MEMORY_TARGETS):
            workload.round(null)

    failures = workload.check(null)

    if trace:
        overhead = (statistics.mean(round_s[True])
                    / statistics.mean(round_s[False]) - 1.0) * 100.0
        tracer.write(trace_path)
        metrics = tracing.layer_metrics(tracer, len(round_s[True]), SETUPS,
                                        overhead)
    else:
        rounds = round_s[False]
        latencies = workload.latencies_ms() or [s * 1e3 for s in rounds]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "utt_per_s": ((attempted - failed) / sum(rounds), "1/s"),
            "latency_ms_p50": (statistics.median(latencies), "ms"),
            "peak_rss_mb": (peak, "MiB"),
        }
    return attempted, failed, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "train", "long-form"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.json"
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        attempted, failed, failures, metrics = run(
            workload, args.seconds, bool(args.trace), trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not any(failures.values())
    for name, messages in sorted(failures.items()):
        status = "FAIL" if messages else "ok"
        print(f"check {name}: {status}", file=sys.stderr)
        for message in messages[:10]:
            print(f"  {message}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's correctness checks.

Runs each workload once at a tiny size, requires every check to pass on
the real output, then perturbs the output one way at a time and requires
the targeted check to fail. Run from the root of a source checkout:

    python3 benchmarks/selftest.py

Exits 0 when every check passes on real output and fails on each
perturbation.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import time

import bench
from tracing import NullTracer


def edit(path, change):
    """Rewrite a text file through ``change``; returns the undo."""
    original = path.read_text(encoding="utf-8")
    path.write_text(change(original), encoding="utf-8")
    return lambda: path.write_text(original, encoding="utf-8")


def edit_lines(path, change):
    """Apply ``change`` to the list of lines of a text file."""
    return edit(path, lambda text: "\n".join(change(text.splitlines())) + "\n")


def uniform_segments(phones, frames):
    """Equal-length segments of the given phones over all frames."""
    bounds = [round(i * frames / len(phones)) for i in range(len(phones) + 1)]
    return [(p, a, b - a) for p, a, b in zip(phones, bounds, bounds[1:])]


def batch_perturbations(w):
    import cagop.detector

    o = w.out

    def uniform_alignment():
        def change(lines):
            first = lines[0].split("\t")[0]
            rows = [line.split("\t") for line in lines if line.startswith(first + "\t")]
            phones = [r[1] for r in rows if r[1] != "SIL"]
            frames = int(rows[-1][2]) + int(rows[-1][3])
            rest = [line for line in lines if not line.startswith(first + "\t")]
            return [f"{first}\t{p}\t{s}\t{n}"
                    for p, s, n in uniform_segments(phones, frames)] + rest
        return edit_lines(o / "aligned.ctm", change)

    def skewed_tascore():
        original = cagop.detector.tascore

        def skewed(pg, seg):
            score, frames = original(pg, seg)
            return score + 1e-6, frames
        cagop.detector.tascore = skewed
        return lambda: setattr(cagop.detector, "tascore", original)

    def nudged_score():
        def change(lines):
            parts = lines[1].split("\t")
            parts[6] = repr(float(parts[6]) + 1e-6)
            return [lines[0], "\t".join(parts), *lines[2:]]
        return edit_lines(o / "scores.tsv", change)

    def nudged_eval(key):
        def perturb():
            return edit_lines(o / "eval.tsv", lambda lines: [
                f"{key}\t{float(line.split()[1]) + 1e-6!r}"
                if line.startswith(key + "\t") else line for line in lines])
        return perturb

    def flag_everything():
        undo_thresholds = edit_lines(o / "thresholds.tsv", lambda lines: [
            line.split("\t")[0] + "\t1000000000.0" for line in lines])
        original_eval = (o / "eval.tsv").read_text(encoding="utf-8")
        from workloads import run_cli
        if run_cli(w.pipeline[-1], NullTracer()) != 0:
            raise RuntimeError("evaluate failed on the flag-all thresholds")

        def undo():
            undo_thresholds()
            (o / "eval.tsv").write_text(original_eval, encoding="utf-8")
        return undo

    return [
        ("alignment", "below reference", "uniform segmentation of one utterance",
         uniform_alignment),
        ("frame_scores", "tascore", "tascore shifted by 1e-6", skewed_tascore),
        ("cagop", "cagop", "one score in scores.tsv shifted by 1e-6",
         nudged_score),
        ("evaluate", "detection_f1", "eval.tsv F1 shifted by 1e-6",
         nudged_eval("detection_f1")),
        ("evaluate", "flag-all", "thresholds that flag every phone",
         flag_everything),
        ("evaluate", "sentence_pearson", "eval.tsv Pearson shifted by 1e-6",
         nudged_eval("sentence_pearson")),
    ]


def train_perturbations(w):
    log = w.out / "train.tsv"

    def nan_loss():
        return edit_lines(log, lambda lines: [
            lines[0], "\t".join([lines[1].split("\t")[0], "nan",
                                 lines[1].split("\t")[2]]), *lines[2:]])

    def no_learning():
        return edit_lines(log, lambda lines: [lines[0]] + [
            "\t".join(line.split("\t")[:2] + ["99.0"]) for line in lines[1:]])

    return [
        ("training", "non-finite", "a NaN loss in the training log", nan_loss),
        ("training", "not below", "validation MAE of 99 frames", no_learning),
    ]


def long_form_perturbations(w):
    from cagop import Alignment, PhoneSegment

    utt = w.pool[0]
    labels = w.phone_set.phones

    def swap_result(alignment=None, report=None):
        original = w.results[utt.utt_id]
        w.results[utt.utt_id] = (alignment or original[0], report or original[1])
        return lambda: w.results.__setitem__(utt.utt_id, original)

    def uniform_alignment():
        phones = [labels[p] for p in utt.reference_phones]
        segments = uniform_segments(phones, utt.posteriorgram.num_frames)
        return swap_result(alignment=Alignment(tuple(
            PhoneSegment(labels.index(p), s, n) for p, s, n in segments)))

    def shifted_gop():
        report = w.results[utt.utt_id][1]
        return swap_result(report=dataclasses.replace(report, per_phone=tuple(
            dataclasses.replace(r, gop=r.gop + 1e-6) for r in report.per_phone)))

    def changed_rerun():
        w.sentences[utt.utt_id].add(-1.0)
        return lambda: w.sentences[utt.utt_id].discard(-1.0)

    return [
        ("alignment", "below reference", "uniform segmentation of one request",
         uniform_alignment),
        ("frame_scores", "gop", "gop shifted by 1e-6", shifted_gop),
        ("determinism", "differs", "a different sentence score on a rerun",
         changed_rerun),
    ]


def main() -> int:
    bench.import_package()
    from workloads import Batch, LongForm, Train

    work = bench.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    cases = [
        ("batch", Batch(0, work / "batch", utterances=60, setup_epochs=1),
         batch_perturbations),
        ("train", Train(0, work / "train", utterances=130, epochs=70),
         train_perturbations),
        ("long-form", LongForm(0, work / "long-form", pool=2),
         long_form_perturbations),
    ]
    problems = []
    try:
        for name, w, perturbations in cases:
            start = time.perf_counter()
            w.reset()
            w.setup(NullTracer())
            if w.round(NullTracer()):
                problems.append(f"{name}: the round failed")
                continue
            for check, messages in w.check(NullTracer()).items():
                if messages:
                    problems.append(f"{name} {check}: fails on real output: "
                                    f"{messages[0]}")
            for check, expected, what, perturb in perturbations(w):
                undo = perturb()
                try:
                    messages = w.check(NullTracer())[check]
                finally:
                    undo()
                caught = any(expected in m for m in messages)
                print(f"{name} {check}: {'fails' if caught else 'PASSES'} "
                      f"on {what}")
                if not caught:
                    problems.append(f"{name} {check}: missed {what}")
            print(f"{name}: done in {time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks run after each workload's timed phase.

Every check re-derives what it compares from the README formulas and the
documented file layouts with its own NumPy code, so a fault in the
package's readers or scorers cannot hide itself. Each check returns a
list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
import struct
from collections import defaultdict

import numpy as np

PROB_FLOOR = 1e-10
ENTROPY_FLOOR = 1e-8
SCORE_TOL = 1e-9
PGM_MAGIC = b"CAGPG1"
PGM_HEADER = struct.Struct("<IId")


# -- file readers ---------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Posteriors of a binary posteriorgram, rows renormalized as documented."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(PGM_MAGIC)] != PGM_MAGIC:
        raise ValueError(f"{path}: not a posteriorgram")
    frames, phones, _ = PGM_HEADER.unpack_from(blob, len(PGM_MAGIC))
    probs = np.frombuffer(blob, dtype="<f4", count=frames * phones,
                          offset=len(PGM_MAGIC) + PGM_HEADER.size)
    probs = probs.astype(np.float64).reshape(frames, phones)
    sums = probs.sum(axis=1)
    return probs if np.all(sums == 1.0) else probs / sums[:, None]


def read_phones(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.split()[0] for line in fh if line.strip()]


def read_ctm(path) -> dict[str, list[tuple[str, int, int]]]:
    """utt -> [(phone label, start, length)] in file order."""
    out: dict[str, list[tuple[str, int, int]]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                utt, phone, start, length = line.rstrip("\n").split("\t")
                out[utt].append((phone, int(start), int(length)))
    return dict(out)


def read_scores(path):
    """(rows, sentences): rows are (utt, pos, phone, start, length, score)."""
    rows, sentences = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            parts = line.split("\t")
            if parts[0] == "P":
                rows.append((parts[1], int(parts[2]), parts[3], int(parts[4]),
                             int(parts[5]), float(parts[6])))
            elif parts[0] == "S":
                sentences[parts[1]] = float(parts[2])
    return rows, sentences


def read_annotations(path):
    """(labels by (utt, pos), ratings by rater -> utt -> score)."""
    labels, ratings = {}, defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "P":
                labels[(parts[1], int(parts[2]))] = parts[3] == "1"
            elif parts[0] == "S":
                ratings[parts[2]][parts[1]] = float(parts[3])
    return labels, dict(ratings)


def read_two_columns(path) -> dict[str, float]:
    """label<TAB>value files: thresholds.tsv and eval.tsv."""
    with open(path, encoding="utf-8") as fh:
        return {k: float(v) for k, v in
                (line.rstrip("\n").split("\t") for line in fh if line.strip())}


def read_balance(path):
    """(width, lo, hi, cells, phone level, global) from a balance table."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = dict(p.split("=", 1) for p in lines[0].split())
    cells, phone_level, global_t = {}, {}, None
    for line in lines[1:]:
        label, bucket, value = line.split("\t")
        if bucket == "GLOBAL":
            global_t = float(value)
        elif bucket == "PHONE":
            phone_level[label] = float(value)
        else:
            cells[(label, int(bucket))] = float(value)
    return (float(header["bucket_width"]), int(header["bucket_min"]),
            int(header["bucket_max"]), cells, phone_level, global_t)


def read_predictions(path) -> dict[tuple[str, int], float]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    out = {}
    for line in lines:
        utt, pos, _, _, pred = line.split("\t")
        out[(utt, int(pos))] = float(pred)
    return out


def read_train_log(path) -> list[tuple[int, float, float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return [(int(e), float(l), float(m)) for e, l, m in
            (line.split("\t") for line in lines if line.strip())]


# -- formulas -------------------------------------------------------------------

def floored_log(x):
    return np.log(np.maximum(x, PROB_FLOOR))


def segmentation_log_score(probs, segments, column) -> float:
    """Sum over segments of the floored log posterior of the segment's phone."""
    return float(sum(
        floored_log(probs[start:start + length, column[phone]]).sum()
        for phone, start, length in segments
    ))


def gop(probs, column, start, length) -> float:
    return float(floored_log(probs[start:start + length, column]).mean())


def entropy_weighted(probs, column, start, length) -> float:
    rows = probs[start:start + length]
    plogp = np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)), 0.0)
    weights = 1.0 / np.maximum(-plogp.sum(axis=1), ENTROPY_FLOOR)
    weights /= weights.sum()
    return float(np.sum(weights * floored_log(rows[:, column])))


def close(a: float, b: float, tol: float = SCORE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- checks ---------------------------------------------------------------------

def check_alignments(probs_by_utt, aligned, reference, phones, silence="SIL",
                     min_frames=2) -> list[str]:
    """Aligned segmentation is legal and scores >= the reference segmentation.

    The reference segmentation is feasible for the aligner, so an optimal
    aligner can never score below it.
    """
    column = {p: i for i, p in enumerate(phones)}
    failures = []
    for utt, probs in probs_by_utt.items():
        got, ref = aligned.get(utt), reference[utt]
        if not got:
            failures.append(f"{utt}: no alignment")
            continue
        spans = [(s, s + n) for _, s, n in got]
        if spans[0][0] != 0 or spans[-1][1] != len(probs) or any(
                a[1] != b[0] for a, b in zip(spans, spans[1:])):
            failures.append(f"{utt}: segments do not tile the frames")
            continue
        real = [s for s in got if s[0] != silence]
        if [s[0] for s in real] != [s[0] for s in ref if s[0] != silence]:
            failures.append(f"{utt}: aligned phones differ from the reference")
        if any(n < min_frames for _, _, n in real):
            failures.append(f"{utt}: phone segment shorter than {min_frames}")
        got_score = segmentation_log_score(probs, got, column)
        ref_score = segmentation_log_score(probs, ref, column)
        if got_score < ref_score - SCORE_TOL * max(1.0, abs(ref_score)):
            failures.append(
                f"{utt}: aligned log score {got_score!r} below reference "
                f"{ref_score!r}")
    return failures


def check_frame_scores(samples) -> list[str]:
    """Program gop / tascore equal the README formulas on sampled phones.

    samples: (where, probs, column, start, length, program gop, program ta).
    """
    failures = []
    for where, probs, column, start, length, got_gop, got_ta in samples:
        want_gop = gop(probs, column, start, length)
        want_ta = entropy_weighted(probs, column, start, length)
        if not close(got_gop, want_gop):
            failures.append(f"{where}: gop {got_gop!r} != {want_gop!r}")
        if not close(got_ta, want_ta):
            failures.append(f"{where}: tascore {got_ta!r} != {want_ta!r}")
    return failures


def lookup_tolerance(balance, phone: str, speed: float) -> float:
    """Cell, else phone level, else global (README backoff order)."""
    width, lo, hi, cells, phone_level, global_t = balance
    bucket = min(hi, max(lo, math.floor(speed / width + 0.5)))
    if (phone, bucket) in cells:
        return cells[(phone, bucket)]
    return phone_level.get(phone, global_t)


def check_cagop_scores(rows, probs_by_utt, phones, predictions, balance,
                       beta) -> list[str]:
    """Every cagop score equals (1 - beta*delta) * entropy-weighted score."""
    column = {p: i for i, p in enumerate(phones)}
    by_utt = defaultdict(list)
    for row in rows:
        by_utt[row[0]].append(row)
    failures = []
    for utt, utt_rows in by_utt.items():
        speed = float(np.mean([r[4] for r in utt_rows]))
        probs = probs_by_utt[utt]
        for _, pos, phone, start, length, score in utt_rows:
            pred = predictions.get((utt, pos))
            if pred is None:
                failures.append(f"{utt}/{pos}: no duration prediction")
                continue
            delta = abs(length - pred) - lookup_tolerance(balance, phone, speed)
            ta = entropy_weighted(probs, column[phone], start, length)
            want = (1.0 - beta * delta) * ta
            if not close(score, want):
                failures.append(f"{utt}/{pos}: cagop {score!r} != {want!r}")
    return failures


def f1(flags, truth) -> float:
    tp = sum(1 for f, t in zip(flags, truth) if f and t)
    fp = sum(1 for f, t in zip(flags, truth) if f and not t)
    fn = sum(1 for f, t in zip(flags, truth) if not f and t)
    return 2 * tp / (2 * tp + fp + fn)


def pearson_scipy(x, y) -> float:
    try:
        from scipy.stats import pearsonr
    except ImportError:  # same statistic, NumPy's implementation
        return float(np.corrcoef(x, y)[0, 1])
    return float(pearsonr(x, y)[0])


def check_evaluation(rows, sentences, thresholds, labels, ratings,
                     evaluation) -> list[str]:
    """eval.tsv F1 and sentence Pearson, recomputed from the inputs."""
    failures = []
    flags, truth = [], []
    for utt, pos, phone, _, _, score in rows:
        if (utt, pos) in labels:
            flags.append(score < thresholds.get(phone, thresholds["GLOBAL"]))
            truth.append(labels[(utt, pos)])
    want_f1 = f1(flags, truth)
    got_f1 = evaluation.get("detection_f1")
    if got_f1 is None or not close(got_f1, want_f1, 1e-12):
        failures.append(f"detection_f1 {got_f1!r} != recomputed {want_f1!r}")
    flag_all = f1([True] * len(truth), truth)
    if not want_f1 > flag_all:
        failures.append(f"F1 {want_f1!r} does not beat flag-all {flag_all!r}")
    per_rater = []
    for by_utt in ratings.values():
        common = sorted(set(sentences) & set(by_utt))
        x = [sentences[u] for u in common]
        y = [by_utt[u] for u in common]
        if len(common) >= 2 and len(set(x)) >= 2 and len(set(y)) >= 2:
            per_rater.append(pearson_scipy(x, y))
    got = evaluation.get("sentence_pearson")
    want = float(np.mean(per_rater)) if per_rater else None
    if want is None or got is None or not close(got, want):
        failures.append(f"sentence_pearson {got!r} != scipy mean {want!r}")
    return failures


def duration_split(ctm, seed: int, val_fraction: float = 0.1):
    """train-dur's documented split: seeded permutation, validation first."""
    samples = []
    for segments in ctm.values():
        real = [(p, float(n)) for p, _, n in segments if p != "SIL"]
        if real:
            samples.append(real)
    order = np.random.default_rng(seed).permutation(len(samples))
    n_val = max(1, int(round(len(samples) * val_fraction)))
    return ([samples[i] for i in order[n_val:]],
            [samples[i] for i in order[:n_val]])


def phone_mean_mae(train, val) -> float:
    """MAE on val of predicting each phone's mean training duration."""
    by_phone = defaultdict(list)
    for seq in train:
        for phone, d in seq:
            by_phone[phone].append(d)
    overall = float(np.mean([d for seq in train for _, d in seq]))
    means = {p: float(np.mean(v)) for p, v in by_phone.items()}
    errors = [abs(means.get(p, overall) - d) for seq in val for p, d in seq]
    return float(np.mean(errors))


def check_training(log, baseline_mae) -> list[str]:
    """Finite losses, and a best validation MAE below the per-phone mean."""
    failures = []
    if not log:
        return ["empty training log"]
    for epoch, loss, mae in log:
        if not (math.isfinite(loss) and math.isfinite(mae)):
            failures.append(f"epoch {epoch}: non-finite loss {loss!r} / {mae!r}")
    best = min(m for _, _, m in log)
    if not best < baseline_mae:
        failures.append(
            f"best val MAE {best!r} not below per-phone mean {baseline_mae!r}")
    return failures

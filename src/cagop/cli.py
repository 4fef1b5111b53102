"""Command-line pipeline: align, score, train, calibrate, evaluate.

Exit codes: 0 success, 1 usage error, 2 bad data or file format,
3 numeric failure. Every failure prints a single diagnostic line to
stderr. All commands are deterministic given their --seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .align import AlignConfig, align_utterances
# force_align stays importable here: benchmarks/tracing.py times its calls
# under this module name.
from .align import align as force_align  # noqa: F401
from .balance import fit_balance_table
# score_utterance stays importable here: benchmarks/tracing.py times its
# calls under this module name.
from .detector import (  # noqa: F401
    VARIANTS,
    DetectorConfig,
    calibrate_thresholds,
    detect_flags,
    score_utterance,
    score_utterances,
)
# predict_durations stays importable here: benchmarks/tracing.py counts its
# calls under this module name.
from .duration.net import (  # noqa: F401
    DurationSample,
    desk_config,
    full_config,
    predict_durations,
    predict_durations_batch,
    tiny_config,
)
from .duration.training import train
# read_ctm stays importable here: benchmarks/tracing.py times its calls
# under this module name.
from .formats import (  # noqa: F401
    ScoreFile,
    read_annotations,
    read_balance_table,
    read_checkpoint,
    read_ctm,
    read_ctm_columns,
    read_lexicon,
    read_phone_set,
    read_posteriorgram,
    read_score_file,
    read_text_manifest_rows,
    read_thresholds,
    text_to_phones,
    write_balance_table,
    write_checkpoint,
    write_ctm,
    write_duration_predictions,
    write_entropy_profile,
    write_evaluation,
    write_score_file,
    write_thresholds,
    write_training_log,
)
# pearson and spearman stay importable here: benchmarks/tracing.py times
# their calls under this module name.
from .metrics import (  # noqa: F401
    confusion_counts,
    mean_rater_correlation,
    pearson,
    spearman,
)
from .model import (
    CagopError,
    DataError,
    FormatError,
    NumericError,
    SegmentColumns,
    normalize_posteriors,
    utterance_speeds,
    validate_posteriorgram,
)
from .scoring import entropy_profile
from .synth import SynthConfig, generate_corpus, write_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_CONFIGS = {"desk": desk_config, "full": full_config, "tiny": tiny_config}
# train-dur holds this share of the sequences out for validation
VAL_FRACTION = 0.1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the documented 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _posteriorgram_reader(posteriors: str, utterances: int, phone_set):
    """utt_id -> its posteriorgram, read and validated, from a directory of
    ``<utt>.pgm`` or ``<utt>.pgt`` files, or one file for one utterance."""
    directory = os.path.isdir(posteriors)
    if not directory and utterances > 1:
        raise DataError(
            f"--posteriors {posteriors} is a single file but the input names "
            "several utterances"
        )

    def read(utt_id: str):
        path = posteriors
        if directory:
            path = os.path.join(posteriors, f"{utt_id}.pgm")
            if not os.path.exists(path):
                path = os.path.join(posteriors, f"{utt_id}.pgt")
            if not os.path.exists(path):
                raise DataError(
                    f"no posteriorgram for {utt_id!r} under {Path(posteriors)}")
        pg = read_posteriorgram(path)
        try:
            return validate_posteriorgram(pg, phone_set)
        except DataError as exc:
            raise DataError(f"{path}: utterance {utt_id!r}: {exc}") from None

    return read


def _cmd_synth_corpus(args) -> int:
    cfg = SynthConfig(num_utterances=args.utterances, seed=args.seed)
    write_corpus(args.out, generate_corpus(cfg))
    print(f"wrote {args.utterances} utterances to {args.out}")
    return EXIT_OK


def _cmd_align(args) -> int:
    phone_set = read_phone_set(args.phones)
    lexicon = read_lexicon(args.lexicon, phone_set)
    manifest = read_text_manifest_rows(args.text)
    cfg = AlignConfig(
        allow_optional_silence=not args.no_silence,
        min_segment_frames=args.min_frames,
        silence_index=phone_set.silence_index,
    )
    posteriorgram = _posteriorgram_reader(args.posteriors, len(manifest),
                                          phone_set)

    def reference_phones(line, utt_id, text):
        try:
            return text_to_phones(text, lexicon, phone_set)
        except DataError as exc:
            raise FormatError(f"utterance {utt_id!r}: {exc}", path=args.text,
                              line=line) from None

    # Each utterance is read, then converted, as the aligner takes it, so
    # the first bad utterance in manifest order decides the error.
    segments = align_utterances(
        ((utt_id, posteriorgram(utt_id), reference_phones(line, utt_id, text))
         for line, utt_id, text in manifest), cfg)
    write_ctm(args.out, segments, phone_set)
    print(f"aligned {len(manifest)} utterances -> {args.out}")
    return EXIT_OK


def _duration_corpus(ctm_path, phone_set) -> SegmentColumns:
    """The CTM's non-silence segments of every utterance that has some."""
    segments = read_ctm_columns(ctm_path, phone_set).speech(phone_set)
    if not segments.utterance_ids:
        raise DataError("alignment file has no non-silence phones")
    return segments


def _predict_durations(checkpoint_path, segments) -> np.ndarray:
    """Predictions for every row of ``segments`` (no utterance without one)."""
    params, net_cfg = read_checkpoint(checkpoint_path)
    predicted = predict_durations_batch(params, net_cfg, list(zip(
        segments.split(segments.phone),
        utterance_speeds(segments.length, segments.counts).tolist(),
    )))
    return np.concatenate([np.empty(0), *predicted])


def _cmd_score(args) -> int:
    phone_set = read_phone_set(args.phones)
    segments = read_ctm_columns(args.ctm, phone_set).non_silence(phone_set)
    cfg = DetectorConfig(beta=args.beta, variant=args.variant)
    balance = predicted = None
    if cfg.needs_durations:
        if args.balance is None or args.checkpoint is None:
            raise UsageError(
                f"variant {args.variant} with beta={args.beta} needs "
                "--balance and --checkpoint"
            )
        balance = read_balance_table(args.balance, phone_set)
        predicted = _predict_durations(args.checkpoint,
                                       segments.speech(phone_set))
    thresholds = (
        read_thresholds(args.thresholds, phone_set)
        if args.thresholds is not None else None
    )

    ids = segments.utterance_ids
    cols = score_utterances(
        segments, map(_posteriorgram_reader(args.posteriors, len(ids),
                                            phone_set), ids),
        cfg, predicted_durations=predicted, balance=balance,
    )
    phones, scores = segments.phone.tolist(), cols.score.tolist()
    flags = (detect_flags(phones, scores, thresholds)
             if thresholds is not None else [None] * len(scores))
    write_score_file(args.out, ScoreFile(
        args.variant, segments.row_ids(), segments.positions(), tuple(phones),
        tuple(segments.start.tolist()), tuple(segments.length.tolist()),
        tuple(scores), tuple(flags),
        tuple(zip(ids, cols.sentence_scores.tolist())),
    ), phone_set)
    print(f"scored {len(ids)} utterances -> {args.out}")
    return EXIT_OK


def _cmd_train_dur(args) -> int:
    net_cfg = _CONFIGS[args.config](seed=args.seed)
    phone_set = read_phone_set(args.phones)
    segments = _duration_corpus(args.ctm, phone_set)
    samples = [
        DurationSample.from_durations(phones, lengths)
        for phones, lengths in zip(segments.split(segments.phone),
                                   segments.split(segments.length))
    ]
    if len(samples) < 2:
        raise DataError("need at least 2 sequences to split train/validation")
    splitter = np.random.default_rng(args.seed)
    order = splitter.permutation(len(samples))
    n_val = max(1, int(round(len(samples) * VAL_FRACTION)))
    val = [samples[i] for i in order[:n_val]]
    tr = [samples[i] for i in order[n_val:]]
    params, log = train(
        tr, net_cfg, val, num_phones=len(phone_set), epochs=args.epochs,
    )
    write_checkpoint(args.out, params, net_cfg)
    if args.log is not None:
        write_training_log(args.log, log)
    best = min(e.val_mae for e in log)
    print(
        f"trained {args.epochs} epochs on {len(tr)} sequences, "
        f"best val MAE {best:.4f} frames -> {args.out}"
    )
    return EXIT_OK


def _cmd_predict_dur(args) -> int:
    phone_set = read_phone_set(args.phones)
    segments = _duration_corpus(args.ctm, phone_set)
    predicted = _predict_durations(args.checkpoint, segments).tolist()
    write_duration_predictions(args.out, segments, predicted, phone_set)
    print(f"wrote duration predictions -> {args.out}")
    return EXIT_OK


def _cmd_fit_balance(args) -> int:
    phone_set = read_phone_set(args.phones)
    segments = _duration_corpus(args.ctm, phone_set)
    speeds = utterance_speeds(segments.length, segments.counts)
    table = fit_balance_table(
        segments.phone, segments.length,
        _predict_durations(args.checkpoint, segments),
        np.repeat(speeds, segments.counts),
        min_count=args.min_count,
    )
    write_balance_table(args.out, table, phone_set)
    print(
        f"fitted {len(table.entries)} cells from {len(speeds)} utterances "
        f"-> {args.out}"
    )
    return EXIT_OK


def _join_labels(score_file, annotations, what="scored", among=None):
    """Indices of the rows with an annotation label, and those labels.

    ``among``, if given, lists the row indices to consider.
    """
    labels = annotations.phone_label_map()
    keys = list(zip(score_file.utt_ids, score_file.positions))
    kept = [i for i in (range(len(keys)) if among is None else among)
            if keys[i] in labels]
    if not kept:
        raise DataError(f"no {what} phones have annotation labels")
    return kept, [labels[keys[i]] for i in kept]


def _cmd_calibrate(args) -> int:
    phone_set = read_phone_set(args.phones)
    score_file = read_score_file(args.scores, phone_set)
    annotations = read_annotations(args.annotations)
    rows, truth = _join_labels(score_file, annotations)
    table = calibrate_thresholds(
        [score_file.phones[i] for i in rows],
        [score_file.scores[i] for i in rows], truth, min_count=args.min_count,
    )
    write_thresholds(args.out, table, phone_set)
    print(
        f"calibrated {len(table.per_phone)} phone thresholds "
        f"(+ global) on {len(rows)} labeled phones -> {args.out}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    phone_set = read_phone_set(args.phones)
    score_file = read_score_file(args.scores, phone_set)
    annotations = read_annotations(args.annotations)
    rows, truth = _join_labels(score_file, annotations)

    if args.thresholds is not None:
        table = read_thresholds(args.thresholds, phone_set)
        flags = detect_flags([score_file.phones[i] for i in rows],
                             [score_file.scores[i] for i in rows], table)
    else:
        flagged = [i for i, f in enumerate(score_file.flags) if f is not None]
        if not flagged:
            raise UsageError(
                "score file has no detection flags; pass --thresholds"
            )
        rows, truth = _join_labels(score_file, annotations, "flagged", flagged)
        flags = [score_file.flags[i] for i in rows]

    counts = confusion_counts(flags, truth)
    lines = [
        ("detection_accuracy", counts.accuracy),
        ("detection_f1", counts.f1),
        ("tp", counts.tp), ("fp", counts.fp),
        ("fn", counts.fn), ("tn", counts.tn),
    ]

    pearson_mean, spearman_mean, used, raters = mean_rater_correlation(
        dict(score_file.sentences), annotations.rating_utt_ids,
        annotations.rater_ids, annotations.ratings,
    )
    if used:
        lines.append(("sentence_pearson", pearson_mean))
        lines.append(("sentence_spearman", spearman_mean))

    write_evaluation(args.out, lines)
    summary = " ".join(f"{n}={float(v):.4f}" for n, v in lines[:2])
    print(f"{summary}, sentence correlation over {used} of "
          f"{raters} raters -> {args.out}")
    if raters and not used:
        print(f"warning: all {raters} raters left out of the sentence "
              "correlation (each needs two common utterances with varying "
              "scores); eval.tsv has no sentence_pearson or sentence_spearman",
              file=sys.stderr)
    return EXIT_OK


def _cmd_entropy_dump(args) -> int:
    pg = read_posteriorgram(args.posteriors)
    try:
        normalize_posteriors(pg)
    except DataError as exc:
        raise DataError(f"{args.posteriors}: {exc}") from None
    write_entropy_profile(args.out, entropy_profile(pg).tolist())
    print(f"wrote {pg.num_frames} frame entropies -> {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="cagop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utterances", type=int, default=200)
    p.set_defaults(fn=_cmd_synth_corpus)

    p = sub.add_parser("align", help="forced-align posteriors to reference text")
    p.add_argument("--posteriors", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-frames", type=int, default=1)
    p.add_argument("--no-silence", action="store_true",
                   help="disallow optional silences between phones")
    p.set_defaults(fn=_cmd_align)

    p = sub.add_parser("score", help="score aligned phones under a variant")
    p.add_argument("--posteriors", required=True)
    p.add_argument("--ctm", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="cagop")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--balance")
    p.add_argument("--checkpoint")
    p.add_argument("--thresholds")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("train-dur", help="train the duration predictor")
    p.add_argument("--ctm", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--config", choices=sorted(_CONFIGS), default="desk")
    p.add_argument("--log")
    p.set_defaults(fn=_cmd_train_dur)

    p = sub.add_parser("predict-dur", help="dump duration predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ctm", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict_dur)

    p = sub.add_parser("fit-balance", help="fit duration tolerances")
    p.add_argument("--ctm", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=5)
    p.set_defaults(fn=_cmd_fit_balance)

    p = sub.add_parser("calibrate", help="fit detection thresholds")
    p.add_argument("--scores", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=10)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="detection and correlation metrics")
    p.add_argument("--scores", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--phones", required=True)
    p.add_argument("--thresholds")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("entropy-dump", help="per-frame entropy CSV")
    p.add_argument("--posteriors", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_entropy_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CagopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""The three workloads: set-up, one measured round, and the checks.

Each workload drives the package's public functions, or ``cagop.cli.main``
in process, on a synthetic corpus made from the run's seed. A round is
the unit the run repeats until its time is up, so every run attempts
whole rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import time
from pathlib import Path

import numpy as np

import cagop
from cagop import cli, formats, synth
from cagop.duration import DurationSample, backward, desk_config, init_params

import checks

BETA = 0.1
MIN_FRAMES = 2
FRAME_SAMPLE = 200


def run_cli(argv, tracer) -> int:
    """cagop.cli.main in process, its progress lines discarded."""
    argv = [str(a) for a in argv]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        with tracer.span("cli." + argv[0].replace("-", "_")):
            return cli.main(argv)


def _must(argv, tracer) -> None:
    rc = run_cli(argv, tracer)
    if rc != 0:
        raise RuntimeError(f"cagop {argv[0]} exited {rc}")


def _frame_sample(rng, keys, size):
    picks = rng.choice(len(keys), size=min(size, len(keys)), replace=False)
    return [keys[i] for i in sorted(picks)]


class Workload:
    """Set-up writes under ``data``; rounds write under ``out``."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.data = work / "data"
        self.out = work / "out"

    def reset(self) -> None:
        for d in (self.data, self.out):
            shutil.rmtree(d, ignore_errors=True)
        self.data.mkdir(parents=True)
        self.out.mkdir(parents=True)

    def latencies_ms(self) -> list[float]:
        """Per-request latencies; only the request-serving workload has them."""
        return []


class Batch(Workload):
    """Many short utterances through the README pipeline via cli.main."""

    def __init__(self, seed, work, utterances=400, setup_epochs=2):
        super().__init__(seed, work)
        self.utterances = utterances
        self.setup_epochs = setup_epochs
        d, o = self.data, self.out
        phones = ["--phones", d / "phones.txt"]
        self.pipeline = [
            ["align", "--posteriors", d / "post", *phones,
             "--lexicon", d / "lexicon.txt", "--text", d / "text.tsv",
             "--min-frames", MIN_FRAMES, "--out", o / "aligned.ctm"],
            ["fit-balance", "--ctm", o / "aligned.ctm",
             "--checkpoint", d / "dur.ckpt", *phones, "--out", o / "balance.tsv"],
            ["score", "--posteriors", d / "post", "--ctm", o / "aligned.ctm",
             *phones, "--variant", "cagop", "--beta", BETA,
             "--balance", o / "balance.tsv", "--checkpoint", d / "dur.ckpt",
             "--out", o / "scores.tsv"],
            ["calibrate", "--scores", o / "scores.tsv",
             "--annotations", d / "annotations.tsv", *phones,
             "--out", o / "thresholds.tsv"],
            ["evaluate", "--scores", o / "scores.tsv",
             "--annotations", d / "annotations.tsv", *phones,
             "--thresholds", o / "thresholds.tsv", "--out", o / "eval.tsv"],
        ]

    @property
    def units_per_round(self) -> int:
        return self.utterances

    def setup(self, tracer) -> None:
        corpus = synth.generate_corpus(
            synth.SynthConfig(num_utterances=self.utterances, seed=self.seed))
        synth.write_corpus(self.data, corpus)
        _must(["train-dur", "--ctm", self.data / "reference.ctm",
               "--phones", self.data / "phones.txt", "--config", "desk",
               "--epochs", self.setup_epochs, "--seed", self.seed,
               "--out", self.data / "dur.ckpt"], tracer)

    def warmup(self) -> None:
        phone_set = formats.read_phone_set(self.data / "phones.txt")
        utt, alignment = formats.read_ctm(self.data / "reference.ctm", phone_set)[0]
        pg = cagop.validate_posteriorgram(
            formats.read_posteriorgram(self.data / "post" / f"{utt}.pgm"),
            phone_set)
        cagop.align(pg, alignment.phone_sequence(phone_set),
                    cagop.AlignConfig(min_segment_frames=MIN_FRAMES))
        cagop.score_utterance(pg, alignment, phone_set,
                              cagop.DetectorConfig(variant="cagop_minus_dur"))

    def round(self, tracer) -> int:
        """Failed utterances: all of them when any command fails."""
        for argv in self.pipeline:
            if run_cli(argv, tracer) != 0:
                return self.utterances
        return 0

    def check(self, tracer) -> dict[str, list[str]]:
        d, o = self.data, self.out
        phones = checks.read_phones(d / "phones.txt")
        reference = checks.read_ctm(d / "reference.ctm")
        probs = {u: checks.read_pgm(d / "post" / f"{u}.pgm") for u in reference}
        rows, sentences = checks.read_scores(o / "scores.tsv")
        labels, ratings = checks.read_annotations(d / "annotations.tsv")
        _must(["predict-dur", "--checkpoint", d / "dur.ckpt",
               "--ctm", o / "aligned.ctm", "--phones", d / "phones.txt",
               "--out", o / "predicted.tsv"], tracer)
        result = {
            "alignment": checks.check_alignments(
                probs, checks.read_ctm(o / "aligned.ctm"), reference, phones),
            "cagop": checks.check_cagop_scores(
                rows, probs, phones, checks.read_predictions(o / "predicted.tsv"),
                checks.read_balance(o / "balance.tsv"), BETA),
            "evaluate": checks.check_evaluation(
                rows, sentences, checks.read_two_columns(o / "thresholds.tsv"),
                labels, ratings, checks.read_two_columns(o / "eval.tsv")),
        }
        # gop and tascore are not in scores.tsv; ask the library for them on
        # a seeded sample of the scored phones.
        phone_set = formats.read_phone_set(d / "phones.txt")
        alignments = dict(formats.read_ctm(o / "aligned.ctm", phone_set))
        keys = [(r[0], r[1]) for r in rows]
        picked = _frame_sample(np.random.default_rng(self.seed), keys,
                               FRAME_SAMPLE)
        reports = {}
        samples = []
        for utt, pos in picked:
            if utt not in reports:
                pg = cagop.validate_posteriorgram(
                    formats.read_posteriorgram(d / "post" / f"{utt}.pgm"),
                    phone_set)
                reports[utt] = cagop.score_utterance(
                    pg, alignments[utt], phone_set,
                    cagop.DetectorConfig(variant="cagop_minus_dur"))
            rec = reports[utt].per_phone[pos]
            samples.append((f"{utt}/{pos}", probs[utt], rec.phone,
                            rec.segment.start, rec.segment.length,
                            rec.gop, rec.tascore))
        result["frame_scores"] = checks.check_frame_scores(samples)
        return result


class Train(Workload):
    """train-dur on the aligned CTM of a synthetic corpus."""

    def __init__(self, seed, work, utterances=640, epochs=18):
        super().__init__(seed, work)
        self.utterances = utterances
        self.epochs = epochs
        self.train_sequences = 0

    @property
    def units_per_round(self) -> int:
        return self.train_sequences * self.epochs

    def setup(self, tracer) -> None:
        corpus = synth.generate_corpus(
            synth.SynthConfig(num_utterances=self.utterances, seed=self.seed))
        synth.write_corpus(self.data, corpus)
        _must(["align", "--posteriors", self.data / "post",
               "--phones", self.data / "phones.txt",
               "--lexicon", self.data / "lexicon.txt",
               "--text", self.data / "text.tsv", "--min-frames", MIN_FRAMES,
               "--out", self.data / "aligned.ctm"], tracer)
        train, _ = checks.duration_split(
            checks.read_ctm(self.data / "aligned.ctm"), self.seed)
        self.train_sequences = len(train)

    def warmup(self) -> None:
        cfg = desk_config(seed=self.seed)
        params = init_params(cfg, len(synth.PHONE_LABELS),
                             np.random.default_rng(self.seed))
        sample = DurationSample.from_durations(
            [1, 4, 7, 12], [9.0, 4.0, 8.0, 4.0])
        backward(params, cfg, sample, train=True,
                 rng=np.random.default_rng(self.seed))

    def round(self, tracer) -> int:
        rc = run_cli(["train-dur", "--ctm", self.data / "aligned.ctm",
                      "--phones", self.data / "phones.txt", "--config", "desk",
                      "--epochs", self.epochs, "--seed", self.seed,
                      "--out", self.out / "dur.ckpt",
                      "--log", self.out / "train.tsv"], tracer)
        return 0 if rc == 0 else self.units_per_round

    def check(self, tracer) -> dict[str, list[str]]:
        train, val = checks.duration_split(
            checks.read_ctm(self.data / "aligned.ctm"), self.seed)
        return {"training": checks.check_training(
            checks.read_train_log(self.out / "train.tsv"),
            checks.phone_mean_mae(train, val))}


class LongForm(Workload):
    """Paragraph-length requests, one at a time from one client (closed loop)."""

    def __init__(self, seed, work, pool=16):
        super().__init__(seed, work)
        self.pool_size = pool
        self.pool = ()
        self.phone_set = synth.default_phone_set()
        self.align_cfg = cagop.AlignConfig(
            allow_optional_silence=True, min_segment_frames=MIN_FRAMES,
            silence_index=self.phone_set.silence_index)
        self.score_cfg = cagop.DetectorConfig(variant="cagop_minus_dur")
        self.latencies: list[float] = []
        self.results: dict[str, tuple] = {}
        self.sentences: dict[str, set[float]] = {}

    @property
    def units_per_round(self) -> int:
        return len(self.pool)

    def setup(self, tracer) -> None:
        # Stratified pool: word counts and tempos sit at evenly spaced
        # quantiles of 180-220 words and 0.8-1.25, paired by one fixed
        # permutation, so the seed changes the words and the noise but not
        # the spread of request sizes. Drawn at random, they would move the
        # aligner's work (phones x frames) of the median request from seed
        # to seed.
        n = self.pool_size
        tempo_rank = np.random.default_rng(0).permutation(n)
        pool = []
        for i in range(n):
            words = 180 + round(40 * (i + 0.5) / n)
            tempo = 0.8 + 0.45 * (tempo_rank[i] + 0.5) / n
            utt = synth.generate_corpus(synth.SynthConfig(
                num_utterances=1, seed=self.seed * 1000 + i,
                min_words=words, max_words=words,
                tempo_low=tempo, tempo_high=tempo)).utterances[0]
            pool.append(dataclasses.replace(utt, utt_id=f"long{i:02d}"))
        self.pool = tuple(pool)

    def request(self, utt):
        alignment = cagop.align(utt.posteriorgram, utt.reference_phones,
                                self.align_cfg)
        report = cagop.score_utterance(utt.posteriorgram, alignment,
                                       self.phone_set, self.score_cfg,
                                       utterance_id=utt.utt_id)
        return alignment, report

    def warmup(self) -> None:
        self.request(self.pool[0])

    def round(self, tracer) -> int:
        failed = 0
        for utt in self.pool:
            start = time.perf_counter()
            try:
                result = self.request(utt)
            except cagop.CagopError:
                failed += 1
                continue
            self.latencies.append((time.perf_counter() - start) * 1e3)
            self.results[utt.utt_id] = result
            self.sentences.setdefault(utt.utt_id, set()).add(
                result[1].sentence_score)
        return failed

    def latencies_ms(self) -> list[float]:
        return self.latencies

    def check(self, tracer) -> dict[str, list[str]]:
        labels = self.phone_set.phones
        probs, aligned, reference = {}, {}, {}
        for utt in self.pool:
            probs[utt.utt_id] = utt.posteriorgram.probs
            reference[utt.utt_id] = [(labels[s.phone], s.start, s.length)
                                     for s in utt.alignment.segments]
            if utt.utt_id in self.results:
                aligned[utt.utt_id] = [
                    (labels[s.phone], s.start, s.length)
                    for s in self.results[utt.utt_id][0].segments]
        keys = [(u, pos) for u, (_, rep) in sorted(self.results.items())
                for pos in range(len(rep.per_phone))]
        samples = []
        variant = []
        for utt, pos in _frame_sample(np.random.default_rng(self.seed), keys,
                                      FRAME_SAMPLE):
            rec = self.results[utt][1].per_phone[pos]
            samples.append((f"{utt}/{pos}", probs[utt], rec.phone,
                            rec.segment.start, rec.segment.length,
                            rec.gop, rec.tascore))
            if rec.score != rec.tascore:
                variant.append(f"{utt}/{pos}: cagop_minus_dur score "
                               f"{rec.score!r} != tascore {rec.tascore!r}")
        repeat = [f"{u}: sentence score differs between rounds {sorted(s)}"
                  for u, s in self.sentences.items() if len(s) != 1]
        return {
            "alignment": checks.check_alignments(probs, aligned, reference,
                                                 labels),
            "frame_scores": checks.check_frame_scores(samples) + variant,
            "determinism": repeat,
        }


WORKLOADS = {"batch": Batch, "train": Train, "long-form": LongForm}

"""End-to-end CLI pipeline and exit-code behavior."""

import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import cagop

from cagop import (
    Alignment, FormatError, PhoneSegment, PhoneSet, Posteriorgram,
    SegmentColumns,
)
from cagop.cli import main
from cagop.formats import (
    CKPT_MAGIC,
    _CKPT_HEADER,
    read_annotations,
    read_balance_table,
    read_checkpoint,
    read_ctm,
    read_phone_set,
    read_posteriorgram,
    read_score_file,
    read_text_manifest_rows,
    read_thresholds,
    read_training_log,
    write_ctm,
    write_phone_set,
    write_posteriorgram_binary,
)
from cagop.scoring import entropy_profile


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole command chain once on a small synthetic corpus."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    paths = {
        "root": root,
        "corpus": corpus,
        "phones": corpus / "phones.txt",
        "post": corpus / "post",
        "annotations": corpus / "annotations.tsv",
        "ctm": root / "aligned.ctm",
        "ckpt": root / "dur.ckpt",
        "trainlog": root / "train.tsv",
        "preds": root / "preds.tsv",
        "balance": root / "balance.tsv",
        "scores": root / "scores.tsv",
        "thresholds": root / "thresholds.tsv",
        "evalout": root / "eval.tsv",
    }
    assert main(["synth-corpus", "--out", str(corpus),
                 "--seed", "0", "--utterances", "40"]) == 0
    assert main(["align",
                 "--posteriors", str(paths["post"]),
                 "--phones", str(paths["phones"]),
                 "--lexicon", str(corpus / "lexicon.txt"),
                 "--text", str(corpus / "text.tsv"),
                 "--min-frames", "2",
                 "--out", str(paths["ctm"])]) == 0
    assert main(["train-dur",
                 "--ctm", str(paths["ctm"]),
                 "--phones", str(paths["phones"]),
                 "--config", "desk", "--epochs", "3", "--seed", "0",
                 "--log", str(paths["trainlog"]),
                 "--out", str(paths["ckpt"])]) == 0
    assert main(["predict-dur",
                 "--checkpoint", str(paths["ckpt"]),
                 "--ctm", str(paths["ctm"]),
                 "--phones", str(paths["phones"]),
                 "--out", str(paths["preds"])]) == 0
    assert main(["fit-balance",
                 "--ctm", str(paths["ctm"]),
                 "--checkpoint", str(paths["ckpt"]),
                 "--phones", str(paths["phones"]),
                 "--out", str(paths["balance"])]) == 0
    assert main(["score",
                 "--posteriors", str(paths["post"]),
                 "--ctm", str(paths["ctm"]),
                 "--phones", str(paths["phones"]),
                 "--variant", "cagop", "--beta", "0.1",
                 "--balance", str(paths["balance"]),
                 "--checkpoint", str(paths["ckpt"]),
                 "--out", str(paths["scores"])]) == 0
    assert main(["calibrate",
                 "--scores", str(paths["scores"]),
                 "--annotations", str(paths["annotations"]),
                 "--phones", str(paths["phones"]),
                 "--min-count", "5",
                 "--out", str(paths["thresholds"])]) == 0
    assert main(["evaluate",
                 "--scores", str(paths["scores"]),
                 "--annotations", str(paths["annotations"]),
                 "--phones", str(paths["phones"]),
                 "--thresholds", str(paths["thresholds"]),
                 "--out", str(paths["evalout"])]) == 0
    return paths


def test_pipeline_writes_every_artifact(pipeline):
    for key in ("ctm", "ckpt", "trainlog", "preds", "balance",
                "scores", "thresholds", "evalout"):
        assert pipeline[key].exists(), key


def test_alignment_covers_reference_phones(pipeline):
    ps = read_phone_set(pipeline["phones"])
    entries = read_ctm(pipeline["ctm"], ps)
    labels = read_annotations(pipeline["annotations"]).phone_label_map()
    assert len(entries) == 40
    for utt_id, alignment in entries:
        positions = [p for (u, p) in labels if u == utt_id]
        assert len(alignment.non_silence(ps)) == len(positions)


PIPELINE_DIGESTS = {
    "ckpt": "478052fa4d87a05a8cd95a82e78e99c3f83ed316eadff064150bca7f2e11db63",
    "ctm": "622e31e5f3b47ac63962d2b7bcd42cf8c24daa6cfba7ce5d69fe09d1fe2e3a4d",
    "trainlog":
        "27e142cf5932dccb6827e2265c54b8a727b50277ef9ad76ff1afae9beb960db6",
    "preds": "afec32e3630b0bcac1a4405efa9dee93f4345ea71b1c070915317e962ff827d0",
    "balance":
        "3214962c582c0a182667ff3fb0b7736de1c158004c989615ca250fba236987cc",
    "scores":
        "32cc27ef776f7a849447517d0ab7bdd04ef00788d38a4c72a06af2b528329dc0",
    "thresholds":
        "fec216faa535321845712bb37965c44b2f1d55a05b91676556c37e7a30961508",
    "evalout":
        "4dea3f30a82872ac2ee52a5607d149b482c551b9822c5804cdc2bae25f332fef",
}


@pytest.mark.parametrize("key", sorted(PIPELINE_DIGESTS))
def test_pipeline_outputs_are_pinned(pipeline, key):
    digest = hashlib.sha256(pipeline[key].read_bytes()).hexdigest()
    assert digest == PIPELINE_DIGESTS[key], pipeline[key].name


@pytest.fixture(scope="module")
def seed_one_corpus(tmp_path_factory):
    """The 400-utterance seed-1 corpus, written once."""
    root = tmp_path_factory.mktemp("seed1") / "corpus"
    assert main(["synth-corpus", "--out", str(root), "--seed", "1",
                 "--utterances", "400"]) == 0
    return root


def _align_argv(corpus, out, *extra):
    return ["align", "--posteriors", str(corpus / "post"),
            "--phones", str(corpus / "phones.txt"),
            "--lexicon", str(corpus / "lexicon.txt"),
            "--text", str(corpus / "text.tsv"), "--min-frames", "2",
            *extra, "--out", str(out)]


@pytest.mark.parametrize("extra, digest", [
    ((), "688091f812e52b6fcc4392dacdb6168d5ef6b5cabca9092f340cc140c2560a6e"),
    (("--no-silence",),
     "098d6d0e7b1631df778322b7b116a2b1916405925e74c88a2dad9b9f3ca7d8e6"),
])
def test_align_command_ctm_is_pinned(seed_one_corpus, tmp_path, extra, digest):
    # Digests recorded with one align() call per utterance, before the
    # command aligned padded chunks of utterances.
    out = tmp_path / "aligned.ctm"
    assert main(_align_argv(seed_one_corpus, out, *extra)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _corpus_copy(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    return corpus


def test_bad_utterance_late_in_manifest_leaves_no_ctm(pipeline, tmp_path,
                                                       capsys):
    corpus = _corpus_copy(pipeline, tmp_path)
    late = read_text_manifest_rows(corpus / "text.tsv")[-3][1]
    pgm = corpus / "post" / f"{late}.pgm"
    write_posteriorgram_binary(pgm, Posteriorgram(
        read_posteriorgram(pgm).probs[:3]))
    out = tmp_path / "aligned.ctm"
    assert main(_align_argv(corpus, out)) == 2
    assert "posteriorgram has 3" in capsys.readouterr().err
    assert not out.exists()


def test_posteriorgram_error_names_file_and_utterance(pipeline, tmp_path,
                                                      capsys):
    corpus = _corpus_copy(pipeline, tmp_path)
    bad = read_text_manifest_rows(corpus / "text.tsv")[17][1]
    pgm = corpus / "post" / f"{bad}.pgm"
    probs = read_posteriorgram(pgm).probs.copy()
    probs[3, 0] = math.nan
    write_posteriorgram_binary(pgm, Posteriorgram(probs))
    out = tmp_path / "aligned.ctm"
    assert main(_align_argv(corpus, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {pgm}: utterance {bad!r}: non-finite posterior at frame 3\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("{word} bogusword", "word 'bogusword' not in lexicon"),
    ("", "empty reference text"),
])
def test_text_error_names_manifest_line_and_utterance(pipeline, tmp_path,
                                                      capsys, text, message):
    corpus = _corpus_copy(pipeline, tmp_path)
    rows = (corpus / "text.tsv").read_text().splitlines()
    utt, words = rows[5].split("\t")
    rows[5] = f"{utt}\t{text.format(word=words.split()[0])}"
    # a blank line before it: line numbers count every line of the file
    (corpus / "text.tsv").write_text("\n".join(["", *rows]) + "\n")
    out = tmp_path / "aligned.ctm"
    assert main(_align_argv(corpus, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus / 'text.tsv'}: line 7: utterance {utt!r}: {message}\n")
    assert not out.exists()


def test_checkpoint_and_log_round_trip(pipeline):
    params, cfg = read_checkpoint(pipeline["ckpt"])
    assert cfg.embed_dim > 0
    log = read_training_log(pipeline["trainlog"])
    assert len(log) == 3
    assert [e.epoch for e in log] == [1, 2, 3]


def test_prediction_dump_matches_alignment(pipeline):
    ps = read_phone_set(pipeline["phones"])
    by_utt = {u: a.non_silence(ps) for u, a in read_ctm(pipeline["ctm"], ps)}
    lines = pipeline["preds"].read_text().splitlines()
    assert lines[0] == "utt\tpos\tphone\taligned\tpredicted"
    assert len(lines) - 1 == sum(len(v) for v in by_utt.values())
    for line in lines[1:]:
        utt, pos, phone, aligned, predicted = line.split("\t")
        seg = by_utt[utt][int(pos)]
        assert ps.label(seg.phone) == phone
        assert int(aligned) == seg.length
        value = float(predicted)
        assert math.isfinite(value) and value >= 1.0


def test_balance_table_is_readable(pipeline):
    ps = read_phone_set(pipeline["phones"])
    table = read_balance_table(pipeline["balance"], ps)
    assert table.global_backoff >= 0.0
    assert table.entries


def test_score_file_contents(pipeline):
    ps = read_phone_set(pipeline["phones"])
    sf = read_score_file(pipeline["scores"], ps)
    assert sf.variant == "cagop"
    total = sum(
        len(a.non_silence(ps)) for _, a in read_ctm(pipeline["ctm"], ps)
    )
    assert len(sf.scores) == total
    assert all(flag is None for flag in sf.flags)
    assert len(sf.sentences) == 40
    assert all(math.isfinite(score) for score in sf.scores)


def test_thresholds_are_readable(pipeline):
    ps = read_phone_set(pipeline["phones"])
    table = read_thresholds(pipeline["thresholds"], ps)
    assert math.isfinite(table.global_threshold)
    for value in table.per_phone.values():
        assert math.isfinite(value)


def test_evaluate_report_is_consistent(pipeline):
    report = dict(
        line.split("\t")
        for line in pipeline["evalout"].read_text().splitlines()
    )
    acc = float(report["detection_accuracy"])
    f1 = float(report["detection_f1"])
    assert 0.0 <= acc <= 1.0 and 0.0 <= f1 <= 1.0
    counts = sum(int(float(report[k])) for k in ("tp", "fp", "fn", "tn"))
    labeled = read_annotations(pipeline["annotations"]).phone_label_map()
    assert counts == len(labeled)
    ps = read_phone_set(pipeline["phones"])
    system = dict(read_score_file(pipeline["scores"], ps).sentences)
    ann = read_annotations(pipeline["annotations"])
    raters = {}
    for utt, rater, score in zip(ann.rating_utt_ids, ann.rater_ids,
                                 ann.ratings):
        raters.setdefault(rater, {})[utt] = score
    assert len(raters) > 1
    per_rater = []
    for by_utt in raters.values():
        common = sorted(set(system) & set(by_utt))
        x = [system[u] for u in common]
        y = [by_utt[u] for u in common]
        per_rater.append((stats.pearsonr(x, y).statistic,
                          stats.spearmanr(x, y).statistic))
    want_p, want_s = np.mean(per_rater, axis=0)
    assert abs(float(report["sentence_pearson"]) - want_p) <= 1e-12
    assert abs(float(report["sentence_spearman"]) - want_s) <= 1e-12


def test_score_with_thresholds_sets_flags_and_evaluates(pipeline):
    ps = read_phone_set(pipeline["phones"])
    flagged = pipeline["root"] / "scores_flagged.tsv"
    assert main(["score",
                 "--posteriors", str(pipeline["post"]),
                 "--ctm", str(pipeline["ctm"]),
                 "--phones", str(pipeline["phones"]),
                 "--variant", "cagop", "--beta", "0.1",
                 "--balance", str(pipeline["balance"]),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--thresholds", str(pipeline["thresholds"]),
                 "--out", str(flagged)]) == 0
    sf = read_score_file(flagged, ps)
    assert all(flag is not None for flag in sf.flags)
    out = pipeline["root"] / "eval_flagged.tsv"
    assert main(["evaluate",
                 "--scores", str(flagged),
                 "--annotations", str(pipeline["annotations"]),
                 "--phones", str(pipeline["phones"]),
                 "--out", str(out)]) == 0
    assert out.exists()


def test_zero_beta_cagop_equals_duration_free_variant(pipeline):
    ps = read_phone_set(pipeline["phones"])
    out_a = pipeline["root"] / "beta0_cagop.tsv"
    out_b = pipeline["root"] / "beta0_nodur.tsv"
    base = ["--posteriors", str(pipeline["post"]),
            "--ctm", str(pipeline["ctm"]),
            "--phones", str(pipeline["phones"]),
            "--beta", "0"]
    assert main(["score", *base, "--variant", "cagop",
                 "--out", str(out_a)]) == 0
    assert main(["score", *base, "--variant", "cagop_minus_dur",
                 "--out", str(out_b)]) == 0
    a = read_score_file(out_a, ps)
    b = read_score_file(out_b, ps)
    assert a == dataclasses.replace(b, variant="cagop")


def test_synth_corpus_is_byte_deterministic(tmp_path):
    for sub in ("one", "two"):
        assert main(["synth-corpus", "--out", str(tmp_path / sub),
                     "--seed", "7", "--utterances", "12"]) == 0
    for name in ("phones.txt", "lexicon.txt", "text.tsv",
                 "reference.ctm", "annotations.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name
    utt = read_text_manifest_rows(tmp_path / "one" / "text.tsv")[0][1]
    assert (tmp_path / "one" / "post" / f"{utt}.pgm").read_bytes() == \
        (tmp_path / "two" / "post" / f"{utt}.pgm").read_bytes()


def test_entropy_dump_matches_library(pipeline, tmp_path):
    utt = read_text_manifest_rows(pipeline["corpus"] / "text.tsv")[0][1]
    pgm = pipeline["post"] / f"{utt}.pgm"
    out = tmp_path / "entropy.csv"
    assert main(["entropy-dump", "--posteriors", str(pgm),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frame,entropy"
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    expected = entropy_profile(cagop.validate_posteriorgram(
        read_posteriorgram(pgm), read_phone_set(pipeline["phones"])))
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("bad, message", [
    (math.nan, "non-finite posterior at frame 1"),
    (1.5, "posterior outside [0, 1] at frame 1"),
])
def test_entropy_dump_rejects_what_score_rejects(tmp_path, capsys, bad,
                                                 message):
    pgm = tmp_path / "bad.pgm"
    write_posteriorgram_binary(pgm, Posteriorgram(
        np.array([[0.25, 0.75], [1.0 - bad, bad]])))
    out = tmp_path / "entropy.csv"
    assert main(["entropy-dump", "--posteriors", str(pgm),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {pgm}: {message}\n"
    assert not out.exists()


def test_entropy_dump_row_sum_error_names_the_file(tmp_path, capsys):
    pgt = tmp_path / "bad.pgt"
    pgt.write_text("frames=2 phones=2 shift_ms=30.0\n0.25 0.75\n0.9 0.9\n")
    assert main(["entropy-dump", "--posteriors", str(pgt),
                 "--out", str(tmp_path / "entropy.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {pgt}: row 1 sums to 1.80000000, outside tolerance 1e-06\n")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["score"]) == 1
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_usage_error_then_valid_command_in_one_process(tmp_path, capsys):
    # one parser serves every call of a process, so a failed parse must not
    # leak into the next call
    out = tmp_path / "corpus"
    assert main(["synth-corpus", "--out", str(out), "--utterances", "x"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["synth-corpus", "--out", str(out), "--utterances", "2"]) == 0
    assert (out / "text.tsv").exists()


def _src_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    src = str(Path(cagop.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_runs_the_command(tmp_path):
    env = _src_env()
    bad = subprocess.run([sys.executable, "-m", "cagop.cli", "frobnicate"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 1
    assert "usage error" in bad.stderr
    out = tmp_path / "corpus"
    good = subprocess.run([sys.executable, "-m", "cagop.cli", "synth-corpus",
                           "--out", str(out), "--utterances", "2"],
                          env=env, capture_output=True, text=True)
    assert good.returncode == 0 and (out / "text.tsv").exists()


def test_calibrate_does_not_import_numpy_ma(pipeline, tmp_path):
    # np.unique's first call in a process imports numpy.ma; calibration
    # groups phones with one sort instead.
    out = tmp_path / "thresholds.tsv"
    argv = ["calibrate", "--scores", str(pipeline["scores"]),
            "--annotations", str(pipeline["annotations"]),
            "--phones", str(pipeline["phones"]), "--min-count", "5",
            "--out", str(out)]
    code = ("import sys; from cagop.cli import main; "
            f"code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)")
    ran = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True)
    assert ran.stdout.splitlines()[-1] == "0 False", ran.stderr
    assert out.read_bytes() == pipeline["thresholds"].read_bytes()


def test_non_finite_threshold_or_score_exits_two(pipeline, tmp_path, capsys):
    common = ["--annotations", str(pipeline["annotations"]),
              "--phones", str(pipeline["phones"]),
              "--out", str(tmp_path / "out.tsv")]
    thresholds = tmp_path / "thresholds.tsv"
    thresholds.write_text("GLOBAL\tnan\n")
    assert main(["evaluate", "--scores", str(pipeline["scores"]),
                 "--thresholds", str(thresholds)] + common) == 2
    assert f"{thresholds}: line 1: threshold must be finite" in (
        capsys.readouterr().err)
    lines = pipeline["scores"].read_text().splitlines()
    parts = lines[1].split("\t")
    parts[6] = "nan"
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join([lines[0], "\t".join(parts)] + lines[2:]) + "\n")
    assert main(["calibrate", "--scores", str(scores)] + common) == 2
    assert f"{scores}: line 2: score must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_beta_exits_two(pipeline, tmp_path, capsys, beta):
    code = main(["score",
                 "--posteriors", str(pipeline["post"]),
                 "--ctm", str(pipeline["ctm"]),
                 "--phones", str(pipeline["phones"]),
                 "--variant", "cagop", "--beta", beta,
                 "--balance", str(pipeline["balance"]),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--out", str(tmp_path / "scores.tsv")])
    assert code == 2
    assert f"beta must be finite and >= 0, got {beta}" in capsys.readouterr().err
    assert not (tmp_path / "scores.tsv").exists()


@pytest.mark.parametrize("fraction", ["nan", "-3", "0", "1"])
def test_val_fraction_outside_unit_interval_exits_two(tmp_path, capsys, fraction):
    # checked before any input is read: the CTM path does not exist
    code = main(["train-dur", "--ctm", str(tmp_path / "absent.ctm"),
                 "--phones", str(tmp_path / "absent.txt"),
                 "--val-fraction", fraction,
                 "--out", str(tmp_path / "dur.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"--val-fraction must be in (0, 1), got {float(fraction)}" in err


def test_needing_durations_without_tables_exits_one(pipeline, capsys):
    code = main(["score",
                 "--posteriors", str(pipeline["post"]),
                 "--ctm", str(pipeline["ctm"]),
                 "--phones", str(pipeline["phones"]),
                 "--variant", "cagop", "--beta", "0.1",
                 "--out", str(pipeline["root"] / "nope.tsv")])
    assert code == 1
    assert "--balance" in capsys.readouterr().err


def test_missing_input_file_exits_two(tmp_path, capsys):
    code = main(["entropy-dump",
                 "--posteriors", str(tmp_path / "absent.pgm"),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_posteriorgram_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a posteriorgram at all")
    code = main(["entropy-dump", "--posteriors", str(bad),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_single_posteriors_file_with_multiple_utts_exits_two(
        pipeline, capsys, tmp_path):
    utt = read_text_manifest_rows(pipeline["corpus"] / "text.tsv")[0][1]
    pgm = pipeline["post"] / f"{utt}.pgm"
    code = main(["align",
                 "--posteriors", str(pgm),
                 "--phones", str(pipeline["phones"]),
                 "--lexicon", str(pipeline["corpus"] / "lexicon.txt"),
                 "--text", str(pipeline["corpus"] / "text.tsv"),
                 "--out", str(tmp_path / "out.ctm")])
    assert code == 2
    assert "single file" in capsys.readouterr().err


def test_oversized_checkpoint_header_is_rejected_before_allocation(
        pipeline, tmp_path, capsys):
    # embed_dim 2**20 implies 8 TiB per attention matrix; the file is tiny
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(CKPT_MAGIC + _CKPT_HEADER.pack(
        2 ** 20, 2, 4, 256, 0.1, 100, 1.0, 400, 64, 0, 40) + b"\x00" * 64)
    with pytest.raises(FormatError, match="header implies"):
        read_checkpoint(bad)
    code = main(["predict-dur",
                 "--checkpoint", str(bad),
                 "--ctm", str(pipeline["ctm"]),
                 "--phones", str(pipeline["phones"]),
                 "--out", str(tmp_path / "preds.tsv")])
    assert code == 2
    assert "header implies" in capsys.readouterr().err


@pytest.mark.parametrize("phones", ["100000000000", "-2"])
def test_pgt_phone_count_is_checked_before_allocation(phones, tmp_path, capsys):
    # 10**11 phones would be 745 GiB for the one declared frame
    bad = tmp_path / "bad.pgt"
    bad.write_text(f"frames=1 phones={phones} shift_ms=30.0\n0.5 0.5\n")
    with pytest.raises(FormatError):
        read_posteriorgram(bad)
    code = main(["entropy-dump", "--posteriors", str(bad),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_score_rejects_utterance_longer_than_the_duration_net(
        pipeline, tmp_path, capsys):
    ps = read_phone_set(pipeline["phones"])
    first = read_ctm(pipeline["ctm"], ps)[0]
    post = tmp_path / "post"
    post.mkdir()
    (post / f"{first[0]}.pgm").write_bytes(
        (pipeline["post"] / f"{first[0]}.pgm").read_bytes())
    speech = [p for p in range(len(ps)) if not ps.is_silence(p)]
    n = 101
    long_al = Alignment(tuple(
        PhoneSegment(speech[i % len(speech)], i, 1) for i in range(n)))
    write_posteriorgram_binary(
        post / "long.pgm",
        Posteriorgram(np.full((n, len(ps)), 1.0 / len(ps)), 30.0))
    write_ctm(tmp_path / "long.ctm",
              SegmentColumns.from_alignments([first, ("long", long_al)]), ps)
    code = main(["score",
                 "--posteriors", str(post),
                 "--ctm", str(tmp_path / "long.ctm"),
                 "--phones", str(pipeline["phones"]),
                 "--variant", "cagop", "--beta", "0.1",
                 "--balance", str(pipeline["balance"]),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--out", str(tmp_path / "scores.tsv")])
    assert code == 2
    assert f"sequence length {n} exceeds 100" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth-corpus", "train-dur"])
def test_negative_seed_exits_two(tmp_path, capsys, command):
    args = {"synth-corpus": ["--out", str(tmp_path / "corpus")],
            "train-dur": ["--ctm", str(tmp_path / "absent.ctm"),
                          "--phones", str(tmp_path / "absent.txt"),
                          "--out", str(tmp_path / "dur.ckpt")]}[command]
    assert main([command, *args, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert not any(tmp_path.iterdir())


def _wide_corpus(root, utterances, frames=40, columns=300):
    """Posteriorgrams with many phone columns, one CTM, one phone set."""
    ps = PhoneSet(tuple(f"p{i}" for i in range(columns)), silence_index=0)
    rng = np.random.default_rng(5)
    (root / "post").mkdir(parents=True)
    entries = []
    for u in range(utterances):
        probs = rng.dirichlet(np.full(columns, 0.5), size=frames)
        write_posteriorgram_binary(root / "post" / f"u{u}.pgm",
                                   Posteriorgram(probs, 30.0))
        entries.append((f"u{u}", Alignment(tuple(
            PhoneSegment(int(rng.integers(1, columns)), start, 4)
            for start in range(0, frames, 4)))))
    write_phone_set(root / "phones.txt", ps)
    write_ctm(root / "aligned.ctm", SegmentColumns.from_alignments(entries),
              ps)
    return ["score", "--posteriors", str(root / "post"),
            "--ctm", str(root / "aligned.ctm"),
            "--phones", str(root / "phones.txt"),
            "--variant", "cagop_minus_dur", "--out", str(root / "scores.tsv")]


def test_score_memory_does_not_grow_with_posterior_columns(tmp_path):
    # One 40 x 300 posteriorgram is 96 KB in float64; 120 of them are
    # 11 MiB. Scoring keeps per-frame vectors, not frames x columns.
    peaks = {}
    for n in (30, 120):
        argv = _wide_corpus(tmp_path / str(n), n)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    one_posteriorgram = 40 * 300 * 8
    assert peaks[120] - peaks[30] < 90 * one_posteriorgram / 10
    assert peaks[120] < 120 * one_posteriorgram / 4

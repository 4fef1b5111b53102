"""End-to-end CLI pipeline and exit-code behavior."""

import math

import numpy as np
import pytest

from cagop import Alignment, FormatError, PhoneSegment, Posteriorgram
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
    read_thresholds,
    read_training_log,
    write_ctm,
    write_posteriorgram_binary,
)
from cagop.scoring import entropy_profile
from cagop.synth import read_text_manifest


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
    assert len(sf.rows) == total
    assert all(r.flag is None for r in sf.rows)
    assert len(sf.sentences) == 40
    assert all(math.isfinite(r.score) for r in sf.rows)


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
    assert -1.0 <= float(report["sentence_pearson"]) <= 1.0
    assert -1.0 <= float(report["sentence_spearman"]) <= 1.0


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
    assert all(r.flag is not None for r in sf.rows)
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
    assert a.rows == b.rows
    assert a.sentences == b.sentences


def test_synth_corpus_is_byte_deterministic(tmp_path):
    for sub in ("one", "two"):
        assert main(["synth-corpus", "--out", str(tmp_path / sub),
                     "--seed", "7", "--utterances", "12"]) == 0
    for name in ("phones.txt", "lexicon.txt", "text.tsv",
                 "reference.ctm", "annotations.tsv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name
    manifest = read_text_manifest(tmp_path / "one" / "text.tsv")
    utt = manifest[0][0]
    assert (tmp_path / "one" / "post" / f"{utt}.pgm").read_bytes() == \
        (tmp_path / "two" / "post" / f"{utt}.pgm").read_bytes()


def test_entropy_dump_matches_library(pipeline, tmp_path):
    manifest = read_text_manifest(pipeline["corpus"] / "text.tsv")
    pgm = pipeline["post"] / f"{manifest[0][0]}.pgm"
    out = tmp_path / "entropy.csv"
    assert main(["entropy-dump", "--posteriors", str(pgm),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frame,entropy"
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    expected = entropy_profile(read_posteriorgram(pgm))
    assert np.array_equal(values, expected)


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["score"]) == 1
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


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
    manifest = read_text_manifest(pipeline["corpus"] / "text.tsv")
    pgm = pipeline["post"] / f"{manifest[0][0]}.pgm"
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
    write_ctm(tmp_path / "long.ctm", [first, ("long", long_al)], ps)
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

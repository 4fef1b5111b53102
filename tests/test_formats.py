"""Writer/reader inverses and corruption diagnostics for every file format."""

import numpy as np
import pytest

from cagop import (
    Alignment,
    DataError,
    FormatError,
    DurationSample,
    PhoneSegment,
    PhoneSet,
    Posteriorgram,
    ThresholdTable,
)
from cagop.duration import TrainLogEntry, init_params, tiny_config, iter_tensors
from cagop.formats import (
    PGM_MAGIC,
    _PGM_HEADER,
    AnnotationSet,
    ScoreFile,
    read_annotations,
    read_balance_table,
    read_checkpoint,
    read_ctm,
    read_lexicon,
    read_phone_set,
    read_posteriorgram,
    read_posteriorgram_binary,
    read_posteriorgram_text,
    read_score_file,
    read_thresholds,
    read_training_log,
    text_to_phones,
    write_annotations,
    write_balance_table,
    write_checkpoint,
    write_ctm,
    write_lexicon,
    write_phone_set,
    write_posteriorgram_binary,
    write_posteriorgram_text,
    write_score_file,
    write_thresholds,
    write_training_log,
)

from conftest import fit_on_samples, random_pg

PS = PhoneSet(("SIL", "AA", "B", "G", "OW"), silence_index=0)


# --- posteriorgrams ---------------------------------------------------------


def test_binary_roundtrip_is_float32_exact(tmp_path):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pg = random_pg(rng, int(rng.integers(1, 9)), int(rng.integers(2, 6)),
                       frame_shift_ms=float(rng.choice([10.0, 30.0, 25.5])))
        path = tmp_path / f"b{seed}.pgm"
        write_posteriorgram_binary(path, pg)
        back = read_posteriorgram_binary(path)
        expected = pg.probs.astype(np.float32).astype(np.float64)
        assert np.array_equal(back.probs, expected)
        assert back.frame_shift_ms == pg.frame_shift_ms


def test_text_twin_matches_binary_exactly(tmp_path):
    rng = np.random.default_rng(99)
    pg = random_pg(rng, 6, 4)
    write_posteriorgram_binary(tmp_path / "t.pgm", pg)
    write_posteriorgram_text(tmp_path / "t.pgt", pg)
    from_bin = read_posteriorgram_binary(tmp_path / "t.pgm")
    from_text = read_posteriorgram_text(tmp_path / "t.pgt")
    assert np.array_equal(from_bin.probs, from_text.probs)
    assert from_bin.frame_shift_ms == from_text.frame_shift_ms


def test_reader_sniffs_both_twins(tmp_path):
    rng = np.random.default_rng(7)
    pg = random_pg(rng, 3, 3)
    write_posteriorgram_binary(tmp_path / "x.pgm", pg)
    write_posteriorgram_text(tmp_path / "x.pgt", pg)
    assert np.array_equal(
        read_posteriorgram(tmp_path / "x.pgm").probs,
        read_posteriorgram(tmp_path / "x.pgt").probs,
    )


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"NOTPGM" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        read_posteriorgram_binary(path)


def test_binary_rejects_truncated_body(tmp_path):
    rng = np.random.default_rng(1)
    pg = random_pg(rng, 4, 3)
    path = tmp_path / "trunc.pgm"
    write_posteriorgram_binary(path, pg)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="body"):
        read_posteriorgram_binary(path)


def test_text_rejects_row_count_mismatch(tmp_path):
    path = tmp_path / "bad.pgt"
    path.write_text("frames=3 phones=2 shift_ms=30.0\n0.5 0.5\n0.5 0.5\n")
    with pytest.raises(FormatError, match="rows"):
        read_posteriorgram_text(path)


def test_text_rejects_short_row(tmp_path):
    path = tmp_path / "bad2.pgt"
    path.write_text("frames=1 phones=3 shift_ms=30.0\n0.5 0.5\n")
    with pytest.raises(FormatError) as err:
        read_posteriorgram_text(path)
    assert err.value.line == 2


def test_text_rejects_nan_frame_shift(tmp_path):
    path = tmp_path / "nan.pgt"
    path.write_text("frames=1 phones=2 shift_ms=nan\n0.5 0.5\n")
    with pytest.raises(FormatError, match="frame shift"):
        read_posteriorgram(path)


def test_binary_rejects_nan_frame_shift(tmp_path):
    path = tmp_path / "nan.pgm"
    path.write_bytes(PGM_MAGIC + _PGM_HEADER.pack(1, 2, float("nan"))
                     + np.full(2, 0.5, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="frame shift"):
        read_posteriorgram(path)


def test_text_reader_names_undecodable_byte_line(tmp_path):
    path = tmp_path / "bad.pgt"
    path.write_bytes(b"frames=2 phones=2 shift_ms=30.0\n0.5 0.5\n0.5 \xff\n")
    with pytest.raises(FormatError, match="UTF-8") as err:
        read_posteriorgram(path)
    assert err.value.line == 3


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(FormatError):
        read_posteriorgram(tmp_path / "absent.pgm")


# --- phone sets and lexicons -------------------------------------------------


def test_phone_set_roundtrip(tmp_path):
    path = tmp_path / "phones.txt"
    write_phone_set(path, PS)
    assert read_phone_set(path) == PS


def test_phone_set_without_silence(tmp_path):
    ps = PhoneSet(("A", "B"))
    path = tmp_path / "p.txt"
    write_phone_set(path, ps)
    back = read_phone_set(path)
    assert back.silence_index is None
    assert back.phones == ("A", "B")


def test_phone_set_rejects_unknown_silence(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("A\nB\n#silence=SIL\n")
    with pytest.raises(FormatError, match="SIL"):
        read_phone_set(path)


def test_phone_set_rejects_duplicates(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("A\nA\n")
    with pytest.raises(FormatError):
        read_phone_set(path)


def test_lexicon_roundtrip(tmp_path):
    lex = {"GO": ("G", "OW"), "BAA": ("B", "AA")}
    path = tmp_path / "lex.txt"
    write_lexicon(path, lex)
    assert read_lexicon(path, PS) == lex


def test_lexicon_rejects_unknown_phone(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("GO\tG ZZ\n")
    with pytest.raises(FormatError, match="ZZ"):
        read_lexicon(path, PS)


def test_text_to_phones_single_word():
    lex = {"GO": ("G", "OW")}
    assert text_to_phones("GO", lex, PS) == [PS.index("G"), PS.index("OW")]


def test_text_to_phones_concatenates():
    lex = {"GO": ("G", "OW")}
    assert text_to_phones("go GO", lex, PS) == [3, 4, 3, 4]


def test_text_to_phones_names_the_oov_word():
    with pytest.raises(DataError, match="XYZZY"):
        text_to_phones("GO XYZZY", {"GO": ("G", "OW")}, PS)


# --- alignments ---------------------------------------------------------------


def test_ctm_roundtrip(tmp_path):
    entries = [
        ("utt1", Alignment((PhoneSegment(1, 0, 3), PhoneSegment(2, 3, 2)))),
        ("utt2", Alignment((PhoneSegment(0, 0, 1), PhoneSegment(3, 1, 4)))),
    ]
    path = tmp_path / "a.ctm"
    write_ctm(path, entries, PS)
    assert read_ctm(path, PS) == entries


def test_ctm_rejects_split_utterance(tmp_path):
    path = tmp_path / "a.ctm"
    path.write_text(
        "u1\tAA\t0\t2\nu2\tAA\t0\t2\nu1\tB\t2\t2\n"
    )
    with pytest.raises(FormatError, match="two places"):
        read_ctm(path, PS)


def test_ctm_rejects_overlap(tmp_path):
    path = tmp_path / "a.ctm"
    path.write_text("u1\tAA\t0\t3\nu1\tB\t2\t2\n")
    with pytest.raises(FormatError):
        read_ctm(path, PS)


def test_ctm_rejects_unknown_label(tmp_path):
    path = tmp_path / "a.ctm"
    path.write_text("u1\tZZ\t0\t3\n")
    with pytest.raises(FormatError) as err:
        read_ctm(path, PS)
    assert err.value.line == 1


# --- annotations ---------------------------------------------------------------


def test_annotations_roundtrip(tmp_path):
    ann = AnnotationSet(
        label_utt_ids=("u1", "u1", "u2"),
        positions=(0, 1, 0),
        mispronounced=(False, True, False),
        rating_utt_ids=("u1", "u1"),
        rater_ids=("r1", "r2"),
        ratings=(7.25, 10.0),
    )
    path = tmp_path / "ann.tsv"
    write_annotations(path, ann)
    assert read_annotations(path) == ann


def test_annotations_reject_bad_label(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("P\tu1\t0\t2\n")
    with pytest.raises(FormatError, match="0 or 1"):
        read_annotations(path)


def test_annotations_reject_score_out_of_range(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("S\tu1\tr1\t11.0\n")
    with pytest.raises(FormatError):
        read_annotations(path)


def test_annotation_helpers():
    ann = AnnotationSet(("u1", "u2"), (1, 0), (True, False), ("u1",), ("r1",),
                        (5.0,))
    assert ann.phone_label_map() == {("u1", 1): True, ("u2", 0): False}


# --- balance tables and thresholds --------------------------------------------


def balance_fixture():
    rng = np.random.default_rng(13)
    samples, predicted = [], []
    for _ in range(40):
        phone = int(rng.integers(1, 5))
        n = int(rng.integers(2, 6))
        samples.append(DurationSample.from_durations(
            [phone] * n, rng.uniform(2, 12, size=n).tolist()
        ))
        predicted.append(rng.uniform(2, 12, size=n).tolist())
    return fit_on_samples(samples, predicted, bucket_width=2.0,
                          bucket_range=(2, 15))


def test_balance_table_roundtrip(tmp_path):
    table = balance_fixture()
    path = tmp_path / "bal.tsv"
    write_balance_table(path, table, PS)
    back = read_balance_table(path, PS)
    assert back.entries == dict(table.entries)
    assert back.phone_backoff == dict(table.phone_backoff)
    assert back.global_backoff == table.global_backoff
    assert back.bucket_width == table.bucket_width
    assert back.bucket_range == table.bucket_range


def test_balance_table_requires_global_row(tmp_path):
    path = tmp_path / "bal.tsv"
    path.write_text("bucket_width=1.0 bucket_min=2 bucket_max=20\nAA\t5\t1.5\n")
    with pytest.raises(FormatError, match="GLOBAL"):
        read_balance_table(path, PS)


def test_balance_table_rejects_nan_bucket_width(tmp_path):
    path = tmp_path / "bal.tsv"
    path.write_text("bucket_width=nan bucket_min=2 bucket_max=20\n"
                    "-\tGLOBAL\t1.5\n")
    with pytest.raises(FormatError, match="bucket_width"):
        read_balance_table(path, PS)


def test_balance_table_names_line_of_unknown_phone(tmp_path):
    path = tmp_path / "bal.tsv"
    path.write_text("bucket_width=1.0 bucket_min=2 bucket_max=20\n"
                    "AA\t5\t1.5\nZZ\tPHONE\t1.0\n-\tGLOBAL\t1.5\n")
    with pytest.raises(FormatError, match="ZZ") as err:
        read_balance_table(path, PS)
    assert err.value.line == 3


def test_thresholds_roundtrip(tmp_path):
    table = ThresholdTable(per_phone={1: -0.5, 3: -0.25}, global_threshold=-0.4)
    path = tmp_path / "thr.tsv"
    write_thresholds(path, table, PS)
    back = read_thresholds(path, PS)
    assert back.per_phone == table.per_phone
    assert back.global_threshold == table.global_threshold


def test_thresholds_require_global_row(tmp_path):
    path = tmp_path / "thr.tsv"
    path.write_text("AA\t-0.5\n")
    with pytest.raises(FormatError, match="GLOBAL"):
        read_thresholds(path, PS)


def test_global_label_collision_rejected(tmp_path):
    clash = PhoneSet(("GLOBAL", "A"))
    table = ThresholdTable(per_phone={0: -0.5}, global_threshold=-0.4)
    with pytest.raises(DataError):
        write_thresholds(tmp_path / "x.tsv", table, clash)


# --- checkpoints and logs -------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = tiny_config(seed=4)
    params = init_params(cfg, num_phones=9, rng=np.random.default_rng(4))
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, params, cfg)
    back_params, back_cfg = read_checkpoint(path)
    assert back_cfg == cfg
    for (name_a, a), (name_b, b) in zip(
        iter_tensors(params), iter_tensors(back_params)
    ):
        assert name_a == name_b
        assert np.array_equal(a, b)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        read_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, num_phones=5, rng=np.random.default_rng(0))
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, params, cfg)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(FormatError, match="truncated"):
        read_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, num_phones=5, rng=np.random.default_rng(0))
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, params, cfg)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        read_checkpoint(path)


def test_training_log_roundtrip(tmp_path):
    log = [
        TrainLogEntry(1, 3.5, 2.25),
        TrainLogEntry(2, 1.0625, 1.9375),
    ]
    path = tmp_path / "log.tsv"
    write_training_log(path, log)
    assert read_training_log(path) == log


def test_training_log_requires_header(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("1\t3.5\t2.25\n")
    with pytest.raises(FormatError, match="header"):
        read_training_log(path)


# --- score files -----------------------------------------------------------------


def test_score_file_roundtrip(tmp_path):
    scores = ScoreFile(
        variant="cagop",
        utt_ids=("u1", "u1", "u2"),
        positions=(0, 1, 0),
        phones=(1, 2, 3),
        starts=(0, 3, 0),
        lengths=(3, 2, 5),
        scores=(-0.125, -0.0625, -1.75),
        flags=(True, False, None),
        sentences=(("u1", -0.09375), ("u2", -1.75)),
    )
    path = tmp_path / "scores.tsv"
    write_score_file(path, scores, PS)
    assert read_score_file(path, PS) == scores


def test_score_file_requires_variant_header(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("P\tu1\t0\tAA\t0\t3\t-0.5\n")
    with pytest.raises(FormatError, match="variant"):
        read_score_file(path, PS)


def test_score_file_rejects_bad_flag(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("#variant=gop\nP\tu1\t0\tAA\t0\t3\t-0.5\t7\n")
    with pytest.raises(FormatError, match="flag"):
        read_score_file(path, PS)


def test_score_file_needs_phone_rows(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("#variant=gop\nS\tu1\t-0.5\n")
    with pytest.raises(FormatError, match="phone rows"):
        read_score_file(path, PS)


@pytest.mark.parametrize("text, read, line", [
    ("frames=2 phones=2 shift_ms=30.0\n0.5 0.5\nnan 0.5\n",
     read_posteriorgram_text, 3),
    ("bucket_width=1.0 bucket_min=2 bucket_max=20\nAA\t5\tinf\n-\tGLOBAL\t1.5\n",
     lambda path: read_balance_table(path, PS), 2),
    ("epoch\ttrain_loss\tval_mae\n1\tnan\t0.5\n", read_training_log, 2),
    ("B\t-0.5\nGLOBAL\tnan\n", lambda path: read_thresholds(path, PS), 2),
    ("B\t-0.5\nAA\tinf\nGLOBAL\t-0.4\n",
     lambda path: read_thresholds(path, PS), 2),
    ("#variant=gop\nP\tu1\t0\tAA\t0\t3\t-0.5\nP\tu1\t1\tB\t3\t2\tnan\n",
     lambda path: read_score_file(path, PS), 3),
    ("#variant=gop\nP\tu1\t0\tAA\t0\t3\t-inf\t0\n",
     lambda path: read_score_file(path, PS), 2),
    ("#variant=gop\nP\tu1\t0\tAA\t0\t3\t-0.5\nS\tu1\tnan\n",
     lambda path: read_score_file(path, PS), 3),
], ids=["posteriorgram", "balance", "training-log", "global-threshold",
        "phone-threshold", "phone-score", "flagged-score", "sentence-score"])
def test_text_readers_reject_non_finite_numbers(tmp_path, text, read, line):
    path = tmp_path / "values.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match="must be finite") as err:
        read(path)
    assert err.value.line == line and str(path) in str(err.value)


def test_float_values_survive_text_roundtrips(tmp_path):
    # repr() serialization must reproduce doubles bit for bit
    rng = np.random.default_rng(21)
    values = rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, size=50)
    log = [TrainLogEntry(i + 1, float(v), abs(float(v))) for i, v in enumerate(values)]
    path = tmp_path / "vals.tsv"
    write_training_log(path, log)
    back = read_training_log(path)
    assert back == log

"""Writer/reader inverses and corruption diagnostics for every file format."""

import inspect
import os
import stat
import tracemalloc

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
    SegmentColumns,
    ThresholdTable,
)
from cagop import formats
from cagop.balance import lookup_tolerance, lookup_tolerances
from cagop.duration import (
    TrainLogEntry, full_config, init_params, iter_tensors, tiny_config,
)
from cagop.formats import (
    CKPT_MAGIC,
    PGM_MAGIC,
    _CKPT_HEADER,
    _PGM_HEADER,
    _write,
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
    read_text_manifest_rows,
    read_thresholds,
    read_training_log,
    text_to_phones,
    write_annotations,
    write_balance_table,
    write_checkpoint,
    write_ctm,
    write_duration_predictions,
    write_entropy_profile,
    write_evaluation,
    write_lexicon,
    write_phone_set,
    write_posteriorgram_binary,
    write_posteriorgram_text,
    write_score_file,
    write_text_manifest,
    write_thresholds,
    write_training_log,
)

from conftest import fit_on_samples, random_pg

PS = PhoneSet(("SIL", "AA", "B", "G", "OW"), silence_index=0)


def written(tmp_path, name, write):
    """``write(path)`` run over an older, longer file at ``tmp_path / name``.

    Asserts that the file then holds exactly the bytes ``write`` gives a
    new path, and returns its path.
    """
    fresh = tmp_path / f"new-{name}"
    write(fresh)
    path = tmp_path / name
    path.write_bytes(b"older \xff\r\n" * (fresh.stat().st_size + 1))
    write(path)
    assert path.read_bytes() == fresh.read_bytes()
    return path


# --- posteriorgrams ---------------------------------------------------------


def test_binary_roundtrip_is_float32_exact(tmp_path):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pg = random_pg(rng, int(rng.integers(1, 9)), int(rng.integers(2, 6)),
                       frame_shift_ms=float(rng.choice([10.0, 30.0, 25.5])))
        path = written(tmp_path, f"b{seed}.pgm",
                       lambda p: write_posteriorgram_binary(p, pg))
        back = read_posteriorgram_binary(path)
        expected = pg.probs.astype(np.float32).astype(np.float64)
        assert np.array_equal(back.probs, expected)
        assert back.frame_shift_ms == pg.frame_shift_ms


def test_text_twin_matches_binary_exactly(tmp_path):
    rng = np.random.default_rng(99)
    pg = random_pg(rng, 6, 4)
    write_posteriorgram_binary(tmp_path / "t.pgm", pg)
    pgt = written(tmp_path, "t.pgt", lambda p: write_posteriorgram_text(p, pg))
    from_bin = read_posteriorgram_binary(tmp_path / "t.pgm")
    from_text = read_posteriorgram_text(pgt)
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


def test_text_posteriorgram_is_read_once(tmp_path, monkeypatch):
    write_posteriorgram_text(tmp_path / "x.pgt", random_pg(np.random.default_rng(3), 4, 3))
    reads = []

    def counted(path, read=formats._read_bytes):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(formats, "_read_bytes", counted)
    read_posteriorgram(tmp_path / "x.pgt")
    assert len(reads) == 1


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
    path = written(tmp_path, "phones.txt", lambda p: write_phone_set(p, PS))
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
    path = written(tmp_path, "lex.txt", lambda p: write_lexicon(p, lex))
    assert read_lexicon(path, PS) == lex


def test_text_manifest_roundtrip(tmp_path):
    rows = [("u1", "go baa"), ("u2", "GO")]
    path = written(tmp_path, "text.tsv",
                   lambda p: write_text_manifest(p, rows))
    assert path.read_bytes() == b"u1\tgo baa\nu2\tGO\n"
    assert read_text_manifest_rows(path) == [(1, "u1", "go baa"),
                                             (2, "u2", "GO")]


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
    path = written(tmp_path, "a.ctm", lambda p: write_ctm(
        p, SegmentColumns.from_alignments(entries), PS))
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
    path = written(tmp_path, "ann.tsv", lambda p: write_annotations(p, ann))
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
    return fit_on_samples(samples, predicted)


def test_balance_table_roundtrip(tmp_path):
    table = balance_fixture()
    path = written(tmp_path, "bal.tsv",
                   lambda p: write_balance_table(p, table, PS))
    back = read_balance_table(path, PS)
    assert back.entries == dict(table.entries)
    assert back.phone_backoff == dict(table.phone_backoff)
    assert back.global_backoff == table.global_backoff
    assert path.read_text().splitlines()[0] == (
        "bucket_width=1.0 bucket_min=2 bucket_max=20")


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


def test_balance_table_grid_follows_its_cells_not_its_header(tmp_path):
    # a header naming another axis is rejected before anything is sized by it
    top = 2**62
    path = tmp_path / "bal.tsv"
    path.write_text(f"bucket_width=1.0 bucket_min=0 bucket_max={top}\n"
                    f"AA\t3\t0.5\nAA\t{top}\t7.0\n-\tGLOBAL\t1.5\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="bucket axis") as err:
            read_balance_table(path, PS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert err.value.line == 1
    path.write_text("bucket_width=1.0 bucket_min=2 bucket_max=20\n"
                    "AA\t3\t0.5\nAA\t20\t7.0\nB\tPHONE\t2.0\n-\tGLOBAL\t1.5\n")
    table = read_balance_table(path, PS)
    speeds = np.array([0.0, 2.4, 2.6, 3.0, 3.4, 19.6, 1e6, 1e18, float(top)])
    phones = np.repeat(np.arange(len(PS.phones)), len(speeds))
    speeds = np.tile(speeds, len(PS.phones))
    got = lookup_tolerances(table, phones, speeds)
    want = [lookup_tolerance(table, int(p), float(s))
            for p, s in zip(phones, speeds)]
    assert got.tolist() == want
    # the cells, the phone and global backoffs, and the clamped top bucket
    assert {0.5, 7.0, 2.0, 1.5} == set(want)


def test_thresholds_roundtrip(tmp_path):
    table = ThresholdTable(per_phone={1: -0.5, 3: -0.25}, global_threshold=-0.4)
    path = written(tmp_path, "thr.tsv",
                   lambda p: write_thresholds(p, table, PS))
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
    path = written(tmp_path, "net.ckpt",
                   lambda p: write_checkpoint(p, params, cfg))
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
    # a cut inside the last tensor's values, at every tensor boundary and
    # inside every dims field: the size check on the header catches them all
    cuts = [len(blob) - 9]
    offset = len(CKPT_MAGIC) + _CKPT_HEADER.size
    for _, tensor in iter_tensors(params):
        cuts += [offset, offset + 4 + 2]
        offset += 4 + 4 * tensor.ndim + 8 * tensor.size
    assert offset == len(blob)
    for cut in cuts:
        part = tmp_path / f"cut-{cut}.ckpt"
        part.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="truncated: header implies"):
            read_checkpoint(part)


def test_checkpoint_size_check_stops_where_the_file_ends(tmp_path):
    # 2**32 - 1 blocks of tiny tensors: summing every implied tensor would
    # not finish, so the check must stop once the file is exceeded
    cfg = tiny_config()
    params = init_params(cfg, num_phones=5, rng=np.random.default_rng(0))
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, params, cfg)
    blob = bytearray(path.read_bytes())
    header = list(_CKPT_HEADER.unpack_from(blob, len(CKPT_MAGIC)))
    header[1] = 2**32 - 1  # num_blocks
    _CKPT_HEADER.pack_into(blob, len(CKPT_MAGIC), *header)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="truncated: header implies at least"):
        read_checkpoint(path)


@pytest.mark.parametrize("field", [0, 2])  # the rank, the last dim
def test_checkpoint_rejects_framing_that_differs_from_the_shape(
        tmp_path, field):
    cfg = tiny_config()
    params = init_params(cfg, num_phones=5, rng=np.random.default_rng(0))
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, params, cfg)
    blob = bytearray(path.read_bytes())
    offset = len(CKPT_MAGIC) + _CKPT_HEADER.size
    (_, first), (name, tensor), *_ = iter_tensors(params)
    offset += 4 + 4 * first.ndim + 8 * first.size
    assert tensor.ndim == 2
    blob[offset + 4 * field] += 1
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value) == (f"{path}: tensor {name}: rank or dims differ "
                              f"from its shape {tensor.shape}")


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
    path = written(tmp_path, "log.tsv", lambda p: write_training_log(p, log))
    assert read_training_log(path) == log


def test_training_log_requires_header(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("1\t3.5\t2.25\n")
    with pytest.raises(FormatError, match="header"):
        read_training_log(path)


# --- score files -----------------------------------------------------------------


SCORES = ScoreFile(
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


def test_score_file_roundtrip(tmp_path):
    path = written(tmp_path, "scores.tsv",
                   lambda p: write_score_file(p, SCORES, PS))
    assert read_score_file(path, PS) == SCORES


@pytest.mark.parametrize("write", [
    lambda path, ps: write_score_file(path, SCORES, ps),
    lambda path, ps: write_balance_table(path, balance_fixture(), ps),
], ids=["score-file", "balance-table"])
def test_rejected_write_leaves_the_earlier_file(tmp_path, write):
    path = tmp_path / "out.tsv"
    write(path, PS)
    before = path.read_bytes()
    # phone 1 has a label in the short set; phone 2 and on do not
    with pytest.raises(DataError, match="phone index 2 out of range"):
        write(path, PhoneSet(PS.phones[:2]))
    assert path.read_bytes() == before


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


# --- layouts without a reader -----------------------------------------------------


def test_duration_predictions_layout(tmp_path):
    segments = SegmentColumns(("u1", "u2"), np.array([2, 1]), np.array([1, 2, 3]),
                              np.array([0, 3, 0]), np.array([3, 2, 5]))
    path = written(tmp_path, "pred.tsv", lambda p: write_duration_predictions(
        p, segments, [2.5, 1.0, 4.25], PS))
    assert path.read_bytes() == (b"utt\tpos\tphone\taligned\tpredicted\n"
                                 b"u1\t0\tAA\t3\t2.5\nu1\t1\tB\t2\t1.0\n"
                                 b"u2\t0\tG\t5\t4.25\n")


def test_evaluation_layout(tmp_path):
    path = written(tmp_path, "eval.tsv", lambda p: write_evaluation(
        p, [("detection_f1", 0.1), ("tp", 3)]))
    assert path.read_bytes() == b"detection_f1\t0.1\ntp\t3.0\n"


def test_entropy_profile_layout(tmp_path):
    path = written(tmp_path, "entropy.csv", lambda p: write_entropy_profile(
        p, [0.0, float(np.log(2))]))
    assert path.read_bytes() == b"frame,entropy\n0,0.0\n1,0.6931471805599453\n"


def test_checkpoint_writer_streams_its_tensors(tmp_path):
    # a full-size net holds 36 MiB of parameters; the writer copies one
    # tensor at a time, never the whole file
    cfg = full_config()
    params = init_params(cfg, num_phones=40, rng=np.random.default_rng(0))
    assert params.flat.nbytes > 36 * 2**20
    tracemalloc.start()
    try:
        write_checkpoint(tmp_path / "full.ckpt", params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# --- the writer ---------------------------------------------------------------


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "target.tsv"
    target.write_bytes(b"older, longer content\n" * 8)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    _write(link, [b"new\n"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"new\n"


def test_interrupted_write_keeps_none_of_the_older_file(tmp_path):
    # a writer that dies partway leaves a prefix of the new bytes, never a
    # mix of new and old that a reader could take for a whole file
    path = tmp_path / "out.ckpt"
    path.write_bytes(b"old!" * 64)

    def chunks():
        yield b"new-"
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        _write(path, chunks())
    assert b"new-".startswith(path.read_bytes())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_write_to_a_fifo_keeps_the_fifo(tmp_path):
    # a path that is not a regular file is written as it is, never removed
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        _write(fifo, [b"new\n"])
        assert os.read(reader, 64) == b"new\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_write_to_a_pipe_through_proc_fd(tmp_path):
    # what `--out /dev/stdout` into a pipe opens: a link that names no file
    read_end, write_end = os.pipe()
    try:
        _write(f"/proc/self/fd/{write_end}", [b"new\n"])
        os.close(write_end)
        write_end = None
        assert os.read(read_end, 64) == b"new\n"
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


def test_write_truncates_in_place_when_unlink_is_refused(tmp_path,
                                                          monkeypatch):
    # a folder that forbids the unlink (not writable, or sticky) falls back
    # to truncating the file, so the write still lands
    path = tmp_path / "out.tsv"
    path.write_bytes(b"older, longer content\n" * 8)
    inode = path.stat().st_ino

    def refuse(_path):
        raise PermissionError("unlink refused")

    monkeypatch.setattr(formats.os, "unlink", refuse)
    _write(path, [b"new\n"])
    assert path.read_bytes() == b"new\n"
    assert path.stat().st_ino == inode


READERS = sorted(name for name in vars(formats) if name.startswith("read_"))


@pytest.mark.parametrize("name", READERS)
def test_every_reader_rejects_an_empty_file(tmp_path, name):
    # an empty file is what a crash right after a write can leave
    read = getattr(formats, name)
    path = tmp_path / "empty"
    path.write_bytes(b"")
    args = [PS] if "phone_set" in inspect.signature(read).parameters else []
    with pytest.raises(FormatError):
        read(path, *args)

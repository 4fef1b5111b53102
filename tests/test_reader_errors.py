"""Exact FormatError text of every text-file reader.

Each case is one malformed file and the full message its reader raises,
file and line included, so a change to a reader that rewords or
relocates an error shows here.
"""

import pytest

from cagop import FormatError, PhoneSet
from cagop.cli import main
from cagop.formats import (
    read_annotations,
    read_balance_table,
    read_ctm,
    read_lexicon,
    read_phone_set,
    read_posteriorgram_text,
    read_score_file,
    read_text_manifest_rows,
    read_thresholds,
    read_training_log,
)

PS = PhoneSet(("SIL", "AA", "B", "G", "OW"), silence_index=0)
CTM_USAGE = "expected utt<TAB>phone<TAB>start<TAB>frames"
ANN_USAGE = ("expected P<TAB>utt<TAB>pos<TAB>label or "
             "S<TAB>utt<TAB>rater<TAB>score")
SCORE_USAGE = ("expected P<TAB>utt<TAB>pos<TAB>phone<TAB>start<TAB>frames"
               "<TAB>score[<TAB>flag] or S<TAB>utt<TAB>score")
H = "#variant=gop\n"
P = "P\tu1\t0\tAA\t0\t3\t-0.5\n"
PGT = "frames=2 phones=2 shift_ms=30.0\n"
BAL = "bucket_width=1.0 bucket_min=2 bucket_max=20\n"
G = "-\tGLOBAL\t1.0\n"
LOG = "epoch\ttrain_loss\tval_mae\n"

READERS = {
    "ctm": lambda path: read_ctm(path, PS),
    "annotations": read_annotations,
    "scores": lambda path: read_score_file(path, PS),
    "pgt": read_posteriorgram_text,
    "phones": read_phone_set,
    "lexicon": lambda path: read_lexicon(path, PS),
    "manifest": read_text_manifest_rows,
    "balance": lambda path: read_balance_table(path, PS),
    "thresholds": lambda path: read_thresholds(path, PS),
    "log": read_training_log,
}

# (reader, file text, line or None, message)
CASES = [
    ("ctm", "u1\tAA\t0\n", 1, CTM_USAGE),
    ("ctm", "u1\tAA\t0\t3\t9\n", 1, CTM_USAGE),
    ("ctm", "u1\tZZ\t0\t3\n", 1, "unknown phone label 'ZZ'"),
    ("ctm", "u1\tAA\tx\t3\n", 1, "bad start frame 'x'"),
    ("ctm", "u1\tAA\t0\t1.5\n", 1, "bad frame count '1.5'"),
    ("ctm", "u1\tAA\t0\t\n", 1, "bad frame count ''"),
    ("ctm", "u1\tAA\t0\t2\nu1\tB\t2\t+\n", 2, "bad frame count '+'"),
    ("ctm", "u1\tAA\t-1\t3\n", 1, "negative segment start -1"),
    ("ctm", "u1\tAA\t0\t2\nu1\tB\t-4\t3\n", 2, "negative segment start -4"),
    ("ctm", "u1\tAA\t0\t0\n", 1, "segment length must be >= 1, got 0"),
    ("ctm", "u1\tAA\t0\t-2\n", 1, "segment length must be >= 1, got -2"),
    # an overlap is reported at the row that overlaps its predecessor
    ("ctm", "u1\tAA\t0\t3\nu1\tB\t2\t2\n", 2,
     "overlapping segments: [0,3) then [2,4)"),
    ("ctm", "u1\tAA\t0\t3\nu1\tB\t3\t2\nu1\tG\t4\t1\n", 3,
     "overlapping segments: [3,5) then [4,5)"),
    ("ctm", "u1\tAA\t0\t2\nu2\tAA\t0\t2\nu1\tB\t2\t2\n", 3,
     "utterance 'u1' appears in two places"),
    ("ctm", "u1\tAA\t0\t2\nu1\tB\t2\t99999999999999999999\n", 2,
     "frame count 99999999999999999999 out of range"),
    ("ctm", "", None, "empty alignment file"),
    ("ctm", "\n  \n", None, "empty alignment file"),
    ("annotations", "P\tu1\t0\n", 1, ANN_USAGE),
    ("annotations", "X\tu1\t0\t1\n", 1, ANN_USAGE),
    ("annotations", "P\tu1\tx\t1\n", 1, "bad position 'x'"),
    ("annotations", "P\tu1\t+\t1\n", 1, "bad position '+'"),
    ("annotations", "P\tu1\t-1\t0\n", 1, "negative phone position -1"),
    ("annotations", "P\tu1\t0\t2\n", 1, "label must be 0 or 1, got '2'"),
    ("annotations", "P\tu1\t0\t 1\n", 1, "label must be 0 or 1, got ' 1'"),
    ("annotations", "S\tu1\tr1\tnan\n", 1,
     "rater score must be finite, got 'nan'"),
    ("annotations", "S\tu1\tr1\tinf\n", 1,
     "rater score must be finite, got 'inf'"),
    ("annotations", "S\tu1\tr1\tx\n", 1, "bad rater score 'x'"),
    ("annotations", "S\tu1\tr1\t10.5\n", 1,
     "rater score 10.5 outside [0, 10]"),
    ("annotations", "P\tu1\t0\t1\nS\tu1\tr1\t-0.5\n", 2,
     "rater score -0.5 outside [0, 10]"),
    ("annotations", "", None, "empty annotation file"),
    ("annotations", "\n", None, "empty annotation file"),
    ("scores", "", 1, "header missing #variant="),
    ("scores", P, 1, "header missing #variant="),
    ("scores", H + "P\tu1\t0\tAA\t0\t3\n", 2, SCORE_USAGE),
    ("scores", H + "S\tu1\t-0.5\t1\n", 2, SCORE_USAGE),
    ("scores", H + "P\tu1\t0\tZZ\t0\t3\t-0.5\n", 2,
     "unknown phone label 'ZZ'"),
    ("scores", H + "P\tu1\tx\tAA\t0\t3\t-0.5\n", 2, "bad position 'x'"),
    ("scores", H + "P\tu1\t0\tAA\ty\t3\t-0.5\n", 2, "bad start 'y'"),
    ("scores", H + P + "P\tu1\t1\tB\t3\tz\t-0.5\n", 3, "bad length 'z'"),
    ("scores", H + "P\tu1\t0\tAA\t0\t3\tnan\n", 2,
     "score must be finite, got 'nan'"),
    ("scores", H + "P\tu1\t0\tAA\t0\t3\tq\n", 2, "bad score 'q'"),
    ("scores", H + "P\tu1\t0\tAA\t0\t3\t-0.5\t2\n", 2,
     "flag must be 0 or 1, got '2'"),
    ("scores", H + P + "S\tu1\tinf\n", 3,
     "sentence score must be finite, got 'inf'"),
    ("scores", H + "P\tu1\t-3\tAA\t-5\t0\t-0.5\n", 2,
     "negative phone position -3"),
    ("scores", H + P + "P\tu1\t1\tB\t-5\t2\t-0.5\n", 3,
     "negative segment start -5"),
    ("scores", H + P + "P\tu1\t1\tB\t3\t0\t-0.5\n", 3,
     "segment length must be >= 1, got 0"),
    ("scores", H, None, "score file has no phone rows"),
    ("scores", H + "S\tu1\t-0.5\n", None, "score file has no phone rows"),
    ("pgt", PGT + "0.5 0.5\n0.5\n", 3, "expected 2 probabilities"),
    ("pgt", "frames=x phones=2 shift_ms=30.0\n", 1, "bad frame count 'x'"),
    ("pgt", "frames=1 phones=y shift_ms=30.0\n", 1, "bad phone count 'y'"),
    ("pgt", "frames=1 phones=2 shift_ms=z\n", 1, "bad frame shift 'z'"),
    ("pgt", "frames=1 phones=2 shift_ms=nan\n", 1,
     "frame shift must be finite, got 'nan'"),
    ("pgt", PGT + "0.5 0.5\n0.5 q\n", 3, "bad probability 'q'"),
    ("pgt", PGT + "0.5 0.5\ninf 0.5\n", 3,
     "probability must be finite, got 'inf'"),
    ("phones", "SIL\nAA\tB\n", 2, "expected one phone label"),
    ("lexicon", "GO\tG OW\nBOB\n", 2, "expected WORD<TAB>phones"),
    ("lexicon", "GO\tG OW\nBOB\tB ZZ B\n", 2, "unknown phone label 'ZZ'"),
    ("manifest", "u1\tgo\nu2\n", 2, "expected utt<TAB>text"),
    ("balance", BAL + "AA\t5\n", 2, "expected label<TAB>bucket<TAB>T"),
    ("balance", BAL + "AA\t5\tx\n", 2, "bad tolerance 'x'"),
    ("balance", BAL + "AA\t5\tnan\n", 2, "tolerance must be finite, got 'nan'"),
    ("balance", BAL + "ZZ\t5\t1.0\n", 2, "unknown phone label 'ZZ'"),
    ("balance", BAL + "ZZ\tPHONE\t1.0\n", 2, "unknown phone label 'ZZ'"),
    ("balance", BAL + "AA\tx\t1.0\n", 2, "bad bucket index 'x'"),
    ("balance", "bucket_width=w bucket_min=1 bucket_max=9\n" + G, 1,
     "bad bucket_width 'w'"),
    ("balance", "bucket_width=inf bucket_min=1 bucket_max=9\n" + G, 1,
     "bucket_width must be finite, got 'inf'"),
    ("balance", "bucket_width=1.0 bucket_min=m bucket_max=9\n" + G, 1,
     "bad bucket min 'm'"),
    ("balance", "bucket_width=1.0 bucket_min=1 bucket_max=n\n" + G, 1,
     "bad bucket max 'n'"),
    ("balance", "bucket_width=1.0 bucket_min=1 bucket_max=9\n" + G, 1,
     "bucket axis must be 'bucket_width=1.0 bucket_min=2 bucket_max=20'"),
    ("balance", "bucket_width=2 bucket_min=2 bucket_max=20\n" + G, 1,
     "bucket axis must be 'bucket_width=1.0 bucket_min=2 bucket_max=20'"),
    ("balance", BAL + "AA\t1\t1.0\n" + G, None,
     "bucket 1 of phone 1 lies outside 2-20"),
    ("balance", BAL + "AA\t5\t1.0\nB\t21\t1.0\n" + G, None,
     "bucket 21 of phone 2 lies outside 2-20"),
    ("balance", BAL + "AA\t-1\t1.0\n" + G, None,
     "bucket -1 of phone 1 lies outside 2-20"),
    ("thresholds", "AA\t-1.0\tx\n", 1, "expected label<TAB>threshold"),
    ("thresholds", "AA\tx\n", 1, "bad threshold 'x'"),
    ("thresholds", "AA\tinf\n", 1, "threshold must be finite, got 'inf'"),
    ("thresholds", "ZZ\t-1.0\n", 1, "unknown phone label 'ZZ'"),
    ("log", LOG + "1\t0.5\n", 2, "expected epoch<TAB>loss<TAB>mae"),
    ("log", LOG + "x\t0.5\t0.5\n", 2, "bad epoch 'x'"),
    ("log", LOG + "1\ty\t0.5\n", 2, "bad train loss 'y'"),
    ("log", LOG + "1\t0.5\tz\n", 2, "bad validation mae 'z'"),
    ("log", LOG + "1\tnan\t0.5\n", 2, "train loss must be finite, got 'nan'"),
    ("log", LOG + "1\t0.5\t-inf\n", 2,
     "validation mae must be finite, got '-inf'"),
    # with several faults, the earliest faulty line wins; within a row the
    # fields are checked in order, and a value before its phone label
    ("ctm", "u1\tAA\tx\t3\nu1\tB\t3\n", 1, "bad start frame 'x'"),
    ("ctm", "u1\tAA\t0\nu1\tB\tx\t3\n", 1, CTM_USAGE),
    ("ctm", "u1\tZZ\tx\ty\n", 1, "unknown phone label 'ZZ'"),
    ("balance", BAL + "ZZ\t5\tnan\n", 2, "tolerance must be finite, got 'nan'"),
    ("balance", BAL + "ZZ\tx\t1.0\n", 2, "unknown phone label 'ZZ'"),
    ("thresholds", "ZZ\tnan\n", 1, "threshold must be finite, got 'nan'"),
    ("scores", H + "P\tu1\t0\tZZ\tx\t3\t-0.5\n", 2,
     "unknown phone label 'ZZ'"),
    ("scores", H + "P\tu1\tx\tAA\t0\t3\tnan\t2\n", 2, "bad position 'x'"),
    ("annotations", "S\tu1\tr1\tx\nP\tu1\tx\t1\n", 1, "bad rater score 'x'"),
    ("annotations", "P\tu1\t0\t1\nP\tu1\tx\t1\nS\tu1\tr1\tx\n", 2,
     "bad position 'x'"),
    ("pgt", PGT + "0.5 q\n0.5\n", 2, "bad probability 'q'"),
]


@pytest.mark.parametrize("reader, text, line, message", CASES)
def test_reader_error_text(tmp_path, reader, text, line, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        READERS[reader](path)
    where = f"{path}: " if line is None else f"{path}: line {line}: "
    assert str(err.value) == where + message
    assert err.value.line == line


# A header value is checked before the rows, as the earliest faulty line.
@pytest.mark.parametrize("rows", ["AA\tx\t1.0\n", "AA\t5\t1.0\n"])
def test_balance_header_value_is_checked_before_the_rows(tmp_path, rows):
    test_reader_error_text(
        tmp_path, "balance", "bucket_width=w bucket_min=1 bucket_max=9\n" + rows,
        1, "bad bucket_width 'w'")


def test_int_fields_accept_what_int_accepts(tmp_path):
    path = tmp_path / "a.ctm"
    path.write_text("u1\tAA\t+0\t 3\nu1\tB\t3_0\t2 \n", encoding="utf-8")
    ((utt, alignment),) = read_ctm(path, PS)
    assert utt == "u1"
    assert [(s.phone, s.start, s.length) for s in alignment.segments] == [
        (1, 0, 3), (2, 30, 2)]


# Repeated rows are rejected at the later row instead of the last one
# silently winning.
REPEATS = [
    ("ctm", "u1\tAA\t0\t3\n\tB\t0\t3\n", 2, "empty utterance id"),
    ("annotations", "P\tu1\t0\t1\nP\tu2\t0\t1\nP\tu1\t0\t0\n", 3,
     "second label for phone 0 of 'u1'"),
    ("annotations", "S\tu1\tr1\t5\nS\tu1\tr2\t5\nS\tu1\tr1\t6\n", 3,
     "second score from rater 'r1' for 'u1'"),
    ("scores", H + P + "S\tu1\t-0.5\nS\tu1\t-0.25\n", 4,
     "second sentence score for 'u1'"),
    ("scores", H + P + "P\tu1\t0\tB\t3\t2\t-0.5\n", 3,
     "second score for phone 0 of 'u1'"),
    ("phones", "SIL\nAA\nB\nAA\n", 4, "second phone label 'AA'"),
    ("phones", "SIL\nAA\n#silence=SIL\n#silence=AA\n", 4,
     "second silence label"),
    ("lexicon", "go\tAA B\nGO\tB\n", 2, "second pronunciation for 'GO'"),
    ("manifest", "u1\tgo\nu2\tgo bob\nu1\tbob\n", 3, "second text for 'u1'"),
    ("balance", BAL + "AA\t5\t1.0\nB\t5\t1.0\nAA\t5\t2.0\n" + G, 4,
     "second tolerance for 'AA' at 5"),
    ("balance", BAL + "AA\tPHONE\t1.0\nAA\tPHONE\t2.0\n" + G, 3,
     "second tolerance for 'AA' at PHONE"),
    ("balance", BAL + G + "-\tGLOBAL\t2.0\n", 3, "second tolerance for '-' at GLOBAL"),
    ("thresholds", "AA\t-1.0\nAA\t-2.0\nGLOBAL\t-1.0\n", 2,
     "second threshold for 'AA'"),
    ("thresholds", "GLOBAL\t-1.0\nGLOBAL\t-2.0\n", 2,
     "second threshold for 'GLOBAL'"),
]


@pytest.mark.parametrize("reader, text, line, message", REPEATS,
                         ids=["ctm-empty-utterance", "phone-label",
                              "rater-score", "sentence-score", "phone-score",
                              "phone-set-label", "silence-label",
                              "lexicon-word", "manifest-utterance",
                              "balance-cell", "balance-phone", "balance-global",
                              "threshold-phone", "threshold-global"])
def test_repeated_rows_are_rejected(tmp_path, reader, text, line, message):
    test_reader_error_text(tmp_path, reader, text, line, message)


def test_synth_corpus_reads_cleanly(tmp_path):
    assert main(["synth-corpus", "--out", str(tmp_path), "--seed", "3",
                 "--utterances", "30"]) == 0
    phone_set = read_phone_set(tmp_path / "phones.txt")
    assert len(read_ctm(tmp_path / "reference.ctm", phone_set)) == 30
    annotations = read_annotations(tmp_path / "annotations.tsv")
    assert len(set(annotations.label_utt_ids)) == 30
    assert len(annotations.ratings) == 30 * len(set(annotations.rater_ids))

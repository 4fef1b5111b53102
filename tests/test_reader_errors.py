"""Exact FormatError text of the CTM, annotation and score-file readers.

Each case is one malformed file and the full message its reader raises,
file and line included, so a change to a reader that rewords or
relocates an error shows here.
"""

import pytest

from cagop import FormatError, PhoneSet
from cagop.cli import main
from cagop.formats import (
    read_annotations,
    read_ctm,
    read_phone_set,
    read_score_file,
)

PS = PhoneSet(("SIL", "AA", "B", "G", "OW"), silence_index=0)
CTM_USAGE = "expected utt<TAB>phone<TAB>start<TAB>frames"
ANN_USAGE = ("expected P<TAB>utt<TAB>pos<TAB>label or "
             "S<TAB>utt<TAB>rater<TAB>score")
SCORE_USAGE = ("expected P<TAB>utt<TAB>pos<TAB>phone<TAB>start<TAB>frames"
               "<TAB>score[<TAB>flag] or S<TAB>utt<TAB>score")
H = "#variant=gop\n"
P = "P\tu1\t0\tAA\t0\t3\t-0.5\n"

READERS = {
    "ctm": lambda path: read_ctm(path, PS),
    "annotations": read_annotations,
    "scores": lambda path: read_score_file(path, PS),
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
]


@pytest.mark.parametrize("reader, text, line, message", REPEATS,
                         ids=["ctm-empty-utterance", "phone-label",
                              "rater-score", "sentence-score", "phone-score"])
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

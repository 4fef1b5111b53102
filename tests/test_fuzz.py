"""Seeded fuzz of every file format: readers and CLI commands fail cleanly.

Each valid file is mutated 25 times with a fixed seed (truncation, bit
flips, spliced-in random bytes). Its reader must return a value or raise
FormatError, and a command that reads it must exit 0 or 2 (never 1, and
never a traceback).
"""

import numpy as np
import pytest

from cagop import FormatError
from cagop.cli import main
from cagop.formats import (
    read_annotations,
    read_balance_table,
    read_checkpoint,
    read_ctm,
    read_lexicon,
    read_phone_set,
    read_posteriorgram,
    read_score_file,
    read_text_manifest_rows,
    read_thresholds,
    read_training_log,
    write_posteriorgram_text,
)

MUTATIONS = 25


def mutations(blob: bytes, seed: int):
    rng = np.random.default_rng(seed)
    for n in range(MUTATIONS):
        data = bytearray(blob)
        kind = n % 3
        if kind == 0:
            del data[int(rng.integers(len(data))):]
        elif kind == 1:
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        else:
            at = int(rng.integers(len(data) + 1))
            data[at:at] = rng.integers(0, 256, int(rng.integers(1, 9)),
                                       dtype=np.uint8).tobytes()
        yield bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of every format, from a small CLI pipeline run."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    f = {
        "phones": corpus / "phones.txt",
        "lexicon": corpus / "lexicon.txt",
        "text": corpus / "text.tsv",
        "post": corpus / "post",
        "annotations": corpus / "annotations.tsv",
        "ctm": root / "aligned.ctm",
        "ckpt": root / "dur.ckpt",
        "log": root / "train.tsv",
        "balance": root / "balance.tsv",
        "scores": root / "scores.tsv",
        "thresholds": root / "thresholds.tsv",
        "out": root / "out",
    }
    assert main(["synth-corpus", "--out", str(corpus), "--seed", "3",
                 "--utterances", "8"]) == 0
    assert main(["align", "--posteriors", str(f["post"]),
                 "--phones", str(f["phones"]), "--lexicon", str(f["lexicon"]),
                 "--text", str(f["text"]), "--out", str(f["ctm"])]) == 0
    assert main(["train-dur", "--ctm", str(f["ctm"]),
                 "--phones", str(f["phones"]), "--epochs", "1",
                 "--log", str(f["log"]), "--out", str(f["ckpt"])]) == 0
    assert main(["fit-balance", "--ctm", str(f["ctm"]),
                 "--checkpoint", str(f["ckpt"]), "--phones", str(f["phones"]),
                 "--min-count", "1", "--out", str(f["balance"])]) == 0
    assert main(["score", "--posteriors", str(f["post"]),
                 "--ctm", str(f["ctm"]), "--phones", str(f["phones"]),
                 "--variant", "gop", "--out", str(f["scores"])]) == 0
    assert main(["calibrate", "--scores", str(f["scores"]),
                 "--annotations", str(f["annotations"]),
                 "--phones", str(f["phones"]), "--min-count", "1",
                 "--out", str(f["thresholds"])]) == 0
    f["pgm"] = sorted(f["post"].iterdir())[0]
    f["pgt"] = root / "one.pgt"
    write_posteriorgram_text(f["pgt"], read_posteriorgram(f["pgm"]))
    return f


SCORE = ("score --posteriors {post} --ctm {ctm} --phones {phones} "
         "--variant cagop --balance {balance} --checkpoint {ckpt} --out {out}")
ALIGN = ("align --posteriors {post} --phones {phones} --lexicon {lexicon} "
         "--text {text} --out {out}")
CALIBRATE = ("calibrate --scores {scores} --annotations {annotations} "
             "--phones {phones} --min-count 1 --out {out}")
EVALUATE = ("evaluate --scores {scores} --annotations {annotations} "
            "--phones {phones} --thresholds {thresholds} --out {out}")
ENTROPY_DUMP = "entropy-dump --posteriors {%s} --out {out}"
PREDICT_DUR = ("predict-dur --checkpoint {ckpt} --ctm {ctm} --phones {phones} "
               "--out {out}")


def _phones(f):
    return read_phone_set(f["phones"])


# format -> (file key, reader(files, path), command reading that file or None)
FORMATS = {
    "phone_set": ("phones", lambda f, p: read_phone_set(p), SCORE),
    "lexicon": ("lexicon", lambda f, p: read_lexicon(p, _phones(f)), ALIGN),
    "text_manifest": ("text", lambda f, p: read_text_manifest_rows(p), ALIGN),
    "ctm": ("ctm", lambda f, p: read_ctm(p, _phones(f)), SCORE),
    "annotations": ("annotations", lambda f, p: read_annotations(p),
                    CALIBRATE),
    "balance_table": ("balance", lambda f, p: read_balance_table(p, _phones(f)),
                      SCORE),
    "thresholds": ("thresholds", lambda f, p: read_thresholds(p, _phones(f)),
                   EVALUATE),
    "score_file": ("scores", lambda f, p: read_score_file(p, _phones(f)),
                   CALIBRATE),
    "training_log": ("log", lambda f, p: read_training_log(p), None),
    "pgt": ("pgt", lambda f, p: read_posteriorgram(p), ENTROPY_DUMP % "pgt"),
    "pgm": ("pgm", lambda f, p: read_posteriorgram(p), ENTROPY_DUMP % "pgm"),
    "checkpoint": ("ckpt", lambda f, p: read_checkpoint(p), PREDICT_DUR),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_mutated_file_is_read_or_rejected_with_format_error(
        name, files, tmp_path, capsys):
    key, reader, command = FORMATS[name]
    good = files[key]
    reader(files, good)
    seed = sorted(FORMATS).index(name)
    for n, blob in enumerate(mutations(good.read_bytes(), seed)):
        path = tmp_path / f"m{n}{good.suffix}"
        path.write_bytes(blob)
        try:
            reader(files, path)
        except FormatError:
            pass
        if command is not None:
            paths = {**files, key: path}
            argv = [token.format(**paths) for token in command.split()]
            assert main(argv) in (0, 2), (n, capsys.readouterr().err)


# keyed format -> index of its first data line
KEYED = {"phone_set": 0, "lexicon": 0, "text_manifest": 0, "ctm": 0,
         "annotations": 0, "balance_table": 1, "thresholds": 0,
         "score_file": 1}


@pytest.mark.parametrize("name", sorted(KEYED))
def test_repeated_data_line_is_rejected_at_the_repeat(name, files, tmp_path):
    key, reader, _ = FORMATS[name]
    lines = files[key].read_text(encoding="utf-8").splitlines(keepends=True)
    rng = np.random.default_rng(sorted(KEYED).index(name))
    k = int(rng.integers(KEYED[name], len(lines)))
    path = tmp_path / files[key].name
    path.write_text("".join(lines[:k + 1] + lines[k:]), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        reader(files, path)
    assert err.value.line == k + 2, (lines[k], str(err.value))

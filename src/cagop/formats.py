"""File formats: posteriorgrams, alignments, annotations, tables, checkpoints.

Every output file is written here, through ``_write``, the one write-mode
open. A text file is built in full (UTF-8, a newline after every line), then
written in one call, so a writer that rejects a row leaves the old file;
a checkpoint streams one tensor at a time, never a whole-file copy.

``_write`` replaces an existing regular file rather than truncating it: it
resolves symlinks, unlinks the target and creates a new file there. A write
through a symlink therefore replaces the link's target and keeps the link.
Hard links to the old file keep the old bytes, the new file takes the default
permissions, and a read-only file in a writable directory is replaced. A
path that is not a regular file (``/dev/null``, ``/dev/stdout``, a FIFO) is
opened and written as it is, never removed. A file the writer may not unlink
(its folder is not writable, or is sticky and the file another user's) is
truncated and rewritten in place, the slow way: there hard links see the new
bytes and the permissions stay. A write that is killed, or a crash before
writeback, leaves the old file, no file, an empty file or a prefix of the
new bytes, never old and new bytes mixed. Every reader rejects an empty
file and the binary readers a cut one; a text file cut at a line end can
still read as a shorter file.

Text formats render floats with repr(), which round-trips float64 exactly,
so write-then-read is equality-preserving everywhere. The two binary
formats (posteriorgram, duration-net checkpoint) are little-endian with
fixed magics.

Text readers convert each typed field a whole column at a time; each field
kind (int, finite float, 0/1 flag, phone label) has one conversion and one
error text. A failure names the file and the line of the first bad row: a
wrong field count or a field that does not parse first (earliest line, then
field order), then ranges, overlaps, contiguity and repeated keys, checked
over whole columns. Every keyed file rejects a repeated key.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import suppress
from dataclasses import astuple, dataclass
from functools import partial
from itertools import chain, compress, count, starmap
from operator import ne
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .balance import BUCKET_RANGE, BUCKET_WIDTH, BalanceTable
from .detector import ThresholdTable
from .duration.net import (
    DurationNetConfig,
    DurationNetParams,
    iter_tensors,
    param_shapes,
    zeros_params,
)
from .duration.training import TrainLogEntry
from .model import (
    Alignment,
    DataError,
    FormatError,
    PhoneSet,
    Posteriorgram,
    SegmentColumns,
)

PGM_MAGIC = b"CAGPG1"
CKPT_MAGIC = b"CAGDUR1\x00"
_PGM_HEADER = struct.Struct("<IId")
_CKPT_HEADER = struct.Struct("<IIIIdIdIIqI")

GLOBAL_LABEL = "GLOBAL"
PHONE_LEVEL_LABEL = "PHONE"
NO_PHONE_LABEL = "-"
# The first line of every balance table: its one speed-bucket axis.
BALANCE_HEADER = (f"bucket_width={BUCKET_WIDTH!r} bucket_min={BUCKET_RANGE[0]}"
                  f" bucket_max={BUCKET_RANGE[1]}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a new file at ``path`` in order.

    An existing regular file (a symlink's target) is unlinked first, not
    truncated: truncating one costs tens of ms on some filesystems. Any
    other path (a device, FIFO or pipe), or a file whose folder forbids
    the unlink, is opened and truncated in place.
    """
    real = os.path.realpath(path)
    if os.path.isfile(real):
        with suppress(FileNotFoundError, PermissionError):
            os.unlink(real)
        path = real
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _write_text(path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ending in a newline, built before the open."""
    _write(path, ["".join(lines).encode("utf-8")])


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path=path) from exc


def _read_lines(path, blob: Optional[bytes] = None) -> list[str]:
    """The file's lines, decoded from ``blob`` if it was read already."""
    blob = _read_bytes(path) if blob is None else blob
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"not UTF-8 text: byte {exc.start} is {blob[exc.start]:#04x}",
            path=path, line=blob.count(b"\n", 0, exc.start) + 1,
        ) from None


def _header(path, lines: list[str], fields) -> list:
    """The values of the first line's key=value pairs named by ``fields``.

    Each field is (key, kind, what): the key must be there, and its value
    converts by the field kind (``list`` keeps the text).
    """
    first = lines[0] if lines else ""
    header = dict(p.split("=", 1) for p in first.split() if "=" in p)
    for key, _, _ in fields:
        if key not in header:
            raise FormatError(f"header missing {key}=", path=path, line=1)
    faults: list = []
    values = [_column(faults, [1], [header[key]], kind, what)
              for key, kind, what in fields]
    _raise_first(path, faults)
    return [value for (value,) in values]


def _rows(lines, fields, usage: str, first: int = 1, sep="\t"):
    """The non-blank lines before the first one with a wrong field count.

    Returns their line numbers, their parts split at ``sep`` in one flat
    list, and a fault list for ``_raise_first``: empty, or the first wrong
    count's line. ``fields`` is the number of parts every row has, or a
    dict from a row kind (the first part) to the part counts that kind
    allows; each row is padded with None to the largest count. Any other
    row is a fault saying it expected ``usage``.
    """
    kinds = fields if isinstance(fields, dict) else {}
    width = max(map(max, kinds.values())) if kinds else fields
    numbers, flat = [], []
    for i, raw in enumerate(lines, start=first):
        if not raw.strip():
            continue
        row = raw.split(sep)
        if len(row) not in (kinds.get(row[0], ()) if kinds else (fields,)):
            return numbers, flat, [([i], [True], lambda k: f"expected {usage}")]
        numbers.append(i)
        flat += row
        if len(row) < width:
            flat += [None] * (width - len(row))
    return numbers, flat, []


def _pick(keep: list[int], *columns) -> list[list]:
    """The entries at ``keep`` of each column."""
    return [[column[k] for k in keep] for column in columns]


def _columns(numbers, parts, width: int, kind: Optional[str] = None) -> list:
    """The line numbers and the ``width`` columns of ``_rows``' flat parts.

    Only rows whose first part is ``kind`` are taken, if it is given.
    """
    columns = [parts[j::width] for j in range(width)]
    if kind is not None:
        keep = [first == kind for first in columns[0]]
        numbers, *columns = [list(compress(column, keep))
                             for column in (numbers, *columns)]
    return [numbers, *map(tuple, columns)]


def _raise_first(path, *groups) -> None:
    """A FormatError at the earliest bad row of the first group with one.

    A group is a list of faults: (line numbers of some rows, mask of the bad
    ones, function from a bad row's index to its message). On a tie within
    a group the first fault wins.
    """
    for faults in groups:
        found = []
        for n, (lines, mask, message) in enumerate(faults):
            bad = np.flatnonzero(mask)
            if bad.size:
                found.append((lines[bad[0]], n, int(bad[0])))
        if found:
            line, n, k = min(found)
            raise FormatError(faults[n][2](k), path=path, line=line)


def _repeats(keys: Sequence) -> list[bool]:
    """Mask of the keys that equal an earlier key."""
    if len(set(keys)) == len(keys):
        return [False] * len(keys)
    seen: set = set()
    return [key in seen or seen.add(key) for key in keys]


# Field kinds: each converts a whole column of texts. A text it rejects
# raises ValueError with the kind's error text over ``what`` and the text;
# for the phone-label kind, ``PhoneSet.indices``, a DataError.

def _parsed(convert, texts) -> list:
    try:
        return list(map(convert, texts))
    except ValueError:
        raise ValueError("bad {what} {text!r}") from None


_ints = partial(_parsed, int)


def _floats(texts) -> list[float]:
    values = _parsed(float, texts)
    if not all(map(math.isfinite, values)):
        raise ValueError("{what} must be finite, got {text!r}")
    return values


def _flags(texts) -> list[Optional[bool]]:
    if not set(texts) <= {"0", "1", None}:
        raise ValueError("{what} must be 0 or 1, got {text!r}")
    return list(map({"0": False, "1": True, None: None}.get, texts))


def _column(faults: list, lines, texts, kind, what: str = "") -> list:
    """``texts`` converted by the field kind ``kind`` in one call.

    If that fails, the error of the first bad text, at its line, joins
    ``faults`` for ``_raise_first`` and the column reads as empty.
    """
    try:
        return kind(texts)
    except (ValueError, DataError):
        pass
    for line, text in zip(lines, texts):
        try:
            kind([text])
        except ValueError as exc:
            error = exc.args[0].format(what=what, text=text)
        except DataError as exc:
            error = str(exc)
        else:
            continue
        faults.append(([line], [True], lambda k: error))
        return []


def _int64(path, lines, values: list[int], what: str) -> np.ndarray:
    """``values`` as an int64 array; one that does not fit is a FormatError."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise FormatError(f"{what} {values[k]} out of range", path=path,
                          line=lines[k]) from None


def _build(make, path, **kwargs):
    """make(**kwargs), with its DataError raised as a FormatError for path."""
    try:
        return make(**kwargs)
    except DataError as exc:
        raise FormatError(str(exc), path=path) from exc


# ---------------------------------------------------------------------------
# posteriorgrams

def write_posteriorgram_binary(path, pg: Posteriorgram) -> None:
    header = _PGM_HEADER.pack(pg.num_frames, pg.num_phones, pg.frame_shift_ms)
    _write(path, [PGM_MAGIC, header, pg.probs.astype("<f4").tobytes()])


def read_posteriorgram_binary(path) -> Posteriorgram:
    return _posteriorgram_from_bytes(_read_bytes(path), path)


def _posteriorgram_from_bytes(blob: bytes, path) -> Posteriorgram:
    if blob[: len(PGM_MAGIC)] != PGM_MAGIC:
        raise FormatError("bad magic, not a posteriorgram file", path=path)
    offset = len(PGM_MAGIC)
    if len(blob) < offset + _PGM_HEADER.size:
        raise FormatError("truncated header", path=path)
    frames, phones, shift = _PGM_HEADER.unpack_from(blob, offset)
    offset += _PGM_HEADER.size
    expected = frames * phones * 4
    if len(blob) - offset != expected:
        raise FormatError(
            f"body has {len(blob) - offset} bytes, expected {expected}",
            path=path,
        )
    # Posteriorgram widens this float32 view into its one float64 copy.
    probs = np.frombuffer(blob, dtype="<f4", count=frames * phones, offset=offset)
    return _build(Posteriorgram, path, probs=probs.reshape(frames, phones),
                  frame_shift_ms=shift)


def read_posteriorgram(path) -> Posteriorgram:
    """Load either twin: binary when the magic matches, text otherwise."""
    blob = _read_bytes(path)
    if blob[: len(PGM_MAGIC)] == PGM_MAGIC:
        return _posteriorgram_from_bytes(blob, path)
    return _posteriorgram_from_lines(_read_lines(path, blob), path)


def write_posteriorgram_text(path, pg: Posteriorgram) -> None:
    # Values pass through float32 so the text twin matches the binary form.
    narrowed = pg.probs.astype(np.float32).astype(np.float64)
    _write_text(path, [f"frames={pg.num_frames} phones={pg.num_phones} "
                       f"shift_ms={_fmt(pg.frame_shift_ms)}\n",
                       *(" ".join(map(_fmt, row)) + "\n" for row in narrowed)])


def write_entropy_profile(path, entropies: Iterable[float]) -> None:
    """Write a frame,entropy header, then one such row per frame."""
    _write_text(path, ["frame,entropy\n", *map(
        "{},{}\n".format, count(), map(_fmt, entropies))])


def read_posteriorgram_text(path) -> Posteriorgram:
    return _posteriorgram_from_lines(_read_lines(path), path)


def _posteriorgram_from_lines(lines: list[str], path) -> Posteriorgram:
    frames, phones, shift = _header(path, lines, [
        ("frames", _ints, "frame count"), ("phones", _ints, "phone count"),
        ("shift_ms", _floats, "frame shift"),
    ])
    if frames < 0 or phones < 0:
        raise FormatError("negative frame or phone count", path=path, line=1)
    # Values are kept only from rows of the declared width, so memory grows
    # with the file's size, never with the counts its header claims.
    numbers, rows, faults = _rows(lines[1:], phones, f"{phones} probabilities",
                                  first=2, sep=None)
    values = _column(faults, [i for i in numbers for _ in range(phones)],
                     rows, _floats, "probability")
    _raise_first(path, faults)
    if len(numbers) != frames:
        raise FormatError(
            f"expected {frames} rows, found {len(numbers)}", path=path
        )
    return _build(Posteriorgram, path, frame_shift_ms=shift,
                  probs=np.reshape(values, (frames, phones)))


# ---------------------------------------------------------------------------
# phone sets and lexicons

def write_phone_set(path, phone_set: PhoneSet) -> None:
    lines = [label + "\n" for label in phone_set.phones]
    if phone_set.silence_index is not None:
        lines.append(f"#silence={phone_set.label(phone_set.silence_index)}\n")
    _write_text(path, lines)


def read_phone_set(path) -> PhoneSet:
    numbers, rows, faults = _rows(_read_lines(path), 1, "one phone label")
    lines = [raw.strip() for raw in rows]
    label_lines, labels = _pick(
        [k for k, line in enumerate(lines) if not line.startswith("#")],
        numbers, lines)
    silence_lines, silences = _pick(
        [k for k, line in enumerate(lines) if line.startswith("#silence=")],
        numbers, [line.split("=", 1)[-1].strip() for line in lines])
    _raise_first(path, faults + [(silence_lines, [not s for s in silences],
                                  lambda k: "empty silence label")])
    if not labels:
        raise FormatError("no phone labels", path=path)
    if silences and silences[0] not in labels:
        raise FormatError(
            f"silence label {silences[0]!r} not in inventory", path=path)
    _raise_first(path, [
        (label_lines, _repeats(labels),
         lambda k: f"second phone label {labels[k]!r}"),
        (silence_lines, [k > 0 for k in range(len(silences))],
         lambda k: "second silence label"),
    ])
    return _build(PhoneSet, path, phones=tuple(labels),
                  silence_index=labels.index(silences[0]) if silences else None)


def write_lexicon(path, lexicon: Mapping[str, tuple[str, ...]]) -> None:
    _write_text(path, (word + "\t" + " ".join(phones) + "\n"
                       for word, phones in lexicon.items()))


def write_text_manifest(path, rows: Iterable[tuple[str, str]]) -> None:
    """Write text.tsv: one utt_id<TAB>words line per (utt_id, words) row."""
    _write_text(path, (f"{utt_id}\t{words}\n" for utt_id, words in rows))


def read_lexicon(path, phone_set: PhoneSet) -> dict[str, tuple[str, ...]]:
    numbers, rows, faults = _rows(_read_lines(path), 2, "WORD<TAB>phones")
    words = [word.strip().upper() for word in rows[0::2]]
    prons = [tuple(pronunciation.split()) for pronunciation in rows[1::2]]
    faults.append((numbers, [not w or not p for w, p in zip(words, prons)],
                   lambda k: "empty word or pronunciation"))
    _column(faults, [i for i, p in zip(numbers, prons) for _ in p],
            list(chain.from_iterable(prons)), phone_set.indices)
    _raise_first(path, faults, [(numbers, _repeats(words), lambda k: (
        f"second pronunciation for {words[k]!r}"))])
    if not words:
        raise FormatError("empty lexicon", path=path)
    return dict(zip(words, prons))


def read_text_manifest_rows(path) -> list[tuple[int, str, str]]:
    """Parse text.tsv lines utt_id<TAB>words into (line, utt_id, words)."""
    numbers, rows, faults = _rows(_read_lines(path), 2, "utt<TAB>text")
    ids = rows[0::2]
    _raise_first(path, faults, [(numbers, _repeats(ids),
                                 lambda k: f"second text for {ids[k]!r}")])
    if not rows:
        raise FormatError("empty text manifest", path=path)
    return list(zip(numbers, ids, rows[1::2]))


def text_to_phones(
    text: str,
    lexicon: Mapping[str, tuple[str, ...]],
    phone_set: PhoneSet,
) -> list[int]:
    """Reference phone indices for a word sequence; OOV is a hard error."""
    indices: list[int] = []
    words = text.split()
    if not words:
        raise DataError("empty reference text")
    for word in words:
        key = word.upper()
        if key not in lexicon:
            raise DataError(f"word {word!r} not in lexicon")
        indices.extend(phone_set.indices(lexicon[key]))
    return indices


# ---------------------------------------------------------------------------
# alignments (CTM-like)

def write_ctm(path, cols: SegmentColumns, phone_set: PhoneSet) -> None:
    """Write segment columns, one row each."""
    _write_text(path, map("{}\t{}\t{}\t{}\n".format, cols.row_ids(),
                          map(phone_set.label, cols.phone.tolist()),
                          cols.start.tolist(), cols.length.tolist()))


def read_ctm_columns(path, phone_set: PhoneSet) -> SegmentColumns:
    """Parse utterance alignments; utterance lines must be contiguous."""
    lines, rows, faults = _rows(_read_lines(path), 4,
                                "utt<TAB>phone<TAB>start<TAB>frames")
    lines, utts, labels, starts, lengths = _columns(lines, rows, 4)
    phone = _column(faults, lines, labels, phone_set.indices)
    start = _column(faults, lines, starts, _ints, "start frame")
    length = _column(faults, lines, lengths, _ints, "frame count")
    _raise_first(path, faults)
    if not lines:
        raise FormatError("empty alignment file", path=path)
    # each utterance's first row
    firsts = [0, *compress(count(1), map(ne, utts[1:], utts))]
    ids, first_lines = _pick(firsts, utts, lines)
    start = _int64(path, lines, start, "start frame")
    length = _int64(path, lines, length, "frame count")
    ends = start + length
    overlap = np.r_[False, start[1:] < ends[:-1]]
    overlap[firsts] = False
    _raise_first(path, [
        (first_lines, [not u for u in ids], lambda k: "empty utterance id"),
        (first_lines, _repeats(ids),
         lambda k: f"utterance {ids[k]!r} appears in two places"),
        (lines, start < 0, lambda k: f"negative segment start {start[k]}"),
        (lines, length < 1,
         lambda k: f"segment length must be >= 1, got {length[k]}"),
        (lines, overlap, lambda k: (
            f"overlapping segments: [{start[k - 1]},{ends[k - 1]}) then "
            f"[{start[k]},{ends[k]})")),
    ])
    return SegmentColumns(tuple(ids), np.diff([*firsts, len(lines)]),
                          np.array(phone, dtype=np.int64), start, length)


def read_ctm(path, phone_set: PhoneSet) -> list[tuple[str, Alignment]]:
    """``read_ctm_columns`` as one Alignment per utterance."""
    return read_ctm_columns(path, phone_set).alignments()


# ---------------------------------------------------------------------------
# annotations


@dataclass(frozen=True)
class AnnotationSet:
    """Annotations as columns, in file order.

    Phone labels: utterance, position among its non-silence phones, and
    whether the phone is mispronounced. Sentence ratings: utterance,
    rater, and a score in [0, 10].
    """

    label_utt_ids: tuple[str, ...] = ()
    positions: tuple[int, ...] = ()
    mispronounced: tuple[bool, ...] = ()
    rating_utt_ids: tuple[str, ...] = ()
    rater_ids: tuple[str, ...] = ()
    ratings: tuple[float, ...] = ()

    def phone_label_map(self) -> dict[tuple[str, int], bool]:
        return dict(zip(zip(self.label_utt_ids, self.positions),
                        self.mispronounced))


def write_annotations(path, a: AnnotationSet) -> None:
    _write_text(path, chain(
        map("P\t{}\t{}\t{}\n".format, a.label_utt_ids, a.positions,
            map(int, a.mispronounced)),
        map("S\t{}\t{}\t{}\n".format, a.rating_utt_ids, a.rater_ids,
            map(_fmt, a.ratings))))


def read_annotations(path) -> AnnotationSet:
    numbers, rows, faults = _rows(
        _read_lines(path), {"P": (4,), "S": (4,)},
        "P<TAB>utt<TAB>pos<TAB>label or S<TAB>utt<TAB>rater<TAB>score",
    )
    p_lines, _, p_utts, positions, labels = _columns(numbers, rows, 4, "P")
    s_lines, _, s_utts, raters, scores = _columns(numbers, rows, 4, "S")
    positions = _column(faults, p_lines, positions, _ints, "position")
    labels = _column(faults, p_lines, labels, _flags, "label")
    scores = _column(faults, s_lines, scores, _floats, "rater score")
    _raise_first(path, faults, [
        (p_lines, [p < 0 for p in positions],
         lambda k: f"negative phone position {positions[k]}"),
        (s_lines, [not 0.0 <= s <= 10.0 for s in scores],
         lambda k: f"rater score {scores[k]} outside [0, 10]"),
        (p_lines, _repeats(list(zip(p_utts, positions))),
         lambda k: f"second label for phone {positions[k]} of {p_utts[k]!r}"),
        (s_lines, _repeats(list(zip(s_utts, raters))),
         lambda k: f"second score from rater {raters[k]!r} for {s_utts[k]!r}"),
    ])
    if not p_lines and not s_lines:
        raise FormatError("empty annotation file", path=path)
    return AnnotationSet(p_utts, tuple(positions), tuple(labels),
                         s_utts, raters, tuple(scores))


# ---------------------------------------------------------------------------
# balance tables and thresholds

def write_balance_table(path, table: BalanceTable, phone_set: PhoneSet) -> None:
    _write_text(path, [
        BALANCE_HEADER + "\n",
        *(f"{phone_set.label(phone)}\t{bucket}\t{_fmt(value)}\n"
          for (phone, bucket), value in sorted(table.entries.items())),
        *(f"{phone_set.label(phone)}\t{PHONE_LEVEL_LABEL}\t{_fmt(value)}\n"
          for phone, value in sorted(table.phone_backoff.items())),
        f"{NO_PHONE_LABEL}\t{GLOBAL_LABEL}\t{_fmt(table.global_backoff)}\n",
    ])


def read_balance_table(path, phone_set: PhoneSet) -> BalanceTable:
    lines = _read_lines(path)
    if _header(path, lines, [
        ("bucket_width", _floats, "bucket_width"),
        ("bucket_min", _ints, "bucket min"), ("bucket_max", _ints, "bucket max"),
    ]) != [BUCKET_WIDTH, *BUCKET_RANGE]:
        raise FormatError(f"bucket axis must be {BALANCE_HEADER!r}", path=path,
                          line=1)
    numbers, rows, faults = _rows(lines[1:], 3, "label<TAB>bucket<TAB>T",
                                  first=2)
    numbers, labels, buckets, texts = _columns(numbers, rows, 3)
    values = _column(faults, numbers, texts, _floats, "tolerance")
    phoned = [k for k, b in enumerate(buckets) if b != GLOBAL_LABEL]
    cells = [k for k in phoned if buckets[k] != PHONE_LEVEL_LABEL]
    phones = dict(zip(phoned, _column(
        faults, *_pick(phoned, numbers, labels), phone_set.indices)))
    bucket_of = dict(zip(cells, _column(
        faults, *_pick(cells, numbers, buckets), _ints, "bucket index")))
    _raise_first(path, faults)
    if GLOBAL_LABEL not in buckets:
        raise FormatError("missing GLOBAL tolerance row", path=path)
    _raise_first(path, [(numbers, _repeats(
        [(phones.get(k), bucket_of.get(k, b)) for k, b in enumerate(buckets)]),
        lambda k: f"second tolerance for {labels[k]!r} at {buckets[k]}")])
    return _build(
        BalanceTable, path,
        entries={(phones[k], bucket_of[k]): values[k] for k in cells},
        phone_backoff={phones[k]: values[k] for k in phoned
                       if k not in bucket_of},
        global_backoff=values[buckets.index(GLOBAL_LABEL)],
    )


def write_thresholds(path, table: ThresholdTable, phone_set: PhoneSet) -> None:
    if GLOBAL_LABEL in map(phone_set.label, table.per_phone):
        raise DataError("phone label GLOBAL collides with the global row")
    _write_text(path, [*(f"{phone_set.label(phone)}\t{_fmt(value)}\n"
                         for phone, value in sorted(table.per_phone.items())),
                       f"{GLOBAL_LABEL}\t{_fmt(table.global_threshold)}\n"])


def read_thresholds(path, phone_set: PhoneSet) -> ThresholdTable:
    numbers, rows, faults = _rows(_read_lines(path), 2, "label<TAB>threshold")
    numbers, labels, texts = _columns(numbers, rows, 2)
    values = _column(faults, numbers, texts, _floats, "threshold")
    phoned = [k for k, label in enumerate(labels) if label != GLOBAL_LABEL]
    phones = _column(faults, *_pick(phoned, numbers, labels),
                     phone_set.indices)
    _raise_first(path, faults)
    if GLOBAL_LABEL not in labels:
        raise FormatError("missing GLOBAL threshold row", path=path)
    _raise_first(path, [(numbers, _repeats(labels),
                         lambda k: f"second threshold for {labels[k]!r}")])
    return ThresholdTable(
        per_phone={p: values[k] for k, p in zip(phoned, phones)},
        global_threshold=values[labels.index(GLOBAL_LABEL)],
    )


# ---------------------------------------------------------------------------
# duration-net checkpoints and logs

def write_checkpoint(
    path, params: DurationNetParams, cfg: DurationNetConfig
) -> None:
    # The header holds the config fields in declaration order. It is packed
    # before the file opens; each tensor is copied only as it is written.
    header = CKPT_MAGIC + _CKPT_HEADER.pack(*astuple(cfg), params.num_phones)
    _write(path, chain([header], chain.from_iterable(
        (_framing(tensor.shape), tensor.astype("<f8").tobytes())
        for _, tensor in iter_tensors(params))))


def _framing(shape: tuple[int, ...]) -> bytes:
    """The rank and dims that precede a tensor's values in a checkpoint."""
    return struct.pack(f"<I{len(shape)}I", len(shape), *shape)


def read_checkpoint(path) -> tuple[DurationNetParams, DurationNetConfig]:
    blob = _read_bytes(path)
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError("bad magic, not a duration checkpoint", path=path)
    offset = len(CKPT_MAGIC)
    if len(blob) < offset + _CKPT_HEADER.size:
        raise FormatError("truncated header", path=path)
    *fields, num_phones = _CKPT_HEADER.unpack_from(blob, offset)
    offset += _CKPT_HEADER.size
    try:
        cfg = DurationNetConfig(*fields)
        shapes = param_shapes(cfg, num_phones)
    except DataError as exc:
        raise FormatError(f"bad checkpoint header: {exc}", path=path) from exc
    # Summed before anything is allocated and only as far as the file
    # reaches, so a corrupt header cannot ask for more memory or time than
    # the file could fill. Every read below then stays inside the file.
    available = len(blob) - offset
    expected = 0
    for _, shape in shapes:
        expected += len(_framing(shape)) + 8 * math.prod(shape)
        if expected > available:
            raise FormatError(
                f"truncated: header implies at least {expected} tensor "
                f"bytes, file has {available}", path=path,
            )
    params = zeros_params(cfg, num_phones)
    for name, tensor in iter_tensors(params):
        framing = _framing(tensor.shape)
        if blob[offset:offset + len(framing)] != framing:
            raise FormatError(
                f"tensor {name}: rank or dims differ from its shape "
                f"{tensor.shape}", path=path,
            )
        offset += len(framing)
        tensor.flat = np.frombuffer(blob, "<f8", tensor.size, offset)
        offset += 8 * tensor.size
    if offset != len(blob):
        raise FormatError(
            f"{len(blob) - offset} trailing bytes after tensors", path=path
        )
    return params, cfg


def write_training_log(path, log: Sequence[TrainLogEntry]) -> None:
    _write_text(path, ["epoch\ttrain_loss\tval_mae\n", *(
        f"{e.epoch}\t{_fmt(e.train_loss)}\t{_fmt(e.val_mae)}\n" for e in log)])


def write_duration_predictions(
    path, segments: SegmentColumns, predicted: Sequence[float],
    phone_set: PhoneSet,
) -> None:
    """Write a header, then each segment's utterance, position in it, phone,
    aligned and predicted frames."""
    rows = map("{}\t{}\t{}\t{}\t{}\n".format, segments.row_ids(),
               segments.positions(),
               map(phone_set.label, segments.phone.tolist()),
               segments.length.tolist(), map(_fmt, predicted))
    _write_text(path, ["utt\tpos\tphone\taligned\tpredicted\n", *rows])


def read_training_log(path) -> list[TrainLogEntry]:
    lines = _read_lines(path)
    if not lines or lines[0] != "epoch\ttrain_loss\tval_mae":
        raise FormatError("missing training-log header", path=path, line=1)
    numbers, rows, faults = _rows(lines[1:], 3, "epoch<TAB>loss<TAB>mae",
                                  first=2)
    numbers, epochs, losses, maes = _columns(numbers, rows, 3)
    columns = [_column(faults, numbers, epochs, _ints, "epoch"),
               _column(faults, numbers, losses, _floats, "train loss"),
               _column(faults, numbers, maes, _floats, "validation mae")]
    _raise_first(path, faults)
    return list(starmap(TrainLogEntry, zip(*columns)))


# ---------------------------------------------------------------------------
# score reports

@dataclass(frozen=True)
class ScoreFile:
    """A score file as columns: one entry per phone row, in file order.

    A row's flag is None when the row has no flag field.
    """

    variant: str
    utt_ids: tuple[str, ...]
    positions: tuple[int, ...]
    phones: tuple[int, ...]
    starts: tuple[int, ...]
    lengths: tuple[int, ...]
    scores: tuple[float, ...]
    flags: tuple[Optional[bool], ...]
    sentences: tuple[tuple[str, float], ...]


def write_score_file(path, scores: ScoreFile, phone_set: PhoneSet) -> None:
    flags = ("" if flag is None else f"\t{int(flag)}" for flag in scores.flags)
    phone_rows = map("P\t{}\t{}\t{}\t{}\t{}\t{}{}\n".format, scores.utt_ids,
                     scores.positions, map(phone_set.label, scores.phones),
                     scores.starts, scores.lengths, map(_fmt, scores.scores),
                     flags)
    sentences = (f"S\t{utt_id}\t{_fmt(score)}\n"
                 for utt_id, score in scores.sentences)
    _write_text(path, [f"#variant={scores.variant}\n", *phone_rows, *sentences])


def write_evaluation(path, metrics: Iterable[tuple[str, float]]) -> None:
    """Write eval.tsv: one name<TAB>value line per metric."""
    _write_text(path, (f"{name}\t{_fmt(value)}\n" for name, value in metrics))


def read_score_file(path, phone_set: PhoneSet) -> ScoreFile:
    lines = _read_lines(path)
    (variant,) = _header(path, lines, [("#variant", list, "")])
    numbers, rows, faults = _rows(
        lines[1:], {"P": (7, 8), "S": (3,)},
        "P<TAB>utt<TAB>pos<TAB>phone<TAB>start<TAB>frames<TAB>score"
        "[<TAB>flag] or S<TAB>utt<TAB>score", first=2,
    )
    (p_lines, _, utts, positions, phones, starts, lengths, scores,
     flags) = _columns(numbers, rows, 8, "P")
    s_lines, _, s_utts, s_scores, *_ = _columns(numbers, rows, 8, "S")
    positions = _column(faults, p_lines, positions, _ints, "position")
    phones = _column(faults, p_lines, phones, phone_set.indices)
    starts = _column(faults, p_lines, starts, _ints, "start")
    lengths = _column(faults, p_lines, lengths, _ints, "length")
    scores = _column(faults, p_lines, scores, _floats, "score")
    flags = _column(faults, p_lines, flags, _flags, "flag")
    s_scores = _column(faults, s_lines, s_scores, _floats, "sentence score")
    _raise_first(path, faults)
    if not p_lines:
        raise FormatError("score file has no phone rows", path=path)
    _raise_first(path, [
        (p_lines, [p < 0 for p in positions],
         lambda k: f"negative phone position {positions[k]}"),
        (p_lines, [s < 0 for s in starts],
         lambda k: f"negative segment start {starts[k]}"),
        (p_lines, [n < 1 for n in lengths],
         lambda k: f"segment length must be >= 1, got {lengths[k]}"),
        (p_lines, _repeats(list(zip(utts, positions))),
         lambda k: f"second score for phone {positions[k]} of {utts[k]!r}"),
        (s_lines, _repeats(s_utts),
         lambda k: f"second sentence score for {s_utts[k]!r}"),
    ])
    return ScoreFile(variant, utts, *map(tuple, (
        positions, phones, starts, lengths, scores, flags)),
        tuple(zip(s_utts, s_scores)))

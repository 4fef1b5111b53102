"""File formats: posteriorgrams, alignments, annotations, tables, checkpoints.

Text formats render floats with repr(), which round-trips float64 exactly,
so write-then-read is equality-preserving everywhere. The two binary
formats (posteriorgram, duration-net checkpoint) are little-endian with
fixed magics.

CTM, annotation and score files are read as columns (``SegmentColumns``,
``AnnotationSet``, ``ScoreFile``): one pass parses each row's fields with
``int()``, ``float()`` or a table look-up into column lists, then ranges,
overlaps, contiguity and repeated keys are checked over whole columns. A
failure names the file and the line of the first bad row; a field that
does not parse is reported before any of those checks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import starmap
from typing import Mapping, Optional, Sequence

import numpy as np

from .balance import BalanceTable
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
    PhoneSegment,
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path=path) from exc


def _read_lines(path) -> list[str]:
    blob = _read_bytes(path)
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"not UTF-8 text: byte {exc.start} is {blob[exc.start]:#04x}",
            path=path, line=blob.count(b"\n", 0, exc.start) + 1,
        ) from None


def _header(path, lines: list[str], keys: Sequence[str]) -> dict[str, str]:
    """The key=value pairs of the first line; each of ``keys`` must be there."""
    first = lines[0] if lines else ""
    header = dict(p.split("=", 1) for p in first.split() if "=" in p)
    for key in keys:
        if key not in header:
            raise FormatError(f"header missing {key}=", path=path, line=1)
    return header


def _rows(path, lines, fields, usage: str, first: int = 1, sep="\t"):
    """(line number, parts) of each non-blank line, split at ``sep``.

    ``fields`` is the number of parts every row has, or a dict from a row
    kind (the first part) to the part counts that kind allows. Any other
    row is a FormatError saying it expected ``usage``.
    """
    for i, raw in enumerate(lines, start=first):
        if not raw.strip():
            continue
        parts = raw.split(sep)
        if isinstance(fields, dict):
            ok = len(parts) in fields.get(parts[0], ())
        else:
            ok = len(parts) == fields
        if not ok:
            raise FormatError(f"expected {usage}", path=path, line=i)
        yield i, parts


def _raise_first(path, faults) -> None:
    """A FormatError at the earliest bad row of any fault, if there is one.

    A fault is (line numbers of some rows, mask of the bad ones, function
    from a bad row's index to its message); on a tie the first fault wins.
    """
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


def _int64(path, lines, values: list[int], what: str) -> np.ndarray:
    """``values`` as an int64 array; one that does not fit is a FormatError."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise FormatError(f"{what} {values[k]} out of range", path=path,
                          line=lines[k]) from None


def _phone(phone_set: PhoneSet, label: str, path, line: int) -> int:
    try:
        return phone_set.index(label)
    except DataError as exc:
        raise FormatError(str(exc), path=path, line=line) from None


def _build(make, path, line: int | None = None, **kwargs):
    """make(**kwargs), with its DataError raised as a FormatError at path/line."""
    try:
        return make(**kwargs)
    except DataError as exc:
        raise FormatError(str(exc), path=path, line=line) from exc


def _parse_int(text: str, path, line: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", path=path, line=line) from None


def _parse_float(text: str, path, line: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", path=path, line=line) from None
    if not math.isfinite(value):
        raise FormatError(f"{what} must be finite, got {text!r}",
                          path=path, line=line)
    return value


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _parse_flag(text: str, path, line: int, what: str) -> bool:
    if text not in ("0", "1"):
        raise FormatError(f"{what} must be 0 or 1, got {text!r}",
                          path=path, line=line)
    return text == "1"


# ---------------------------------------------------------------------------
# posteriorgrams

def write_posteriorgram_binary(path, pg: Posteriorgram) -> None:
    body = pg.probs.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(PGM_MAGIC)
        fh.write(_PGM_HEADER.pack(pg.num_frames, pg.num_phones, pg.frame_shift_ms))
        fh.write(body)


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
    return read_posteriorgram_text(path)


def write_posteriorgram_text(path, pg: Posteriorgram) -> None:
    # Values pass through float32 so the text twin matches the binary form.
    narrowed = pg.probs.astype(np.float32).astype(np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"frames={pg.num_frames} phones={pg.num_phones} "
            f"shift_ms={_fmt(pg.frame_shift_ms)}\n"
        )
        for row in narrowed:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_posteriorgram_text(path) -> Posteriorgram:
    lines = _read_lines(path)
    header = _header(path, lines, ("frames", "phones", "shift_ms"))
    frames = _parse_int(header["frames"], path, 1, "frame count")
    phones = _parse_int(header["phones"], path, 1, "phone count")
    shift = _parse_float(header["shift_ms"], path, 1, "frame shift")
    if frames < 0 or phones < 0:
        raise FormatError("negative frame or phone count", path=path, line=1)
    # Values are kept only from rows of the declared width, so memory grows
    # with the file's size, never with the counts its header claims.
    rows = [
        [_parse_float(p, path, i, "probability") for p in parts]
        for i, parts in _rows(path, lines[1:], phones,
                              f"{phones} probabilities", first=2, sep=None)
    ]
    if len(rows) != frames:
        raise FormatError(
            f"expected {frames} rows, found {len(rows)}", path=path
        )
    probs = np.array(rows, dtype=np.float64).reshape(frames, phones)
    return _build(Posteriorgram, path, probs=probs, frame_shift_ms=shift)


# ---------------------------------------------------------------------------
# phone sets and lexicons

def write_phone_set(path, phone_set: PhoneSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label in phone_set.phones:
            fh.write(label + "\n")
        if phone_set.silence_index is not None:
            fh.write(f"#silence={phone_set.label(phone_set.silence_index)}\n")


def read_phone_set(path) -> PhoneSet:
    labels: list[str] = []
    silence: Optional[str] = None
    for i, (raw,) in _rows(path, _read_lines(path), 1, "one phone label"):
        line = raw.strip()
        if line.startswith("#silence="):
            silence = line.split("=", 1)[1].strip()
            if not silence:
                raise FormatError("empty silence label", path=path, line=i)
        elif not line.startswith("#"):
            labels.append(line)
    if not labels:
        raise FormatError("no phone labels", path=path)
    silence_index = None
    if silence is not None:
        if silence not in labels:
            raise FormatError(
                f"silence label {silence!r} not in inventory", path=path
            )
        silence_index = labels.index(silence)
    return _build(PhoneSet, path, phones=tuple(labels),
                  silence_index=silence_index)


def write_lexicon(path, lexicon: Mapping[str, tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, phones in lexicon.items():
            fh.write(word + "\t" + " ".join(phones) + "\n")


def read_lexicon(path, phone_set: PhoneSet) -> dict[str, tuple[str, ...]]:
    lexicon: dict[str, tuple[str, ...]] = {}
    for i, (word, pronunciation) in _rows(
        path, _read_lines(path), 2, "WORD<TAB>phones"
    ):
        word = word.strip().upper()
        phones = tuple(pronunciation.split())
        if not word or not phones:
            raise FormatError("empty word or pronunciation", path=path, line=i)
        for label in phones:
            _phone(phone_set, label, path, i)
        lexicon[word] = phones
    if not lexicon:
        raise FormatError("empty lexicon", path=path)
    return lexicon


def read_text_manifest(path) -> list[tuple[str, str]]:
    """Parse text.tsv lines utt_id<TAB>words."""
    out = [
        (utt_id, text) for _, (utt_id, text)
        in _rows(path, _read_lines(path), 2, "utt<TAB>text")
    ]
    if not out:
        raise FormatError("empty text manifest", path=path)
    return out


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
        indices.extend(phone_set.index(label) for label in lexicon[key])
    return indices


# ---------------------------------------------------------------------------
# alignments (CTM-like)

def write_ctm(
    path, entries: Sequence[tuple[str, Alignment]], phone_set: PhoneSet
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, alignment in entries:
            for seg in alignment.segments:
                fh.write(
                    f"{utt_id}\t{phone_set.label(seg.phone)}"
                    f"\t{seg.start}\t{seg.length}\n"
                )


def read_ctm_columns(path, phone_set: PhoneSet) -> SegmentColumns:
    """Parse utterance alignments; utterance lines must be contiguous."""
    index = {label: k for k, label in enumerate(phone_set.phones)}
    # firsts: each utterance's first row
    lines, firsts, ids, phone, start, length = [], [], [], [], [], []
    try:
        for i, (utt, label, first, count) in _rows(
            path, _read_lines(path), 4, "utt<TAB>phone<TAB>start<TAB>frames"
        ):
            if not ids or utt != ids[-1]:
                firsts.append(len(lines))
                ids.append(utt)
            lines.append(i)
            phone.append(index[label])
            start.append(int(first))
            length.append(int(count))
    except (KeyError, ValueError):
        _phone(phone_set, label, path, i)
        _parse_int(first, path, i, "start frame")
        _parse_int(count, path, i, "frame count")
        raise
    if not lines:
        raise FormatError("empty alignment file", path=path)
    start = _int64(path, lines, start, "start frame")
    length = _int64(path, lines, length, "frame count")
    ends = start + length
    overlap = np.r_[False, start[1:] < ends[:-1]]
    overlap[firsts] = False
    first_lines = [lines[k] for k in firsts]
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
    cols = read_ctm_columns(path, phone_set)
    rows = list(zip(*(c.tolist() for c in (cols.phone, cols.start, cols.length))))
    bounds = np.cumsum(cols.counts).tolist()
    return [(utt_id, Alignment(tuple(starmap(PhoneSegment, rows[a:b]))))
            for utt_id, a, b in zip(cols.utterance_ids, [0, *bounds], bounds)]


# ---------------------------------------------------------------------------
# annotations

_FLAGS = {"0": False, "1": True}


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
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, pos, wrong in zip(a.label_utt_ids, a.positions,
                                      a.mispronounced):
            fh.write(f"P\t{utt_id}\t{pos}\t{int(wrong)}\n")
        for utt_id, rater, score in zip(a.rating_utt_ids, a.rater_ids,
                                        a.ratings):
            fh.write(f"S\t{utt_id}\t{rater}\t{_fmt(score)}\n")


def read_annotations(path) -> AnnotationSet:
    p_lines, p_utts, positions, labels = [], [], [], []
    s_lines, s_utts, raters, scores = [], [], [], []
    try:
        for i, (kind, utt, field, value) in _rows(
            path, _read_lines(path), {"P": (4,), "S": (4,)},
            "P<TAB>utt<TAB>pos<TAB>label or S<TAB>utt<TAB>rater<TAB>score",
        ):
            if kind == "P":
                p_lines.append(i)
                p_utts.append(utt)
                positions.append(int(field))
                labels.append(_FLAGS[value])
            else:
                s_lines.append(i)
                s_utts.append(utt)
                raters.append(field)
                scores.append(_finite(float(value)))
    except (KeyError, ValueError):
        if kind == "P":
            _parse_int(field, path, i, "position")
            _parse_flag(value, path, i, "label")
        else:
            _parse_float(value, path, i, "rater score")
        raise
    if not p_lines and not s_lines:
        raise FormatError("empty annotation file", path=path)
    _raise_first(path, [
        (p_lines, [p < 0 for p in positions],
         lambda k: f"negative phone position {positions[k]}"),
        (s_lines, [not 0.0 <= s <= 10.0 for s in scores],
         lambda k: f"rater score {scores[k]} outside [0, 10]"),
        (p_lines, _repeats(list(zip(p_utts, positions))),
         lambda k: f"second label for phone {positions[k]} of {p_utts[k]!r}"),
        (s_lines, _repeats(list(zip(s_utts, raters))),
         lambda k: f"second score from rater {raters[k]!r} for {s_utts[k]!r}"),
    ])
    return AnnotationSet(tuple(p_utts), tuple(positions), tuple(labels),
                         tuple(s_utts), tuple(raters), tuple(scores))


# ---------------------------------------------------------------------------
# balance tables and thresholds

def write_balance_table(path, table: BalanceTable, phone_set: PhoneSet) -> None:
    lo, hi = table.bucket_range
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"bucket_width={_fmt(table.bucket_width)} "
            f"bucket_min={lo} bucket_max={hi}\n"
        )
        for (phone, bucket) in sorted(table.entries):
            fh.write(
                f"{phone_set.label(phone)}\t{bucket}"
                f"\t{_fmt(table.entries[(phone, bucket)])}\n"
            )
        for phone in sorted(table.phone_backoff):
            fh.write(
                f"{phone_set.label(phone)}\t{PHONE_LEVEL_LABEL}"
                f"\t{_fmt(table.phone_backoff[phone])}\n"
            )
        fh.write(
            f"{NO_PHONE_LABEL}\t{GLOBAL_LABEL}\t{_fmt(table.global_backoff)}\n"
        )


def read_balance_table(path, phone_set: PhoneSet) -> BalanceTable:
    lines = _read_lines(path)
    header = _header(path, lines, ("bucket_width", "bucket_min", "bucket_max"))
    entries: dict[tuple[int, int], float] = {}
    phone_backoff: dict[int, float] = {}
    global_backoff: Optional[float] = None
    for i, (label, bucket, value) in _rows(
        path, lines[1:], 3, "label<TAB>bucket<TAB>T", first=2
    ):
        value = _parse_float(value, path, i, "tolerance")
        if bucket == GLOBAL_LABEL:
            global_backoff = value
        elif bucket == PHONE_LEVEL_LABEL:
            phone_backoff[_phone(phone_set, label, path, i)] = value
        else:
            entries[(
                _phone(phone_set, label, path, i),
                _parse_int(bucket, path, i, "bucket index"),
            )] = value
    if global_backoff is None:
        raise FormatError("missing GLOBAL tolerance row", path=path)
    return _build(
        BalanceTable, path,
        entries=entries,
        phone_backoff=phone_backoff,
        global_backoff=global_backoff,
        bucket_width=_parse_float(header["bucket_width"], path, 1,
                                  "bucket_width"),
        bucket_range=(_parse_int(header["bucket_min"], path, 1, "bucket min"),
                      _parse_int(header["bucket_max"], path, 1, "bucket max")),
    )


def write_thresholds(path, table: ThresholdTable, phone_set: PhoneSet) -> None:
    for phone in table.per_phone:
        if phone_set.label(phone) == GLOBAL_LABEL:
            raise DataError("phone label GLOBAL collides with the global row")
    with open(path, "w", encoding="utf-8") as fh:
        for phone in sorted(table.per_phone):
            fh.write(f"{phone_set.label(phone)}\t{_fmt(table.per_phone[phone])}\n")
        fh.write(f"{GLOBAL_LABEL}\t{_fmt(table.global_threshold)}\n")


def read_thresholds(path, phone_set: PhoneSet) -> ThresholdTable:
    per_phone: dict[int, float] = {}
    global_threshold: Optional[float] = None
    for i, (label, value) in _rows(
        path, _read_lines(path), 2, "label<TAB>threshold"
    ):
        value = _parse_float(value, path, i, "threshold")
        if label == GLOBAL_LABEL:
            global_threshold = value
        else:
            per_phone[_phone(phone_set, label, path, i)] = value
    if global_threshold is None:
        raise FormatError("missing GLOBAL threshold row", path=path)
    return ThresholdTable(per_phone=per_phone, global_threshold=global_threshold)


# ---------------------------------------------------------------------------
# duration-net checkpoints and logs

def write_checkpoint(
    path, params: DurationNetParams, cfg: DurationNetConfig
) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(_CKPT_HEADER.pack(
            cfg.embed_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_dim,
            cfg.dropout_rate, cfg.max_seq_len, cfg.lr_scale,
            cfg.warmup_steps, cfg.batch_size, cfg.seed, params.num_phones,
        ))
        for _, tensor in iter_tensors(params):
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(tensor.astype("<f8").tobytes())


def read_checkpoint(path) -> tuple[DurationNetParams, DurationNetConfig]:
    blob = _read_bytes(path)
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError("bad magic, not a duration checkpoint", path=path)
    offset = len(CKPT_MAGIC)
    if len(blob) < offset + _CKPT_HEADER.size:
        raise FormatError("truncated header", path=path)
    (embed_dim, num_blocks, num_heads, ffn_dim, dropout, max_seq_len,
     lr_scale, warmup, batch, seed, num_phones) = _CKPT_HEADER.unpack_from(
        blob, offset)
    offset += _CKPT_HEADER.size
    try:
        cfg = DurationNetConfig(
            embed_dim=embed_dim, num_blocks=num_blocks, num_heads=num_heads,
            ffn_dim=ffn_dim, dropout_rate=dropout, max_seq_len=max_seq_len,
            lr_scale=lr_scale, warmup_steps=warmup, batch_size=batch,
            seed=seed,
        )
        shapes = param_shapes(cfg, num_phones)
    except DataError as exc:
        raise FormatError(f"bad checkpoint header: {exc}", path=path) from exc
    # Summed before anything is allocated and only as far as the file
    # reaches, so a corrupt header cannot ask for more memory or time than
    # the file could fill. Every read below then stays inside the file.
    available = len(blob) - offset
    expected = 0
    for _, shape in shapes:
        expected += 4 + 4 * len(shape) + 8 * math.prod(shape)
        if expected > available:
            raise FormatError(
                f"truncated: header implies at least {expected} tensor "
                f"bytes, file has {available}",
                path=path,
            )
    params = zeros_params(cfg, num_phones)
    for name, tensor in iter_tensors(params):
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if rank != tensor.ndim:
            raise FormatError(
                f"tensor {name}: rank {rank}, expected {tensor.ndim}", path=path
            )
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        if dims != tensor.shape:
            raise FormatError(
                f"tensor {name}: shape {dims}, expected {tensor.shape}",
                path=path,
            )
        tensor[...] = np.frombuffer(
            blob, dtype="<f8", count=tensor.size, offset=offset
        ).reshape(dims)
        offset += 8 * tensor.size
    if offset != len(blob):
        raise FormatError(
            f"{len(blob) - offset} trailing bytes after tensors", path=path
        )
    return params, cfg


def write_training_log(path, log: Sequence[TrainLogEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tval_mae\n")
        for e in log:
            fh.write(f"{e.epoch}\t{_fmt(e.train_loss)}\t{_fmt(e.val_mae)}\n")


def read_training_log(path) -> list[TrainLogEntry]:
    lines = _read_lines(path)
    if not lines or lines[0] != "epoch\ttrain_loss\tval_mae":
        raise FormatError("missing training-log header", path=path, line=1)
    return [
        TrainLogEntry(
            epoch=_parse_int(epoch, path, i, "epoch"),
            train_loss=_parse_float(loss, path, i, "train loss"),
            val_mae=_parse_float(mae, path, i, "validation mae"),
        )
        for i, (epoch, loss, mae) in _rows(
            path, lines[1:], 3, "epoch<TAB>loss<TAB>mae", first=2
        )
    ]


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#variant={scores.variant}\n")
        for utt_id, pos, phone, start, length, score, flag in zip(
            scores.utt_ids, scores.positions, scores.phones, scores.starts,
            scores.lengths, scores.scores, scores.flags,
        ):
            flag = "" if flag is None else f"\t{int(flag)}"
            fh.write(
                f"P\t{utt_id}\t{pos}\t{phone_set.label(phone)}"
                f"\t{start}\t{length}\t{_fmt(score)}{flag}\n"
            )
        for utt_id, score in scores.sentences:
            fh.write(f"S\t{utt_id}\t{_fmt(score)}\n")


def read_score_file(path, phone_set: PhoneSet) -> ScoreFile:
    lines = _read_lines(path)
    variant = _header(path, lines, ("#variant",))["#variant"]
    index = {label: k for k, label in enumerate(phone_set.phones)}
    cols = p_lines, utts, positions, phones, starts, lengths, scores, flags = (
        [], [], [], [], [], [], [], [])
    s_lines, sentences = [], []
    try:
        for i, parts in _rows(
            path, lines[1:], {"P": (7, 8), "S": (3,)},
            "P<TAB>utt<TAB>pos<TAB>phone<TAB>start<TAB>frames<TAB>score"
            "[<TAB>flag] or S<TAB>utt<TAB>score", first=2,
        ):
            if parts[0] == "P":
                p_lines.append(i)
                utts.append(parts[1])
                positions.append(int(parts[2]))
                phones.append(index[parts[3]])
                starts.append(int(parts[4]))
                lengths.append(int(parts[5]))
                scores.append(_finite(float(parts[6])))
                flags.append(_FLAGS[parts[7]] if len(parts) == 8 else None)
            else:
                s_lines.append(i)
                sentences.append((parts[1], _finite(float(parts[2]))))
    except (KeyError, ValueError):
        if parts[0] == "P":
            _parse_int(parts[2], path, i, "position")
            _phone(phone_set, parts[3], path, i)
            _parse_int(parts[4], path, i, "start")
            _parse_int(parts[5], path, i, "length")
            _parse_float(parts[6], path, i, "score")
            _parse_flag(parts[7], path, i, "flag")
        else:
            _parse_float(parts[2], path, i, "sentence score")
        raise
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
        (s_lines, _repeats([utt for utt, _ in sentences]),
         lambda k: f"second sentence score for {sentences[k][0]!r}"),
    ])
    return ScoreFile(variant, *map(tuple, cols[1:]), tuple(sentences))

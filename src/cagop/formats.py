"""File formats: posteriorgrams, alignments, annotations, tables, checkpoints.

Text formats render floats with repr(), which round-trips float64 exactly,
so write-then-read is equality-preserving everywhere. The two binary
formats (posteriorgram, duration-net checkpoint) are little-endian with
fixed magics.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .balance import BalanceTable
from .detector import ThresholdTable
from .duration.net import (
    DurationNetConfig,
    DurationNetParams,
    block_shapes,
    iter_tensors,
    outer_shapes,
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
    blob = _read_bytes(path)
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
    probs = np.frombuffer(blob, dtype="<f4", count=frames * phones, offset=offset)
    probs = probs.astype(np.float64).reshape(frames, phones)
    return _build(Posteriorgram, path, probs=probs, frame_shift_ms=shift)


def read_posteriorgram(path) -> Posteriorgram:
    """Load either twin: binary when the magic matches, text otherwise."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(PGM_MAGIC))
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path=path) from exc
    if head == PGM_MAGIC:
        return read_posteriorgram_binary(path)
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


def read_ctm(path, phone_set: PhoneSet) -> list[tuple[str, Alignment]]:
    """Parse utterance alignments; utterance lines must be contiguous."""
    # (utterance, line of its first row, segments)
    groups: list[tuple[str, int, list[PhoneSegment]]] = []
    seen: set[str] = set()
    for i, (utt_id, label, start, length) in _rows(
        path, _read_lines(path), 4, "utt<TAB>phone<TAB>start<TAB>frames"
    ):
        if not groups or groups[-1][0] != utt_id:
            if utt_id in seen:
                raise FormatError(
                    f"utterance {utt_id!r} appears in two places",
                    path=path, line=i,
                )
            seen.add(utt_id)
            groups.append((utt_id, i, []))
        groups[-1][2].append(_build(
            PhoneSegment, path, i,
            phone=_phone(phone_set, label, path, i),
            start=_parse_int(start, path, i, "start frame"),
            length=_parse_int(length, path, i, "frame count"),
        ))
    if not groups:
        raise FormatError("empty alignment file", path=path)
    return [
        (utt_id, _build(Alignment, path, line, segments=tuple(segments)))
        for utt_id, line, segments in groups
    ]


# ---------------------------------------------------------------------------
# annotations

@dataclass(frozen=True)
class PhoneAnnotation:
    utt_id: str
    position: int
    mispronounced: bool

    def __post_init__(self):
        if self.position < 0:
            raise DataError(f"negative phone position {self.position}")


@dataclass(frozen=True)
class SentenceRating:
    utt_id: str
    rater_id: str
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 10.0:
            raise DataError(f"rater score {self.score} outside [0, 10]")


@dataclass(frozen=True)
class AnnotationSet:
    phones: tuple[PhoneAnnotation, ...]
    sentences: tuple[SentenceRating, ...]

    def phone_label_map(self) -> dict[tuple[str, int], bool]:
        return {(a.utt_id, a.position): a.mispronounced for a in self.phones}

    def rater_scores(self) -> dict[str, dict[str, float]]:
        """rater id -> utterance -> score."""
        out: dict[str, dict[str, float]] = {}
        for r in self.sentences:
            out.setdefault(r.rater_id, {})[r.utt_id] = r.score
        return out


def write_annotations(path, annotations: AnnotationSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in annotations.phones:
            fh.write(f"P\t{a.utt_id}\t{a.position}\t{int(a.mispronounced)}\n")
        for r in annotations.sentences:
            fh.write(f"S\t{r.utt_id}\t{r.rater_id}\t{_fmt(r.score)}\n")


def read_annotations(path) -> AnnotationSet:
    phones: list[PhoneAnnotation] = []
    sentences: list[SentenceRating] = []
    for i, (kind, utt_id, field, value) in _rows(
        path, _read_lines(path), {"P": (4,), "S": (4,)},
        "P<TAB>utt<TAB>pos<TAB>label or S<TAB>utt<TAB>rater<TAB>score",
    ):
        if kind == "P":
            phones.append(_build(
                PhoneAnnotation, path, i, utt_id=utt_id,
                position=_parse_int(field, path, i, "position"),
                mispronounced=_parse_flag(value, path, i, "label"),
            ))
        else:
            sentences.append(_build(
                SentenceRating, path, i, utt_id=utt_id, rater_id=field,
                score=_parse_float(value, path, i, "rater score"),
            ))
    if not phones and not sentences:
        raise FormatError("empty annotation file", path=path)
    return AnnotationSet(phones=tuple(phones), sentences=tuple(sentences))


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


def _stored_tensor_bytes(shapes) -> int:
    """Bytes write_checkpoint spends on tensors of these shapes."""
    return sum(4 + 4 * len(shape) + 8 * math.prod(shape) for shape in shapes)


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
        expected = (
            _stored_tensor_bytes(outer_shapes(cfg, num_phones).values())
            + num_blocks * _stored_tensor_bytes(block_shapes(cfg).values())
        )
    except DataError as exc:
        raise FormatError(f"bad checkpoint header: {exc}", path=path) from exc
    # Checked before anything is allocated, so a corrupt header cannot ask
    # for more memory than the file could fill.
    if len(blob) - offset < expected:
        raise FormatError(
            f"truncated: header implies {expected} tensor bytes, "
            f"file has {len(blob) - offset}",
            path=path,
        )
    params = zeros_params(cfg, num_phones)
    for name, tensor in iter_tensors(params):
        if len(blob) < offset + 4:
            raise FormatError(f"truncated before tensor {name}", path=path)
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if rank != tensor.ndim:
            raise FormatError(
                f"tensor {name}: rank {rank}, expected {tensor.ndim}", path=path
            )
        if len(blob) < offset + 4 * rank:
            raise FormatError(f"truncated inside tensor {name} dims", path=path)
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        if dims != tensor.shape:
            raise FormatError(
                f"tensor {name}: shape {dims}, expected {tensor.shape}",
                path=path,
            )
        count = int(np.prod(dims, dtype=np.int64))
        end = offset + 8 * count
        if len(blob) < end:
            raise FormatError(f"truncated inside tensor {name}", path=path)
        tensor[...] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset
        ).reshape(dims)
        offset = end
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
class ScoreRow:
    utt_id: str
    position: int
    phone: int
    start: int
    length: int
    score: float
    flag: Optional[bool] = None


@dataclass(frozen=True)
class ScoreFile:
    variant: str
    rows: tuple[ScoreRow, ...]
    sentences: tuple[tuple[str, float], ...]


def write_score_file(path, scores: ScoreFile, phone_set: PhoneSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#variant={scores.variant}\n")
        for r in scores.rows:
            flag = "" if r.flag is None else f"\t{int(r.flag)}"
            fh.write(
                f"P\t{r.utt_id}\t{r.position}\t{phone_set.label(r.phone)}"
                f"\t{r.start}\t{r.length}\t{_fmt(r.score)}{flag}\n"
            )
        for utt_id, score in scores.sentences:
            fh.write(f"S\t{utt_id}\t{_fmt(score)}\n")


def read_score_file(path, phone_set: PhoneSet) -> ScoreFile:
    lines = _read_lines(path)
    variant = _header(path, lines, ("#variant",))["#variant"]
    rows: list[ScoreRow] = []
    sentences: list[tuple[str, float]] = []
    for i, parts in _rows(
        path, lines[1:], {"P": (7, 8), "S": (3,)},
        "P<TAB>utt<TAB>pos<TAB>phone<TAB>start<TAB>frames<TAB>score[<TAB>flag]"
        " or S<TAB>utt<TAB>score", first=2,
    ):
        if parts[0] == "P":
            rows.append(ScoreRow(
                utt_id=parts[1],
                position=_parse_int(parts[2], path, i, "position"),
                phone=_phone(phone_set, parts[3], path, i),
                start=_parse_int(parts[4], path, i, "start"),
                length=_parse_int(parts[5], path, i, "length"),
                score=_parse_float(parts[6], path, i, "score"),
                flag=(_parse_flag(parts[7], path, i, "flag")
                      if len(parts) == 8 else None),
            ))
        else:
            sentences.append(
                (parts[1], _parse_float(parts[2], path, i, "sentence score"))
            )
    if not rows:
        raise FormatError("score file has no phone rows", path=path)
    return ScoreFile(variant=variant, rows=tuple(rows), sentences=tuple(sentences))

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


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path=path) from exc


def _parse_int(text: str, path, line: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", path=path, line=line) from None


def _parse_float(text: str, path, line: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", path=path, line=line) from None


# ---------------------------------------------------------------------------
# posteriorgrams

def write_posteriorgram_binary(path, pg: Posteriorgram) -> None:
    body = pg.probs.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(PGM_MAGIC)
        fh.write(_PGM_HEADER.pack(pg.num_frames, pg.num_phones, pg.frame_shift_ms))
        fh.write(body)


def read_posteriorgram_binary(path) -> Posteriorgram:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path=path) from exc
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
    return Posteriorgram(probs=probs, frame_shift_ms=shift)


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
    if not lines:
        raise FormatError("empty posteriorgram file", path=path)
    header = dict(
        part.split("=", 1) for part in lines[0].split() if "=" in part
    )
    for key in ("frames", "phones", "shift_ms"):
        if key not in header:
            raise FormatError(f"header missing {key}=", path=path, line=1)
    frames = _parse_int(header["frames"], path, 1, "frame count")
    phones = _parse_int(header["phones"], path, 1, "phone count")
    shift = _parse_float(header["shift_ms"], path, 1, "frame shift")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != frames:
        raise FormatError(
            f"expected {frames} rows, found {len(rows)}", path=path
        )
    probs = np.empty((frames, phones), dtype=np.float64)
    for i, ln in enumerate(rows):
        parts = ln.split()
        if len(parts) != phones:
            raise FormatError(
                f"row has {len(parts)} values, expected {phones}",
                path=path, line=i + 2,
            )
        probs[i] = [_parse_float(p, path, i + 2, "probability") for p in parts]
    return Posteriorgram(probs=probs, frame_shift_ms=shift)


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
    for i, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#silence="):
            silence = line.split("=", 1)[1].strip()
            if not silence:
                raise FormatError("empty silence label", path=path, line=i)
            continue
        if line.startswith("#"):
            continue
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
    try:
        return PhoneSet(phones=tuple(labels), silence_index=silence_index)
    except DataError as exc:
        raise FormatError(str(exc), path=path) from exc


def write_lexicon(path, lexicon: Mapping[str, tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, phones in lexicon.items():
            fh.write(word + "\t" + " ".join(phones) + "\n")


def read_lexicon(path, phone_set: PhoneSet) -> dict[str, tuple[str, ...]]:
    lexicon: dict[str, tuple[str, ...]] = {}
    for i, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise FormatError("expected WORD<TAB>phones", path=path, line=i)
        word = parts[0].strip().upper()
        phones = tuple(parts[1].split())
        if not word or not phones:
            raise FormatError("empty word or pronunciation", path=path, line=i)
        for label in phones:
            if label not in phone_set.phones:
                raise FormatError(
                    f"unknown phone {label!r} for word {word!r}",
                    path=path, line=i,
                )
        lexicon[word] = phones
    if not lexicon:
        raise FormatError("empty lexicon", path=path)
    return lexicon


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
    groups: list[tuple[str, list[PhoneSegment]]] = []
    seen: set[str] = set()
    for i, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise FormatError(
                "expected utt<TAB>phone<TAB>start<TAB>frames", path=path, line=i
            )
        utt_id = parts[0]
        try:
            phone = phone_set.index(parts[1])
        except DataError:
            raise FormatError(
                f"unknown phone label {parts[1]!r}", path=path, line=i
            ) from None
        start = _parse_int(parts[2], path, i, "start frame")
        length = _parse_int(parts[3], path, i, "frame count")
        if not groups or groups[-1][0] != utt_id:
            if utt_id in seen:
                raise FormatError(
                    f"utterance {utt_id!r} appears in two places",
                    path=path, line=i,
                )
            seen.add(utt_id)
            groups.append((utt_id, []))
        try:
            groups[-1][1].append(PhoneSegment(phone=phone, start=start,
                                              length=length))
        except DataError as exc:
            raise FormatError(str(exc), path=path, line=i) from exc
    if not groups:
        raise FormatError("empty alignment file", path=path)
    out = []
    for utt_id, segments in groups:
        try:
            out.append((utt_id, Alignment(segments=tuple(segments))))
        except DataError as exc:
            raise FormatError(f"{utt_id!r}: {exc}", path=path) from exc
    return out


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
    for i, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        kind = parts[0]
        if kind == "P":
            if len(parts) != 4:
                raise FormatError("expected P<TAB>utt<TAB>pos<TAB>label",
                                  path=path, line=i)
            label = parts[3]
            if label not in ("0", "1"):
                raise FormatError(f"label must be 0 or 1, got {label!r}",
                                  path=path, line=i)
            phones.append(PhoneAnnotation(
                utt_id=parts[1],
                position=_parse_int(parts[2], path, i, "position"),
                mispronounced=label == "1",
            ))
        elif kind == "S":
            if len(parts) != 4:
                raise FormatError("expected S<TAB>utt<TAB>rater<TAB>score",
                                  path=path, line=i)
            score = _parse_float(parts[3], path, i, "rater score")
            try:
                sentences.append(SentenceRating(
                    utt_id=parts[1], rater_id=parts[2], score=score,
                ))
            except DataError as exc:
                raise FormatError(str(exc), path=path, line=i) from exc
        else:
            raise FormatError(f"unknown line kind {kind!r}", path=path, line=i)
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
    if not lines:
        raise FormatError("empty balance table", path=path)
    header = dict(p.split("=", 1) for p in lines[0].split() if "=" in p)
    for key in ("bucket_width", "bucket_min", "bucket_max"):
        if key not in header:
            raise FormatError(f"header missing {key}=", path=path, line=1)
    width = _parse_float(header["bucket_width"], path, 1, "bucket width")
    lo = _parse_int(header["bucket_min"], path, 1, "bucket min")
    hi = _parse_int(header["bucket_max"], path, 1, "bucket max")
    entries: dict[tuple[int, int], float] = {}
    phone_backoff: dict[int, float] = {}
    global_backoff: Optional[float] = None
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise FormatError("expected label<TAB>bucket<TAB>T", path=path, line=i)
        label, bucket_text, value_text = parts
        value = _parse_float(value_text, path, i, "tolerance")
        if bucket_text == GLOBAL_LABEL:
            global_backoff = value
        elif bucket_text == PHONE_LEVEL_LABEL:
            phone_backoff[phone_set.index(label)] = value
        else:
            bucket = _parse_int(bucket_text, path, i, "bucket index")
            entries[(phone_set.index(label), bucket)] = value
    if global_backoff is None:
        raise FormatError("missing GLOBAL tolerance row", path=path)
    try:
        return BalanceTable(
            entries=entries,
            phone_backoff=phone_backoff,
            global_backoff=global_backoff,
            bucket_width=width,
            bucket_range=(lo, hi),
        )
    except DataError as exc:
        raise FormatError(str(exc), path=path) from exc


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
    for i, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise FormatError("expected label<TAB>threshold", path=path, line=i)
        value = _parse_float(parts[1], path, i, "threshold")
        if parts[0] == GLOBAL_LABEL:
            global_threshold = value
        else:
            per_phone[phone_set.index(parts[0])] = value
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
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read: {exc}", path=path) from exc
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
    out = []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise FormatError("expected epoch<TAB>loss<TAB>mae", path=path, line=i)
        out.append(TrainLogEntry(
            epoch=_parse_int(parts[0], path, i, "epoch"),
            train_loss=_parse_float(parts[1], path, i, "train loss"),
            val_mae=_parse_float(parts[2], path, i, "validation mae"),
        ))
    return out


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
    if not lines or not lines[0].startswith("#variant="):
        raise FormatError("missing #variant= header", path=path, line=1)
    variant = lines[0].split("=", 1)[1]
    rows: list[ScoreRow] = []
    sentences: list[tuple[str, float]] = []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if parts[0] == "P":
            if len(parts) not in (7, 8):
                raise FormatError("bad P row", path=path, line=i)
            flag = None
            if len(parts) == 8:
                if parts[7] not in ("0", "1"):
                    raise FormatError(f"flag must be 0 or 1, got {parts[7]!r}",
                                      path=path, line=i)
                flag = parts[7] == "1"
            rows.append(ScoreRow(
                utt_id=parts[1],
                position=_parse_int(parts[2], path, i, "position"),
                phone=phone_set.index(parts[3]),
                start=_parse_int(parts[4], path, i, "start"),
                length=_parse_int(parts[5], path, i, "length"),
                score=_parse_float(parts[6], path, i, "score"),
                flag=flag,
            ))
        elif parts[0] == "S":
            if len(parts) != 3:
                raise FormatError("bad S row", path=path, line=i)
            sentences.append(
                (parts[1], _parse_float(parts[2], path, i, "sentence score"))
            )
        else:
            raise FormatError(f"unknown row kind {parts[0]!r}", path=path, line=i)
    if not rows:
        raise FormatError("score file has no phone rows", path=path)
    return ScoreFile(variant=variant, rows=tuple(rows), sentences=tuple(sentences))

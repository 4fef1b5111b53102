"""Seeded synthetic corpus for desk-scale pipeline runs.

Real mispronunciation corpora are licensed, so experiments and tests run on
generated data with the statistics the scorers care about: per-frame phone
posteriors with uncertain (high-entropy) frames inside otherwise-correct
segments, phone substitutions toward fixed confusion partners, duration
distortions, and speed variation across utterances. Everything derives
from one integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import (
    AnnotationSet,
    read_text_manifest,  # noqa: F401  (re-exported)
    write_annotations,
    write_ctm,
    write_lexicon,
    write_phone_set,
    write_posteriorgram_binary,
)
from .model import (
    Alignment,
    DataError,
    PhoneSegment,
    PhoneSet,
    Posteriorgram,
)

SILENCE_LABEL = "SIL"
PHONE_LABELS = (
    SILENCE_LABEL,
    "AA", "AE", "AH", "B", "D", "EH", "IY", "K", "M", "N", "S", "T",
)
# Substitution partner for each real phone; roughly "adjacent" sounds.
CONFUSIONS = {
    "AA": "AE", "AE": "AA", "AH": "EH", "B": "D", "D": "T", "EH": "AH",
    "IY": "EH", "K": "T", "M": "N", "N": "M", "S": "T", "T": "D",
}
# Typical duration in frames at tempo 1.0; vowels run longer.
MEAN_FRAMES = {
    "AA": 9.0, "AE": 8.5, "AH": 6.5, "B": 4.0, "D": 4.0, "EH": 7.5,
    "IY": 8.0, "K": 4.5, "M": 5.5, "N": 5.0, "S": 6.0, "T": 4.0,
}
STOPS = frozenset(("B", "D", "K", "T"))
VOWELS = frozenset(("AA", "AE", "AH", "EH", "IY"))
WORDS = {
    "BADGE": ("B", "AE", "D"),
    "DEED": ("D", "IY", "D"),
    "HUT": ("AH", "T"),
    "KEEN": ("K", "IY", "N"),
    "MASS": ("M", "AE", "S"),
    "MEADOW": ("M", "EH", "D", "AH"),
    "NEAT": ("N", "IY", "T"),
    "ODD": ("AA", "D"),
    "SEEK": ("S", "IY", "K"),
    "SETTEE": ("S", "EH", "T", "IY"),
    "TACK": ("T", "AE", "K"),
    "TOMB": ("T", "AA", "M"),
}


def default_phone_set() -> PhoneSet:
    return PhoneSet(phones=PHONE_LABELS, silence_index=0)


def default_lexicon() -> dict[str, tuple[str, ...]]:
    return dict(WORDS)


# Generation constants, tuned for clear variant contrasts.
FRAME_SHIFT_MS = 30.0
DURATION_NOISE = 0.5
SUBSTITUTION_RATE = 0.28
DURATION_ERROR_RATE = 0.08
STRETCH_FACTOR = 1.7
SQUEEZE_FACTOR = 0.45
CLEAR_MASS = (0.78, 0.9)     # dominant-phone mass of a confident frame
LEAK = (0.08, 0.22)          # reference-phone mass in a substituted frame
MUMBLE_RATE = (0.08, 0.28)   # share of uncertain frames in a segment
MUMBLE_ALPHA = 3.0           # Dirichlet concentration of an uncertain frame
BLUR_MIX = 0.5               # previous phone's share of a segment's first frame
NUM_RATERS = 3


@dataclass(frozen=True)
class SynthConfig:
    """Corpus size, seed, and the word-count and tempo ranges."""

    num_utterances: int = 200
    seed: int = 0
    min_words: int = 2
    max_words: int = 4
    tempo_low: float = 0.8
    tempo_high: float = 1.25

    def __post_init__(self):
        if self.num_utterances < 1:
            raise DataError("num_utterances must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.min_words <= self.max_words:
            raise DataError("need 1 <= min_words <= max_words")


@dataclass(frozen=True)
class SynthUtterance:
    utt_id: str
    text: str
    reference_phones: tuple[int, ...]
    alignment: Alignment
    posteriorgram: Posteriorgram
    mispronounced: tuple[bool, ...]
    ratings: tuple[float, ...]  # rater f"r{k}" gave ratings[k]


@dataclass(frozen=True)
class SynthCorpus:
    phone_set: PhoneSet
    lexicon: dict[str, tuple[str, ...]]
    utterances: tuple[SynthUtterance, ...]

    def annotations(self) -> AnnotationSet:
        labels = [(u.utt_id, pos, wrong) for u in self.utterances
                  for pos, wrong in enumerate(u.mispronounced)]
        ratings = [(u.utt_id, f"r{k}", score) for u in self.utterances
                   for k, score in enumerate(u.ratings)]
        return AnnotationSet(*zip(*labels), *zip(*ratings))


def _clear_distribution(
    rng: np.random.Generator,
    phone_set: PhoneSet,
    true_phone: int,
    leak_phone: int | None = None,
    leak: float = 0.0,
) -> np.ndarray:
    """One confident frame: most mass on true_phone, optional leak phone."""
    n = len(phone_set)
    mass = rng.uniform(*CLEAR_MASS)
    rest = np.asarray(rng.dirichlet(np.ones(n - 1)))
    probs = np.empty(n)
    others = [i for i in range(n) if i != true_phone]
    probs[true_phone] = mass
    probs[others] = rest * (1.0 - mass)
    if leak_phone is not None:
        # carve the leak out of the non-dominant remainder, keep sum at 1
        take = min(leak, 1.0 - mass - 1e-6)
        probs[others] *= (1.0 - mass - take) / probs[others].sum()
        probs[leak_phone] += take
    return probs / probs.sum()


def _mumble_distribution(
    rng: np.random.Generator, phone_set: PhoneSet
) -> np.ndarray:
    """One uncertain frame: near-flat posteriors.

    MUMBLE_ALPHA controls flatness (higher = flatter = higher entropy);
    these are the frames entropy weighting is supposed to discount.
    """
    return np.asarray(rng.dirichlet(np.full(len(phone_set), MUMBLE_ALPHA)))


@dataclass(frozen=True)
class _SegmentPlan:
    reference: int        # phone the speaker intended (CTM label)
    realized: int         # phone actually produced
    length: int
    is_silence: bool
    leak_to: int | None   # reference phone leaking into a substituted frame


def rule_durations(
    rng: np.random.Generator,
    phone_set: PhoneSet,
    phones: list[int],
    tempo: float,
    noise: float,
) -> list[int]:
    """Duration rule: phone base, neighbor effects, tempo scaling, noise.

    Phones lengthen before a stop; after a vowel, consonants stretch and
    vowels shorten. Deterministic up to the rng.
    """
    labels = [phone_set.label(p) for p in phones]
    out = []
    for i, label in enumerate(labels):
        base = MEAN_FRAMES[label]
        nxt = labels[i + 1] if i + 1 < len(labels) else None
        prev = labels[i - 1] if i > 0 else None
        if nxt in STOPS:
            base += 1.2
        if prev in VOWELS:
            base += 0.7 if label not in VOWELS else -0.8
        out.append(max(2, round(base * tempo + rng.normal(0.0, noise))))
    return out


def _render_segment(
    rng: np.random.Generator, phone_set: PhoneSet, plan: _SegmentPlan,
    prev_realized: int | None,
) -> np.ndarray:
    frames = np.empty((plan.length, len(phone_set)))
    if plan.is_silence:
        for i in range(plan.length):
            frames[i] = _clear_distribution(rng, phone_set, plan.realized)
    else:
        mumble_rate = rng.uniform(*MUMBLE_RATE)
        leak = rng.uniform(*LEAK)
        for i in range(plan.length):
            if rng.random() < mumble_rate:
                frames[i] = _mumble_distribution(rng, phone_set)
            else:
                frames[i] = _clear_distribution(
                    rng, phone_set, plan.realized,
                    leak_phone=plan.leak_to, leak=leak,
                )
    if prev_realized is not None and plan.length > 0:
        # coarticulation: the entry frame still carries the previous phone
        carry = _clear_distribution(rng, phone_set, prev_realized)
        frames[0] = BLUR_MIX * carry + (1.0 - BLUR_MIX) * frames[0]
    return frames


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Build a fully deterministic corpus from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    phone_set = default_phone_set()
    lexicon = default_lexicon()
    words = sorted(lexicon)
    sil = phone_set.silence_index
    utterances = []
    width = len(str(cfg.num_utterances - 1))

    for u in range(cfg.num_utterances):
        utt_id = f"synth{u:0{width}d}"
        count = int(rng.integers(cfg.min_words, cfg.max_words + 1))
        chosen = [words[int(rng.integers(len(words)))] for _ in range(count)]
        text = " ".join(chosen)
        reference = [
            phone_set.index(label) for w in chosen for label in lexicon[w]
        ]
        tempo = rng.uniform(cfg.tempo_low, cfg.tempo_high)
        durations = rule_durations(rng, phone_set, reference, tempo,
                                   DURATION_NOISE)

        realized = list(reference)
        wrong = [False] * len(reference)
        if rng.random() < SUBSTITUTION_RATE:
            k = 1 if len(reference) < 6 else int(rng.integers(1, 3))
            for pos in rng.choice(len(reference), size=k, replace=False):
                label = phone_set.label(reference[pos])
                realized[pos] = phone_set.index(CONFUSIONS[label])
                wrong[pos] = True
        if rng.random() < DURATION_ERROR_RATE:
            # distort a long phone; short ones cannot move past tolerance
            eligible = [
                i for i in range(len(reference))
                if not wrong[i] and durations[i] >= 5
            ]
            if eligible:
                pos = int(eligible[int(rng.integers(len(eligible)))])
                factor = STRETCH_FACTOR if rng.random() < 0.5 else SQUEEZE_FACTOR
                durations[pos] = max(2, round(durations[pos] * factor))
                wrong[pos] = True

        plans: list[_SegmentPlan] = []
        if rng.random() < 0.7:
            plans.append(_SegmentPlan(sil, sil, int(rng.integers(2, 7)),
                                      True, None))
        for pos, phone in enumerate(reference):
            plans.append(_SegmentPlan(
                reference=phone,
                realized=realized[pos],
                length=durations[pos],
                is_silence=False,
                leak_to=phone if wrong[pos] and realized[pos] != phone else None,
            ))
        if rng.random() < 0.7:
            plans.append(_SegmentPlan(sil, sil, int(rng.integers(2, 7)),
                                      True, None))

        chunks = []
        prev: int | None = None
        segments = []
        start = 0
        for plan in plans:
            chunks.append(_render_segment(rng, phone_set, plan, prev))
            segments.append(PhoneSegment(phone=plan.reference, start=start,
                                         length=plan.length))
            start += plan.length
            prev = plan.realized
        probs = np.vstack(chunks)
        pg = Posteriorgram(probs=probs, frame_shift_ms=FRAME_SHIFT_MS)

        wrong_frac = sum(wrong) / len(wrong)
        ratings = tuple(
            float(np.clip(
                10.0 * (1.0 - 1.8 * wrong_frac) + rng.normal(0.0, 0.5),
                0.0, 10.0,
            ))
            for _ in range(NUM_RATERS)
        )
        utterances.append(SynthUtterance(
            utt_id=utt_id,
            text=text,
            reference_phones=tuple(reference),
            alignment=Alignment(segments=tuple(segments)),
            posteriorgram=pg,
            mispronounced=tuple(wrong),
            ratings=ratings,
        ))
    return SynthCorpus(
        phone_set=phone_set, lexicon=lexicon, utterances=tuple(utterances)
    )


def write_corpus(directory, corpus: SynthCorpus) -> None:
    """Materialize a corpus for the command-line pipeline.

    Layout: phones.txt, lexicon.txt, text.tsv, reference.ctm,
    annotations.tsv, and post/<utt>.pgm binaries.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    (root / "post").mkdir(exist_ok=True)
    write_phone_set(root / "phones.txt", corpus.phone_set)
    write_lexicon(root / "lexicon.txt", corpus.lexicon)
    with open(root / "text.tsv", "w", encoding="utf-8") as fh:
        for utt in corpus.utterances:
            fh.write(f"{utt.utt_id}\t{utt.text}\n")
    write_ctm(
        root / "reference.ctm",
        [(u.utt_id, u.alignment) for u in corpus.utterances],
        corpus.phone_set,
    )
    write_annotations(root / "annotations.tsv", corpus.annotations())
    for utt in corpus.utterances:
        write_posteriorgram_binary(root / "post" / f"{utt.utt_id}.pgm",
                                   utt.posteriorgram)

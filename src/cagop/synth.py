"""Seeded synthetic corpus for desk-scale pipeline runs.

Real mispronunciation corpora are licensed, so experiments and tests run on
generated data with the statistics the scorers care about: per-frame phone
posteriors with uncertain (high-entropy) frames inside otherwise-correct
segments, phone substitutions toward fixed confusion partners, duration
distortions, and speed variation across utterances. Everything derives
from one integer seed.

The corpus is defined draw for draw on one NumPy ``Generator``. Each
utterance's frames are made in two steps: a loop that only draws, in the
order a per-frame recipe would, into preallocated arrays, then one
vectorized pass that repeats NumPy's own uniform and Dirichlet arithmetic
on those draws (``_uniform``, ``_simplex``) and the per-row mass carving,
normalization and blur.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import (
    AnnotationSet,
    write_annotations,
    write_ctm,
    write_lexicon,
    write_phone_set,
    write_posteriorgram_binary,
    write_text_manifest,
)
from .model import (
    Alignment,
    DataError,
    PhoneSegment,
    PhoneSet,
    Posteriorgram,
    SegmentColumns,
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
# Largest tempo SynthConfig accepts. A phone lasts about MEAN_FRAMES x tempo
# frames, so a tempo of 10 already gives 90-frame vowels, and the frames
# grow without bound above it (a tempo of 1e12 asks NumPy for petabytes).
MAX_TEMPO = 10.0
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
        if not 0 < self.tempo_low <= self.tempo_high <= MAX_TEMPO:
            raise DataError(f"need 0 < tempo_low <= tempo_high <= {MAX_TEMPO}, "
                            f"got {self.tempo_low}, {self.tempo_high}")


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


def _uniform(low: float, high: float, u):
    """Generator.uniform(low, high), given the random() draw(s) u it makes."""
    return low + (high - low) * u


def _simplex(gammas: np.ndarray) -> np.ndarray:
    """Generator.dirichlet rows from their Gamma draws (every alpha >= 0.1):
    the draws times the reciprocal of their left-to-right running sum."""
    return gammas * (1.0 / gammas.cumsum(axis=1)[:, -1:])


def _render(
    rng: np.random.Generator, plans: list[_SegmentPlan], width: int
) -> np.ndarray:
    """One utterance's frames: a loop that only draws, then one array pass.

    Stream order: a speech segment draws its mumble rate and leak, then per
    frame the random() mumble test and either width Gamma(MUMBLE_ALPHA)
    draws (a near-flat, uncertain frame) or a confident frame: one random()
    for the dominant mass and width - 1 exponentials (Gamma(1)) for the
    rest. Each later segment then draws its blur carry, a confident frame
    of the previous phone, kept in a row past the last frame.
    """
    starts = np.cumsum([0] + [p.length for p in plans]).tolist()
    frames = starts[-1]
    rows = frames + len(plans) - 1
    draws = np.zeros((rows, width))
    u = np.zeros(rows)
    leak = np.zeros(rows)
    mumble = np.zeros(rows, dtype=bool)
    dominant = np.empty(rows, dtype=np.intp)
    dominant[frames:] = [p.realized for p in plans[:-1]]
    leak_to = np.full(rows, -1, dtype=np.intp)
    full, head = list(draws), list(draws[:, :-1])
    random, exponential, gamma = (
        rng.random, rng.standard_exponential, rng.standard_gamma)
    for k, plan in enumerate(plans):
        lo, hi = starts[k], starts[k + 1]
        dominant[lo:hi] = plan.realized
        if plan.is_silence:
            for i in range(lo, hi):
                u[i] = random()
                exponential(out=head[i])
        else:
            rate = rng.uniform(*MUMBLE_RATE)
            leak[lo:hi] = rng.uniform(*LEAK)
            if plan.leak_to is not None:
                leak_to[lo:hi] = plan.leak_to
            for i in range(lo, hi):
                if random() < rate:
                    mumble[i] = True
                    gamma(MUMBLE_ALPHA, out=full[i])
                else:
                    u[i] = random()
                    exponential(out=head[i])
        if k:
            u[frames + k - 1] = random()
            exponential(out=head[frames + k - 1])

    out = np.empty((rows, width))
    out[mumble] = _simplex(draws[mumble])
    clear = ~mumble
    mass = _uniform(*CLEAR_MASS, u[clear])
    rest = 1.0 - mass
    others = _simplex(draws[clear, :-1]) * rest[:, None]
    # carve the leak out of the non-dominant remainder, keep sum at 1
    target = leak_to[clear]
    carve = target >= 0
    take = np.minimum(leak[clear][carve], rest[carve] - 1e-6)
    others[carve] *= ((rest[carve] - take)
                      / others[carve].sum(axis=1))[:, None]
    top = dominant[clear]
    probs = np.empty((len(top), width))
    probs[np.arange(width) != top[:, None]] = others.ravel()
    probs[np.arange(len(top)), top] = mass
    probs[np.flatnonzero(carve), target[carve]] += take
    out[clear] = probs / probs.sum(axis=1)[:, None]
    # coarticulation: each entry frame still carries the previous phone
    entry = starts[1:-1]
    out[entry] = BLUR_MIX * out[frames:] + (1.0 - BLUR_MIX) * out[entry]
    return out[:frames]


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Build a fully deterministic corpus from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    phone_set = default_phone_set()
    lexicon = dict(WORDS)
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

        segments = []
        start = 0
        for plan in plans:
            segments.append(PhoneSegment(phone=plan.reference, start=start,
                                         length=plan.length))
            start += plan.length
        probs = _render(rng, plans, len(phone_set))
        pg = Posteriorgram(probs=probs, frame_shift_ms=FRAME_SHIFT_MS)

        wrong_frac = sum(wrong) / len(wrong)
        mean_rating = 10.0 * (1.0 - 1.8 * wrong_frac)
        ratings = tuple(
            min(max(mean_rating + rng.normal(0.0, 0.5), 0.0), 10.0)
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
    write_text_manifest(root / "text.tsv",
                        [(u.utt_id, u.text) for u in corpus.utterances])
    write_ctm(
        root / "reference.ctm",
        SegmentColumns.from_alignments(
            (u.utt_id, u.alignment) for u in corpus.utterances),
        corpus.phone_set,
    )
    write_annotations(root / "annotations.tsv", corpus.annotations())
    for utt in corpus.utterances:
        write_posteriorgram_binary(root / "post" / f"{utt.utt_id}.pgm",
                                   utt.posteriorgram)

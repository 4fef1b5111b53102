"""Context-aware goodness-of-pronunciation scoring.

Frame posteriors from an acoustic model are turned into per-phone scores:
plain GOP (mean log posterior over the aligned segment), a
transition-aware variant that weights frames by inverse entropy, and the
combined score that additionally applies a duration-mismatch factor backed
by a self-attention duration predictor. Includes a segmental forced
aligner, threshold calibration, evaluation metrics, file formats, a
command-line pipeline, and a synthetic corpus generator.
"""

from .align import AlignConfig, align, align_utterances
from .balance import (
    BalanceTable,
    delta,
    fit_balance_table,
    lookup_tolerance,
    speed_bucket,
)
from .detector import (
    VARIANTS,
    DetectorConfig,
    ThresholdTable,
    cagop_score,
    calibrate_thresholds,
    detect_flags,
    score_utterance,
    score_utterances,
    threshold_for,
)
from .duration import DurationSample
from .model import (
    Alignment,
    CagopError,
    DataError,
    FormatError,
    NumericError,
    PhoneScore,
    PhoneSegment,
    PhoneSet,
    Posteriorgram,
    ScoreReport,
    SegmentColumns,
    slice_segment,
    utterance_speeds,
    validate_posteriorgram,
)
from .scoring import (
    FrameScores,
    center_gop,
    entropy_profile,
    frame_entropy,
    gop,
    tascore,
)

__version__ = "0.1.0"

"""Self-attention duration model: architecture, training, checkpoints."""

from .net import (
    DurationNetConfig,
    DurationNetParams,
    DurationSample,
    attention,
    backward,
    clone_params,
    desk_config,
    forward,
    init_params,
    iter_tensors,
    full_config,
    predict_durations,
    predict_durations_batch,
    sinusoidal_encoding,
    tiny_config,
    zeros_params,
)
from .training import (
    TrainLogEntry,
    evaluate_mae,
    noam_lr,
    train,
)

"""Training loop and learning-rate schedule for the duration net."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..model import DataError, NumericError
from .net import (
    DurationNetConfig,
    DurationNetParams,
    DurationSample,
    Workspace,
    _forward_batch,
    _pad_batch,
    clone_params,
    init_params,
    masked_l1_and_grads,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


def noam_lr(step: int, cfg: DurationNetConfig) -> float:
    """Inverse-sqrt schedule with linear warmup; step counts from 1."""
    if step < 1:
        raise DataError(f"step must be >= 1, got {step}")
    return (
        cfg.lr_scale
        * cfg.embed_dim ** -0.5
        * min(step ** -0.5, step * cfg.warmup_steps ** -1.5)
    )


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_mae: float


class _AdamState:
    def __init__(self, params: DurationNetParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.step = 0

    def update(
        self, params: DurationNetParams, grads: DurationNetParams, lr: float
    ) -> None:
        self.step += 1
        # Bias-corrected moments, applied in place to the whole flat vector.
        correct1 = 1.0 - ADAM_BETA1 ** self.step
        correct2 = 1.0 - ADAM_BETA2 ** self.step
        p, g, m, v = params.flat, grads.flat, self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def evaluate_mae(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    samples: Sequence[DurationSample],
    workspace: Optional[Workspace] = None,
) -> float:
    """Eval-mode mean absolute error in frames over all real tokens.

    Runs in ``workspace`` (``train()`` passes its own), else in a fresh one.
    """
    if not samples:
        raise DataError("no samples to evaluate")
    ws = Workspace() if workspace is None else workspace
    total = 0.0
    count = 0
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start : start + cfg.batch_size]
        phone_ids, speeds, targets, mask = _pad_batch(chunk)
        preds = _forward_batch(params, cfg, phone_ids, speeds, mask, False, None,
                               ws)
        total += float(np.abs((preds - targets) * mask).sum())
        count += int(mask.sum())
    return total / count


def _infer_num_phones(*sample_sets: Sequence[DurationSample]) -> int:
    highest = -1
    for samples in sample_sets:
        for s in samples:
            highest = max(highest, max(s.phones))
    return highest + 1


def train(
    dataset: Sequence[DurationSample],
    cfg: DurationNetConfig,
    validation: Sequence[DurationSample],
    num_phones: Optional[int] = None,
    epochs: int = 100,
) -> tuple[DurationNetParams, list[TrainLogEntry]]:
    """Fit the duration net; returns the best-validation snapshot and a log.

    Deterministic for a fixed config seed: one generator drives init,
    shuffling, and dropout in a fixed order. The returned parameters are
    the epoch snapshot with the lowest validation MAE, never a worse later
    state. A non-finite loss raises NumericError with the failing step.
    Every step and validation pass of the call shares one workspace, which
    is dropped when the call returns.
    """
    dataset = list(dataset)
    validation = list(validation)
    if not dataset:
        raise DataError("training set is empty")
    if not validation:
        raise DataError("validation set is empty")
    if epochs < 1:
        raise DataError(f"epochs must be >= 1, got {epochs}")
    for s in dataset + validation:
        if len(s) > cfg.max_seq_len:
            raise DataError(
                f"sample length {len(s)} exceeds max_seq_len {cfg.max_seq_len}"
            )
    if num_phones is None:
        num_phones = _infer_num_phones(dataset, validation)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, num_phones, rng)
    adam = _AdamState(params)
    best = clone_params(params)
    best_mae = np.inf
    log: list[TrainLogEntry] = []
    ws = Workspace()

    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(dataset))
        abs_err = 0.0
        tokens = 0
        for start in range(0, len(dataset), cfg.batch_size):
            chunk = [dataset[i] for i in order[start : start + cfg.batch_size]]
            phone_ids, speeds, targets, mask = _pad_batch(chunk)
            loss, grads = masked_l1_and_grads(
                params, cfg, phone_ids, speeds, targets, mask,
                train=True, rng=rng, workspace=ws,
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged: non-finite loss at step {adam.step + 1}"
                )
            n = int(mask.sum())
            abs_err += loss * n
            tokens += n
            adam.update(params, grads, noam_lr(adam.step + 1, cfg))
        val_mae = evaluate_mae(params, cfg, validation, ws)
        log.append(TrainLogEntry(epoch, abs_err / tokens, val_mae))
        if val_mae < best_mae:
            best_mae = val_mae
            best = clone_params(params)
    return best, log

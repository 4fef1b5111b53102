"""Learning-rate schedule and training-loop contracts."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cagop.duration import (
    DurationNetConfig,
    DurationSample,
    TrainLogEntry,
    clone_params,
    desk_config,
    evaluate_mae,
    full_config,
    init_params,
    iter_tensors,
    noam_lr,
    train,
)
from cagop.duration.net import Workspace, _forward_batch, masked_l1_and_grads
from cagop.duration.training import _pad_batch
from cagop.model import DataError, NumericError
from oracles import overfit_single


def quick_cfg(seed=0):
    return DurationNetConfig(
        embed_dim=8,
        num_blocks=2,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.1,
        max_seq_len=12,
        lr_scale=1.0,
        warmup_steps=30,
        batch_size=4,
        seed=seed,
    )


def toy_dataset(n, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        t = int(rng.integers(2, 8))
        phones = [int(p) for p in rng.integers(0, 6, size=t)]
        durs = [float(rng.integers(2, 10)) for _ in range(t)]
        samples.append(DurationSample.from_durations(phones, durs))
    return samples


# --- noam schedule ----------------------------------------------------------


def test_peak_value_at_warmup_boundary():
    lr = noam_lr(25000, full_config())
    assert abs(lr - 3.9528470752104745e-07) < 1e-18


def test_first_step_sits_on_the_ramp():
    lr = noam_lr(1, full_config())
    assert abs(lr - 1.5811388300841897e-11) < 1e-22


def test_decay_after_warmup():
    cfg = full_config()
    assert noam_lr(50000, cfg) < noam_lr(25000, cfg)


def test_ramp_is_monotone_before_warmup():
    cfg = quick_cfg()
    values = [noam_lr(s, cfg) for s in range(1, cfg.warmup_steps + 1)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_branches_agree_at_warmup():
    cfg = quick_cfg()
    w = cfg.warmup_steps
    ramp = cfg.lr_scale * cfg.embed_dim**-0.5 * w * w**-1.5
    decay = cfg.lr_scale * cfg.embed_dim**-0.5 * w**-0.5
    assert abs(ramp - decay) / decay < 1e-12
    assert abs(noam_lr(w, cfg) - decay) / decay < 1e-12


def test_step_zero_rejected():
    with pytest.raises(DataError):
        noam_lr(0, quick_cfg())


# --- train loop -------------------------------------------------------------


def test_same_seed_reproduces_the_log_bitwise():
    data = toy_dataset(8, seed=1)
    val = toy_dataset(3, seed=2)
    p1, log1 = train(data, quick_cfg(seed=5), val, num_phones=6, epochs=3)
    p2, log2 = train(data, quick_cfg(seed=5), val, num_phones=6, epochs=3)
    assert log1 == log2
    assert evaluate_mae(p1, quick_cfg(seed=5), val) == evaluate_mae(
        p2, quick_cfg(seed=5), val
    )


def test_different_seed_changes_the_run():
    data = toy_dataset(8, seed=1)
    val = toy_dataset(3, seed=2)
    _, log1 = train(data, quick_cfg(seed=5), val, num_phones=6, epochs=2)
    _, log2 = train(data, quick_cfg(seed=6), val, num_phones=6, epochs=2)
    assert log1 != log2


def test_returned_params_carry_best_validation_mae():
    cfg = quick_cfg(seed=3)
    data = toy_dataset(10, seed=4)
    val = toy_dataset(4, seed=5)
    params, log = train(data, cfg, val, num_phones=6, epochs=5)
    best_logged = min(e.val_mae for e in log)
    got = evaluate_mae(params, cfg, val)
    assert abs(got - best_logged) <= 1e-12
    assert got <= log[0].val_mae


def test_log_has_one_entry_per_epoch():
    data = toy_dataset(6, seed=6)
    val = toy_dataset(2, seed=7)
    _, log = train(data, quick_cfg(), val, num_phones=6, epochs=4)
    assert [e.epoch for e in log] == [1, 2, 3, 4]
    assert all(isinstance(e, TrainLogEntry) for e in log)


def test_callback_sees_every_epoch():
    seen = []
    data = toy_dataset(6, seed=8)
    val = toy_dataset(2, seed=9)
    train(data, quick_cfg(), val, num_phones=6, epochs=3, callback=seen.append)
    assert [e.epoch for e in seen] == [1, 2, 3]


def test_empty_dataset_rejected():
    with pytest.raises(DataError):
        train([], quick_cfg(), [], num_phones=4, epochs=1)


def test_overlong_sample_rejected():
    cfg = quick_cfg()
    long = DurationSample.from_durations([0] * 13, [3.0] * 13)
    with pytest.raises(DataError):
        train([long], cfg, [], num_phones=4, epochs=1)


def test_divergence_reports_numeric_error_with_step():
    # astronomically large duration overflows the speed pathway to NaN
    bad = DurationSample((1,), (1e308,))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="step"):
        train([bad], desk_config(seed=0), [bad], num_phones=5, epochs=1)


def test_overfit_trace_shrinks_loss():
    sample = DurationSample.from_durations([1, 4, 2], [4.0, 7.0, 3.0])
    cfg = quick_cfg(seed=11)
    _, trace = overfit_single(sample, cfg, num_phones=6, max_steps=300)
    assert len(trace) <= 300
    assert trace[-1] < trace[0]


# Recorded with the earlier implementation, which ran every layer on the
# padded (B, T, d) batch and took weight gradients with einsum. Packing the
# real tokens only reorders floating-point sums, and dropout masks are still
# drawn at (B, T, d), so the seeded run must agree to 1e-12.
PINNED_LOG = [
    (8.91039390583545, 9.122448422207867),
    (7.505788160949545, 6.456824752537158),
    (5.086171755839438, 4.119561505148193),
]
# tensor name -> (sum, sum of absolute values) of the returned parameters
PINNED_SUMS = {
    "phone_embeddings": (-1.3600149763679368, 106.29088132081586),
    "speed_projection": (1.2562296339849952, 9.992074573381025),
    "blocks[0].attn_query": (-6.908421597864648, 446.39521963433236),
    "blocks[0].ln1_gain": (63.98906593495641, 63.98906593495641),
    "blocks[1].ffn_out": (12.06589111947319, 1120.8161305501833),
    "blocks[1].log_sigma": (4.396087811834827, 4.396087811834827),
    "out_weight": (-0.5781326221053047, 9.600343467511893),
    "out_bias": (0.0018186827163275163, 0.0018186827163275163),
}


def test_desk_training_matches_pinned_trajectory():
    rng = np.random.default_rng(11)
    data = []
    for _ in range(48):
        t = int(rng.integers(1, 21))
        data.append(DurationSample.from_durations(
            rng.integers(0, 12, size=t).tolist(),
            rng.integers(1, 15, size=t).astype(float).tolist(),
        ))
    cfg = dataclasses.replace(desk_config(seed=7), batch_size=8)
    params, log = train(data[:40], cfg, data[40:], num_phones=12, epochs=3)
    got_log = [(e.train_loss, e.val_mae) for e in log]
    np.testing.assert_allclose(got_log, PINNED_LOG, rtol=1e-12, atol=1e-12)
    tensors = dict(iter_tensors(params))
    for name, sums in PINNED_SUMS.items():
        got = (tensors[name].sum(), np.abs(tensors[name]).sum())
        np.testing.assert_allclose(got, sums, rtol=1e-12, atol=1e-12, err_msg=name)


# --- workspace --------------------------------------------------------------


def desk_batch(batch, length, seed, num_phones=12):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, length + 1, size=batch)
    lengths[0] = length
    return _pad_batch([
        DurationSample.from_durations(
            rng.integers(0, num_phones, size=n).tolist(),
            rng.integers(1, 15, size=n).astype(float).tolist(),
        )
        for n in lengths
    ])


# A training step that allocated every activation and gradient afresh took
# 22.1 MiB on a 64 x 15 desk batch; steps sharing a workspace reuse those.
FRESH_STEP_MIB = 22.1


def test_steps_sharing_a_workspace_allocate_little():
    cfg = desk_config(seed=0)
    params = init_params(cfg, 12, np.random.default_rng(0))
    batch = desk_batch(64, 15, seed=1)
    rng = np.random.default_rng(2)
    ws = Workspace()
    masked_l1_and_grads(params, cfg, *batch, train=True, rng=rng, workspace=ws)
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(3):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            masked_l1_and_grads(params, cfg, *batch, train=True, rng=rng,
                                workspace=ws)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / 2**20)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 0.25 * FRESH_STEP_MIB, peaks


def test_shared_workspace_matches_a_fresh_one_per_call():
    # Buffers grow and shrink between batches, and evaluation runs in the
    # same workspace between steps, as in train().
    cfg = desk_config(seed=3)
    params = init_params(cfg, 12, np.random.default_rng(4))
    val = [DurationSample.from_durations([1, 5, 2, 9], [3.0, 6.0, 2.0, 7.0]),
           DurationSample.from_durations([4] * 17, [5.0] * 17)]
    shared = Workspace()
    for j, (b, t) in enumerate([(8, 12), (3, 20), (16, 4), (1, 1), (5, 20)]):
        phone_ids, speeds, targets, mask = desk_batch(b, t, seed=10 + j)
        runs = []
        for ws in (shared, None):
            loss, grads = masked_l1_and_grads(
                params, cfg, phone_ids, speeds, targets, mask, train=True,
                rng=np.random.default_rng(j), workspace=ws)
            grads = clone_params(grads)
            mae = evaluate_mae(params, cfg, val, ws)
            preds = _forward_batch(params, cfg, phone_ids, speeds, mask, False,
                                   None, shared if ws is shared else Workspace())
            runs.append((loss, grads, mae, preds))
        (loss_s, grads_s, mae_s, preds_s), (loss_f, grads_f, mae_f, preds_f) = runs
        assert loss_s == loss_f and mae_s == mae_f
        assert np.array_equal(preds_s, preds_f)
        for (name, gs), (_, gf) in zip(iter_tensors(grads_s), iter_tensors(grads_f)):
            assert np.array_equal(gs, gf), (j, name)

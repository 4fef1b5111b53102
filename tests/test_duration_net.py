"""Duration network building blocks: bias, attention, encoding, forward pass."""

import dataclasses
import math

import numpy as np
import pytest

from cagop.duration import (
    DurationNetConfig,
    DurationSample,
    attention,
    clone_params,
    desk_config,
    evaluate_mae,
    forward,
    full_config,
    init_params,
    iter_tensors,
    predict_durations,
    predict_durations_batch,
    sinusoidal_encoding,
    tiny_config,
    zeros_params,
)
from cagop.duration.net import Workspace, _pad_batch, masked_l1_and_grads
from cagop.formats import read_checkpoint, write_checkpoint
from cagop.model import DataError


def small_cfg(**kw):
    base = dict(
        embed_dim=8,
        num_blocks=2,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.0,
        max_seq_len=16,
        lr_scale=1.0,
        warmup_steps=10,
        batch_size=4,
        seed=0,
    )
    base.update(kw)
    return DurationNetConfig(**base)


# --- configs ---------------------------------------------------------------


def test_full_config_matches_documented_sizes():
    cfg = full_config()
    assert (cfg.embed_dim, cfg.num_blocks, cfg.num_heads, cfg.ffn_dim) == (
        256,
        6,
        4,
        1024,
    )
    assert cfg.dropout_rate == 0.1
    assert cfg.max_seq_len == 100
    assert cfg.warmup_steps == 25000
    assert cfg.batch_size == 64
    assert cfg.lr_scale == 0.001


def test_embed_dim_must_divide_by_heads():
    with pytest.raises(DataError):
        small_cfg(embed_dim=10, num_heads=4)


def test_dropout_range_enforced():
    with pytest.raises(DataError):
        small_cfg(dropout_rate=1.0)
    with pytest.raises(DataError):
        small_cfg(dropout_rate=-0.1)


def test_tiny_and_desk_configs_are_valid():
    assert tiny_config().dropout_rate == 0.0
    assert desk_config().embed_dim == 64
    assert desk_config().head_dim * desk_config().num_heads == 64


# --- attention ----------------------------------------------------------------
#
# attention() is the function the forward pass calls; inputs are (B, H, T, d_h)
# heads, one log-sigma per head and a (B, T) mask of real tokens.


def attention_buffers(q):
    """Empty (weights, context) arrays for attention() over (B, H, T, d_h)."""
    b, h, t, _ = q.shape
    return np.empty((b, h, t, t)), np.empty(q.shape)


def attend(q, k, v, sigma, mask=None):
    """attention() on one head of one sequence; q, k, v are (T, d_h)."""
    heads = [np.asarray(a, dtype=np.float64)[None, None] for a in (q, k, v)]
    if mask is None:
        mask = np.ones((1, len(q)), dtype=bool)
    probs, context = attention(*heads, np.log([sigma]), mask,
                               out=attention_buffers(heads[0]))
    return probs[0, 0], context[0, 0]


def bias_of(t, sigma):
    """The Gaussian bias, read back from the weights of zero queries."""
    z = np.zeros((t, 2))
    probs, _ = attend(z, z, z, sigma)
    return np.log(probs) - np.log(np.diag(probs))[:, None]


def test_bias_diagonal_is_zero():
    for t in (1, 4, 9):
        b = bias_of(t, 1.7)
        assert np.all(np.diag(b) == 0.0)
        assert np.all(b <= 0.0)


def test_bias_unit_sigma_unit_offset():
    b = bias_of(3, 1.0)
    assert abs(b[0, 1] - (-1.0)) < 1e-14
    assert abs(b[2, 1] - (-1.0)) < 1e-14


def test_bias_quarter_case():
    assert abs(bias_of(5, 2.0)[0, 3] - (-2.25)) < 1e-14


def test_bias_symmetry():
    for t in (2, 5, 16):
        b = bias_of(t, 0.9)
        assert np.allclose(b, b.T, rtol=0, atol=1e-12)


def test_attention_single_position_returns_value_row():
    rng = np.random.default_rng(0)
    q, k, v = rng.normal(size=(3, 1, 4))
    _, out = attend(q, k, v, 1.0)
    assert np.allclose(out, v, rtol=0, atol=1e-15)


def test_attention_zero_queries_average_values():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(2, 4))
    z = np.zeros((2, 4))
    _, out = attend(z, z, v, 1e9)
    assert np.allclose(out, np.tile(v.mean(axis=0), (2, 1)), rtol=0, atol=1e-14)


def test_attention_saturated_bias_selects_position():
    # sigma 1e-3 puts -1e6 on every off-diagonal score, so each query
    # attends to its own position
    rng = np.random.default_rng(2)
    q, k, v = rng.normal(size=(3, 4, 4))
    probs, out = attend(q, k, v, 1e-3)
    assert np.array_equal(probs, np.eye(4))
    assert np.allclose(out, v, rtol=0, atol=1e-15)


def test_attention_rows_normalize_even_with_huge_negative_bias():
    # padded keys carry a -1e30 bias; their weight must be exactly zero
    rng = np.random.default_rng(3)
    t = 5
    q, k, v = rng.normal(size=(3, 2, 3, t, 4))
    mask = np.array([[True] * t, [True, True, False, False, False]])
    probs, _ = attention(q, k, v, np.log([0.5, 4.0, 1e6]), mask,
                         out=attention_buffers(q))
    assert np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(probs[1, :, :, 2:] == 0.0)


def test_large_sigma_bias_vanishes():
    t = 6
    rng = np.random.default_rng(4)
    q, k, v = rng.normal(size=(3, t, 3))
    _, biased = attend(q, k, v, 1e9)
    scores = q @ k.T / np.sqrt(3)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    unbiased = weights / weights.sum(axis=1, keepdims=True) @ v
    assert np.allclose(biased, unbiased, rtol=0, atol=1e-9)


# --- positional encoding ----------------------------------------------------


def test_sinusoidal_values_match_formula():
    enc = sinusoidal_encoding(5, 8)
    for pos in range(5):
        for i in range(4):
            angle = pos / (10000.0 ** (2 * i / 8))
            assert abs(enc[pos, 2 * i] - math.sin(angle)) < 1e-12
            assert abs(enc[pos, 2 * i + 1] - math.cos(angle)) < 1e-12


def test_sinusoidal_first_position():
    enc = sinusoidal_encoding(3, 6)
    assert np.array_equal(enc[0, 0::2], np.zeros(3))
    assert np.array_equal(enc[0, 1::2], np.ones(3))


# --- forward ----------------------------------------------------------------


def test_output_length_tracks_input():
    cfg = small_cfg()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, num_phones=6, rng=rng)
    for t in (1, 7, 16):
        phones = list(range(t % 6)) + [0] * (t - t % 6)
        out = forward(params, cfg, phones[:t], speed=5.0)
        assert out.shape == (t,)


def test_full_length_sequence_supported():
    cfg = small_cfg(max_seq_len=100)
    params = init_params(cfg, num_phones=4, rng=np.random.default_rng(0))
    out = forward(params, cfg, [1] * 100, speed=4.0)
    assert out.shape == (100,)


def test_eval_forward_is_bitwise_deterministic():
    cfg = small_cfg()
    params = init_params(cfg, num_phones=5, rng=np.random.default_rng(1))
    a = forward(params, cfg, [0, 3, 2, 4], speed=6.0)
    b = forward(params, cfg, [0, 3, 2, 4], speed=6.0)
    assert np.array_equal(a, b)


def test_zeroed_head_predicts_its_bias():
    cfg = small_cfg()
    params = zeros_params(cfg, num_phones=5)
    for name, tensor in iter_tensors(params):
        if "gain" in name:
            tensor[:] = 1.0  # neutral layer norm
    params.out_bias[:] = 2.5
    out = forward(params, cfg, [0, 1, 2], speed=3.0)
    assert np.allclose(out, 2.5, rtol=0, atol=1e-12)


def test_sequence_length_cap_enforced():
    cfg = small_cfg(max_seq_len=4)
    params = init_params(cfg, num_phones=4, rng=np.random.default_rng(2))
    with pytest.raises(DataError):
        forward(params, cfg, [0] * 5, speed=2.0)


def test_invalid_phone_index_rejected():
    cfg = small_cfg()
    params = init_params(cfg, num_phones=3, rng=np.random.default_rng(3))
    with pytest.raises(DataError):
        forward(params, cfg, [0, 7], speed=2.0)


def test_speed_scalar_reaches_the_network():
    cfg = small_cfg()
    params = init_params(cfg, num_phones=4, rng=np.random.default_rng(4))
    slow = forward(params, cfg, [1, 2, 3], speed=3.0)
    fast = forward(params, cfg, [1, 2, 3], speed=9.0)
    assert not np.allclose(slow, fast)


def test_train_mode_dropout_is_seeded():
    cfg = small_cfg(dropout_rate=0.3)
    params = init_params(cfg, num_phones=4, rng=np.random.default_rng(5))
    a = forward(params, cfg, [0, 1], 4.0, train=True, rng=np.random.default_rng(7))
    b = forward(params, cfg, [0, 1], 4.0, train=True, rng=np.random.default_rng(7))
    c = forward(params, cfg, [0, 1], 4.0, train=True, rng=np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- loss, samples, prediction ----------------------------------------------


def test_sample_speed_must_be_mean_duration():
    # the speed is derived, so a sample with another speed cannot be built
    assert DurationSample((0, 1), (4.0, 6.0)).speed == 5.0
    with pytest.raises(TypeError):
        DurationSample((0, 1), (4.0, 6.0), 5.5)


def test_sample_from_durations_sets_speed():
    s = DurationSample.from_durations([3, 1], [2.0, 8.0])
    assert s.speed == 5.0
    assert len(s) == 2


def test_sample_durations_must_be_positive():
    with pytest.raises(DataError):
        DurationSample((0,), (0.0,))


def test_predictions_are_clamped_to_one_frame():
    cfg = small_cfg()
    params = zeros_params(cfg, num_phones=4)
    for name, tensor in iter_tensors(params):
        if "gain" in name:
            tensor[:] = 1.0
    params.out_bias[:] = -7.0  # raw forward output is -7 everywhere
    out = predict_durations(params, cfg, [0, 1], speed=2.0)
    assert np.array_equal(out, np.ones(2))


def test_evaluate_mae_matches_per_sample_forward():
    cfg = small_cfg(batch_size=3)
    params = init_params(cfg, num_phones=6, rng=np.random.default_rng(9))
    rng = np.random.default_rng(10)
    samples = []
    for _ in range(7):
        t = int(rng.integers(1, 9))
        phones = [int(p) for p in rng.integers(0, 6, size=t)]
        durs = [float(d) for d in rng.integers(2, 12, size=t)]
        samples.append(DurationSample.from_durations(phones, durs))
    # padded batching must not change real-token predictions
    expected_abs = 0.0
    count = 0
    for s in samples:
        pred = forward(params, cfg, s.phones, s.speed)
        expected_abs += float(np.abs(pred - np.asarray(s.durations)).sum())
        count += len(s)
    assert abs(evaluate_mae(params, cfg, samples) - expected_abs / count) <= 1e-9


def test_batched_prediction_matches_per_sequence_forward():
    # 100 sequences of lengths 1..100 in chunks of 9: eleven full chunks,
    # then a final chunk of one sequence
    cfg = small_cfg(batch_size=9, max_seq_len=100)
    params = init_params(cfg, num_phones=6, rng=np.random.default_rng(11))
    rng = np.random.default_rng(12)
    sequences = [
        ([int(p) for p in rng.integers(0, 6, size=t)], float(rng.uniform(2, 9)))
        for t in rng.permutation(np.arange(1, 101))
    ]
    batched = predict_durations_batch(params, cfg, sequences)
    assert len(batched) == len(sequences)
    for (phones, speed), got in zip(sequences, batched):
        want = np.maximum(forward(params, cfg, phones, speed), 1.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(predict_durations(params, cfg, phones, speed),
                              predict_durations_batch(params, cfg,
                                                      [(phones, speed)])[0])


# --- parameter layout -------------------------------------------------------


def _params_from(source, tmp_path):
    cfg = small_cfg(dropout_rate=0.1)
    params = init_params(cfg, num_phones=6, rng=np.random.default_rng(13))
    if source == "init_params":
        return params
    if source == "zeros_params":
        return zeros_params(cfg, num_phones=6)
    if source == "clone_params":
        clone = clone_params(params)
        assert not np.shares_memory(clone.flat, params.flat)
        return clone
    if source == "read_checkpoint":
        write_checkpoint(tmp_path / "net.ckpt", params, cfg)
        return read_checkpoint(tmp_path / "net.ckpt")[0]
    batch = _pad_batch([DurationSample.from_durations([1, 4, 2], [3.0, 5.0, 2.0]),
                        DurationSample.from_durations([5], [7.0])])
    _, grads = masked_l1_and_grads(params, cfg, *batch, train=True,
                                   rng=np.random.default_rng(14),
                                   workspace=Workspace())
    return grads


@pytest.mark.parametrize("source", ["init_params", "zeros_params",
                                    "clone_params", "read_checkpoint",
                                    "gradients"])
def test_every_tensor_is_a_view_of_flat(source, tmp_path):
    params = _params_from(source, tmp_path)
    tensors = list(iter_tensors(params))
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1
    assert params.flat.size == sum(t.size for _, t in tensors)
    params.flat[:] = np.arange(params.flat.size)
    offset = 0
    for name, tensor in tensors:
        assert np.shares_memory(tensor, params.flat), name
        assert np.array_equal(tensor.ravel(),
                              np.arange(offset, offset + tensor.size)), name
        offset += tensor.size


def test_tensor_attributes_cannot_be_rebound():
    params = zeros_params(small_cfg(), num_phones=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.out_bias = np.ones(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.blocks[0].log_sigma = np.ones(2)

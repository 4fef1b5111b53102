"""Analytic gradients versus central finite differences on the tiny network."""

import numpy as np

from cagop.duration import (
    DurationSample,
    backward,
    init_params,
    iter_tensors,
    tiny_config,
    zeros_params,
)
from cagop.duration.net import _pad_batch, masked_l1_and_grads
from oracles import gradient_check

SAMPLE = DurationSample.from_durations([3, 7, 1, 5, 2], [4.0, 9.0, 3.0, 6.0, 5.0])


def test_every_tensor_matches_finite_differences():
    cfg = tiny_config(seed=0)
    params = init_params(cfg, num_phones=8, rng=np.random.default_rng(0))
    worst = gradient_check(params, cfg, SAMPLE, step=1e-5, max_entries_per_tensor=3)
    assert worst < 1e-4


def test_gradients_mirror_parameter_structure():
    cfg = tiny_config(seed=1)
    params = init_params(cfg, num_phones=8, rng=np.random.default_rng(1))
    _, grads = backward(params, cfg, SAMPLE)
    p_names = [(n, t.shape) for n, t in iter_tensors(params)]
    g_names = [(n, t.shape) for n, t in iter_tensors(grads)]
    assert p_names == g_names
    for _, g in iter_tensors(grads):
        assert np.all(np.isfinite(g))


def test_log_sigma_gradient_agrees_with_loss_perturbation():
    cfg = tiny_config(seed=2)
    params = init_params(cfg, num_phones=8, rng=np.random.default_rng(2))
    loss0, grads = backward(params, cfg, SAMPLE)
    g = grads.blocks[0].log_sigma[0]
    assert g != 0.0

    h = 1e-5
    params.blocks[0].log_sigma[0] += h
    loss_up, _ = backward(params, cfg, SAMPLE)
    params.blocks[0].log_sigma[0] -= 2 * h
    loss_dn, _ = backward(params, cfg, SAMPLE)
    fd = (loss_up - loss_dn) / (2 * h)
    assert np.sign(fd) == np.sign(g)
    assert abs(fd - g) / max(abs(fd), abs(g)) < 1e-4
    assert loss0 > 0.0


def test_padded_batch_gradients_are_token_weighted_sample_gradients():
    # The training path: one padded batch through masked_l1_and_grads gives
    # the token-weighted mean (n_i / N) of the unpadded per-sample results.
    cfg = tiny_config(seed=3)
    params = init_params(cfg, num_phones=8, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    samples = [
        DurationSample.from_durations(
            rng.integers(0, 8, size=n).tolist(),
            rng.integers(1, 12, size=n).astype(float).tolist(),
        )
        for n in (1, 3, 5, 7)
    ]
    total = sum(len(s) for s in samples)
    expected_loss = 0.0
    expected = zeros_params(cfg, params.num_phones)
    for s in samples:
        loss, grads = backward(params, cfg, s)
        expected_loss += loss * len(s) / total
        for (_, e), (_, g) in zip(iter_tensors(expected), iter_tensors(grads)):
            e += g * (len(s) / total)

    loss, grads = masked_l1_and_grads(params, cfg, *_pad_batch(samples))
    assert abs(loss - expected_loss) <= 1e-12
    for (name, e), (_, g) in zip(iter_tensors(expected), iter_tensors(grads)):
        assert np.max(np.abs(g - e)) <= 1e-12, name

"""Self-attention phone-duration predictor with analytic gradients.

The network maps a phone-index sequence plus an utterance speed scalar to a
per-phone duration in frames. Attention scores carry an additive local
Gaussian bias -(j-k)^2 / sigma^2 with one learnable sigma per head per
block (stored as log-sigma to keep it positive). Everything runs in
float64 numpy with hand-written reverse-mode gradients so training stays
dependency-free and exactly checkable against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from ..model import DataError, utterance_speeds

LN_EPS = 1e-5
MASK_NEG = -1e30
SIGMA_INIT = 3.0


@dataclass(frozen=True)
class DurationNetConfig:
    """Architecture and training hyperparameters."""

    embed_dim: int = 256
    num_blocks: int = 6
    num_heads: int = 4
    ffn_dim: int = 1024
    dropout_rate: float = 0.1
    max_seq_len: int = 100
    lr_scale: float = 0.001
    warmup_steps: int = 25000
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("embed_dim", "num_blocks", "num_heads", "ffn_dim",
                     "max_seq_len", "warmup_steps", "batch_size"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.embed_dim % self.num_heads != 0:
            raise DataError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


def full_config(seed: int = 0) -> DurationNetConfig:
    """The full-size configuration."""
    return DurationNetConfig(seed=seed)


def desk_config(seed: int = 0) -> DurationNetConfig:
    """Scaled-down configuration for laptop-scale experiments and tests."""
    return DurationNetConfig(
        embed_dim=64,
        num_blocks=2,
        num_heads=4,
        ffn_dim=256,
        dropout_rate=0.1,
        max_seq_len=100,
        lr_scale=1.0,
        warmup_steps=400,
        batch_size=64,
        seed=seed,
    )


def tiny_config(seed: int = 0) -> DurationNetConfig:
    """Minimal configuration used by gradient checks."""
    return DurationNetConfig(
        embed_dim=8,
        num_blocks=2,
        num_heads=2,
        ffn_dim=16,
        dropout_rate=0.0,
        max_seq_len=16,
        lr_scale=1.0,
        warmup_steps=10,
        batch_size=4,
        seed=seed,
    )


@dataclass(frozen=True)
class DurationSample:
    """One training sequence: phones, target durations, and their mean speed."""

    phones: tuple[int, ...]
    durations: tuple[float, ...]
    speed: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phones", tuple(int(p) for p in self.phones))
        object.__setattr__(self, "durations", tuple(float(d) for d in self.durations))
        if not self.phones:
            raise DataError("duration sample has no phones")
        if len(self.phones) != len(self.durations):
            raise DataError("phones and durations differ in length")
        if any(d <= 0 for d in self.durations):
            raise DataError("durations must be positive")
        speed = utterance_speeds(np.array(self.durations), [len(self.phones)])
        object.__setattr__(self, "speed", float(speed[0]))

    @classmethod
    def from_durations(
        cls, phones: Sequence[int], durations: Sequence[float]
    ) -> "DurationSample":
        return cls(tuple(phones), tuple(durations))

    def __len__(self) -> int:
        return len(self.phones)


@dataclass(frozen=True)
class BlockParams:
    attn_query: np.ndarray
    attn_key: np.ndarray
    attn_value: np.ndarray
    attn_out: np.ndarray
    ffn_in: np.ndarray
    ffn_in_bias: np.ndarray
    ffn_out: np.ndarray
    ffn_out_bias: np.ndarray
    ln1_gain: np.ndarray
    ln1_offset: np.ndarray
    ln2_gain: np.ndarray
    ln2_offset: np.ndarray
    log_sigma: np.ndarray


@dataclass(frozen=True)
class DurationNetParams:
    """All trainable tensors; gradient objects share this structure.

    ``flat`` is one float64 vector holding every tensor, and each tensor is
    a reshaped view of its slice of it, in ``iter_tensors`` order. Writing
    a tensor writes ``flat`` and the other way round. Tensors change only
    in place: the dataclasses are frozen, so no attribute can be rebound.
    """

    phone_embeddings: np.ndarray
    speed_projection: np.ndarray
    blocks: list[BlockParams]
    out_weight: np.ndarray
    out_bias: np.ndarray
    flat: np.ndarray = field(repr=False)

    @property
    def num_phones(self) -> int:
        return self.phone_embeddings.shape[0]


_BLOCK_FIELDS = tuple(f.name for f in fields(BlockParams))


def iter_tensors(params: DurationNetParams) -> Iterator[tuple[str, np.ndarray]]:
    """All tensors in fixed declaration order (names are stable paths)."""
    yield "phone_embeddings", params.phone_embeddings
    yield "speed_projection", params.speed_projection
    for i, block in enumerate(params.blocks):
        for name in _BLOCK_FIELDS:
            yield f"blocks[{i}].{name}", getattr(block, name)
    yield "out_weight", params.out_weight
    yield "out_bias", params.out_bias


def param_shapes(
    cfg: DurationNetConfig, num_phones: int
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, lazily and in ``iter_tensors`` order."""
    if num_phones < 1:
        raise DataError("need at least one phone")
    d, f, h = cfg.embed_dim, cfg.ffn_dim, cfg.num_heads
    block = (("attn_query", (d, d)), ("attn_key", (d, d)),
             ("attn_value", (d, d)), ("attn_out", (d, d)),
             ("ffn_in", (d, f)), ("ffn_in_bias", (f,)), ("ffn_out", (f, d)),
             ("ffn_out_bias", (d,)), ("ln1_gain", (d,)), ("ln1_offset", (d,)),
             ("ln2_gain", (d,)), ("ln2_offset", (d,)), ("log_sigma", (h,)))
    return chain(
        [("phone_embeddings", (num_phones, d)), ("speed_projection", (1, d))],
        ((f"blocks[{i}].{name}", shape)
         for i in range(cfg.num_blocks) for name, shape in block),
        [("out_weight", (d, 1)), ("out_bias", (1,))],
    )


def _carve(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> DurationNetParams:
    """A params object whose tensors are consecutive slices of ``flat``."""
    bounds = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    views = iter([part.reshape(shape)
                  for part, shape in zip(np.split(flat, bounds), shapes)])
    num_blocks = (len(shapes) - 4) // len(_BLOCK_FIELDS)
    return DurationNetParams(
        next(views), next(views),
        [BlockParams(*islice(views, len(_BLOCK_FIELDS)))
         for _ in range(num_blocks)],
        next(views), next(views), flat,
    )


def _shapes(params: DurationNetParams) -> list[tuple[int, ...]]:
    return [t.shape for _, t in iter_tensors(params)]


def zeros_params(cfg: DurationNetConfig, num_phones: int) -> DurationNetParams:
    """All-zero tensors with the shapes init_params would produce."""
    shapes = [shape for _, shape in param_shapes(cfg, num_phones)]
    return _carve(np.zeros(sum(map(math.prod, shapes))), shapes)


def clone_params(params: DurationNetParams) -> DurationNetParams:
    return _carve(params.flat.copy(), _shapes(params))


def init_params(
    cfg: DurationNetConfig, num_phones: int, rng: np.random.Generator
) -> DurationNetParams:
    """Glorot-uniform weights, zero biases, unit layer-norm gains.

    Tensors are drawn in declaration order, so a given rng state fixes the
    initialization bit for bit.
    """
    params = zeros_params(cfg, num_phones)
    for name, tensor in iter_tensors(params):
        if tensor.ndim == 2:
            fan_in, fan_out = tensor.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            tensor[...] = rng.uniform(-limit, limit, size=tensor.shape)
        elif name.endswith("_gain"):
            tensor.fill(1.0)
        elif name.endswith("log_sigma"):
            tensor.fill(np.log(SIGMA_INIT))
    return params


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional encoding, shape (length, dim)."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    half = np.arange(0, dim, 2, dtype=np.float64)
    rates = np.power(10000.0, -half / dim)
    angles = positions * rates[None, :]
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles[:, : dim // 2])
    return enc


class Workspace:
    """Scratch float64 buffers shared by the steps of one call.

    ``take(key, shape)`` hands out a C-contiguous view of the flat buffer
    kept for ``key``, a role such as ``(block, "relu")``, and grows that
    buffer only when a larger shape arrives; ``workspace[key]`` is the view
    handed out last for that role. A view holds whatever its role's last
    writer left there. ``train()`` and each prediction or evaluation call
    make one workspace and drop it when they return: buffers are reused
    within one call, and nothing outlives it.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}
        self._views: dict = {}

    def take(self, key, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        view = self._views[key] = buf[:size].reshape(shape)
        return view

    def __getitem__(self, key) -> np.ndarray:
        return self._views[key]


def _squared_offsets(length: int) -> np.ndarray:
    """(j - k)^2 for every pair of positions, shape (length, length)."""
    positions = np.arange(length, dtype=np.float64)
    return (positions[:, None] - positions[None, :]) ** 2


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    log_sigma: np.ndarray,
    mask: np.ndarray,
    out: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over zero-padded heads.

    q, k, v are (B, H, T, d_h); log_sigma is (H,); mask is (B, T) with True
    at real tokens. Head h adds the local Gaussian bias -(j-k)^2 / sigma_h^2
    to its scores, and padded keys get exactly zero weight. Returns the
    attention weights (B, H, T, T) and the context (B, H, T, d_h), written
    into ``out`` = (weights, context).
    """
    sigma = np.exp(log_sigma)
    bias = -_squared_offsets(mask.shape[1])[None] / (sigma ** 2)[:, None, None]
    key_bias = np.where(mask, 0.0, MASK_NEG)[:, None, None, :]
    scale = 1.0 / np.sqrt(q.shape[-1])
    probs, context = out
    np.matmul(q, k.transpose(0, 1, 3, 2), out=probs)
    probs *= scale
    probs += bias[None]
    probs += key_bias
    probs -= probs.max(axis=-1, keepdims=True)  # softmax over the keys
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    np.matmul(probs, v, out=context)
    return probs, context


def _dropout_keep(
    rng: np.random.Generator, mask: np.ndarray, rate: float,
    draws: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    # Inverted dropout: multiply by keep/(1-rate) so eval needs no scaling.
    # Drawn for every (B, T, d) slot of ``draws`` and then packed to the real
    # tokens, so the rng stream is the same however the tokens are laid out.
    rng.random(out=draws)
    return np.divide((draws >= rate)[mask], 1.0 - rate, out=out)


def _layer_norm_forward(x, gain, offset, out, xhat, inv_std):
    """Layer norm of x (N, d) into ``out``, overwriting x.

    Fills ``xhat`` (N, d) and ``inv_std`` (N, 1) for the backward pass.
    """
    mean = x.mean(axis=-1, keepdims=True)
    centered = np.subtract(x, mean, out=xhat)
    var = np.multiply(centered, centered, out=x).mean(axis=-1, keepdims=True)
    np.divide(1.0, np.sqrt(var + LN_EPS), out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, gain, out=out)
    out += offset
    return out


def _layer_norm_backward(dy, gain, xhat, inv_std, dgain, doffset, out, scratch):
    """d(loss)/d(input) of a layer norm into ``out``; fills dgain, doffset.

    ``scratch`` is an (N, d) buffer it may overwrite.
    """
    dxhat = np.multiply(dy, gain, out=scratch)
    dxhat_mean = dxhat.mean(axis=-1, keepdims=True)
    proj_mean = np.multiply(dxhat, xhat, out=out).mean(axis=-1, keepdims=True)
    dgain[:] = np.multiply(dy, xhat, out=out).sum(axis=0)
    doffset[:] = dy.sum(axis=0)
    np.subtract(dxhat, dxhat_mean, out=out)
    out -= np.multiply(xhat, proj_mean, out=scratch)
    out *= inv_std
    return out


def _heads(tokens: np.ndarray, num_heads: int) -> np.ndarray:
    """The (B, H, T, d_h) head view of a token-major (B, T, d) array."""
    b, t, d = tokens.shape
    return tokens.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _pad_heads(
    x: np.ndarray, mask: np.ndarray, num_heads: int, out: np.ndarray
) -> np.ndarray:
    """Scatter packed (N, d) token rows into zero-padded (B, T, d) ``out``.

    Returns its (B, H, T, d_h) head view.
    """
    out.fill(0.0)
    out[mask] = x
    return _heads(out, num_heads)


def _pack_heads(tokens: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather the real tokens of a (B, T, d) array into packed (N, d) ``out``.

    Head products are written into the (B, H, T, d_h) head view of
    ``tokens``, so the gather reads them in token order with no transpose.
    """
    b, t, d = tokens.shape
    return np.compress(mask.ravel(), tokens.reshape(b * t, d), axis=0, out=out)


def _dropout_on(cfg: DurationNetConfig, train: bool) -> bool:
    return train and cfg.dropout_rate > 0.0


def _forward_batch(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phone_ids: np.ndarray,
    speeds: np.ndarray,
    mask: np.ndarray,
    train: bool,
    rng: Optional[np.random.Generator],
    ws: Workspace,
) -> np.ndarray:
    """Batched forward pass; returns (B, T) predictions.

    phone_ids: (B, T) int; speeds: (B,); mask: (B, T) bool with True at real
    tokens. The position-wise layers (projections, layer norms, FFN, dropout
    and output head) run on the N real tokens packed into (N, d). Only the
    attention scores and context use zero-padded (B, H, T, d_h) heads, where
    padded keys get exactly zero weight. Padded outputs are 0. Activations
    stay in ``ws`` under their roles, where ``_backward_batch`` reads them;
    the returned predictions are a fresh array.
    """
    batch, length = phone_ids.shape
    if length > cfg.max_seq_len:
        raise DataError(f"sequence length {length} exceeds {cfg.max_seq_len}")
    if phone_ids.min() < 0 or phone_ids.max() >= params.num_phones:
        raise DataError("phone index outside embedding table")
    if train and rng is None:
        raise DataError("training-mode forward needs an rng for dropout")
    dropping = _dropout_on(cfg, train)
    d, h, f, rate = cfg.embed_dim, cfg.num_heads, cfg.ffn_dim, cfg.dropout_rate

    rows, cols = np.nonzero(mask)
    packed = (rows.size, d)
    tmp = ws.take("tmp", packed)
    # (B, T, d) scratch for dropout draws and for head products until packed
    padded = ws.take("padded", mask.shape + (d,))
    x = np.take(params.phone_embeddings, phone_ids[rows, cols], axis=0,
                out=ws.take((0, "x"), packed))
    x += np.multiply(speeds[rows, None], params.speed_projection, out=tmp)
    x += np.take(sinusoidal_encoding(length, d), cols, axis=0, out=tmp)
    if dropping:
        x *= _dropout_keep(rng, mask, rate, padded,
                           ws.take("embed_keep", packed))

    for i, block in enumerate(params.blocks):
        q, k, v = (
            _pad_heads(np.matmul(x, weight, out=tmp), mask, h,
                       ws.take((i, name), padded.shape))
            for name, weight in (("q", block.attn_query),
                                 ("k", block.attn_key),
                                 ("v", block.attn_value))
        )
        attention(q, k, v, block.log_sigma, mask,
                  out=(ws.take((i, "probs"), (batch, h, length, length)),
                       _heads(padded, h)))
        context = _pack_heads(padded, mask, ws.take((i, "context"), packed))
        attn_out = np.matmul(context, block.attn_out, out=tmp)
        if dropping:
            attn_out *= _dropout_keep(rng, mask, rate, padded,
                                      ws.take((i, "attn_keep"), packed))
        x1 = _layer_norm_forward(
            np.add(x, attn_out, out=tmp), block.ln1_gain, block.ln1_offset,
            ws.take((i, "x1"), packed), ws.take((i, "ln1_xhat"), packed),
            ws.take((i, "ln1_inv_std"), (rows.size, 1)),
        )
        # relu > 0 exactly where the pre-activation is, so only relu is kept.
        relu = np.matmul(x1, block.ffn_in, out=ws.take((i, "relu"), (rows.size, f)))
        relu += block.ffn_in_bias
        np.maximum(relu, 0.0, out=relu)
        ffn_out = np.matmul(relu, block.ffn_out, out=tmp)
        ffn_out += block.ffn_out_bias
        if dropping:
            ffn_out *= _dropout_keep(rng, mask, rate, padded,
                                     ws.take((i, "ffn_keep"), packed))
        x = _layer_norm_forward(
            np.add(x1, ffn_out, out=tmp), block.ln2_gain, block.ln2_offset,
            ws.take((i + 1, "x"), packed), ws.take((i, "ln2_xhat"), packed),
            ws.take((i, "ln2_inv_std"), (rows.size, 1)),
        )

    preds = np.zeros(mask.shape)
    preds[mask] = (x @ params.out_weight)[:, 0] + params.out_bias[0]
    return preds


def _backward_batch(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phone_ids: np.ndarray,
    speeds: np.ndarray,
    mask: np.ndarray,
    train: bool,
    dpreds: np.ndarray,
    ws: Workspace,
) -> DurationNetParams:
    """Gradients of a scalar loss given d(loss)/d(predictions).

    Reads the activations the forward pass on the same batch left in
    ``ws``. Padded tokens carry no gradient, so every weight gradient is a
    plain (N, a)^T @ (N, b) product over the packed real tokens. The
    returned gradients are views into ``ws``.
    """
    grads = _carve(ws.take("grads", params.flat.shape), _shapes(params))
    dropping = _dropout_on(cfg, train)
    h, nb = cfg.num_heads, len(params.blocks)
    rows = np.nonzero(mask)[0]
    dpreds = dpreds[mask]
    packed = (rows.size, cfg.embed_dim)
    dx, dsum, tmp = (ws.take(name, packed) for name in ("dx", "dsum", "tmp"))
    padded, dprobs = ws["padded"], ws.take("dprobs", ws[0, "probs"].shape)
    dhidden = ws.take("dhidden", ws[0, "relu"].shape)

    grads.out_bias[0] = dpreds.sum()
    grads.out_weight[:, 0] = ws[nb, "x"].T @ dpreds
    np.multiply(dpreds[:, None], params.out_weight[:, 0], out=dx)

    scale = 1.0 / np.sqrt(cfg.head_dim)
    offsets_sq = _squared_offsets(mask.shape[1])
    for i in reversed(range(nb)):
        block, g = params.blocks[i], grads.blocks[i]
        dsum2 = _layer_norm_backward(
            dx, block.ln2_gain, ws[i, "ln2_xhat"], ws[i, "ln2_inv_std"],
            g.ln2_gain, g.ln2_offset, dsum, tmp,
        )
        dffn_out = dsum2
        if dropping:
            dffn_out = np.multiply(dffn_out, ws[i, "ffn_keep"], out=tmp)
        relu = ws[i, "relu"]
        g.ffn_out_bias[:] = dffn_out.sum(axis=0)
        np.matmul(relu.T, dffn_out, out=g.ffn_out)
        np.matmul(dffn_out, block.ffn_out.T, out=dhidden)
        np.multiply(dhidden, relu > 0, out=dhidden)
        g.ffn_in_bias[:] = dhidden.sum(axis=0)
        np.matmul(ws[i, "x1"].T, dhidden, out=g.ffn_in)
        dx1 = np.matmul(dhidden, block.ffn_in.T, out=dx)
        dx1 += dsum2

        dsum1 = _layer_norm_backward(
            dx1, block.ln1_gain, ws[i, "ln1_xhat"], ws[i, "ln1_inv_std"],
            g.ln1_gain, g.ln1_offset, dsum, tmp,
        )
        dattn_out = dsum1
        if dropping:
            dattn_out = np.multiply(dattn_out, ws[i, "attn_keep"], out=tmp)
        np.matmul(ws[i, "context"].T, dattn_out, out=g.attn_out)
        dctx_heads = _pad_heads(
            np.matmul(dattn_out, block.attn_out.T, out=dx), mask, h,
            ws.take("dctx", padded.shape),
        )

        probs = ws[i, "probs"]
        q, k, v = (_heads(ws[i, name], h) for name in ("q", "k", "v"))
        np.matmul(dctx_heads, v.transpose(0, 1, 3, 2), out=dprobs)
        np.matmul(probs.transpose(0, 1, 3, 2), dctx_heads, out=_heads(padded, h))
        dv = _pack_heads(padded, mask, ws.take("dv", packed))
        # dscores = probs * (dprobs - sum over keys of dprobs * probs)
        row_dot = np.multiply(dprobs, probs, out=ws.take("dprobs_probs", dprobs.shape))
        dprobs -= row_dot.sum(axis=-1, keepdims=True)
        dscores = np.multiply(probs, dprobs, out=dprobs)
        # d(bias)/d(log sigma) = 2*(j-k)^2/sigma^2, summed over batch rows
        dbias = dscores.sum(axis=0)
        g.log_sigma[:] = (
            (dbias * offsets_sq).sum(axis=(1, 2)) * 2.0
            / (np.exp(block.log_sigma) ** 2)
        )
        np.matmul(dscores, k, out=_heads(padded, h))
        dq = _pack_heads(padded, mask, ws.take("dq", packed))
        dq *= scale
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=_heads(padded, h))
        dk = _pack_heads(padded, mask, ws.take("dk", packed))
        dk *= scale

        x_in = ws[i, "x"]
        np.matmul(x_in.T, dq, out=g.attn_query)
        np.matmul(x_in.T, dk, out=g.attn_key)
        np.matmul(x_in.T, dv, out=g.attn_value)
        np.matmul(dq, block.attn_query.T, out=dx)
        dx += dsum1
        dx += np.matmul(dk, block.attn_key.T, out=tmp)
        dx += np.matmul(dv, block.attn_value.T, out=tmp)

    if dropping:
        dx *= ws["embed_keep"]
    grads.phone_embeddings.fill(0.0)
    np.add.at(grads.phone_embeddings, phone_ids[mask], dx)
    grads.speed_projection[0] = speeds[rows] @ dx
    return grads


def masked_l1_and_grads(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phone_ids: np.ndarray,
    speeds: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    workspace: Optional[Workspace] = None,
) -> tuple[float, DurationNetParams]:
    """Token-mean L1 loss over real tokens plus gradients for every tensor.

    The gradients are views into ``workspace`` (a fresh one by default),
    so a caller that shares one across steps must use them before the next
    step.
    """
    ws = Workspace() if workspace is None else workspace
    preds = _forward_batch(params, cfg, phone_ids, speeds, mask, train, rng, ws)
    count = mask.sum()
    diff = (preds - targets) * mask
    loss = float(np.abs(diff).sum() / count)
    dpreds = np.sign(diff) / count
    return loss, _backward_batch(params, cfg, phone_ids, speeds, mask, train,
                                 dpreds, ws)


def _pad_phones(phone_seqs: Sequence[Sequence[int]]):
    """Zero-padded (B, T) phone ids and the (B, T) mask of real tokens."""
    seqs = [np.asarray(p, dtype=np.int64) for p in phone_seqs]
    if any(p.ndim != 1 or p.size == 0 for p in seqs):
        raise DataError("forward expects a non-empty 1-D phone sequence")
    lengths = np.array([p.size for p in seqs])
    mask = np.arange(lengths.max()) < lengths[:, None]
    phone_ids = np.zeros(mask.shape, dtype=np.int64)
    phone_ids[mask] = np.concatenate(seqs)
    return phone_ids, mask


def _pad_batch(samples: Sequence[DurationSample]):
    """``_pad_phones`` of the samples, with their speeds and padded targets."""
    phone_ids, mask = _pad_phones([s.phones for s in samples])
    targets = np.zeros(mask.shape, dtype=np.float64)
    targets[mask] = np.concatenate([s.durations for s in samples])
    speeds = np.array([s.speed for s in samples], dtype=np.float64)
    return phone_ids, speeds, targets, mask


def forward(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phones: Sequence[int],
    speed: float,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Predicted duration (frames) for each phone of one sequence."""
    phone_ids, mask = _pad_phones([phones])
    speeds = np.array([speed], dtype=np.float64)
    return _forward_batch(params, cfg, phone_ids, speeds, mask, train, rng,
                          Workspace())[0]


def backward(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    sample: DurationSample,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, DurationNetParams]:
    """L1 loss of one sample and its exact gradients.

    The returned gradient object mirrors DurationNetParams field for field.
    With train=True the rng fixes the dropout masks, so an identically
    seeded rng reproduces the same stochastic loss surface.
    """
    return masked_l1_and_grads(params, cfg, *_pad_batch([sample]), train=train,
                               rng=rng)


def predict_durations_batch(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    sequences: Sequence[tuple[Sequence[int], float]],
) -> list[np.ndarray]:
    """Eval-mode predictions for many (phones, speed) sequences.

    Sequences are zero-padded in chunks of ``cfg.batch_size``, in input
    order, and each prediction is clamped to at least one frame. The chunks
    share one workspace, dropped when the call returns.
    """
    ws = Workspace()
    out: list[np.ndarray] = []
    for start in range(0, len(sequences), cfg.batch_size):
        chunk = sequences[start : start + cfg.batch_size]
        phone_ids, mask = _pad_phones([phones for phones, _ in chunk])
        speeds = np.asarray([speed for _, speed in chunk], dtype=np.float64)
        preds = np.maximum(
            _forward_batch(params, cfg, phone_ids, speeds, mask, False, None,
                           ws),
            1.0,
        )
        out.extend(row[:n] for row, n in zip(preds, mask.sum(axis=1)))
    return out


def predict_durations(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phones: Sequence[int],
    speed: float,
) -> np.ndarray:
    """Eval-mode duration predictions, clamped to at least one frame."""
    return predict_durations_batch(params, cfg, [(phones, speed)])[0]

"""Self-attention phone-duration predictor with analytic gradients.

The network maps a phone-index sequence plus an utterance speed scalar to a
per-phone duration in frames. Attention scores carry an additive local
Gaussian bias -(j-k)^2 / sigma^2 with one learnable sigma per head per
block (stored as log-sigma to keep it positive). Everything runs in
float64 numpy with hand-written reverse-mode gradients so training stays
dependency-free and exactly checkable against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from ..model import DataError

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

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


def full_config(seed: int = 0) -> DurationNetConfig:
    """The full-size configuration."""
    return DurationNetConfig(seed=seed)


def desk_config(seed: int = 0, dropout_rate: float = 0.1) -> DurationNetConfig:
    """Scaled-down configuration for laptop-scale experiments and tests."""
    return DurationNetConfig(
        embed_dim=64,
        num_blocks=2,
        num_heads=4,
        ffn_dim=256,
        dropout_rate=dropout_rate,
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
    """One training sequence: phones, target durations, utterance speed."""

    phones: tuple[int, ...]
    durations: tuple[float, ...]
    speed: float

    def __post_init__(self):
        object.__setattr__(self, "phones", tuple(int(p) for p in self.phones))
        object.__setattr__(self, "durations", tuple(float(d) for d in self.durations))
        if not self.phones:
            raise DataError("duration sample has no phones")
        if len(self.phones) != len(self.durations):
            raise DataError("phones and durations differ in length")
        if any(d <= 0 for d in self.durations):
            raise DataError("durations must be positive")
        if abs(self.speed - float(np.mean(self.durations))) > 1e-9:
            raise DataError(
                f"speed {self.speed} is not the mean duration "
                f"{float(np.mean(self.durations))}"
            )

    @classmethod
    def from_durations(
        cls, phones: Sequence[int], durations: Sequence[float]
    ) -> "DurationSample":
        return cls(tuple(phones), tuple(durations), float(np.mean(durations)))

    def __len__(self) -> int:
        return len(self.phones)


@dataclass
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


@dataclass
class DurationNetParams:
    """All trainable tensors; gradient objects share this structure."""

    phone_embeddings: np.ndarray
    speed_projection: np.ndarray
    blocks: list[BlockParams]
    out_weight: np.ndarray
    out_bias: np.ndarray

    @property
    def num_phones(self) -> int:
        return self.phone_embeddings.shape[0]


_BLOCK_FIELDS = (
    "attn_query", "attn_key", "attn_value", "attn_out",
    "ffn_in", "ffn_in_bias", "ffn_out", "ffn_out_bias",
    "ln1_gain", "ln1_offset", "ln2_gain", "ln2_offset",
    "log_sigma",
)


def iter_tensors(params: DurationNetParams) -> Iterator[tuple[str, np.ndarray]]:
    """All tensors in fixed declaration order (names are stable paths)."""
    yield "phone_embeddings", params.phone_embeddings
    yield "speed_projection", params.speed_projection
    for i, block in enumerate(params.blocks):
        for name in _BLOCK_FIELDS:
            yield f"blocks[{i}].{name}", getattr(block, name)
    yield "out_weight", params.out_weight
    yield "out_bias", params.out_bias


def zeros_like_params(params: DurationNetParams) -> DurationNetParams:
    return DurationNetParams(
        phone_embeddings=np.zeros_like(params.phone_embeddings),
        speed_projection=np.zeros_like(params.speed_projection),
        blocks=[
            BlockParams(**{f: np.zeros_like(getattr(b, f)) for f in _BLOCK_FIELDS})
            for b in params.blocks
        ],
        out_weight=np.zeros_like(params.out_weight),
        out_bias=np.zeros_like(params.out_bias),
    )


def zeros_params(cfg: DurationNetConfig, num_phones: int) -> DurationNetParams:
    """All-zero tensors with the shapes init_params would produce."""
    if num_phones < 1:
        raise DataError("need at least one phone")
    d, f, h = cfg.embed_dim, cfg.ffn_dim, cfg.num_heads
    return DurationNetParams(
        phone_embeddings=np.zeros((num_phones, d)),
        speed_projection=np.zeros((1, d)),
        blocks=[
            BlockParams(
                attn_query=np.zeros((d, d)),
                attn_key=np.zeros((d, d)),
                attn_value=np.zeros((d, d)),
                attn_out=np.zeros((d, d)),
                ffn_in=np.zeros((d, f)),
                ffn_in_bias=np.zeros(f),
                ffn_out=np.zeros((f, d)),
                ffn_out_bias=np.zeros(d),
                ln1_gain=np.zeros(d),
                ln1_offset=np.zeros(d),
                ln2_gain=np.zeros(d),
                ln2_offset=np.zeros(d),
                log_sigma=np.zeros(h),
            )
            for _ in range(cfg.num_blocks)
        ],
        out_weight=np.zeros((d, 1)),
        out_bias=np.zeros(1),
    )


def clone_params(params: DurationNetParams) -> DurationNetParams:
    return DurationNetParams(
        phone_embeddings=params.phone_embeddings.copy(),
        speed_projection=params.speed_projection.copy(),
        blocks=[
            BlockParams(**{f: getattr(b, f).copy() for f in _BLOCK_FIELDS})
            for b in params.blocks
        ],
        out_weight=params.out_weight.copy(),
        out_bias=params.out_bias.copy(),
    )


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    cfg: DurationNetConfig, num_phones: int, rng: np.random.Generator
) -> DurationNetParams:
    """Glorot-uniform weights, zero biases, unit layer-norm gains.

    Tensors are drawn in declaration order, so a given rng state fixes the
    initialization bit for bit.
    """
    if num_phones < 1:
        raise DataError("need at least one phone")
    d, f = cfg.embed_dim, cfg.ffn_dim
    blocks = []
    emb = _glorot(rng, (num_phones, d))
    speed = _glorot(rng, (1, d))
    for _ in range(cfg.num_blocks):
        blocks.append(BlockParams(
            attn_query=_glorot(rng, (d, d)),
            attn_key=_glorot(rng, (d, d)),
            attn_value=_glorot(rng, (d, d)),
            attn_out=_glorot(rng, (d, d)),
            ffn_in=_glorot(rng, (d, f)),
            ffn_in_bias=np.zeros(f),
            ffn_out=_glorot(rng, (f, d)),
            ffn_out_bias=np.zeros(d),
            ln1_gain=np.ones(d),
            ln1_offset=np.zeros(d),
            ln2_gain=np.ones(d),
            ln2_offset=np.zeros(d),
            log_sigma=np.full(cfg.num_heads, np.log(SIGMA_INIT)),
        ))
    out_w = _glorot(rng, (d, 1))
    return DurationNetParams(
        phone_embeddings=emb,
        speed_projection=speed,
        blocks=blocks,
        out_weight=out_w,
        out_bias=np.zeros(1),
    )


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


def gaussian_bias(length: int, sigma: float) -> np.ndarray:
    """Additive attention bias -(j-k)^2 / sigma^2, shape (length, length)."""
    if length < 1:
        raise DataError(f"length must be >= 1, got {length}")
    if sigma <= 0:
        raise DataError(f"sigma must be positive, got {sigma}")
    offsets = np.arange(length, dtype=np.float64)
    sq = (offsets[:, None] - offsets[None, :]) ** 2
    return -sq / (sigma * sigma)


def _softmax_last(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Single-head scaled dot-product attention with an additive bias.

    q, k, v are (T, d_h); bias is (T, T). The scaling dimension is the head
    dimension d_h of the inputs.
    """
    q, k, v, bias = (np.asarray(a, dtype=np.float64) for a in (q, k, v, bias))
    if q.shape != k.shape or k.shape != v.shape:
        raise DataError("q, k, v must share one shape")
    if bias.shape != (q.shape[0], q.shape[0]):
        raise DataError(f"bias must be ({q.shape[0]}, {q.shape[0]})")
    for name, a in (("q", q), ("k", k), ("v", v), ("bias", bias)):
        if not np.isfinite(a).all():
            raise DataError(f"non-finite values in {name}")
    scores = q @ k.T / np.sqrt(q.shape[-1]) + bias
    return _softmax_last(scores) @ v


def _dropout_keep(
    rng: np.random.Generator, mask: np.ndarray, dim: int, rate: float
) -> np.ndarray:
    # Inverted dropout: multiply by keep/(1-rate) so eval needs no scaling.
    # Drawn for every (B, T, dim) slot and then packed to the real tokens, so
    # the rng stream is the same however the tokens are laid out.
    keep = (rng.random(mask.shape + (dim,)) >= rate).astype(np.float64)
    return keep[mask] / (1.0 - rate)


def _layer_norm_forward(x, gain, offset):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return xhat * gain + offset, (xhat, inv_std)


def _layer_norm_backward(dy, gain, xhat, inv_std):
    dxhat = dy * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    dgain = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    doffset = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    return dx, dgain, doffset


def _pad_heads(x: np.ndarray, mask: np.ndarray, num_heads: int) -> np.ndarray:
    """Scatter packed (N, d) token rows into zero-padded heads (B, H, T, d_h)."""
    padded = np.zeros(mask.shape + x.shape[-1:])
    padded[mask] = x
    b, t, d = padded.shape
    return padded.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _pack_heads(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gather heads (B, H, T, d_h) back into packed (N, d) token rows."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)[mask]


def _forward_batch(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phone_ids: np.ndarray,
    speeds: np.ndarray,
    mask: np.ndarray,
    train: bool,
    rng: Optional[np.random.Generator],
):
    """Batched forward pass; returns (predictions, cache for backward).

    phone_ids: (B, T) int; speeds: (B,); mask: (B, T) bool with True at real
    tokens. The position-wise layers (projections, layer norms, FFN, dropout
    and output head) run on the N real tokens packed into (N, d). Only the
    attention scores and context use zero-padded (B, H, T, d_h) heads, where
    padded keys get exactly zero weight. Padded outputs are 0.
    """
    batch, length = phone_ids.shape
    if length > cfg.max_seq_len:
        raise DataError(f"sequence length {length} exceeds {cfg.max_seq_len}")
    if phone_ids.min() < 0 or phone_ids.max() >= params.num_phones:
        raise DataError("phone index outside embedding table")
    if train and rng is None:
        raise DataError("training-mode forward needs an rng for dropout")
    dropping = train and cfg.dropout_rate > 0.0
    d, h = cfg.embed_dim, cfg.num_heads

    rows, cols = np.nonzero(mask)
    cache: dict = {"phone_ids": phone_ids[rows, cols], "speeds": speeds[rows],
                   "mask": mask}
    x = (
        params.phone_embeddings[cache["phone_ids"]]
        + cache["speeds"][:, None] * params.speed_projection
        + sinusoidal_encoding(length, d)[cols]
    )
    if dropping:
        cache["embed_keep"] = _dropout_keep(rng, mask, d, cfg.dropout_rate)
        x = x * cache["embed_keep"]

    offsets_sq = (
        np.arange(length, dtype=np.float64)[:, None]
        - np.arange(length, dtype=np.float64)[None, :]
    ) ** 2
    cache["offsets_sq"] = offsets_sq
    key_bias = np.where(mask, 0.0, MASK_NEG)[:, None, None, :]
    scale = 1.0 / np.sqrt(cfg.head_dim)

    block_caches = []
    for block in params.blocks:
        c: dict = {"x_in": x}
        q = _pad_heads(x @ block.attn_query, mask, h)
        k = _pad_heads(x @ block.attn_key, mask, h)
        v = _pad_heads(x @ block.attn_value, mask, h)
        sigma = np.exp(block.log_sigma)
        bias = -offsets_sq[None] / (sigma ** 2)[:, None, None]
        scores = q @ k.transpose(0, 1, 3, 2) * scale + bias[None] + key_bias
        probs = _softmax_last(scores)
        context = _pack_heads(probs @ v, mask)
        attn_out = context @ block.attn_out
        if dropping:
            c["attn_keep"] = _dropout_keep(rng, mask, d, cfg.dropout_rate)
            attn_out = attn_out * c["attn_keep"]
        x1, c["ln1"] = _layer_norm_forward(x + attn_out, block.ln1_gain,
                                           block.ln1_offset)
        hidden = x1 @ block.ffn_in + block.ffn_in_bias
        relu = np.maximum(hidden, 0.0)
        ffn_out = relu @ block.ffn_out + block.ffn_out_bias
        if dropping:
            c["ffn_keep"] = _dropout_keep(rng, mask, d, cfg.dropout_rate)
            ffn_out = ffn_out * c["ffn_keep"]
        x2, c["ln2"] = _layer_norm_forward(x1 + ffn_out, block.ln2_gain,
                                           block.ln2_offset)
        c.update(q=q, k=k, v=v, sigma=sigma, probs=probs, context=context,
                 x1=x1, hidden=hidden, relu=relu)
        block_caches.append(c)
        x = x2

    preds = np.zeros(mask.shape)
    preds[mask] = (x @ params.out_weight)[:, 0] + params.out_bias[0]
    cache["blocks"] = block_caches
    cache["x_final"] = x
    return preds, cache


def _backward_batch(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    cache: dict,
    dpreds: np.ndarray,
) -> DurationNetParams:
    """Gradients of a scalar loss given d(loss)/d(predictions).

    Padded tokens carry no gradient, so every weight gradient is a plain
    (N, a)^T @ (N, b) product over the packed real tokens.
    """
    grads = zeros_like_params(params)
    mask = cache["mask"]
    dpreds = dpreds[mask]
    x_final = cache["x_final"]

    grads.out_bias[0] = dpreds.sum()
    grads.out_weight[:, 0] = x_final.T @ dpreds
    dx = dpreds[:, None] * params.out_weight[:, 0]

    scale = 1.0 / np.sqrt(cfg.head_dim)
    offsets_sq = cache["offsets_sq"]
    for block, c, g in zip(
        reversed(params.blocks), reversed(cache["blocks"]),
        reversed(grads.blocks),
    ):
        dsum2, g.ln2_gain[:], g.ln2_offset[:] = _layer_norm_backward(
            dx, block.ln2_gain, *c["ln2"]
        )
        dffn_out = dsum2
        if "ffn_keep" in c:
            dffn_out = dffn_out * c["ffn_keep"]
        g.ffn_out_bias[:] = dffn_out.sum(axis=0)
        g.ffn_out[:] = c["relu"].T @ dffn_out
        drelu = dffn_out @ block.ffn_out.T
        dhidden = drelu * (c["hidden"] > 0)
        g.ffn_in_bias[:] = dhidden.sum(axis=0)
        g.ffn_in[:] = c["x1"].T @ dhidden
        dx1 = dsum2 + dhidden @ block.ffn_in.T

        dsum1, g.ln1_gain[:], g.ln1_offset[:] = _layer_norm_backward(
            dx1, block.ln1_gain, *c["ln1"]
        )
        dattn_out = dsum1
        if "attn_keep" in c:
            dattn_out = dattn_out * c["attn_keep"]
        g.attn_out[:] = c["context"].T @ dattn_out
        dctx_heads = _pad_heads(dattn_out @ block.attn_out.T, mask,
                                cfg.num_heads)

        probs, q, k, v = c["probs"], c["q"], c["k"], c["v"]
        dprobs = dctx_heads @ v.transpose(0, 1, 3, 2)
        dv = _pack_heads(probs.transpose(0, 1, 3, 2) @ dctx_heads, mask)
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        # d(bias)/d(log sigma) = 2*(j-k)^2/sigma^2, summed over batch rows
        dbias = dscores.sum(axis=0)
        g.log_sigma[:] = (
            (dbias * offsets_sq).sum(axis=(1, 2)) * 2.0 / (c["sigma"] ** 2)
        )
        dq = _pack_heads(dscores @ k, mask) * scale
        dk = _pack_heads(dscores.transpose(0, 1, 3, 2) @ q, mask) * scale

        x_in = c["x_in"]
        g.attn_query[:] = x_in.T @ dq
        g.attn_key[:] = x_in.T @ dk
        g.attn_value[:] = x_in.T @ dv
        dx = (
            dsum1
            + dq @ block.attn_query.T
            + dk @ block.attn_key.T
            + dv @ block.attn_value.T
        )

    if "embed_keep" in cache:
        dx = dx * cache["embed_keep"]
    np.add.at(grads.phone_embeddings, cache["phone_ids"], dx)
    grads.speed_projection[0] = cache["speeds"] @ dx
    return grads


def l1_loss(pred: Sequence[float], target: Sequence[float]) -> float:
    """Mean absolute error between two equal-length sequences."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DataError(f"length mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise DataError("l1_loss of empty sequences")
    return float(np.mean(np.abs(pred - target)))


def masked_l1_and_grads(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phone_ids: np.ndarray,
    speeds: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, DurationNetParams]:
    """Token-mean L1 loss over real tokens plus gradients for every tensor."""
    preds, cache = _forward_batch(params, cfg, phone_ids, speeds, mask, train, rng)
    count = mask.sum()
    diff = (preds - targets) * mask
    loss = float(np.abs(diff).sum() / count)
    dpreds = np.sign(diff) / count
    return loss, _backward_batch(params, cfg, cache, dpreds)


def _as_batch(phones: Sequence[int], speed: float):
    phone_ids = np.asarray(phones, dtype=np.int64)
    if phone_ids.ndim != 1 or phone_ids.size == 0:
        raise DataError("forward expects a non-empty 1-D phone sequence")
    mask = np.ones((1, phone_ids.size), dtype=bool)
    return phone_ids[None, :], np.asarray([speed], dtype=np.float64), mask


def forward(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phones: Sequence[int],
    speed: float,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Predicted duration (frames) for each phone of one sequence."""
    phone_ids, speeds, mask = _as_batch(phones, speed)
    preds, _ = _forward_batch(params, cfg, phone_ids, speeds, mask, train, rng)
    return preds[0]


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
    phone_ids, speeds, mask = _as_batch(sample.phones, sample.speed)
    targets = np.asarray([sample.durations], dtype=np.float64)
    return masked_l1_and_grads(
        params, cfg, phone_ids, speeds, targets, mask, train=train, rng=rng
    )


def predict_durations(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    phones: Sequence[int],
    speed: float,
) -> np.ndarray:
    """Eval-mode duration predictions, clamped to at least one frame."""
    return np.maximum(forward(params, cfg, phones, speed), 1.0)

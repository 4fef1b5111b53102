"""Self-attention phone-duration predictor with analytic gradients.

The network maps a phone-index sequence plus an utterance speed scalar to a
per-phone duration in frames. Attention scores carry an additive local
Gaussian bias -(j-k)^2 / sigma^2 with one learnable sigma per head per
block (stored as log-sigma to keep it positive). Everything runs in
float64 numpy with hand-written reverse-mode gradients so training stays
dependency-free and exactly checkable against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..model import Alignment, DataError, PhoneSegment, PhoneSet

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

    @classmethod
    def from_alignment(
        cls, alignment: Alignment, phone_set: PhoneSet
    ) -> "DurationSample":
        """Aligned non-silence phones with their segment lengths as targets."""
        return cls.from_segments(alignment.non_silence(phone_set))

    @classmethod
    def from_segments(cls, segments: Sequence[PhoneSegment]) -> "DurationSample":
        """Segment phones with their lengths as targets.

        The speed is therefore the mean segment length.
        """
        if not segments:
            raise DataError("alignment has no non-silence phones")
        return cls.from_durations(
            [s.phone for s in segments], [float(s.length) for s in segments]
        )

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


def block_shapes(cfg: DurationNetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor of one block, in declaration order."""
    d, f, h = cfg.embed_dim, cfg.ffn_dim, cfg.num_heads
    return {
        "attn_query": (d, d), "attn_key": (d, d), "attn_value": (d, d),
        "attn_out": (d, d), "ffn_in": (d, f), "ffn_in_bias": (f,),
        "ffn_out": (f, d), "ffn_out_bias": (d,), "ln1_gain": (d,),
        "ln1_offset": (d,), "ln2_gain": (d,), "ln2_offset": (d,),
        "log_sigma": (h,),
    }


def outer_shapes(
    cfg: DurationNetConfig, num_phones: int
) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor outside the blocks."""
    if num_phones < 1:
        raise DataError("need at least one phone")
    d = cfg.embed_dim
    return {
        "phone_embeddings": (num_phones, d), "speed_projection": (1, d),
        "out_weight": (d, 1), "out_bias": (1,),
    }


def _build_params(
    cfg: DurationNetConfig,
    num_phones: int,
    make: Callable[[str, tuple[int, ...]], np.ndarray],
) -> DurationNetParams:
    """Every tensor as make(name, shape), called in declaration order."""
    outer = outer_shapes(cfg, num_phones)
    block = block_shapes(cfg)
    phone_embeddings = make("phone_embeddings", outer["phone_embeddings"])
    speed_projection = make("speed_projection", outer["speed_projection"])
    blocks = [
        BlockParams(**{name: make(name, s) for name, s in block.items()})
        for _ in range(cfg.num_blocks)
    ]
    return DurationNetParams(
        phone_embeddings=phone_embeddings,
        speed_projection=speed_projection,
        blocks=blocks,
        out_weight=make("out_weight", outer["out_weight"]),
        out_bias=make("out_bias", outer["out_bias"]),
    )


def zeros_params(cfg: DurationNetConfig, num_phones: int) -> DurationNetParams:
    """All-zero tensors with the shapes init_params would produce."""
    return _build_params(cfg, num_phones, lambda name, shape: np.zeros(shape))


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
    def make(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 2:
            return _glorot(rng, shape)
        if name.endswith("_gain"):
            return np.ones(shape)
        if name == "log_sigma":
            return np.full(shape, np.log(SIGMA_INIT))
        return np.zeros(shape)

    return _build_params(cfg, num_phones, make)


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


def _softmax_last(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over zero-padded heads.

    q, k, v are (B, H, T, d_h); log_sigma is (H,); mask is (B, T) with True
    at real tokens. Head h adds the local Gaussian bias -(j-k)^2 / sigma_h^2
    to its scores, and padded keys get exactly zero weight. Returns the
    attention weights (B, H, T, T) and the context (B, H, T, d_h).
    """
    sigma = np.exp(log_sigma)
    bias = -_squared_offsets(mask.shape[1])[None] / (sigma ** 2)[:, None, None]
    key_bias = np.where(mask, 0.0, MASK_NEG)[:, None, None, :]
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = q @ k.transpose(0, 1, 3, 2) * scale + bias[None] + key_bias
    probs = _softmax_last(scores)
    return probs, probs @ v


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
    cache: Optional[dict] = None,
) -> np.ndarray:
    """Batched forward pass; returns (B, T) predictions.

    phone_ids: (B, T) int; speeds: (B,); mask: (B, T) bool with True at real
    tokens. The position-wise layers (projections, layer norms, FFN, dropout
    and output head) run on the N real tokens packed into (N, d). Only the
    attention scores and context use zero-padded (B, H, T, d_h) heads, where
    padded keys get exactly zero weight. Padded outputs are 0. Pass a dict
    as ``cache`` to keep the activations ``_backward_batch`` needs; without
    one, each block's activations are freed as soon as the next block runs.
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
    token_phones, token_speeds = phone_ids[rows, cols], speeds[rows]
    x = (
        params.phone_embeddings[token_phones]
        + token_speeds[:, None] * params.speed_projection
        + sinusoidal_encoding(length, d)[cols]
    )
    embed_keep = None
    if dropping:
        embed_keep = _dropout_keep(rng, mask, d, cfg.dropout_rate)
        x = x * embed_keep

    block_caches = []
    for block in params.blocks:
        x_in = x
        q = _pad_heads(x @ block.attn_query, mask, h)
        k = _pad_heads(x @ block.attn_key, mask, h)
        v = _pad_heads(x @ block.attn_value, mask, h)
        probs, heads = attention(q, k, v, block.log_sigma, mask)
        context = _pack_heads(heads, mask)
        attn_out = context @ block.attn_out
        attn_keep = ffn_keep = None
        if dropping:
            attn_keep = _dropout_keep(rng, mask, d, cfg.dropout_rate)
            attn_out = attn_out * attn_keep
        x1, ln1 = _layer_norm_forward(x + attn_out, block.ln1_gain,
                                      block.ln1_offset)
        hidden = x1 @ block.ffn_in + block.ffn_in_bias
        relu = np.maximum(hidden, 0.0)
        ffn_out = relu @ block.ffn_out + block.ffn_out_bias
        if dropping:
            ffn_keep = _dropout_keep(rng, mask, d, cfg.dropout_rate)
            ffn_out = ffn_out * ffn_keep
        x, ln2 = _layer_norm_forward(x1 + ffn_out, block.ln2_gain,
                                     block.ln2_offset)
        if cache is not None:
            block_caches.append(dict(
                x_in=x_in, q=q, k=k, v=v, probs=probs,
                context=context, attn_keep=attn_keep, ln1=ln1, x1=x1,
                hidden=hidden, relu=relu, ffn_keep=ffn_keep, ln2=ln2,
            ))

    preds = np.zeros(mask.shape)
    preds[mask] = (x @ params.out_weight)[:, 0] + params.out_bias[0]
    if cache is not None:
        cache.update(
            phone_ids=token_phones, speeds=token_speeds, mask=mask,
            embed_keep=embed_keep, blocks=block_caches, x_final=x,
        )
    return preds


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
    offsets_sq = _squared_offsets(mask.shape[1])
    for block, c, g in zip(
        reversed(params.blocks), reversed(cache["blocks"]),
        reversed(grads.blocks),
    ):
        dsum2, g.ln2_gain[:], g.ln2_offset[:] = _layer_norm_backward(
            dx, block.ln2_gain, *c["ln2"]
        )
        dffn_out = dsum2
        if c["ffn_keep"] is not None:
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
        if c["attn_keep"] is not None:
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
            (dbias * offsets_sq).sum(axis=(1, 2)) * 2.0
            / (np.exp(block.log_sigma) ** 2)
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

    if cache["embed_keep"] is not None:
        dx = dx * cache["embed_keep"]
    np.add.at(grads.phone_embeddings, cache["phone_ids"], dx)
    grads.speed_projection[0] = cache["speeds"] @ dx
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
) -> tuple[float, DurationNetParams]:
    """Token-mean L1 loss over real tokens plus gradients for every tensor."""
    cache: dict = {}
    preds = _forward_batch(params, cfg, phone_ids, speeds, mask, train, rng,
                           cache)
    count = mask.sum()
    diff = (preds - targets) * mask
    loss = float(np.abs(diff).sum() / count)
    dpreds = np.sign(diff) / count
    return loss, _backward_batch(params, cfg, cache, dpreds)


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


def _as_batch(phones: Sequence[int], speed: float):
    phone_ids, mask = _pad_phones([phones])
    return phone_ids, np.asarray([speed], dtype=np.float64), mask


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
    return _forward_batch(params, cfg, phone_ids, speeds, mask, train, rng)[0]


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


def predict_durations_batch(
    params: DurationNetParams,
    cfg: DurationNetConfig,
    sequences: Sequence[tuple[Sequence[int], float]],
) -> list[np.ndarray]:
    """Eval-mode predictions for many (phones, speed) sequences.

    Sequences are zero-padded in chunks of ``cfg.batch_size``, in input
    order, and each prediction is clamped to at least one frame.
    """
    out: list[np.ndarray] = []
    for start in range(0, len(sequences), cfg.batch_size):
        chunk = sequences[start : start + cfg.batch_size]
        phone_ids, mask = _pad_phones([phones for phones, _ in chunk])
        speeds = np.asarray([speed for _, speed in chunk], dtype=np.float64)
        preds = np.maximum(
            _forward_batch(params, cfg, phone_ids, speeds, mask, False, None),
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

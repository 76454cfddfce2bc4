"""Conformer encoder: feature encoder, span masking, and the context network.

The feature encoder stacks every ``stack_factor`` logmel frames and projects
them linearly to latent frames. During pretraining a sampled fraction of the
latent frames is replaced by a single learned embedding before the context
encoder (linear -> conformer blocks -> linear) runs. Blocks place the
convolution module before self-attention so the depthwise convolution doubles
as positional encoding; there is no explicit positional term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

LOGMEL_BANDS = 64

PRESETS = {
    "cf_S": dict(num_blocks=12, embed_dim=256, num_heads=8),
    "cf_L": dict(num_blocks=12, embed_dim=768, num_heads=12),
}


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults are the small preset (cf_S)."""

    num_blocks: int = 12
    embed_dim: int = 256
    num_heads: int = 8
    ffn_dim: int = 1024
    latent_dim: int | None = None  # defaults to embed_dim
    stack_factor: int = 4
    kernel_first: int = 31
    kernel_rest: int = 15
    dropout: float = 0.1

    def __post_init__(self):
        if self.latent_dim is None:
            self.latent_dim = self.embed_dim
        self.validate()

    def validate(self):
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads"
            )
        if self.stack_factor < 1:
            raise ConfigError("stack_factor must be >= 1")
        if self.kernel_first % 2 == 0 or self.kernel_rest % 2 == 0:
            raise ConfigError("conformer kernels must be odd")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.num_blocks < 0:
            raise ConfigError("num_blocks must be >= 0")

    @classmethod
    def preset(cls, name: str, **overrides) -> "ModelConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset '{name}' (have: {sorted(PRESETS)})")
        return cls(**{**PRESETS[name], **overrides})

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Module:
    """Minimal parameter container with reflection-based traversal."""

    training: bool = True

    def _children(self):
        for name, value in vars(self).items():
            yield name, value

    def named_parameters(self, prefix: str = ""):
        for name, value in self._children():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        """Non-trainable state arrays (running statistics)."""
        for name, value in self._children():
            if isinstance(value, np.ndarray):
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_buffers(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(f"{prefix}{name}.{i}.")

    def _set_training(self, mode: bool):
        self.training = mode
        for _, value in self._children():
            if isinstance(value, Module):
                value._set_training(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_training(mode)

    def train(self):
        self._set_training(True)
        return self

    def eval(self):
        self._set_training(False)
        return self

    def state_arrays(self) -> dict:
        state = {name: p.values for name, p in self.named_parameters()}
        state.update(dict(self.named_buffers()))
        return state

    def load_state_arrays(self, arrays: dict):
        """Restore by name. Takes ownership of ``arrays``: parameters adopt them
        without a copy where the dtype matches; buffers are copied in place."""
        own = self.state_arrays()
        missing = sorted(set(own) - set(arrays))
        unexpected = sorted(set(arrays) - set(own))
        if missing or unexpected:
            raise ConfigError(
                f"state mismatch: missing {missing[:4]}, unexpected {unexpected[:4]}"
            )
        for name, p in self.named_parameters():
            incoming = arrays[name]
            if incoming.shape != p.values.shape:
                raise ConfigError(
                    f"shape mismatch for '{name}': {incoming.shape} vs {p.values.shape}"
                )
            p.values = incoming.astype(p.values.dtype, copy=False)
        for name, buf in self.named_buffers():
            incoming = arrays[name]
            if incoming.shape != buf.shape:
                raise ConfigError(f"shape mismatch for buffer '{name}'")
            buf[...] = incoming


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return T.parameter(rng.uniform(-limit, limit, size=shape).astype(dtype))


class Linear(Module):
    def __init__(self, in_dim, out_dim, rng, dtype=np.float32, bias: bool = True):
        self.weight = _glorot(rng, in_dim, out_dim, (in_dim, out_dim), dtype)
        self.bias = T.parameter(np.zeros(out_dim, dtype=dtype)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim, dtype=np.float32):
        self.gain = T.parameter(np.ones(dim, dtype=dtype))
        self.bias = T.parameter(np.zeros(dim, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class BatchNorm(Module):
    """Channel batch-norm over frames with momentum-0.1 running statistics."""

    def __init__(self, dim, dtype=np.float32):
        self.gain = T.parameter(np.ones(dim, dtype=dtype))
        self.bias = T.parameter(np.zeros(dim, dtype=dtype))
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_norm(
            x, self.gain, self.bias, self.running_mean, self.running_var, self.training
        )


class FeedForward(Module):
    """layer-norm -> linear -> swish -> dropout -> linear -> dropout."""

    def __init__(self, dim, hidden, dropout, rng, dtype=np.float32):
        self.norm = LayerNorm(dim, dtype)
        self.lin1 = Linear(dim, hidden, rng, dtype)
        self.lin2 = Linear(hidden, dim, rng, dtype)
        self.dropout = dropout

    def __call__(self, x: Tensor, rng) -> Tensor:
        h = T.swish(self.lin1(self.norm(x)))
        h = T.dropout(h, self.dropout, rng, self.training)
        h = self.lin2(h)
        return T.dropout(h, self.dropout, rng, self.training)


class ConvolutionModule(Module):
    """layer-norm -> pointwise (2x) -> GLU -> depthwise -> batch-norm -> swish -> pointwise -> dropout.

    The pointwise (kernel-1) convolutions are per-frame affine maps, so they
    are ``Linear`` layers; only the depthwise convolution is a ``conv1d``.
    """

    def __init__(self, dim, kernel_size, dropout, rng, dtype=np.float32):
        self.norm = LayerNorm(dim, dtype)
        self.pointwise_in = Linear(dim, 2 * dim, rng, dtype)
        # No depthwise bias: the batch-norm right after removes any
        # per-channel constant, so it could never train.
        self.depthwise = _glorot(rng, kernel_size, kernel_size, (kernel_size, dim), dtype)
        self.batch_norm = BatchNorm(dim, dtype)
        self.pointwise_out = Linear(dim, dim, rng, dtype)
        self.dropout = dropout

    def __call__(self, x: Tensor, rng) -> Tensor:
        h = T.glu(self.pointwise_in(self.norm(x)), axis=1)
        h = T.conv1d(h, self.depthwise, groups=h.shape[1])
        h = T.swish(self.batch_norm(h))
        return T.dropout(self.pointwise_out(h), self.dropout, rng, self.training)


class SelfAttention(Module):
    """Multi-head scaled dot-product attention over the full sequence.

    The q/k/v projections feed one fused ``T.attention`` node that runs all
    heads as a batched matmul. No positional terms are added; the preceding
    convolution module carries the positional information.
    """

    def __init__(self, dim, num_heads, dropout, rng, dtype=np.float32):
        if dim % num_heads != 0:
            raise ConfigError(f"dim {dim} not divisible by {num_heads} heads")
        self.num_heads = num_heads
        self.norm = LayerNorm(dim, dtype)
        self.query = Linear(dim, dim, rng, dtype)
        # A key bias shifts every logit in a softmax row equally, so it can
        # never train; leave it out.
        self.key = Linear(dim, dim, rng, dtype, bias=False)
        self.value = Linear(dim, dim, rng, dtype)
        self.out = Linear(dim, dim, rng, dtype)
        self.dropout = dropout

    def attend(self, x: Tensor) -> Tensor:
        """Attention without the pre-norm/dropout wrapper."""
        return self.out(T.attention(self.query(x), self.key(x), self.value(x), self.num_heads))

    def __call__(self, x: Tensor, rng) -> Tensor:
        h = self.attend(self.norm(x))
        return T.dropout(h, self.dropout, rng, self.training)


class ConformerBlock(Module):
    """Half-step FFN -> convolution module -> MHSA -> half-step FFN -> layer-norm.

    Every sub-module sits on a residual path; the FFN residuals are scaled
    by 1/2 (macaron style).
    """

    def __init__(self, dim, num_heads, ffn_dim, kernel_size, dropout, rng, dtype=np.float32):
        self.ffn_pre = FeedForward(dim, ffn_dim, dropout, rng, dtype)
        self.conv = ConvolutionModule(dim, kernel_size, dropout, rng, dtype)
        self.attention = SelfAttention(dim, num_heads, dropout, rng, dtype)
        self.ffn_post = FeedForward(dim, ffn_dim, dropout, rng, dtype)
        self.norm = LayerNorm(dim, dtype)

    def __call__(self, x: Tensor, rng) -> Tensor:
        x = T.add(x, T.mul(self.ffn_pre(x, rng), 0.5))
        x = T.add(x, self.conv(x, rng))
        x = T.add(x, self.attention(x, rng))
        x = T.add(x, T.mul(self.ffn_post(x, rng), 0.5))
        return self.norm(x)


class ContextEncoder(Module):
    """linear -> conformer blocks -> linear, latent dim in and out."""

    def __init__(self, config: ModelConfig, rng, dtype=np.float32):
        d, dz = config.embed_dim, config.latent_dim
        self.proj_in = Linear(dz, d, rng, dtype)
        self.blocks = [
            ConformerBlock(
                d,
                config.num_heads,
                config.ffn_dim,
                config.kernel_first if i == 0 else config.kernel_rest,
                config.dropout,
                rng,
                dtype,
            )
            for i in range(config.num_blocks)
        ]
        self.proj_out = Linear(d, dz, rng, dtype)

    def __call__(self, z: Tensor, rng) -> Tensor:
        h = self.proj_in(z)
        for block in self.blocks:
            h = block(h, rng)
        return self.proj_out(h)


def time_stack(frames: np.ndarray, stack_factor: int) -> np.ndarray:
    """Concatenate every ``stack_factor`` consecutive rows; drop the remainder."""
    t, d = frames.shape
    if t < stack_factor:
        raise ShapeError(f"cannot stack {stack_factor} frames out of {t}")
    t_out = t // stack_factor
    return frames[: t_out * stack_factor].reshape(t_out, d * stack_factor)


class FeatureEncoder(Module):
    """Time stacking followed by a linear map to latent frames."""

    def __init__(self, config: ModelConfig, rng, dtype=np.float32, input_dim=LOGMEL_BANDS):
        self.stack_factor = config.stack_factor
        self.proj = Linear(input_dim * config.stack_factor, config.latent_dim, rng, dtype)

    def __call__(self, frames: np.ndarray) -> Tensor:
        stacked = time_stack(np.asarray(frames), self.stack_factor)
        return self.proj(Tensor(stacked.astype(self.proj.weight.values.dtype)))


def sample_mask(
    num_frames: int, rate: float = 0.30, span_length: int = 10, rng=None
) -> np.ndarray:
    """Boolean mask built from possibly-overlapping uniform-start spans.

    Spans of ``span_length`` are added until the covered fraction reaches
    ``rate``; coverage therefore lands in [rate, rate + span_length/num_frames].
    """
    if num_frames < 1:
        raise ConfigError("num_frames must be >= 1")
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"mask rate {rate} outside (0, 1)")
    if span_length < 1 or span_length > num_frames:
        raise ConfigError(f"span_length {span_length} invalid for {num_frames} frames")
    if rng is None:
        rng = np.random.default_rng()
    mask = np.zeros(num_frames, dtype=bool)
    target = rate * num_frames
    while mask.sum() < target:
        start = int(rng.integers(0, num_frames - span_length + 1))
        mask[start : start + span_length] = True
    return mask


def apply_mask(z: Tensor, mask: np.ndarray, mask_embedding: Tensor) -> Tensor:
    """Replace masked rows of z by the learned embedding; z itself is untouched."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (z.shape[0],):
        raise ShapeError(f"mask length {mask.shape} does not match {z.shape[0]} rows")
    if mask_embedding.shape != (1, z.shape[1]):
        raise ShapeError("mask embedding must be a single latent row")
    dtype = z.values.dtype
    keep = Tensor(np.repeat((~mask)[:, None], z.shape[1], axis=1).astype(dtype))
    column = Tensor(mask[:, None].astype(dtype))
    return T.add(T.mul(z, keep), T.matmul(column, mask_embedding))


class ConformerModel(Module):
    """Feature encoder + learned mask embedding + conformer context encoder."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng([seed, 0xC0F])
        self.config = config
        self.feature_encoder = FeatureEncoder(config, rng, dtype)
        self.mask_embedding = T.parameter(
            rng.uniform(-0.1, 0.1, size=(1, config.latent_dim)).astype(dtype)
        )
        self.context_encoder = ContextEncoder(config, rng, dtype)

    def _children(self):
        for name, value in vars(self).items():
            if name == "config":
                continue
            yield name, value

    def encode_features(self, frames: np.ndarray) -> Tensor:
        """Latent frames Z, (T // stack_factor) x latent_dim."""
        return self.feature_encoder(frames)

    def contextualize(self, z: Tensor, rng=None) -> Tensor:
        """Context outputs, same shape as z."""
        if rng is None:
            rng = np.random.default_rng()
        return self.context_encoder(z, rng)

    def embed(self, frames: np.ndarray) -> Tensor:
        """Unmasked end-to-end encoding (feature extraction path)."""
        return self.contextualize(self.encode_features(frames))


def param_count(config: ModelConfig, seed: int = 0) -> int:
    """Number of trainable scalars in a freshly built model."""
    model = ConformerModel(config, seed=seed)
    return sum(p.values.size for p in model.parameters())

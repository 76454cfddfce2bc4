"""Conformer encoder: feature encoder, span masking, and the context network.

The feature encoder stacks every ``stack_factor`` logmel frames and projects
them linearly to latent frames. During pretraining a sampled fraction of the
latent frames is replaced by a single learned embedding before the context
encoder (linear -> conformer blocks -> linear) runs. Blocks place the
convolution module before self-attention so the depthwise convolution doubles
as positional encoding; there is no explicit positional term.

The encoders also run on a stack of equal-length clips, one graph for all of
them: the dropout ``rng`` is then a list with one generator per clip, and
its length is the clip count that the per-clip primitives receive.
``clip_groups`` chooses which clips of a batch share a graph.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .dsp import NUM_MEL_BANDS
from .errors import ConfigError, ShapeError
from .tensor import Tensor

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
        if min(self.embed_dim, self.num_heads, self.ffn_dim, self.latent_dim) < 1:
            raise ConfigError("embed_dim, num_heads, ffn_dim and latent_dim must be >= 1")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads"
            )
        if self.stack_factor < 1:
            raise ConfigError("stack_factor must be >= 1")
        if any(k < 1 or k % 2 == 0 for k in (self.kernel_first, self.kernel_rest)):
            raise ConfigError("conformer kernels must be odd and positive")
        T.dropout_cut(self.dropout, ConfigError)
        if self.num_blocks < 0:
            raise ConfigError("num_blocks must be >= 0")

    @classmethod
    def preset(cls, name: str) -> "ModelConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset '{name}' (have: {sorted(PRESETS)})")
        return cls(**PRESETS[name])

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Module:
    """Minimal parameter container with reflection-based traversal."""

    training: bool = True

    def _walk(self, prefix: str = "", found: tuple | None = None) -> tuple[list, list]:
        """One depth-first traversal of the tree, in attribute order.

        Returns (modules, attributes): every module, this one first, and
        every other attribute as (prefix, name, value). Lists and tuples
        contribute only their Module items. Parameters, buffers and the
        training flag all come from this walk, so their orders agree.
        """
        if found is None:
            found = ([], [])
        modules, attributes = found
        modules.append(self)
        for name, value in vars(self).items():
            if isinstance(value, Module):
                value._walk(f"{prefix}{name}.", found)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._walk(f"{prefix}{name}.{i}.", found)
            else:
                attributes.append((prefix, name, value))
        return found

    def named_parameters(self):
        for prefix, name, value in self._walk()[1]:
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        """Non-trainable state arrays (running statistics)."""
        for prefix, name, value in self._walk()[1]:
            if isinstance(value, np.ndarray):
                yield prefix + name, value

    def _set_training(self, mode: bool):
        for module in self._walk()[0]:
            module.training = mode

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

    def astype(self, dtype) -> "Module":
        """Cast every parameter and buffer to ``dtype`` (modules are built in float32)."""
        for module in self._walk()[0]:
            for name, value in vars(module).items():
                if isinstance(value, Tensor):
                    value.values = value.values.astype(dtype)
                elif isinstance(value, np.ndarray):
                    setattr(module, name, value.astype(dtype))
        return self

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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return T.parameter(rng.uniform(-limit, limit, size=shape).astype(np.float32))


class Linear(Module):
    def __init__(self, in_dim, out_dim, rng, bias: bool = True):
        self.weight = _glorot(rng, in_dim, out_dim, (in_dim, out_dim))
        self.bias = T.parameter(np.zeros(out_dim, dtype=np.float32)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def kernel(self, xv: np.ndarray):
        """The engine's linear kernel on this layer's tensors: (out, back),
        with ``back(g, xv)`` given the input again."""
        return T.linear_kernel(xv, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gain = T.parameter(np.ones(dim, dtype=np.float32))
        self.bias = T.parameter(np.zeros(dim, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)

    def kernel(self, x: Tensor, op: str):
        """Checks x against this norm for ``op``; the kernel on x's values,
        (out, back, again)."""
        T.check_norm(x, self.gain, self.bias, op)
        return T.layer_norm_kernel(x.values, self.gain, self.bias)


class BatchNorm(Module):
    """Channel batch-norm over frames with momentum-0.1 running statistics."""

    def __init__(self, dim):
        self.gain = T.parameter(np.ones(dim, dtype=np.float32))
        self.bias = T.parameter(np.zeros(dim, dtype=np.float32))
        self.running_mean = np.zeros(dim, dtype=np.float32)
        self.running_var = np.ones(dim, dtype=np.float32)


# Each conformer sub-module is one node: ``__call__`` chains the engine's
# kernels exactly as the composed public primitives run them, so every bit
# is kept, and closes the chain with ``T.residual`` over x and ``_params``
# (the module's parameters in walk order, collected once at construction).
# The node holds no normalized rows: both norms form them again in backward.


class FeedForward(Module):
    """Half-step residual FFN, one node: x + (layer-norm -> linear -> swish
    -> dropout -> linear -> dropout)(x) / 2, the masks drawn in that order."""

    def __init__(self, dim, hidden, dropout, rng):
        T.dropout_cut(dropout, ConfigError)
        self.norm = LayerNorm(dim)
        self.lin1 = Linear(dim, hidden, rng)
        self.lin2 = Linear(hidden, dim, rng)
        self.dropout = dropout
        self._params = tuple(self.parameters())

    def __call__(self, x: Tensor, rng) -> Tensor:
        h, norm_back, h_again = self.norm.kernel(x, "feed_forward")
        a, lin1_back = self.lin1.kernel(h)
        a, d = T.swish_kernel(a, out=a)
        # The first mask goes into the swish derivative d, so it is not held.
        a, drop1_back = T.dropout_kernel(a, self.dropout, rng, self.training, out=a, fold=d)
        out, lin2_back = self.lin2.kernel(a)
        out, drop2_back = T.dropout_kernel(out, self.dropout, rng, self.training, out=out)
        out *= 0.5

        def back(g):
            gh = g * 0.5
            gh = lin2_back(drop2_back(gh, out=gh), a)
            gh = drop1_back(gh, out=gh)
            return norm_back(lin1_back(np.multiply(d, gh, out=d), h_again()))

        return T.residual(x, out, (x, *self._params), back, "feed_forward")


class ConvolutionModule(Module):
    """Residual convolution module, one node: x + (layer-norm -> pointwise
    (2x) -> GLU -> depthwise -> batch-norm -> swish -> pointwise ->
    dropout)(x), batch-norm per clip as ``T.batch_norm``.

    The pointwise (kernel-1) convolutions are per-frame affine maps, so they
    are ``Linear`` layers; only the depthwise convolution, of odd length, is
    a ``conv1d``.
    """

    def __init__(self, dim, kernel_size, dropout, rng):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"depthwise kernel {kernel_size} must be odd and positive")
        T.dropout_cut(dropout, ConfigError)
        self.norm = LayerNorm(dim)
        self.pointwise_in = Linear(dim, 2 * dim, rng)
        # No depthwise bias: the batch-norm right after removes any
        # per-channel constant, so it could never train.
        self.depthwise = _glorot(rng, kernel_size, kernel_size, (kernel_size, dim))
        self.batch_norm = BatchNorm(dim)
        self.pointwise_out = Linear(dim, dim, rng)
        self.dropout = dropout
        self._params = tuple(self.parameters())

    def __call__(self, x: Tensor, rng) -> Tensor:
        h, norm_back, h_again = self.norm.kernel(x, "conv_module")
        bn, clips = self.batch_norm, len(T.clip_rngs(rng))
        h, in_back = self.pointwise_in.kernel(h)
        h, glu_back = T.glu_kernel(h)
        h, conv_back = T.conv1d_kernel(h, self.depthwise, clips)
        h, bn_back = T.batch_norm_kernel(
            h, bn.gain, bn.bias, bn.running_mean, bn.running_var, self.training, clips
        )
        s, d = T.swish_kernel(h, out=h)
        out, out_back = self.pointwise_out.kernel(s)
        out, drop_back = T.dropout_kernel(out, self.dropout, rng, self.training, out=out)

        def back(g):
            gh = out_back(drop_back(g), s)
            gh = bn_back(np.multiply(d, gh, out=d))
            return norm_back(in_back(glu_back(conv_back(gh)), h_again()))

        return T.residual(x, out, (x, *self._params), back, "conv_module")


class SelfAttention(Module):
    """Residual multi-head self-attention over each clip, one node: x +
    (layer-norm -> q/k/v -> attention -> out -> dropout)(x).

    No positional terms are added; the preceding convolution module carries
    the positional information.
    """

    def __init__(self, dim, num_heads, dropout, rng):
        if num_heads < 1:
            raise ConfigError(f"num_heads {num_heads} must be >= 1")
        if dim % num_heads != 0:
            raise ConfigError(f"dim {dim} not divisible by {num_heads} heads")
        T.dropout_cut(dropout, ConfigError)
        self.num_heads = num_heads
        self.norm = LayerNorm(dim)
        self.query = Linear(dim, dim, rng)
        # A key bias shifts every logit in a softmax row equally, so it can
        # never train; leave it out.
        self.key = Linear(dim, dim, rng, bias=False)
        self.value = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)
        self.dropout = dropout
        self._params = tuple(self.parameters())

    def __call__(self, x: Tensor, rng) -> Tensor:
        h, norm_back, h_again = self.norm.kernel(x, "self_attention")
        q, q_back = self.query.kernel(h)
        k, k_back = self.key.kernel(h)
        v, v_back = self.value.kernel(h)
        a, attn_back = T.attention_kernel(q, k, v, self.num_heads, len(T.clip_rngs(rng)))
        out, out_back = self.out.kernel(a)
        out, drop_back = T.dropout_kernel(out, self.dropout, rng, self.training, out=out)

        def back(g):
            gq, gk, gv = attn_back(out_back(drop_back(g), a))
            # The normalized input's gradient sums q's, k's and v's parts in
            # that order, as backward would over projection nodes made v, k, q.
            hv = h_again()
            gh = q_back(gq, hv)
            gh += k_back(gk, hv)
            gh += v_back(gv, hv)
            return norm_back(gh)

        return T.residual(x, out, (x, *self._params), back, "self_attention")


class ConformerBlock(Module):
    """Half-step FFN -> convolution module -> MHSA -> half-step FFN -> layer-norm.

    Every sub-module returns its input plus its output, the FFNs half their
    output (macaron style).
    """

    def __init__(self, dim, num_heads, ffn_dim, kernel_size, dropout, rng):
        self.ffn_pre = FeedForward(dim, ffn_dim, dropout, rng)
        self.conv = ConvolutionModule(dim, kernel_size, dropout, rng)
        self.attention = SelfAttention(dim, num_heads, dropout, rng)
        self.ffn_post = FeedForward(dim, ffn_dim, dropout, rng)
        self.norm = LayerNorm(dim)

    def __call__(self, x: Tensor, rng) -> Tensor:
        x = self.ffn_pre(x, rng)
        x = self.conv(x, rng)
        x = self.attention(x, rng)
        return self.norm(self.ffn_post(x, rng))


class ContextEncoder(Module):
    """linear -> conformer blocks -> linear, latent dim in and out."""

    def __init__(self, config: ModelConfig, rng):
        d, dz = config.embed_dim, config.latent_dim
        self.proj_in = Linear(dz, d, rng)
        self.blocks = [
            ConformerBlock(
                d, config.num_heads, config.ffn_dim,
                config.kernel_first if i == 0 else config.kernel_rest, config.dropout, rng,
            )
            for i in range(config.num_blocks)
        ]
        self.proj_out = Linear(d, dz, rng)

    def __call__(self, z: Tensor, rng) -> Tensor:
        h = self.proj_in(z)
        for block in self.blocks:
            h = block(h, rng)
        return self.proj_out(h)


# Most rows, all views counted, that one stacked graph may hold. One BLAS
# thread on a 2-vCPU Xeon host, cf_S's projections with each block's
# weights streamed from memory: a 125-row sgemm runs at ~105-110 GFLOP/s
# and a 250-row one at ~118-127. A toy fine-tune step (batch 16 x 2 s, both
# views in one graph, 50 rows a clip) at 1/2/4/8 clips a graph took
# 95/71/48/50 ms (medians of 3 processes of 15 steps), so past ~200 rows a
# step gains nothing. 256 rows keep the toy groups (pretraining 8 x 25,
# fine-tuning 4 x 2 x 25, evaluation 10 x 25) and pair the 125-row cf_S
# clips. A two-clip graph holds about twice a clip's activations (a cf_S
# step's tracemalloc peak: 78.4 MB at one clip a graph with the graph the
# sub-modules held before, 155.4 MB at two, 122.5 MB at two now that they
# hold no layer-norm output, standardized rows or first FFN mask); it
# grows with the model's width too.
GROUP_ROWS = 256


def clip_groups(frame_counts) -> list[range]:
    """Runs of consecutive clips to stack into one graph each, in batch order.

    ``frame_counts[i]`` is a tuple of clip i's latent frame counts, one per
    view that the same backward spans, so a clip's rows are their sum. Each
    run of consecutive clips with equal counts splits into the fewest
    near-equal groups of at most ``GROUP_ROWS`` rows; a clip over that
    forms a group by itself.
    """
    groups, start, n = [], 0, len(frame_counts)
    while start < n:
        stop = start + 1
        while stop < n and frame_counts[stop] == frame_counts[start]:
            stop += 1
        per_group = max(1, GROUP_ROWS // max(1, sum(frame_counts[start])))
        parts = -(-(stop - start) // per_group)
        size, extra = divmod(stop - start, parts)
        for part in range(parts):
            end = start + size + (part < extra)
            groups.append(range(start, end))
            start = end
    return groups


def check_stackable(frame_counts, stack_factor: int):
    """Raise ShapeError when a clip has fewer logmel frames than one stack."""
    shortest = min(frame_counts, default=stack_factor)
    if shortest < stack_factor:
        raise ShapeError(f"cannot stack {stack_factor} frames out of {shortest}")


def time_stack(frames: np.ndarray, stack_factor: int) -> np.ndarray:
    """Concatenate every ``stack_factor`` consecutive rows; drop the remainder."""
    t, d = frames.shape
    check_stackable([t], stack_factor)
    t_out = t // stack_factor
    return frames[: t_out * stack_factor].reshape(t_out, d * stack_factor)


class FeatureEncoder(Module):
    """Time stacking followed by a linear map to latent frames."""

    def __init__(self, config: ModelConfig, rng):
        self.stack_factor = config.stack_factor
        self.proj = Linear(NUM_MEL_BANDS * config.stack_factor, config.latent_dim, rng)

    def __call__(self, frames) -> Tensor:
        """A list of clips' logmels that stack to equal lengths; a bare
        matrix is a list holding one clip."""
        clips = frames if isinstance(frames, list) else [frames]
        stacked = [time_stack(np.asarray(f), self.stack_factor) for f in clips]
        if len({s.shape[0] for s in stacked}) > 1:
            raise ShapeError(f"clips of unequal latent lengths {[len(s) for s in stacked]}")
        return self.proj(Tensor(np.concatenate(stacked, dtype=self.proj.weight.values.dtype)))


def sample_mask(num_frames: int, rate: float = 0.30, span_length: int = 10, *, rng) -> np.ndarray:
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
    return T.add(T.mul(z, keep), T.linear(column, mask_embedding))


class ConformerModel(Module):
    """Feature encoder + learned mask embedding + conformer context encoder."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng([seed, 0xC0F])
        self.config = config
        self.feature_encoder = FeatureEncoder(config, rng)
        self.mask_embedding = T.parameter(
            rng.uniform(-0.1, 0.1, size=(1, config.latent_dim)).astype(np.float32)
        )
        self.context_encoder = ContextEncoder(config, rng)

    def encode_features(self, frames) -> Tensor:
        """Latent frames Z, (T // stack_factor) x latent_dim.

        ``frames`` may be a list of equal-length clips' logmels; their latent
        frames are stacked in list order.
        """
        return self.feature_encoder(frames)

    def contextualize(self, z: Tensor, rng=None) -> Tensor:
        """Context outputs, same shape as z.

        ``rng`` draws the dropout masks of one clip. When z stacks B
        equal-length clips, it is a list of B generators, one per clip, and
        every clip's output equals that of the clip alone with its generator;
        in evaluation mode nothing is drawn, so the list may hold None.
        Without generators (``rng`` None) z is one clip and nothing may be
        drawn: dropout in training mode then raises ConfigError.
        """
        return self.context_encoder(z, rng)

    def embed(self, frames) -> Tensor:
        """Unmasked end-to-end encoding (feature extraction path). A list of
        clips is one stack, in which each clip is encoded as if alone."""
        rng = [None] * len(frames) if isinstance(frames, list) else None
        return self.contextualize(self.encode_features(frames), rng)


def param_count(config: ModelConfig) -> int:
    """Number of trainable scalars in a freshly built model."""
    return sum(p.values.size for p in ConformerModel(config).parameters())

"""Finite-difference verification suite.

Checks every autodiff primitive (the per-clip ones also on a stack of two
clips), the three fused sub-module nodes, one full conformer block, and the
end-to-end contrastive loss of a two-block model against central
differences, in both single and double precision. Thresholds: 1e-3 for
float32 graphs, 1e-5 for float64 graphs, at eps=1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .model import ConformerBlock, ConformerModel, ConvolutionModule, FeedForward, ModelConfig
from .model import SelfAttention, apply_mask, time_stack
from .pretrain import contrastive_loss
from .tensor import Tensor, grad_check

SINGLE_TOLERANCE = 1e-3
DOUBLE_TOLERANCE = 1e-5


@dataclass
class CheckResult:
    name: str
    precision: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def module_grad_check(build, readout, seed, dtype, max_coords=4, eps=2e-5):
    """Check a module's gradients w.r.t. all of its parameters and the input.

    ``build(rng) -> (module, input_array)``, a float32 module that the check
    casts to ``dtype``; ``readout(module, x)`` returns a scalar Tensor.
    ``grad_check`` perturbs the module's own parameter tensors in place and
    restores them, so the readout reads the module as it stands. The default
    step is smaller than the primitive checks' 1e-4 because the composite
    losses carry more curvature (eps^2 truncation).
    """
    rng = np.random.default_rng(seed)
    module, x = build(rng)
    module.astype(dtype)
    return grad_check(
        lambda xt, *params: readout(module, xt),
        [Tensor(x.astype(dtype))] + module.parameters(),
        eps=eps,
        rng=np.random.default_rng(seed + 1),
        max_coords_per_tensor=max_coords,
        min_grad_fraction=1e-3,
    )


# ---------------------------------------------------------------------------
# Primitive cases


def _readout(rng, shape, dtype):
    w = Tensor(rng.normal(size=shape).astype(dtype))
    return lambda out: T.reduce_sum(T.mul(out, w))


def primitive_cases():
    """name -> (rng, dtype) -> (fn, points); fn is deterministic across calls.

    Most cases are a row of an input table: one draw per input, in order,
    each a shape (standard normal) or a function of the generator. With a
    readout, weights w of the output's shape are drawn next and the case
    checks sum(op(...) * w); without one, op itself returns the scalar.
    Cases that also draw constants (candidates, targets, running statistics,
    a dropout seed) have builders of their own, so every draw keeps its
    place in the generator's stream.
    """
    cases = {}

    def draw(rng, dtype, *draws):
        return [
            Tensor((rng.normal(size=d) if isinstance(d, tuple) else d(rng)).astype(dtype))
            for d in draws
        ]

    def case(name, op, *draws, readout=True):
        def build(rng, dtype):
            points = draw(rng, dtype, *draws)
            if not readout:
                return op, points
            with T.no_grad():
                out_shape = op(*(Tensor(p.values) for p in points)).shape
            ro = _readout(rng, out_shape, dtype)
            return (lambda *xs: ro(op(*xs))), points

        cases[name] = build

    def special(build):
        cases[build.__name__] = build
        return build

    def gain(n):
        return lambda rng: rng.normal(size=n) * 0.2 + 1.0

    case("sigmoid", T.sigmoid, (3, 4))
    case("swish", T.swish, (3, 4))
    case("glu", T.glu, (3, 6))
    case("l2_normalize_rows", T.l2_normalize_rows, (3, 4))
    case("sum_all", lambda t: T.reduce_sum(t), (3, 4))
    case("sum_per_clip", lambda t: T.reduce_sum(t, clips=1), (3, 4))
    case("mean_2clips", lambda t: T.reduce_mean(t, clips=2), (4, 3))
    case("rows", lambda t: T.rows(t, 1, 3), (4, 3))
    case("scale", lambda t: T.mul(t, 1.7), (3, 4))
    case("add", T.add, (3, 4), (3, 4))
    case("mul", T.mul, (3, 4), (3, 4))
    case("div", T.div, (3, 4), lambda rng: np.abs(rng.normal(size=(3, 4))) + 0.5)
    case("linear", T.linear, (3, 4), (4, 2))
    case("conv1d_depthwise", T.conv1d, (7, 3), (5, 3))
    case("conv1d_depthwise_2clips", lambda x, k: T.conv1d(x, k, clips=2), (8, 3), (5, 3))
    case("linear_bias", T.linear, (3, 4), (4, 2), (2,))

    @special
    def info_nce(rng, dtype):
        points = draw(rng, dtype, (6, 4), (6, 4))
        masked = np.array([0, 2, 3, 5])
        candidates = np.array(
            [[t, *rng.choice(masked[masked != t], 2, replace=False)] for t in masked]
        )
        return (lambda c, z: T.info_nce(c, z, [candidates], 1.7)), points

    # Hard targets and well-separated views keep every gradient away from 0,
    # where the relative error would measure only truncation noise.
    @special
    def binary_cross_entropy(rng, dtype):
        probs = Tensor(rng.uniform(0.1, 0.9, size=(2, 5)).astype(dtype))
        targets = rng.integers(0, 2, size=(2, 5)).astype(np.float64)
        return (lambda p: T.binary_cross_entropy(p, targets)), [probs]

    case(
        "symmetric_bernoulli_kl", T.symmetric_bernoulli_kl,
        lambda rng: rng.uniform(0.1, 0.4, size=5), lambda rng: rng.uniform(0.6, 0.9, size=5),
        readout=False,
    )
    for name, rows, clips in (("attention", 5, 1), ("attention_2clips", 6, 2)):
        case(
            name, lambda a, b, c, clips=clips: T.attention(a, b, c, num_heads=2, clips=clips),
            (rows, 8), (rows, 8), (rows, 8),
        )
    case("layer_norm", T.layer_norm, (3, 8), gain(8), (8,))
    for name, rows, clips in (("batch_norm_train", 6, 1), ("batch_norm_train_2clips", 8, 2)):
        case(
            name,
            lambda x, g, b, clips=clips: T.batch_norm(
                x, g, b, np.zeros(5), np.ones(5), training=True, clips=clips
            ),
            (rows, 5), gain(5), (5,),
        )

    @special
    def batch_norm_eval(rng, dtype):
        points = draw(rng, dtype, (6, 5), gain(5), (5,))
        rm = rng.normal(size=5)
        rv = np.abs(rng.normal(size=5)) + 0.5
        ro = _readout(rng, (6, 5), dtype)

        def fn(xx, gg, bb):
            return ro(T.batch_norm(xx, gg, bb, rm.copy(), rv.copy(), training=False))

        return fn, points

    @special
    def dropout_fixed_mask(rng, dtype):
        x = draw(rng, dtype, (4, 5))
        seed = int(rng.integers(0, 1 << 30))
        ro = _readout(rng, (4, 5), dtype)
        # Fresh identically-seeded stream per call keeps the mask fixed.
        return (lambda t: ro(T.dropout(t, 0.4, np.random.default_rng(seed)))), x

    return cases


# ---------------------------------------------------------------------------
# Composite cases


def _tiny_block(rng):
    block = ConformerBlock(32, 4, 48, 5, dropout=0.1, rng=rng)
    x = rng.normal(size=(4, 32))
    return block, x


def _block_readout(seed):
    def readout(block, xt):
        w = Tensor(np.random.default_rng(seed).normal(size=(4, 32)).astype(xt.values.dtype))
        out = block(xt, np.random.default_rng(seed + 7))
        return T.reduce_sum(T.mul(out, w))

    return readout


def check_block(seed: int, dtype) -> float:
    return module_grad_check(_tiny_block, _block_readout(seed), seed, dtype, max_coords=4)


# name -> (build(rng), input rows, clips) of the fused sub-module checks.
SUB_MODULES = {
    "feed_forward": (lambda rng: FeedForward(8, 12, 0.4, rng), 5, 1),
    "conv_module_2clips": (lambda rng: ConvolutionModule(8, 3, 0.4, rng), 8, 2),
    "self_attention_2clips": (lambda rng: SelfAttention(8, 2, 0.4, rng), 6, 2),
}


def check_sub_module(name: str, seed: int, dtype) -> float:
    """A fused sub-module node w.r.t. its input and its module's parameters.
    Each call draws the dropout masks from freshly seeded per-clip streams,
    so they stay fixed."""
    make, rows, clips = SUB_MODULES[name]

    def readout(module, xt):
        w = Tensor(np.random.default_rng(seed).normal(size=(rows, 8)).astype(xt.values.dtype))
        rngs = [np.random.default_rng([seed, 7, i]) for i in range(clips)]
        return T.reduce_sum(T.mul(module(xt, rngs), w))

    return module_grad_check(lambda rng: (make(rng), rng.normal(size=(rows, 8))), readout, seed, dtype)


def check_end_to_end(seed: int, dtype) -> float:
    """Contrastive loss through a 2-block model, leaves = stacked input + params."""

    def build(rng):
        model_seed = int(rng.integers(0, 1 << 30))
        cfg = ModelConfig(
            num_blocks=2,
            embed_dim=32,
            num_heads=4,
            ffn_dim=48,
            stack_factor=4,
            kernel_first=5,
            kernel_rest=3,
            dropout=0.1,
        )
        model = ConformerModel(cfg, seed=model_seed)
        frames = rng.normal(size=(32, 64))
        return model, time_stack(frames, 4)

    mask = np.zeros(8, dtype=bool)
    mask[[1, 2, 3, 6]] = True

    def readout(model, xt):
        z = model.feature_encoder.proj(xt)
        zm = apply_mask(z, mask, model.mask_embedding)
        c = model.contextualize(zm, np.random.default_rng(seed + 13))
        return contrastive_loss(c, z, mask, num_distractors=2, rng=np.random.default_rng(seed))

    return module_grad_check(build, readout, seed, dtype, max_coords=3)


# name -> (check(seed, dtype), first seed) of each composite row, in row order.
COMPOSITE_CASES = {
    "feed_forward": (partial(check_sub_module, "feed_forward"), 4000),
    "conv_module_2clips": (partial(check_sub_module, "conv_module_2clips"), 4100),
    "self_attention_2clips": (partial(check_sub_module, "self_attention_2clips"), 4200),
    "conformer_block_d32": (check_block, 2000),
    "contrastive_2block_e2e": (check_end_to_end, 3000),
}


def run_gradcheck_suite(points_per_case: int = 10, log=None) -> list[CheckResult]:
    """Run the full verification suite and return one result row per case."""
    if points_per_case < 1:
        raise ConfigError(f"points_per_case must be >= 1, got {points_per_case}")
    results = []

    def record(name, precision, err, tol):
        row = CheckResult(name, precision, err, tol)
        results.append(row)
        if log is not None:
            status = "ok" if row.passed else "FAIL"
            log(f"{name:28s} {precision:7s} max_rel_err={err:.3e} tol={tol:.0e} {status}")

    for dtype, tol, label in (
        (np.float32, SINGLE_TOLERANCE, "single"),
        (np.float64, DOUBLE_TOLERANCE, "double"),
    ):
        for name, make in primitive_cases().items():
            worst = 0.0
            for point in range(points_per_case):
                fn, pts = make(np.random.default_rng(1000 + point), dtype)
                err = grad_check(fn, pts, rng=np.random.default_rng(point))
                worst = max(worst, err)
            record(name, label, worst, tol)
        for name, (check, first) in COMPOSITE_CASES.items():
            worst = max(check(first + p, dtype) for p in range(points_per_case))
            record(name, label, worst, tol)
    return results

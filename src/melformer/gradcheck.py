"""Finite-difference verification suite.

Checks every autodiff primitive (the per-clip ones also on a stack of two
clips), the three fused sub-module nodes, one full conformer block, and the
end-to-end contrastive loss of a two-block model against central
differences, in both single and double precision. Thresholds: 1e-3 for
float32 graphs, 1e-5 for float64 graphs, at eps=1e-4 (2e-5 for the
composite rows).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _weighted_sum(dropout_rng):
    """The readout sum(module(x, dropout_rng(seed)) * w), w standard normal
    of the output's shape drawn from ``seed``. Each call makes its streams
    afresh, so the dropout masks stay fixed."""

    def readout(module, xt, seed):
        out = module(xt, dropout_rng(seed))
        w = np.random.default_rng(seed).normal(size=out.shape).astype(xt.values.dtype)
        return T.reduce_sum(T.mul(out, Tensor(w)))

    return readout


def _per_clip(clips):
    return _weighted_sum(lambda seed: [np.random.default_rng([seed, 7, i]) for i in range(clips)])


def _two_block_model(rng):
    cfg = ModelConfig(num_blocks=2, embed_dim=32, num_heads=4, ffn_dim=48, stack_factor=4,
                      kernel_first=5, kernel_rest=3, dropout=0.1)
    model = ConformerModel(cfg, seed=int(rng.integers(0, 1 << 30)))
    return model, time_stack(rng.normal(size=(32, 64)), 4)


_E2E_MASK = np.isin(np.arange(8), [1, 2, 3, 6])


def _contrastive(model, xt, seed):
    """The contrastive loss of a masked 2-block model, from the stacked input on."""
    z = model.feature_encoder.proj(xt)
    zm = apply_mask(z, _E2E_MASK, model.mask_embedding)
    c = model.contextualize(zm, np.random.default_rng(seed + 13))
    return contrastive_loss(c, z, _E2E_MASK, num_distractors=2, rng=np.random.default_rng(seed))


# name -> (build(rng) -> (float32 module, input), readout(module, xt, seed),
# first seed, coordinates checked per tensor) of each composite row, in row
# order: the fused sub-module nodes (8-d; the last two on a stack of two
# clips), one conformer block, and the end-to-end contrastive loss.
COMPOSITE_CASES = {
    "feed_forward": (
        lambda rng: (FeedForward(8, 12, 0.4, rng), rng.normal(size=(5, 8))),
        _per_clip(1), 4000, 4,
    ),
    "conv_module_2clips": (
        lambda rng: (ConvolutionModule(8, 3, 0.4, rng), rng.normal(size=(8, 8))),
        _per_clip(2), 4100, 4,
    ),
    "self_attention_2clips": (
        lambda rng: (SelfAttention(8, 2, 0.4, rng), rng.normal(size=(6, 8))),
        _per_clip(2), 4200, 4,
    ),
    "conformer_block_d32": (
        lambda rng: (ConformerBlock(32, 4, 48, 5, dropout=0.1, rng=rng), rng.normal(size=(4, 32))),
        _weighted_sum(lambda seed: np.random.default_rng(seed + 7)), 2000, 4,
    ),
    "contrastive_2block_e2e": (_two_block_model, _contrastive, 3000, 3),
}


def check_composite(name: str, seed: int, dtype) -> float:
    """A composite row at one point: the readout's gradients w.r.t. the input
    and every parameter of the module, built in float32 from ``seed`` and
    cast to ``dtype``. ``grad_check`` perturbs the module's own parameters in
    place and restores them, so the readout reads the module as it stands.
    The step is smaller than the primitive checks' 1e-4 because the composite
    losses carry more curvature (eps^2 truncation)."""
    build, readout, _, coords = COMPOSITE_CASES[name]
    module, x = build(np.random.default_rng(seed))
    module.astype(dtype)
    return grad_check(
        lambda xt, *params: readout(module, xt, seed),
        [Tensor(x.astype(dtype))] + module.parameters(),
        eps=2e-5,
        rng=np.random.default_rng(seed + 1),
        max_coords_per_tensor=coords,
        min_grad_fraction=1e-3,
    )


def run_gradcheck_suite(points_per_case: int = 10, log=None) -> list[CheckResult]:
    """Run the full verification suite and return one result row per case:
    every primitive, then every composite, in single then double precision."""
    if points_per_case < 1:
        raise ConfigError(f"points_per_case must be >= 1, got {points_per_case}")
    primitives = primitive_cases()

    def check(name, point, dtype):
        if name in COMPOSITE_CASES:
            return check_composite(name, COMPOSITE_CASES[name][2] + point, dtype)
        fn, points = primitives[name](np.random.default_rng(1000 + point), dtype)
        return grad_check(fn, points, rng=np.random.default_rng(point))

    results = []
    for dtype, tol, label in (
        (np.float32, SINGLE_TOLERANCE, "single"),
        (np.float64, DOUBLE_TOLERANCE, "double"),
    ):
        for name in [*primitives, *COMPOSITE_CASES]:
            # np.max keeps a NaN error, which then fails the row.
            err = float(np.max([check(name, p, dtype) for p in range(points_per_case)]))
            row = CheckResult(name, label, err, tol)
            results.append(row)
            if log is not None:
                status = "ok" if row.passed else "FAIL"
                log(f"{name:28s} {label:7s} max_rel_err={err:.3e} tol={tol:.0e} {status}")
    return results

"""Finite-difference verification suite.

Checks every autodiff primitive, one full conformer block, and the
end-to-end contrastive loss of a two-block model against central
differences, in both single and double precision. Thresholds: 1e-3 for
float32 graphs, 1e-5 for float64 graphs, at eps=1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ConformerBlock, ConformerModel, ModelConfig, apply_mask, time_stack
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


def resolve_attr(root, dotted: str):
    """Walk a dotted parameter name ('blocks.0.norm.gain') to (owner, leaf)."""
    obj = root
    *path, leaf = dotted.split(".")
    for key in path:
        obj = obj[int(key)] if key.isdigit() else getattr(obj, key)
    return obj, leaf


def install_params(module, names, tensors):
    """Attach the given tensors as the module's parameters, by dotted name."""
    for name, t in zip(names, tensors):
        owner, leaf = resolve_attr(module, name)
        setattr(owner, leaf, t)


def module_grad_check(build, readout, seed, dtype, max_coords=4, eps=2e-5):
    """Check a module's gradients w.r.t. all of its parameters and the input.

    ``build(rng, dtype) -> (module, input_array)``; ``readout(module, x)``
    returns a scalar Tensor. The module's parameters are swapped for the
    checker's leaf tensors during the check and restored afterwards. The
    default step is smaller than the primitive checks' 1e-4 because the
    composite losses carry more curvature (eps^2 truncation).
    """
    rng = np.random.default_rng(seed)
    module, x = build(rng, dtype)
    names = [n for n, _ in module.named_parameters()]
    originals = [p for _, p in module.named_parameters()]
    points = [Tensor(x.astype(dtype))] + originals

    def fn(xt, *params):
        install_params(module, names, params)
        return readout(module, xt)

    try:
        return grad_check(
            fn,
            points,
            eps=eps,
            rng=np.random.default_rng(seed + 1),
            max_coords_per_tensor=max_coords,
            min_grad_fraction=1e-3,
        )
    finally:
        install_params(module, names, originals)


# ---------------------------------------------------------------------------
# Primitive cases


def _readout(rng, shape, dtype):
    w = Tensor(rng.normal(size=shape).astype(dtype))
    return lambda out: T.reduce_sum(T.mul(out, w))


def primitive_cases():
    """name -> (rng, dtype) -> (fn, points); fn is deterministic across calls."""
    cases = {}

    def simple(name, op, shape=(3, 4), transform=None):
        def build(rng, dtype):
            vals = rng.normal(size=shape)
            if transform is not None:
                vals = transform(vals)
            x = Tensor(vals.astype(dtype))
            with T.no_grad():
                out_shape = op(Tensor(x.values)).shape
            ro = _readout(rng, out_shape, dtype)
            return (lambda t: ro(op(t))), [x]

        cases[name] = build

    simple("neg", T.neg)
    simple("transpose", T.transpose)
    simple("log", T.log, transform=lambda v: np.abs(v) + 0.5)
    simple("sigmoid", T.sigmoid)
    simple("swish", T.swish)
    simple("softmax", T.softmax)
    simple("logsumexp", T.logsumexp)
    simple("glu", T.glu, shape=(3, 6))
    simple("l2_normalize_rows", T.l2_normalize_rows)
    simple("sum_all", lambda t: T.reduce_sum(t))
    simple("sum_axis0", lambda t: T.reduce_sum(t, axis=0))
    simple("mean_axis1", lambda t: T.reduce_mean(t, axis=1, keepdims=True))
    simple("col_slice", lambda t: T.col_slice(t, 1, 3))
    simple("take_rows", lambda t: T.take_rows(t, np.array([0, 2, 2])))
    simple("scale", lambda t: T.mul(t, 1.7))
    simple(
        "clamp_interior",
        lambda t: T.clamp(t, -10.0, 10.0),
        transform=lambda v: np.clip(v, -2.0, 2.0),
    )

    def pair(name, op, shape_a=(3, 4), shape_b=(3, 4), transform_b=None):
        def build(rng, dtype):
            a = Tensor(rng.normal(size=shape_a).astype(dtype))
            bv = rng.normal(size=shape_b)
            if transform_b is not None:
                bv = transform_b(bv)
            b = Tensor(bv.astype(dtype))
            with T.no_grad():
                out_shape = op(Tensor(a.values), Tensor(b.values)).shape
            ro = _readout(rng, out_shape, dtype)
            return (lambda x, y: ro(op(x, y))), [a, b]

        cases[name] = build

    pair("add", T.add)
    pair("add_bias", T.add, shape_b=(4,))
    pair("mul", T.mul)
    pair("div", T.div, transform_b=lambda v: np.abs(v) + 0.5)
    pair("matmul", T.matmul, shape_b=(4, 2))
    pair("linear", T.linear, shape_b=(4, 2))
    pair(
        "conv1d_depthwise",
        lambda x, k: T.conv1d(x, k, groups=3),
        shape_a=(7, 3),
        shape_b=(5, 3),
    )

    def linear_bias_case(rng, dtype):
        x, w, b = (Tensor(rng.normal(size=n).astype(dtype)) for n in ((3, 4), (4, 2), (2,)))
        ro = _readout(rng, (3, 2), dtype)
        return (lambda xx, ww, bb: ro(T.linear(xx, ww, bb))), [x, w, b]

    cases["linear_bias"] = linear_bias_case

    def gather(rng, dtype):
        a = Tensor(rng.normal(size=(3, 5)).astype(dtype))
        idx = rng.integers(0, 5, size=(3, 4))
        ro = _readout(rng, (3, 4), dtype)
        return (lambda x: ro(T.gather_cols(x, idx))), [a]

    cases["gather_cols"] = gather

    def attention_case(rng, dtype):
        q, k, v = (Tensor(rng.normal(size=(5, 8)).astype(dtype)) for _ in range(3))
        ro = _readout(rng, (5, 8), dtype)
        return (lambda a, b, c: ro(T.attention(a, b, c, num_heads=2))), [q, k, v]

    cases["attention"] = attention_case

    def layer_norm_case(rng, dtype):
        x = Tensor(rng.normal(size=(3, 8)).astype(dtype))
        g = Tensor((rng.normal(size=8) * 0.2 + 1.0).astype(dtype))
        b = Tensor(rng.normal(size=8).astype(dtype))
        ro = _readout(rng, (3, 8), dtype)
        return (lambda xx, gg, bb: ro(T.layer_norm(xx, gg, bb))), [x, g, b]

    cases["layer_norm"] = layer_norm_case

    def batch_norm_train_case(rng, dtype):
        x = Tensor(rng.normal(size=(6, 5)).astype(dtype))
        g = Tensor((rng.normal(size=5) * 0.2 + 1.0).astype(dtype))
        b = Tensor(rng.normal(size=5).astype(dtype))
        ro = _readout(rng, (6, 5), dtype)

        def fn(xx, gg, bb):
            rm = np.zeros(5, dtype=np.float64)
            rv = np.ones(5, dtype=np.float64)
            return ro(T.batch_norm(xx, gg, bb, rm, rv, training=True))

        return fn, [x, g, b]

    cases["batch_norm_train"] = batch_norm_train_case

    def batch_norm_eval_case(rng, dtype):
        x = Tensor(rng.normal(size=(6, 5)).astype(dtype))
        g = Tensor((rng.normal(size=5) * 0.2 + 1.0).astype(dtype))
        b = Tensor(rng.normal(size=5).astype(dtype))
        rm = rng.normal(size=5)
        rv = np.abs(rng.normal(size=5)) + 0.5
        ro = _readout(rng, (6, 5), dtype)

        def fn(xx, gg, bb):
            return ro(T.batch_norm(xx, gg, bb, rm.copy(), rv.copy(), training=False))

        return fn, [x, g, b]

    cases["batch_norm_eval"] = batch_norm_eval_case

    def dropout_case(rng, dtype):
        x = Tensor(rng.normal(size=(4, 5)).astype(dtype))
        seed = int(rng.integers(0, 1 << 30))
        ro = _readout(rng, (4, 5), dtype)
        # Fresh identically-seeded stream per call keeps the mask fixed.
        return (lambda t: ro(T.dropout(t, 0.4, np.random.default_rng(seed)))), [x]

    cases["dropout_fixed_mask"] = dropout_case

    return cases


# ---------------------------------------------------------------------------
# Composite cases


def _tiny_block(rng, dtype):
    block = ConformerBlock(32, 4, 48, 5, dropout=0.1, rng=rng, dtype=dtype)
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


def check_end_to_end(seed: int, dtype) -> float:
    """Contrastive loss through a 2-block model, leaves = stacked input + params."""

    def build(rng, dt):
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
        model = ConformerModel(cfg, seed=model_seed, dtype=dt)
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


def run_gradcheck_suite(points_per_case: int = 10, log=None) -> list[CheckResult]:
    """Run the full verification suite and return one result row per case."""
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
        worst = max(check_block(2000 + p, dtype) for p in range(points_per_case))
        record("conformer_block_d32", label, worst, tol)
        worst = max(check_end_to_end(3000 + p, dtype) for p in range(points_per_case))
        record("contrastive_2block_e2e", label, worst, tol)
    return results

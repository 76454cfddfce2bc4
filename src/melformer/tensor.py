"""Reverse-mode automatic differentiation over dense numpy arrays.

Provides the primitive set needed by a conformer encoder and its training
losses: matmul, the fused affine map ``linear`` (x @ W + b as one node),
elementwise arithmetic, slice/gather, normalizations, softmax-family ops,
fused multi-head attention, gated activations, dropout, depthwise 1-D
convolution, and a finite-difference gradient checker.

Tensors store float32 or float64 values (float32 is the training default,
float64 exists for gradient checking). Every primitive validates that its
output is finite and raises :class:`NumericError` otherwise. The computation
graph is recorded implicitly through parent links; ``backward`` topologically
sorts the reachable subgraph and visits each node exactly once, accumulating
gradients additively across fan-out.

``backward`` consumes the graph: each interior node drops its gradient, its
backward closure and its parent links as soon as it has been visited, so the
forward arrays the closures hold are freed during the sweep. A released node
keeps its values, but a second ``backward`` through it raises
:class:`GraphError`. Leaf gradients add up across ``backward`` calls.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import GraphError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "parameter",
    "no_grad",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "linear",
    "transpose",
    "col_slice",
    "take_rows",
    "gather_cols",
    "reduce_sum",
    "reduce_mean",
    "log",
    "clamp",
    "sigmoid",
    "swish",
    "glu",
    "softmax",
    "logsumexp",
    "attention",
    "layer_norm",
    "batch_norm",
    "dropout",
    "conv1d",
    "l2_normalize_rows",
    "grad_check",
]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends graph recording (evaluation mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _as_float_array(values, dtype=None) -> np.ndarray:
    arr = np.asarray(values)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    return arr.astype(np.float32)


class Tensor:
    """Dense array with an optional gradient slot.

    ``values`` is a numpy float32/float64 array (row-major). ``grad`` is
    lazily allocated with the same shape during backward. Values are treated
    as immutable while a graph references them; only the optimizer mutates
    parameter values, between steps.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        self.values = _as_float_array(values, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.values, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.values.dtype}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are folded into the op, not wrapped.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def parameter(values, dtype=None) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(values, requires_grad=True, dtype=dtype)


def _check_finite(values: np.ndarray, op: str):
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite output of '{op}'")


def _make(values: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    _check_finite(values, op)
    out = Tensor(values)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # Adopt ``g``: every backward rule hands over a fresh, writable array
        # that no other tensor holds (``add`` copies it for its second parent;
        # ``reduce_sum``/``reduce_mean`` materialize their broadcast views).
        t.grad = np.asarray(g, dtype=t.values.dtype)
    else:
        t.grad += g


def backward(loss: Tensor):
    """Backpropagate from a scalar loss to every requires_grad leaf.

    Gradients accumulate additively across fan-out and across calls, so the
    losses of several graphs may be back-propagated one after another into
    the same leaves. Call ``zero_grad`` on the leaves between steps.

    The graph is consumed: every interior node releases its gradient, its
    backward closure and its parent links once visited. Calling ``backward``
    again through any released node raises :class:`GraphError`.
    """
    if loss.values.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topological_order(loss)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.values)
    loss.grad += np.ones_like(loss.values)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = None
        node._parents = None


def _topological_order(root: Tensor):
    """Parents-before-children ordering of the subgraph reachable from root."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise GraphError("backward through a graph that an earlier backward consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    """a + b with b a tensor of the same shape, a trailing-dim bias, or a scalar."""
    if not isinstance(b, Tensor):
        s = float(b)

        def bwd_scalar(g):
            _accum(a, g)

        return _make(a.values + s, (a,), bwd_scalar, "add")
    if a.values.shape == b.values.shape:

        def bwd_same(g):
            _accum(a, g)
            _accum(b, g.copy())

        return _make(a.values + b.values, (a, b), bwd_same, "add")
    if b.values.ndim == 1 and a.values.ndim == 2 and a.values.shape[1] == b.values.shape[0]:

        def bwd_bias(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))

        return _make(a.values + b.values, (a, b), bwd_bias, "add")
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, -g)

    return _make(-a.values, (a,), bwd, "neg")


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        return add(a, neg(b))
    return add(a, -float(b))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a same-shape tensor or a scalar."""
    if not isinstance(b, Tensor):
        s = float(b)

        def bwd_scalar(g):
            _accum(a, g * s)

        return _make(a.values * s, (a,), bwd_scalar, "mul")
    if a.values.shape != b.values.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    av, bv = a.values, b.values

    def bwd(g):
        _accum(a, g * bv)
        _accum(b, g * av)

    return _make(av * bv, (a, b), bwd, "mul")


def div(a: Tensor, b) -> Tensor:
    """Elementwise quotient with a same-shape tensor or a scalar."""
    if not isinstance(b, Tensor):
        return mul(a, 1.0 / float(b))
    if a.values.shape != b.values.shape:
        raise ShapeError(f"div: shape mismatch {a.shape} vs {b.shape}")
    av, bv = a.values, b.values

    def bwd(g):
        _accum(a, g / bv)
        _accum(b, -g * av / (bv * bv))

    with np.errstate(divide="ignore", invalid="ignore"):
        values = av / bv
    return _make(values, (a, b), bwd, "div")


# ---------------------------------------------------------------------------
# Linear algebra and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree {a.shape} @ {b.shape}")
    av, bv = a.values, b.values

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ bv.T)
        if b.requires_grad:
            _accum(b, av.T @ g)

    return _make(av @ bv, (a, b), bwd, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias) as one node; bias is a (out,) vector added to every row."""
    if x.values.ndim != 2 or weight.values.ndim != 2:
        raise ShapeError("linear expects a 2-D input and a 2-D weight")
    if x.values.shape[1] != weight.values.shape[0]:
        raise ShapeError(f"linear: inner dims disagree {x.shape} @ {weight.shape}")
    if bias is not None and bias.values.shape != (weight.values.shape[1],):
        raise ShapeError(f"linear: bias {bias.shape} does not match weight {weight.shape}")
    xv, wv = x.values, weight.values
    out = xv @ wv
    parents = (x, weight)
    if bias is not None:
        out += bias.values
        parents = (x, weight, bias)

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ wv.T)
        if weight.requires_grad:
            _accum(weight, xv.T @ g)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _make(out, parents, bwd, "linear")


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError("transpose expects a 2-D tensor")

    def bwd(g):
        _accum(a, g.T)

    return _make(a.values.T.copy(), (a,), bwd, "transpose")


def col_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-D tensor."""
    if a.values.ndim != 2:
        raise ShapeError("col_slice expects a 2-D tensor")
    if not (0 <= start < stop <= a.values.shape[1]):
        raise ShapeError(f"col_slice [{start}:{stop}] out of range for {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.values)
        full[:, start:stop] = g
        _accum(a, full)

    return _make(a.values[:, start:stop].copy(), (a,), bwd, "col_slice")


def take_rows(a: Tensor, indices) -> Tensor:
    """Rows of a 2-D tensor selected by an integer index array."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.values.ndim != 2:
        raise ShapeError("take_rows expects a 2-D tensor")

    def bwd(g):
        full = np.zeros_like(a.values)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _make(a.values[idx].copy(), (a,), bwd, "take_rows")


def gather_cols(a: Tensor, index_matrix) -> Tensor:
    """out[i, j] = a[i, index_matrix[i, j]] for a 2-D tensor."""
    idx = np.asarray(index_matrix, dtype=np.intp)
    if a.values.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.values.shape[0]:
        raise ShapeError("gather_cols: index matrix must have one row per tensor row")
    rows = np.arange(idx.shape[0])[:, None]

    def bwd(g):
        full = np.zeros_like(a.values)
        np.add.at(full, (rows, idx), g)
        _accum(a, full)

    return _make(a.values[rows, idx], (a,), bwd, "gather_cols")


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.values.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, shape).astype(a.values.dtype))

    return _make(a.values.sum(axis=axis, keepdims=keepdims), (a,), bwd, "sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.values.shape
    n = a.values.size if axis is None else shape[axis]

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / n, shape).astype(a.values.dtype))

    return _make(a.values.mean(axis=axis, keepdims=keepdims), (a,), bwd, "mean")


# ---------------------------------------------------------------------------
# Pointwise nonlinearities


def log(a: Tensor) -> Tensor:
    av = a.values

    def bwd(g):
        _accum(a, g / av)

    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.log(av)
    return _make(values, (a,), bwd, "log")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is zero where the clamp is active."""
    inside = (a.values > lo) & (a.values < hi)

    def bwd(g):
        _accum(a, g * inside)

    return _make(np.clip(a.values, lo, hi), (a,), bwd, "clamp")


def sigmoid(a: Tensor) -> Tensor:
    y = expit(a.values)

    def bwd(g):
        _accum(a, g * y * (1.0 - y))

    return _make(y, (a,), bwd, "sigmoid")


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = expit(a.values)
    y = a.values * s

    def bwd(g):
        # ((1 - s) * y + s) * g in one temporary.
        d = 1.0 - s
        d *= y
        d += s
        d *= g
        _accum(a, d)

    return _make(y, (a,), bwd, "swish")


def glu(a: Tensor, axis: int = 1) -> Tensor:
    """Gated linear unit: split in half along axis, first half * sigmoid(second)."""
    n = a.values.shape[axis]
    if n % 2 != 0:
        raise ShapeError(f"glu: axis {axis} extent {n} is odd")
    half = n // 2
    sl_a = [slice(None)] * a.values.ndim
    sl_b = [slice(None)] * a.values.ndim
    sl_a[axis] = slice(0, half)
    sl_b[axis] = slice(half, n)
    sl_a, sl_b = tuple(sl_a), tuple(sl_b)
    va = a.values[sl_a]
    s = expit(a.values[sl_b])

    def bwd(g):
        full = np.zeros_like(a.values)
        full[sl_a] = g * s
        full[sl_b] = g * va * s * (1.0 - s)
        _accum(a, full)

    return _make(va * s, (a,), bwd, "glu")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, (g - inner) * y)

    return _make(y, (a,), bwd, "softmax")


def logsumexp(a: Tensor, axis: int = 1) -> Tensor:
    """log(sum(exp(a))) along axis, keepdims, computed stably."""
    m = a.values.max(axis=axis, keepdims=True)
    e = np.exp(a.values - m)
    s = e.sum(axis=axis, keepdims=True)
    w = e / s

    def bwd(g):
        _accum(a, g * w)

    return _make(np.log(s) + m, (a,), bwd, "logsumexp")


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over T x D projections.

    Head h owns columns [h*dh, (h+1)*dh) of q, k and v, with dh = D / num_heads.
    The output holds each head's softmax(q_h k_hᵀ / sqrt(dh)) v_h side by side,
    computed for all heads at once as one (H, T, dh) batched matmul.
    """
    if q.values.ndim != 2 or not q.values.shape == k.values.shape == v.values.shape:
        raise ShapeError(f"attention: q/k/v shapes disagree {q.shape}, {k.shape}, {v.shape}")
    t, d = q.values.shape
    if num_heads < 1 or d % num_heads != 0:
        raise ShapeError(f"attention: dim {d} not divisible by {num_heads} heads")
    dh = d // num_heads
    scale = dh**-0.5
    qh, kh, vh = (x.values.reshape(t, num_heads, dh).transpose(1, 0, 2) for x in (q, k, v))
    w = qh @ kh.transpose(0, 2, 1)
    w *= scale
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def bwd(g):
        gh = g.reshape(t, num_heads, dh).transpose(1, 0, 2)
        dw = gh @ vh.transpose(0, 2, 1)
        dw -= (dw * w).sum(axis=-1, keepdims=True)
        dw *= w
        dw *= scale
        grads = (dw @ kh, dw.transpose(0, 2, 1) @ qh, w.transpose(0, 2, 1) @ gh)
        for x, dx in zip((q, k, v), grads):
            _accum(x, dx.transpose(1, 0, 2).reshape(t, d))

    return _make((w @ vh).transpose(1, 0, 2).reshape(t, d), (q, k, v), bwd, "attention")


# ---------------------------------------------------------------------------
# Normalizations


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine."""
    if x.values.ndim != 2:
        raise ShapeError("layer_norm expects a 2-D tensor")
    d = x.values.shape[1]
    if gain.values.shape != (d,) or bias.values.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match the feature dim")
    xhat = x.values - x.values.mean(axis=1, keepdims=True)
    # The variance exactly as np.var forms it from the centred input.
    var = np.square(xhat).sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    gv = gain.values

    def bwd(g):
        _accum(gain, (g * xhat).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        gx = g * gv
        m1 = gx.mean(axis=1, keepdims=True)
        m2 = (gx * xhat).mean(axis=1, keepdims=True)
        _accum(x, (gx - m1 - xhat * m2) * inv)

    return _make(xhat * gv + bias.values, (x, gain, bias), bwd, "layer_norm")


def batch_norm(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel normalization over axis 0 (frames).

    Training mode normalizes by batch statistics and folds them into the
    running buffers with the given momentum; evaluation mode uses the running
    statistics, which then act as constants.
    """
    if x.values.ndim != 2:
        raise ShapeError("batch_norm expects a 2-D tensor")
    gv = gain.values
    if training:
        mu = x.values.mean(axis=0)
        xhat = x.values - mu
        var = np.square(xhat).sum(axis=0) / x.values.shape[0]
        running_mean[...] = ((1.0 - momentum) * running_mean + momentum * mu).astype(
            running_mean.dtype, copy=False
        )
        running_var[...] = ((1.0 - momentum) * running_var + momentum * var).astype(
            running_var.dtype, copy=False
        )
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv

        def bwd(g):
            _accum(gain, (g * xhat).sum(axis=0))
            _accum(bias, g.sum(axis=0))
            gx = g * gv
            m1 = gx.mean(axis=0)
            m2 = (gx * xhat).mean(axis=0)
            _accum(x, (gx - m1 - xhat * m2) * inv)

        return _make(xhat * gv + bias.values, (x, gain, bias), bwd, "batch_norm")

    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x.values - running_mean) * inv

    def bwd_eval(g):
        _accum(gain, (g * xhat).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        _accum(x, g * gv * inv)

    return _make(xhat * gv + bias.values, (x, gain, bias), bwd_eval, "batch_norm")


# ---------------------------------------------------------------------------
# Regularization


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; the mask is drawn from ``rng`` and kept for backward."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.values.shape) >= rate
    scale = x.values.dtype.type(1.0 / (1.0 - rate))

    def bwd(g):
        gx = g * keep
        gx *= scale
        _accum(x, gx)

    out = x.values * keep
    out *= scale
    return _make(out, (x,), bwd, "dropout")


# ---------------------------------------------------------------------------
# Convolution


def conv1d(x: Tensor, kernel: Tensor, groups: int) -> Tensor:
    """Same-padded depthwise 1-D cross-correlation over a T x C input.

    Each channel has its own filter: ``kernel`` is (k, C) and ``groups``
    must equal C. Kernels must have odd length so "same" zero padding is
    symmetric and output length equals input length. (A kernel-1 conv over
    all channels is a matmul; use ``linear``.)
    """
    if x.values.ndim != 2:
        raise ShapeError("conv1d expects a T x C input")
    t, c = x.values.shape
    if groups != c:
        raise ShapeError(f"conv1d: depthwise only, groups={groups} must equal {c} channels")
    kv = kernel.values
    k = kv.shape[0]
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel length {k} must be odd")
    if kv.ndim != 2 or kv.shape[1] != c:
        raise ShapeError(f"conv1d: depthwise kernel {kv.shape} incompatible with {c} channels")
    if t < 1:
        raise ShapeError("conv1d: empty input")
    pad = k // 2
    xp = np.zeros((t + 2 * pad, c), dtype=x.values.dtype)
    xp[pad : pad + t] = x.values
    out = np.zeros((t, c), dtype=np.result_type(x.values, kv))
    for dt in range(k):
        out += xp[dt : dt + t] * kv[dt]

    def bwd(g):
        if kernel.requires_grad:
            dk = np.zeros_like(kv)
            for dt in range(k):
                dk[dt] = (xp[dt : dt + t] * g).sum(axis=0)
            _accum(kernel, dk)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for dt in range(k):
                dxp[dt : dt + t] += g * kv[dt]
            _accum(x, dxp[pad : pad + t])

    return _make(out, (x, kernel), bwd, "conv1d")


# ---------------------------------------------------------------------------
# Similarity helpers


def l2_normalize_rows(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Scale each row to unit L2 norm, with eps added to the denominator norm."""
    if x.values.ndim != 2:
        raise ShapeError("l2_normalize_rows expects a 2-D tensor")
    norm = np.sqrt((x.values**2).sum(axis=1, keepdims=True))
    denom = norm + eps
    y = x.values / denom
    safe = np.maximum(norm, np.finfo(x.values.dtype).tiny)

    def bwd(g):
        dot = (g * x.values).sum(axis=1, keepdims=True)
        _accum(x, g / denom - x.values * (dot / (safe * denom * denom)))

    return _make(y, (x,), bwd, "l2_normalize_rows")


# ---------------------------------------------------------------------------
# Verification


def grad_check(
    fn,
    points,
    eps: float = 1e-4,
    rng=None,
    max_coords_per_tensor=None,
    min_grad_fraction=None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``fn`` maps the given point tensors to a scalar Tensor and must be
    deterministic across calls (re-create any RNG it uses internally).
    Analytic gradients are taken at the points' own dtype; the difference
    quotients are evaluated with the points cast to float64, because at small
    eps a float32 quotient is dominated by rounding noise. The relative error
    per coordinate is |analytic - cd| / max(|analytic|, |cd|, 1e-8).

    ``max_coords_per_tensor`` limits the check to a random coordinate subset
    (drawn from ``rng``), which keeps large-parameter checks tractable.
    ``min_grad_fraction`` restricts that sampling to coordinates whose
    analytic magnitude is at least the given fraction of the tensor's max;
    at coordinates ~1000x below the gradient scale the relative metric
    measures only rounding noise, so deep-composite checks exclude them.
    """
    if eps <= 0:
        raise ValueError(f"grad_check: eps must be positive, got {eps}")
    if isinstance(points, Tensor):
        points = [points]
    points = list(points)
    leaves = [Tensor(p.values.copy(), requires_grad=True) for p in points]
    out = fn(*leaves)
    if not isinstance(out, Tensor) or out.values.size != 1:
        raise ShapeError("grad_check: function must return a scalar tensor")
    backward(out)
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.values)
        for leaf in leaves
    ]

    probes = [p.values.astype(np.float64) for p in points]

    def evaluate() -> float:
        with no_grad():
            value = fn(*[Tensor(b) for b in probes])
        return float(value.values.reshape(()))

    max_rel = 0.0
    for ti, base in enumerate(probes):
        flat = base.reshape(-1)
        a_flat = analytic[ti].reshape(-1)
        pool = np.arange(flat.size)
        if min_grad_fraction is not None:
            floor = min_grad_fraction * np.abs(a_flat).max()
            informative = pool[np.abs(a_flat) >= floor]
            if informative.size:
                pool = informative
        if max_coords_per_tensor is not None and pool.size > max_coords_per_tensor:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(pool, size=max_coords_per_tensor, replace=False)
        else:
            coords = pool
        for j in coords:
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = evaluate()
            flat[j] = orig - eps
            f_minus = evaluate()
            flat[j] = orig
            cd = (f_plus - f_minus) / (2.0 * eps)
            a = float(a_flat[j])
            rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel

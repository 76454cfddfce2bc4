"""Reverse-mode automatic differentiation over dense numpy arrays.

Provides the primitive set needed by a conformer encoder and its training
losses: the affine map ``linear`` (x @ W, plus an optional bias, as one node),
elementwise arithmetic, reductions, the row slice ``rows``, normalizations,
fused multi-head attention, gated activations, dropout, depthwise 1-D
convolution, the three training losses as one node each (masked contrastive
``info_nce``, ``binary_cross_entropy`` and ``symmetric_bernoulli_kl``), and a
finite-difference gradient checker.

``node(values, parents, back, op)`` makes every node; a non-finite output
raises :class:`NumericError` naming ``op``. ``back(g)`` returns the first
parent's gradient, or a tuple of the first parents' gradients in order,
None where none is needed, and only ``backward`` adds them in. Below the
nodes, the array math of the primitives a conformer block uses is written
once, as ``*_kernel`` functions that return ``(out, back)``: their ``back``
adds the kernel's own parameters' gradients and returns the input's. A
primitive wraps one kernel in a node; a caller that chains kernels closes
the chain with ``residual``, x plus one node (``check_norm`` and
``dropout_cut`` serve it too). A kernel decides for itself what it keeps
for backward, and its ``back`` is always a callable.

Tensors store float32 or float64 values. Models are built in float32, and
``Module.astype(np.float64)`` casts one for gradient checking (its weights
are then the float32 draws, cast up). ``node`` records each tracked node
on a tape, by weak reference. A node's parents are made before it, so
``backward`` visits each node once in reverse creation order, and adds the
gradients of a fan-out in that order too.

A T x D tensor may stack several equal-length clips: ``clips`` row blocks of
T / clips frames each, in clip order. Per-frame primitives need not know.
The primitives that mix frames take the clip count and act on each clip on
its own, exactly as on a single clip: ``attention`` attends within a clip,
``conv1d`` zero-pads each clip, training ``batch_norm`` normalizes by each
clip's statistics, ``reduce_sum``/``reduce_mean`` pool each clip to one row
(without a clip count, every entry to one scalar), ``dropout`` draws each
clip's mask from that clip's generator, and ``info_nce`` averages the clips'
losses.

``backward`` consumes the tape: every node recorded since the last one
drops its gradient, backward closure and parent links once visited, so the
forward arrays the closures hold are freed during the sweep. A released node
keeps its values, but a node over it, or a ``backward`` from it, raises
:class:`GraphError`. Leaf gradients add up across ``backward`` calls.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ConfigError, GraphError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "parameter",
    "no_grad",
    "backward",
    "node",
    "add",
    "mul",
    "div",
    "linear",
    "reduce_sum",
    "reduce_mean",
    "rows",
    "sigmoid",
    "swish",
    "glu",
    "attention",
    "layer_norm",
    "batch_norm",
    "dropout",
    "conv1d",
    "residual",
    "l2_normalize_rows",
    "info_nce",
    "binary_cross_entropy",
    "symmetric_bernoulli_kl",
    "grad_check",
    "linear_kernel",
    "layer_norm_kernel",
    "batch_norm_kernel",
    "swish_kernel",
    "glu_kernel",
    "attention_kernel",
    "dropout_kernel",
    "conv1d_kernel",
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


class Tensor:
    """Dense array with an optional gradient slot.

    ``values`` is a numpy float32/float64 array (row-major); any other
    dtype is cast to float32. ``grad`` is lazily allocated with the same
    shape during backward; a leaf whose ``_grad_view`` an optimizer has set
    gets its first gradient copied into that view instead. Values are
    treated as immutable while a graph references them; only the optimizer
    mutates parameter values, between steps.
    """

    __slots__ = ("values", "requires_grad", "grad", "_grad_view", "_parents", "_backward", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        keep = values.dtype in (np.float32, np.float64)
        self.values = values if keep else values.astype(np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._grad_view = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.values.dtype}, requires_grad={self.requires_grad})"


def parameter(values) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(values, requires_grad=True)


# Weak references to the nodes recorded since the last ``backward``, in creation
# order; the dead ones a dropped forward leaves are pruned at ``_prune_at``.
_tape = []
_prune_at = 1 << 12


def node(values: np.ndarray, parents, back, op: str) -> Tensor:
    """The node ``op`` over ``parents``, recorded outside ``no_grad`` when a
    parent requires a gradient; ``back`` is as the module docstring says,
    and each array it returns must be fresh and writable: ``backward``
    adopts it without a copy."""
    global _prune_at
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite output of '{op}'")
    out = Tensor(values)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        if any(p._parents is None for p in parents):
            raise GraphError(f"'{op}' over a graph that an earlier backward consumed")
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = back
        _tape.append(weakref.ref(out))
        if len(_tape) >= _prune_at:
            _tape[:] = [ref for ref in _tape if ref() is not None]
            _prune_at = 2 * len(_tape) + (1 << 12)
    return out


def _accum(t: Tensor, g):
    if g is None or not t.requires_grad:
        return
    if t.grad is None:
        if t._grad_view is not None:
            # A parameter of an optimizer's arena: its gradient lives there.
            np.copyto(t._grad_view, g)
            t.grad = t._grad_view
            return
        # Adopt ``g``: every ``back`` hands over a fresh, writable array that
        # no other tensor holds (``add`` copies it for its second parent;
        # ``reduce_sum``/``reduce_mean`` materialize their broadcast views).
        t.grad = np.asarray(g, dtype=t.values.dtype)
    else:
        t.grad += g


def clip_rngs(rng) -> list:
    """A dropout generator argument as one generator per clip: a list or
    tuple holds one per clip of a stack, anything else serves one clip."""
    return list(rng) if isinstance(rng, (list, tuple)) else [rng]


def _by_clip(values: np.ndarray, clips: int, op: str) -> np.ndarray:
    """A stack of ``clips`` equal-length, non-empty clips, (clips * T, ...)
    viewed as (clips, T, ...)."""
    if clips < 1 or values.shape[0] % clips or not values.shape[0]:
        raise ShapeError(f"{op}: {values.shape[0]} rows do not split into {clips} equal clips")
    return values.reshape(clips, values.shape[0] // clips, *values.shape[1:])


# A training step's graph fills the top of the heap, and once the step has
# freed it glibc returns that memory to the OS, so the next step faults it
# back in (~1.5k minor faults a toy step). ``backward`` allocates this buffer
# while its graph is alive, above that memory, and holds it until the next
# ``backward``, so the top of the heap stays in use between steps.
_heap_anchor = None


def backward(loss: Tensor):
    """Backpropagate from a scalar loss to every requires_grad leaf.

    Gradients accumulate additively across fan-out and across calls, so the
    losses of several graphs may be back-propagated one after another into
    the same leaves. Reset the leaves' ``grad`` to None between steps.

    The tape is consumed: every node recorded since the last ``backward``,
    whether the loss reaches it or not, is released as the module docstring
    says, even if a ``back`` raises; back-propagate any other graph first.
    """
    global _heap_anchor
    if loss.values.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._parents is None:
        raise GraphError("backward from a graph that an earlier backward consumed")
    _heap_anchor = np.empty(1 << 13)
    nodes = [t for ref in _tape if (t := ref()) is not None]
    _tape.clear()
    _accum(loss, np.ones_like(loss.values))
    try:
        while nodes:
            t = nodes[-1]
            if t.grad is not None:
                _accum_all(t._parents, t._backward(t.grad))
            t.grad = t._backward = t._parents = None
            nodes.pop()
    finally:
        for t in nodes:  # left by a ``back`` that raised
            t.grad = t._backward = t._parents = None


def _accum_all(parents, grads):
    """Add what a node's ``back`` returned into its parents; a function of its
    own, so the gradients are released as soon as they are added in."""
    for p, g in zip(parents, grads if isinstance(grads, tuple) else (grads,)):
        _accum(p, g)


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    """a + b with b a tensor of the same shape or a scalar."""
    if not isinstance(b, Tensor):
        return node(a.values + float(b), (a,), lambda g: g, "add")
    if a.values.shape == b.values.shape:
        return node(a.values + b.values, (a, b), lambda g: (g, g.copy()), "add")
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a same-shape tensor or a scalar."""
    if not isinstance(b, Tensor):
        s = float(b)
        return node(a.values * s, (a,), lambda g: g * s, "mul")
    if a.values.shape != b.values.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    return node(av * bv, (a, b), lambda g: (g * bv, g * av), "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient of two same-shape tensors."""
    if a.values.shape != b.values.shape:
        raise ShapeError(f"div: shape mismatch {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    with np.errstate(divide="ignore", invalid="ignore"):
        values = av / bv
    return node(values, (a, b), lambda g: (g / bv, -g * av / (bv * bv)), "div")


# ---------------------------------------------------------------------------
# Linear algebra and reductions


def linear_kernel(xv: np.ndarray, weight: Tensor, bias: Tensor | None):
    """xv @ weight (+ bias) as ``(out, back)``: ``back(g, xv, need_x)`` adds
    the weight and bias gradients and returns g @ weightᵀ (None without
    ``need_x``). ``back`` does not hold xv: the caller passes it in again,
    held or formed anew with the same bits."""
    wv = weight.values
    out = xv @ wv
    if bias is not None:
        out += bias.values

    def back(g, xv, need_x=True):
        _accum(weight, xv.T @ g)
        if bias is not None:
            _accum(bias, g.sum(axis=0))
        return g @ wv.T if need_x else None

    return out, back


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias) as one node; bias is a (out,) vector added to every row."""
    if x.values.ndim != 2 or weight.values.ndim != 2:
        raise ShapeError("linear expects a 2-D input and a 2-D weight")
    if x.values.shape[1] != weight.values.shape[0]:
        raise ShapeError(f"linear: inner dims disagree {x.shape} @ {weight.shape}")
    if bias is not None and bias.values.shape != (weight.values.shape[1],):
        raise ShapeError(f"linear: bias {bias.shape} does not match weight {weight.shape}")
    xv = x.values
    out, back = linear_kernel(xv, weight, bias)
    parents = (x, weight) if bias is None else (x, weight, bias)
    return node(out, parents, lambda g: back(g, xv, x.requires_grad), "linear")


def _reduce(a: Tensor, clips, mean: bool) -> Tensor:
    """Sum, or with ``mean`` the mean, of every entry, or with ``clips`` of
    each clip's rows of the stack, one row per clip."""
    op = "mean" if mean else "sum"
    v, axis = (a.values, None) if clips is None else (_by_clip(a.values, clips, op), 1)
    n = v.size if axis is None else v.shape[1]

    def back(g):
        if axis is not None:
            g = np.expand_dims(g, 1)
        if mean:
            g = g / n
        return np.broadcast_to(g, v.shape).astype(v.dtype).reshape(a.values.shape)

    reduce = v.mean if mean else v.sum
    return node(reduce(axis=axis), (a,), back, op)


def reduce_sum(a: Tensor, clips: int | None = None) -> Tensor:
    """Sum of every entry, a scalar; with ``clips``, each clip of the stack
    sums to one row, so the result is (clips, ...)."""
    return _reduce(a, clips, mean=False)


def reduce_mean(a: Tensor, clips: int | None = None) -> Tensor:
    """Mean of every entry; ``clips`` as in :func:`reduce_sum`."""
    return _reduce(a, clips, mean=True)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of ``a``, a non-empty run, as a view of its values;
    the backward writes the gradient into zeros of ``a``'s shape."""
    if a.values.ndim < 1 or not 0 <= start < stop <= a.values.shape[0]:
        raise ShapeError(f"rows {start}:{stop} of a tensor of shape {a.shape}")

    def back(g):
        ga = np.zeros_like(a.values)
        ga[start:stop] = g
        return ga

    return node(a.values[start:stop], (a,), back, "rows")


# ---------------------------------------------------------------------------
# Pointwise nonlinearities


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, in one exp pass over a new array.

    exp may overflow to inf (the result is then exactly 0) or underflow to
    0 (exactly 1), and the reciprocal may underflow into subnormals; none of
    these is an error, whatever the caller's errstate.
    """
    s = np.negative(x)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)
    return s


def sigmoid(a: Tensor) -> Tensor:
    y = _logistic(a.values)
    return node(y, (a,), lambda g: g * y * (1.0 - y), "sigmoid")


def swish_kernel(av: np.ndarray, out=None):
    """av * sigmoid(av), into ``out`` if given, as ``(y, d)``. While graphs
    are being recorded, d is the derivative (1 - s) * y + s, which backward
    multiplies by g in place, ``np.multiply(d, g, out=d)``, so it runs once;
    a caller may fold a mask into d first (see ``dropout_kernel``). Under
    ``no_grad``, d is None."""
    s = _logistic(av)
    y = np.multiply(av, s, out=out)
    if not _GRAD_ENABLED:
        return y, None
    d = 1.0 - s
    d *= y
    d += s
    return y, d


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    y, d = swish_kernel(a.values)
    return node(y, (a,), lambda g: np.multiply(d, g, out=d), "swish")


def glu_kernel(av: np.ndarray):
    """First half of av's columns * sigmoid(second half), as ``(out, back)``."""
    half = av.shape[1] // 2
    va = av[:, :half]
    s = _logistic(av[:, half:])

    def back(g):
        full = np.empty_like(av)
        np.multiply(g, s, out=full[:, :half])
        gate = np.multiply(g, va, out=full[:, half:])
        gate *= s
        gate *= 1.0 - s
        return full

    return va * s, back


def glu(a: Tensor) -> Tensor:
    """Gated linear unit of a T x 2C input: first C columns * sigmoid(last C)."""
    if a.values.ndim != 2 or a.values.shape[1] % 2 != 0:
        raise ShapeError(f"glu expects a 2-D input with an even column count, got {a.shape}")
    out, back = glu_kernel(a.values)
    return node(out, (a,), back, "glu")


def attention_kernel(qv, kv, vv, num_heads: int, clips: int):
    """Multi-head attention of :func:`attention` as ``(out, back)``, with
    ``back(g)`` the (q, k, v) gradients."""
    n, d = qv.shape
    if num_heads < 1 or d % num_heads != 0:
        raise ShapeError(f"attention: dim {d} not divisible by {num_heads} heads")
    t = _by_clip(qv, clips, "attention").shape[1]
    dh = d // num_heads
    scale = dh**-0.5

    def heads(a):  # (clips * T, D) -> (clips, H, T, dh)
        return a.reshape(clips, t, num_heads, dh).swapaxes(1, 2)

    def merge(a):  # (clips, H, T, dh) -> (clips * T, D)
        return a.swapaxes(1, 2).reshape(n, d)

    qh, kh, vh = heads(qv), heads(kv), heads(vv)
    w = qh @ kh.swapaxes(-1, -2)
    w *= scale
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def back(g):
        gh = heads(g)
        dw = gh @ vh.swapaxes(-1, -2)
        dw -= (dw * w).sum(axis=-1, keepdims=True)
        dw *= w
        dw *= scale
        return merge(dw @ kh), merge(dw.swapaxes(-1, -2) @ qh), merge(w.swapaxes(-1, -2) @ gh)

    return merge(w @ vh), back


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, clips: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention over T x D projections.

    Head h owns columns [h*dh, (h+1)*dh) of q, k and v, with dh = D / num_heads.
    The output holds each head's softmax(q_h k_hᵀ / sqrt(dh)) v_h side by side,
    computed for all clips and heads at once as one (clips, H, T, dh) batched
    matmul; each clip's frames attend only to frames of the same clip.
    """
    if q.values.ndim != 2 or not q.values.shape == k.values.shape == v.values.shape:
        raise ShapeError(f"attention: q/k/v shapes disagree {q.shape}, {k.shape}, {v.shape}")
    out, back = attention_kernel(q.values, k.values, v.values, num_heads, clips)
    return node(out, (q, k, v), back, "attention")


# ---------------------------------------------------------------------------
# Normalizations

NORM_EPS = 1e-5  # added to the variance by layer_norm and batch_norm
BATCH_NORM_MOMENTUM = 0.1  # weight of a clip's statistics in the running ones


def _scale_shift(xhat: np.ndarray, gain: Tensor, bias: Tensor):
    """xhat * gain + bias per feature (last axis), as ``(out, back)`` where
    ``back(g, xhat)``, given xhat again, adds the gain and bias gradients
    and returns g * gain."""
    out = xhat * gain.values
    out += bias.values

    def back(g, xhat):
        _accum(gain, (g * xhat).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        return g * gain.values

    return out, back


def _standardize(xv: np.ndarray, gain: Tensor, bias: Tensor, view):
    """Standardize ``xv`` along axis 1 of its reshape to ``view``, then scale
    by ``gain`` and shift by ``bias`` per feature (last axis).

    Returns ``(out, back, again, mean, var)``, the statistics (view[0], 1,
    ...); ``again()`` forms out again. The standardized input is not held:
    whichever of the two runs first forms it again from xv and the
    statistics, with the same ufuncs and so the same bits. ``back`` and
    ``again`` hold xv, once, and the statistics.
    """
    v = xv.reshape(view)
    n = view[1]
    # The mean and variance exactly as np.mean and np.var form them.
    mu = v.sum(axis=1, keepdims=True)
    mu /= n
    xhat = v - mu
    var = np.square(xhat).sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    out, affine_back = _scale_shift(xhat.reshape(xv.shape), gain, bias)
    kept = None

    def standardized():  # formed again at most once, by whichever runs first
        nonlocal kept
        if kept is None:
            kept = v - mu
            kept *= inv
        return kept

    def back(g):
        xh = standardized()
        gx = affine_back(g, xh.reshape(xv.shape)).reshape(view)
        m1 = gx.sum(axis=1, keepdims=True)
        m1 /= n
        t = gx * xh
        m2 = t.sum(axis=1, keepdims=True)
        m2 /= n
        gx -= m1
        gx -= np.multiply(xh, m2, out=t)
        gx *= inv
        return gx.reshape(xv.shape)

    def again():
        return _scale_shift(standardized().reshape(xv.shape), gain, bias)[0]

    return out, back, again, mu, var


def check_norm(x: Tensor, gain: Tensor, bias: Tensor, op: str):
    """Raise ShapeError, naming ``op``, unless x is 2-D and gain and bias match its columns."""
    if x.values.ndim != 2:
        raise ShapeError(f"{op} expects a 2-D tensor")
    d = x.values.shape[1]
    if gain.values.shape != (d,) or bias.values.shape != (d,):
        raise ShapeError(f"{op}: gain/bias must match the feature dim")


def layer_norm_kernel(xv: np.ndarray, gain: Tensor, bias: Tensor):
    """Layer norm as ``(out, back, again)``, with ``again()`` forming out
    again bit for bit; both hold what ``_standardize`` says."""
    return _standardize(xv, gain, bias, xv.shape)[:3]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine."""
    check_norm(x, gain, bias, "layer_norm")
    out, back, _ = layer_norm_kernel(x.values, gain, bias)
    return node(out, (x, gain, bias), back, "layer_norm")


def batch_norm_kernel(xv, gain, bias, running_mean, running_var, training: bool, clips: int):
    """Batch norm of :func:`batch_norm` as ``(out, back)``; training mode
    folds each clip's statistics into the running buffers here, and its
    ``back`` holds what ``_standardize`` says."""
    if not training:
        inv = 1.0 / np.sqrt(running_var + NORM_EPS)
        xhat = (xv - running_mean) * inv
        out, affine_back = _scale_shift(xhat, gain, bias)

        def back(g):
            gx = affine_back(g, xhat)
            gx *= inv
            return gx

        return out, back
    view = _by_clip(xv, clips, "batch_norm").shape
    out, back, _, mu, var = _standardize(xv, gain, bias, view)
    m = BATCH_NORM_MOMENTUM
    # In place, clip by clip, this rounds as (1 - m) * buf + m * stat cast
    # to the buffer's dtype would, float32 and float64 mixed either way.
    for buf, stats in ((running_mean, mu[:, 0]), (running_var, var[:, 0])):
        for s in m * stats:
            buf *= 1.0 - m
            buf += s
    return out, back


def batch_norm(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    clips: int = 1,
) -> Tensor:
    """Per-channel normalization over axis 0 (frames).

    Training mode normalizes each clip by that clip's statistics and folds
    them into the running buffers with ``BATCH_NORM_MOMENTUM``, once per
    clip in clip order; evaluation mode uses the running statistics, which
    then act as constants.
    """
    check_norm(x, gain, bias, "batch_norm")
    if running_mean.shape != gain.values.shape or running_var.shape != gain.values.shape:
        raise ShapeError("batch_norm: running statistics must match the feature dim")
    out, back = batch_norm_kernel(x.values, gain, bias, running_mean, running_var, training, clips)
    return node(out, (x, gain, bias), back, "batch_norm")


# ---------------------------------------------------------------------------
# Regularization


DROPOUT_LEVELS = 1 << 16  # dropout draws 16-bit words: rates are multiples of 1/65536


def dropout_cut(rate: float, error=ShapeError, name: str = "dropout") -> int:
    """``rate`` rounded to cut / 65536, the one rounding rule of dropout.
    Raises ``error`` for a rate outside [0, 1) or one that rounds to 1; the
    model's configs call this to reject such a rate when they are built."""
    if not 0.0 <= rate < 1.0:
        raise error(f"{name} {rate} outside [0, 1)")
    cut = round(rate * DROPOUT_LEVELS)
    if cut == DROPOUT_LEVELS:
        raise error(f"{name} {rate} rounds to 1 at a resolution of 1/65536")
    return cut


def _keep_all(g, out=None):
    """The back of a dropout that drops nothing: g itself."""
    return g


def dropout_kernel(xv: np.ndarray, rate: float, rng, training: bool, out=None, fold=None):
    """Inverted dropout of :func:`dropout`, into ``out`` if given, as
    ``(out, back)``, with ``back(g, out=None)`` likewise. When nothing is
    dropped the result is ``xv`` itself and ``back`` returns g itself.

    ``fold`` is an array of xv's shape by which backward multiplies the
    gradient after this ``back`` (the derivative of the op before). The
    keep mask is multiplied into it here, so ``back`` only scales and the
    mask is not held; the product has the same bits, signed zeros included.
    """
    cut = dropout_cut(rate)
    if not training or cut == 0:
        return xv, _keep_all
    rngs = clip_rngs(rng)
    if any(clip_rng is None for clip_rng in rngs):
        raise ConfigError("dropout in training mode needs a generator for every clip")
    n = _by_clip(xv, len(rngs), "dropout")[0].size
    raws = [clip_rng.bit_generator.random_raw(-(-n // 4)) for clip_rng in rngs]
    # Four 16-bit words from each raw 64-bit draw; each clip keeps its first n.
    words = np.concatenate(raws).view(np.uint16).reshape(len(rngs), -1)[:, :n]
    keep = np.greater_equal(words, np.uint16(cut)).reshape(xv.shape)
    scale = xv.dtype.type(DROPOUT_LEVELS / (DROPOUT_LEVELS - cut))
    out = np.multiply(xv, keep, out=out)
    out *= scale
    if fold is not None:
        np.multiply(fold, keep, out=fold)
        return out, lambda g, out=None: np.multiply(g, scale, out=out)

    def back(g, out=None):
        gx = np.multiply(g, keep, out=out)
        gx *= scale
        return gx

    return out, back


def dropout(x: Tensor, rate: float, rng, training: bool = True) -> Tensor:
    """Inverted dropout; the mask is drawn from ``rng`` and kept for backward.

    ``rng`` is a Generator, or a list with one Generator per clip of a stack
    of equal-length clips, each of which draws its own clip's mask. In
    training mode a missing generator is a ConfigError.

    The rate is rounded to a multiple of 1/65536, cut/65536: an element is
    kept where its 16-bit word from the clip's raw generator output is at
    least cut, and kept elements are scaled by 65536 / (65536 - cut), the
    inverse of the keep probability. A rate that rounds to 0 drops nothing;
    one that rounds to 1 would keep nothing and is rejected.
    """
    out, back = dropout_kernel(x.values, rate, rng, training)
    return x if out is x.values else node(out, (x,), back, "dropout")


# ---------------------------------------------------------------------------
# Convolution


def conv1d_kernel(xv: np.ndarray, kernel: Tensor, clips: int):
    """Depthwise conv of :func:`conv1d` as ``(out, back)``: ``back(g)`` adds
    the kernel gradient and returns the input's."""
    n, c = xv.shape
    kv = kernel.values
    k = kv.shape[0]
    pad = k // 2
    t = _by_clip(xv, clips, "conv1d").shape[1]

    def padded(a):  # (clips * T, C) -> (clips, T + 2 pad, C), each clip zero-padded
        ap = np.zeros((clips, t + 2 * pad, c), dtype=a.dtype)
        ap[:, pad : pad + t] = a.reshape(clips, t, c)
        return ap

    def windows(ap):  # (clips, k, C, T) view: tap d reads frames d .. d + T - 1
        s = ap.strides  # clip, frame, channel
        return np.lib.stride_tricks.as_strided(ap, (clips, k, c, t), (*s, s[1]), writeable=False)

    # Plain einsum (no ``optimize``) sums over the windows view in place:
    # one pass per product, with no (clips, k, C, T) copy.
    xw = windows(padded(xv))
    out = np.einsum("bdct,dc->btc", xw, kv)

    def back(g):
        _accum(kernel, np.einsum("bdct,btc->dc", xw, g.reshape(clips, t, c)))
        # The input gradient correlates the padded g with the reversed kernel.
        return np.einsum("bdct,dc->btc", windows(padded(g)), kv[::-1]).reshape(n, c)

    return out.reshape(n, c), back


def conv1d(x: Tensor, kernel: Tensor, clips: int = 1) -> Tensor:
    """Same-padded depthwise 1-D cross-correlation over a T x C input.

    Each channel has its own filter: ``kernel`` is (k, C). Kernels must
    have odd length so "same" zero padding is symmetric and output length
    equals input length. Each clip of a stack is padded on its own, so no
    frame sees another clip.
    (A kernel-1 conv over all channels is a matmul; use ``linear``.)
    """
    if x.values.ndim != 2:
        raise ShapeError("conv1d expects a T x C input")
    c = x.values.shape[1]
    k = kernel.values.shape[0]
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel length {k} must be odd")
    if kernel.values.ndim != 2 or kernel.values.shape[1] != c:
        raise ShapeError(f"conv1d: depthwise kernel {kernel.shape} incompatible with {c} channels")
    out, back = conv1d_kernel(x.values, kernel, clips)
    return node(out, (x, kernel), back, "conv1d")


# ---------------------------------------------------------------------------
# Residual nodes


def residual(x: Tensor, out: np.ndarray, parents, back, op: str) -> Tensor:
    """The node x + out, named ``op``. A caller computes ``out`` from x by
    chaining the kernels above, and this adds x into it in place. ``parents``
    are x and the chain's parameters; ``back(g)`` returns the gradient that
    reaches x through the chain, and the node's backward adds g to it."""
    out += x.values

    def skip_back(g):
        gx = back(g)
        gx += g
        return gx

    return node(out, parents, skip_back, op)


# ---------------------------------------------------------------------------
# Similarity helpers

L2_EPS = 1e-8


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit L2 norm, with ``L2_EPS`` added to the denominator norm."""
    if x.values.ndim != 2:
        raise ShapeError("l2_normalize_rows expects a 2-D tensor")
    norm = np.sqrt((x.values**2).sum(axis=1, keepdims=True))
    denom = norm + L2_EPS
    y = x.values / denom
    safe = np.maximum(norm, np.finfo(x.values.dtype).tiny)

    def back(g):
        dot = (g * x.values).sum(axis=1, keepdims=True)
        return g / denom - x.values * (dot / (safe * denom * denom))

    return node(y, (x,), back, "l2_normalize_rows")


# ---------------------------------------------------------------------------
# Training losses


def info_nce(c_hat: Tensor, z_hat: Tensor, candidates: list, scale: float) -> Tensor:
    """Masked contrastive NLL: the mean over clips of each clip's mean over
    rows i of -log softmax(scores_i)[0].

    ``candidates`` is a list with one non-empty integer (m, K+1) matrix per
    clip of the stack, holding row indices into the whole stack; their K
    may differ. Row i scores context row r = candidates[i, 0] against latent
    rows candidates[i, :], the first of which is the true latent:
    scores_i = scale * c_hat[r] · z_hat[candidates[i]]. With K = 0 every
    row has one candidate and the loss is exactly 0.
    """
    cv, zv = c_hat.values, z_hat.values
    if cv.ndim != 2 or cv.shape != zv.shape:
        raise ShapeError(f"info_nce: context {c_hat.shape} vs latents {z_hat.shape}")
    # A bare matrix fails too: its items are 1-D rows.
    per_clip = [np.asarray(c, dtype=np.intp) for c in candidates]
    if not per_clip or any(c.ndim != 2 or not c.size for c in per_clip):
        raise ShapeError("info_nce: candidates must be a list of one non-empty matrix per clip")
    clips = len(per_clip)
    spans, m = [], 0
    for c in per_clip:
        spans.append((m, m + c.shape[0]))
        m += c.shape[0]
    # A clip with fewer candidates repeats its last one, scored as -inf.
    width = max(c.shape[1] for c in per_clip)
    # ``take`` keeps idx C-ordered: the reductions over scores follow its layout.
    idx = np.concatenate(
        [c.take(np.minimum(np.arange(width), c.shape[1] - 1), axis=1) for c in per_clip]
    )
    rows = np.arange(m)[:, None]
    picked = cv[idx[:, 0]]
    # Seeded logs depend on these exact GEMMs: a contiguous copy of zᵀ and the
    # full (m, T) similarity matrix, not just the K+1 scored columns.
    zt = zv.T.copy()
    sims = picked @ zt
    sims *= scale
    scores = sims[rows, idx]
    widths = np.repeat([c.shape[1] for c in per_clip], [c.shape[0] for c in per_clip])
    scores[np.arange(width) >= widths[:, None]] = -np.inf
    top = scores.max(axis=1, keepdims=True)
    w = np.exp(scores - top)
    total = w.sum(axis=1, keepdims=True)
    w /= total
    nll = np.log(total) + top
    nll -= scores[:, :1]
    clip_losses = np.array([nll[a:b].mean() for a, b in spans], dtype=nll.dtype)

    def back(g):
        gr = np.empty((m, 1), dtype=nll.dtype)
        for a, b in spans:
            gr[a:b] = g / clips / (b - a)
        gs = gr * w
        gs[:, :1] -= gr
        gsims = np.zeros_like(sims)
        np.add.at(gsims, (rows, idx), gs)
        gsims *= scale
        gc = np.zeros_like(cv)
        np.add.at(gc, idx[:, 0], gsims @ zt.T)
        return gc, (picked.T @ gsims).T

    return node(clip_losses.sum() / clips, (c_hat, z_hat), back, "info_nce")


_PROB_CLIP = 1e-7


def _clip_probs(v: np.ndarray):
    """v clipped to [1e-7, 1 - 1e-7], and the mask of entries the clip left alone."""
    lo, hi = _PROB_CLIP, 1.0 - _PROB_CLIP
    return np.clip(v, lo, hi), (v > lo) & (v < hi)


def binary_cross_entropy(probs: Tensor, targets) -> Tensor:
    """Mean of -[t log p + (1 - t) log(1 - p)], p = probs clipped to [1e-7, 1 - 1e-7].

    ``targets`` is a constant array of the probs' shape; 1 - t is formed in
    float64 before the cast to the probs' dtype. Entries where the clip is
    active get a zero gradient.
    """
    pv = probs.values
    tv = np.asarray(targets, dtype=np.float64)
    if tv.shape != pv.shape:
        raise ShapeError(f"binary_cross_entropy: probs {probs.shape} vs targets {tv.shape}")
    p, inside = _clip_probs(pv)
    q = 1.0 - p
    t = tv.astype(p.dtype)
    u = (1.0 - tv).astype(p.dtype)
    ll = t * np.log(p) + u * np.log(q)

    def back(g):
        gl = np.broadcast_to(-g / ll.size, ll.shape).astype(ll.dtype)
        return (gl * t / p - gl * u / q) * inside

    return node(-ll.mean(), (probs,), back, "binary_cross_entropy")


def symmetric_bernoulli_kl(p: Tensor, q: Tensor) -> Tensor:
    """Mean of (p - q)(logit p - logit q), KL(p||q) + KL(q||p) per Bernoulli.

    Both inputs are clipped to [1e-7, 1 - 1e-7]; entries where a clip is
    active get a zero gradient.
    """
    if p.shape != q.shape:
        raise ShapeError(f"symmetric_bernoulli_kl: {p.shape} vs {q.shape}")
    pv, inside_p = _clip_probs(p.values)
    qv, inside_q = _clip_probs(q.values)
    op, oq = 1.0 - pv, 1.0 - qv
    diff = pv - qv
    dlogit = (np.log(pv) - np.log(op)) - (np.log(qv) - np.log(oq))

    def back(g):
        gm = np.broadcast_to(g / diff.size, diff.shape).astype(diff.dtype)
        gd = gm * dlogit
        gl = gm * diff
        # Keep this summation order: seeded training logs depend on its bits.
        return (gd + gl / pv + gl / op) * inside_p, -(gd + gl / qv + gl / oq) * inside_q

    return node((diff * dlogit).mean(), (p, q), back, "symmetric_bernoulli_kl")


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
    The check works on the points themselves, so ``fn`` may also reach them
    another way (a module's own parameters, say). Analytic gradients are
    taken at the points' own dtype; for the difference quotients each
    point's ``values`` is swapped for a float64 copy, because at small eps a
    float32 quotient is dominated by rounding noise. The analytic gradients
    are not written into an optimizer's arena. Every point gets its
    ``values`` array, ``grad``, ``requires_grad`` and ``_grad_view`` back on
    return and when ``fn`` raises. The relative error per coordinate is
    |analytic - cd| / max(|analytic|, |cd|, 1e-8); once one is NaN (a NaN
    or infinite analytic gradient), NaN is the result.

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
    saved = [(p.values, p.grad, p.requires_grad, p._grad_view) for p in points]
    try:
        for p in points:
            p.grad, p.requires_grad, p._grad_view = None, True, None
        out = fn(*points)
        if not isinstance(out, Tensor) or out.values.size != 1:
            raise ShapeError("grad_check: function must return a scalar tensor")
        backward(out)
        analytic = [p.grad if p.grad is not None else np.zeros_like(p.values) for p in points]
        max_rel = 0.0
        with no_grad():
            for p in points:
                p.values = p.values.astype(np.float64)
            for p, grad in zip(points, analytic):
                flat = p.values.reshape(-1)
                a_flat = grad.reshape(-1)
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
                    f_plus = fn(*points).item()
                    flat[j] = orig - eps
                    f_minus = fn(*points).item()
                    flat[j] = orig
                    cd = (f_plus - f_minus) / (2.0 * eps)
                    a = float(a_flat[j])
                    rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
                    if rel > max_rel or rel != rel:  # NaN compares false: keep it, so it fails
                        max_rel = rel
        return max_rel
    finally:
        for p, (values, grad, requires_grad, grad_view) in zip(points, saved):
            p.values, p.grad, p.requires_grad, p._grad_view = values, grad, requires_grad, grad_view

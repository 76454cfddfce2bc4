"""Autodiff core: primitive values, backward rules, and the gradient checker."""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from melformer import gradcheck
from melformer import tensor as T
from melformer.errors import GraphError, NumericError, ShapeError
from melformer.tensor import Tensor, backward, grad_check, parameter


def depthwise_reference(x, kernel):
    """Double-loop same-padded depthwise cross-correlation, independent of the engine."""
    t, c = x.shape
    k = kernel.shape[0]
    pad = k // 2
    xp = np.zeros((t + 2 * pad, c))
    xp[pad : pad + t] = x
    out = np.zeros((t, c))
    for i in range(t):
        for ci in range(c):
            acc = 0.0
            for dt in range(k):
                acc += xp[i + dt, ci] * kernel[dt, ci]
            out[i, ci] = acc
    return out


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestForwardValues:
    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 16)))
        g = Tensor(np.ones(16))
        b = Tensor(np.zeros(16))
        y = T.layer_norm(x, g, b).values
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_glu_halves_and_gates(self):
        x = Tensor(np.array([[1.0, 2.0, 0.0, 0.0]]))
        y = T.glu(x)
        np.testing.assert_allclose(y.values, [[0.5, 1.0]])

    @pytest.mark.parametrize("op", ["layer_norm", "glu"])
    def test_forward_and_backward_leave_the_input_untouched(self, op):
        """layer_norm's backward forms the standardized rows again from its
        input, and a GLU that formed its gate in place would overwrite its
        input's second half; neither primitive may write into its input."""
        rng = np.random.default_rng(70)
        x = parameter(rng.normal(size=(6, 8)).astype(np.float32))
        before = x.values.copy()
        if op == "layer_norm":
            gain, bias = (parameter(rng.normal(size=8).astype(np.float32)) for _ in range(2))
            out = T.layer_norm(x, gain, bias)
        else:
            out = T.glu(x)
        backward(_sum_against(out, rng.normal(size=out.shape).astype(np.float32)))
        assert_same_bits(x.values, before)

    def test_add_rejects_a_trailing_dim_bias(self):
        # Biases ride on ``linear``; ``add`` takes same-shape tensors or scalars.
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((4, 3))), Tensor(np.ones(3)))

    def test_non_finite_output_raises(self):
        with pytest.raises(NumericError):
            T.div(Tensor(np.array([1.0])), Tensor(np.array([0.0])))


def attention_reference(q, k, v, g, num_heads):
    """Per-head loop: the output and the q/k/v gradients of sum(out * g)."""
    t, d = q.shape
    dh = d // num_heads
    out, dq, dk, dv = (np.zeros((t, d)) for _ in range(4))
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh, kh, vh, gh = q[:, cols], k[:, cols], v[:, cols], g[:, cols]
        logits = qh @ kh.T / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        out[:, cols] = p @ vh
        dp = gh @ vh.T
        dlogits = p * (dp - (dp * p).sum(axis=1, keepdims=True)) / np.sqrt(dh)
        dq[:, cols] = dlogits @ kh
        dk[:, cols] = dlogits.T @ qh
        dv[:, cols] = p.T @ gh
    return out, dq, dk, dv


class TestAttention:
    def test_matches_per_head_reference(self):
        rng = np.random.default_rng(20)
        q, k, v, g = (rng.normal(size=(7, 12)) for _ in range(4))
        leaves = [parameter(a) for a in (q, k, v)]
        out = T.attention(*leaves, num_heads=3)
        backward(T.reduce_sum(T.mul(out, Tensor(g))))
        want = attention_reference(q, k, v, g, num_heads=3)
        for got, ref in zip([out.values] + [leaf.grad for leaf in leaves], want):
            np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_heads_not_dividing_dim_rejected(self):
        x = Tensor(np.ones((4, 6)))
        with pytest.raises(ShapeError):
            T.attention(x, x, x, num_heads=4)

    @pytest.mark.parametrize(
        "k_shape,v_shape", [((4, 6), (5, 6)), ((4, 8), (4, 6)), ((4, 6, 1), (4, 6))]
    )
    def test_mismatched_projections_rejected(self, k_shape, v_shape):
        q, k, v = (Tensor(np.ones(shape)) for shape in ((4, 6), k_shape, v_shape))
        with pytest.raises(ShapeError):
            T.attention(q, k, v, num_heads=2)

    def test_no_grad_records_no_graph(self):
        q, k, v = (parameter(np.ones((3, 4))) for _ in range(3))
        with T.no_grad():
            y = T.attention(q, k, v, num_heads=2)
        assert y._backward is None and y._parents == () and not y.requires_grad


class TestConv1d:
    def test_depthwise_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 4))
        k = np.zeros((3, 4))
        k[1] = 1.0
        out = T.conv1d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.values, x, rtol=1e-6)

    def test_same_padding_preserves_length(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 7, 31):
            x = Tensor(rng.normal(size=(12, 2)))
            kern = Tensor(rng.normal(size=(k, 2)))
            assert T.conv1d(x, kern).shape == (12, 2)

    def test_depthwise_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        k = rng.normal(size=(5, 3))
        got = T.conv1d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(got.values, depthwise_reference(x, k), atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2))))

    def test_bad_groups_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 4))), Tensor(np.ones((3, 2))))

    def test_dense_kernel_rejected(self):
        # Dense (k, C_in, C_out) kernels are gone: a kernel-1 conv is ``linear``.
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((1, 2, 3))))


def conv1d_per_tap(x, kernel, g, clips):
    """The depthwise conv1d as one numpy pass per tap, in the inputs' dtype:
    output, kernel gradient and input gradient for the output gradient g."""
    n, c = x.shape
    k, t = kernel.shape[0], n // clips
    pad = k // 2
    xp = np.zeros((t + 2 * pad, clips, c), dtype=x.dtype)
    xp[pad : pad + t] = x.reshape(clips, t, c).swapaxes(0, 1)
    out = np.zeros((t, clips, c), dtype=x.dtype)
    for dt in range(k):
        out += xp[dt : dt + t] * kernel[dt]
    g = g.reshape(clips, t, c).swapaxes(0, 1)
    dk = np.zeros_like(kernel)
    for dt in range(k):
        dk[dt] = (xp[dt : dt + t] * g).sum(axis=(0, 1))
    dxp = np.zeros_like(xp)
    for dt in range(k):
        dxp[dt : dt + t] += g * kernel[dt]
    return out.swapaxes(0, 1).reshape(n, c), dk, dxp[pad : pad + t].swapaxes(0, 1).reshape(n, c)


class TestConv1dAgainstPerTapLoop:
    """The windowed conv1d against a pass-per-tap loop, forward and both
    gradients, relative to the largest reference entry."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("clips", [1, 2, 3])
    @pytest.mark.parametrize("k,t", [(1, 20), (3, 20), (15, 20), (31, 20), (31, 6)],
                             ids=["k1", "k3", "k15", "k31", "k31-longer-than-clip"])
    def test_matches(self, k, t, clips, dtype, tol):
        rng = np.random.default_rng(70 + k + clips)
        x, g = (rng.normal(size=(clips * t, 5)).astype(dtype) for _ in range(2))
        kernel = rng.normal(size=(k, 5)).astype(dtype)
        xt, kt = parameter(x.copy()), parameter(kernel.copy())
        out = T.conv1d(xt, kt, clips=clips)
        backward(_sum_against(out, g))
        for got, want in zip((out.values, kt.grad, xt.grad), conv1d_per_tap(x, kernel, g, clips)):
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestRows:
    def test_forward_is_a_view_with_the_same_bits(self):
        a = Tensor(np.random.default_rng(80).normal(size=(6, 3)).astype(np.float32))
        out = T.rows(a, 2, 5)
        assert_same_bits(out.values, a.values[2:5])
        assert np.shares_memory(out.values, a.values)

    def test_backward_is_zero_outside_the_rows(self):
        a = parameter(np.ones((6, 3)))
        g = np.random.default_rng(81).normal(size=(3, 3))
        backward(_sum_against(T.rows(a, 2, 5), g))
        np.testing.assert_array_equal(a.grad[2:5], g)
        np.testing.assert_array_equal(a.grad[:2], 0.0)
        np.testing.assert_array_equal(a.grad[5:], 0.0)

    def test_slices_that_cover_a_tensor_add_up_to_its_gradient(self):
        rng = np.random.default_rng(82)
        x, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        whole, halves = parameter(x.copy()), parameter(x.copy())
        backward(_sum_against(T.swish(whole), g))
        h = T.swish(halves)
        backward(T.add(_sum_against(T.rows(h, 0, 2), g[:2]), _sum_against(T.rows(h, 2, 5), g[2:])))
        assert_same_bits(halves.grad, whole.grad)

    @pytest.mark.parametrize("start,stop", [(2, 2), (3, 1), (-1, 2), (0, 7)])
    def test_empty_or_out_of_range_rejected(self, start, stop):
        with pytest.raises(ShapeError):
            T.rows(Tensor(np.ones((6, 2))), start, stop)


def _assert_stack_matches_alone(op, stacked, shared=(), clips=3):
    """``op(xs, params, clips)`` on a stack of clips equals ``op`` on each clip alone.

    ``stacked`` holds (clips * T, ...) inputs and ``shared`` parameters that
    every clip uses. Both back-propagate sum(out * g) for the same g. Outputs
    and input grads must match clip by clip, parameter grads the lone clips'
    sum.
    """
    xs, ps = [parameter(a) for a in stacked], [parameter(a) for a in shared]
    out = op(xs, ps, clips)
    g = np.random.default_rng(0).normal(size=out.shape)
    backward(_sum_against(out, g))
    want_out, want_grads = [], [[] for _ in xs]
    want_param_grads = [np.zeros_like(a) for a in shared]
    for j in range(clips):
        xj = [parameter(np.split(a, clips)[j]) for a in stacked]
        pj = [parameter(a) for a in shared]
        alone = op(xj, pj, 1)
        backward(_sum_against(alone, g.reshape(clips, -1)[j].reshape(alone.shape)))
        want_out.append(alone.values.ravel())
        for acc, x in zip(want_grads, xj):
            acc.append(x.grad)
        for acc, p in zip(want_param_grads, pj):
            acc += p.grad
    np.testing.assert_allclose(out.values.ravel(), np.concatenate(want_out), rtol=1e-12, atol=1e-14)
    for x, want in zip(xs, want_grads):
        np.testing.assert_allclose(x.grad, np.concatenate(want), rtol=1e-12, atol=1e-13)
    for p, want in zip(ps, want_param_grads):
        np.testing.assert_allclose(p.grad, want, rtol=1e-12, atol=1e-13)


class TestPerClipPrimitives:
    """A primitive on a stack of equal-length clips acts on each clip alone."""

    rng = np.random.default_rng(60)

    def normal(self, *shape):
        return self.rng.normal(size=shape)

    def test_attention_stays_within_each_clip(self):
        _assert_stack_matches_alone(
            lambda xs, ps, clips: T.attention(*xs, num_heads=2, clips=clips),
            [self.normal(15, 8) for _ in range(3)],
        )

    def test_conv1d_pads_each_clip(self):
        _assert_stack_matches_alone(
            lambda xs, ps, clips: T.conv1d(xs[0], ps[0], clips=clips),
            [self.normal(12, 3)], [self.normal(5, 3)],
        )

    def test_conv1d_kernel_longer_than_a_clip(self):
        _assert_stack_matches_alone(
            lambda xs, ps, clips: T.conv1d(xs[0], ps[0], clips=clips),
            [self.normal(6, 2)], [self.normal(7, 2)],
        )

    def test_batch_norm_uses_each_clips_statistics(self):
        _assert_stack_matches_alone(
            lambda xs, ps, clips: T.batch_norm(
                xs[0], ps[0], ps[1], np.zeros(4), np.ones(4), training=True, clips=clips
            ),
            [self.normal(15, 4) * 3.0 + np.arange(15)[:, None]],
            [self.normal(4), self.normal(4)],
        )

    def test_batch_norm_folds_running_stats_once_per_clip_in_order(self):
        x = self.normal(12, 4) + np.repeat(np.arange(3.0), 4)[:, None]
        mean, var = np.zeros(4), np.ones(4)
        T.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), mean, var, True, clips=3)
        want_mean, want_var = np.zeros(4), np.ones(4)
        for clip in np.split(x, 3):
            T.batch_norm(Tensor(clip), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         want_mean, want_var, True)
        assert_same_bits(mean, want_mean)
        assert_same_bits(var, want_var)

    @pytest.mark.parametrize("x_dtype, buf_dtype", [
        (np.float32, np.float64), (np.float64, np.float32),
    ], ids=["float32-input-float64-buffers", "float64-input-float32-buffers"])
    def test_batch_norm_fold_rounds_as_one_cast_per_clip(self, x_dtype, buf_dtype):
        """Mixed dtypes, as gradcheck's batch_norm_train rows build them
        (float32 points, float64 buffers) and the reverse."""
        x = (self.normal(15, 4) * 3.0 + np.arange(15)[:, None]).astype(x_dtype)
        mean = self.normal(4).astype(buf_dtype)
        var = (np.abs(self.normal(4)) + 0.5).astype(buf_dtype)
        want_mean, want_var = mean.copy(), var.copy()
        T.batch_norm(Tensor(x), Tensor(np.ones(4, x_dtype)), Tensor(np.zeros(4, x_dtype)),
                     mean, var, True, clips=3)
        m = T.BATCH_NORM_MOMENTUM
        for clip in np.split(x, 3):
            for buf, stat in ((want_mean, clip.mean(axis=0)), (want_var, clip.var(axis=0))):
                buf[...] = ((1.0 - m) * buf + m * stat).astype(buf.dtype)
        assert_same_bits(mean, want_mean)
        assert_same_bits(var, want_var)

    @pytest.mark.parametrize(
        "gain,bias,mean,var",
        [(1, 5, 5, 5), (5, 4, 5, 5), (5, 5, 4, 5), (5, 5, 5, 6), (5, 5, (5, 1), 5)],
        ids=["gain", "bias", "running-mean", "running-var", "running-mean-2d"],
    )
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_parameters_must_match_the_channels(self, gain, bias, mean, var, training):
        """A (1,) gain over 5 channels once passed and got a (5,) gradient."""
        running_mean, running_var = np.zeros(mean), np.ones(var)
        with pytest.raises(ShapeError, match="batch_norm"):
            T.batch_norm(Tensor(np.ones((6, 5))), parameter(np.ones(gain)),
                         parameter(np.zeros(bias)), running_mean, running_var, training)
        assert not running_mean.any() and running_var.all()

    @pytest.mark.parametrize("reduce", [T.reduce_sum, T.reduce_mean])
    @pytest.mark.parametrize("lone", [False, True])
    def test_reductions_pool_each_clip_to_a_row(self, reduce, lone):
        """A lone clip, or each clip of a stack, pools to one row with the
        bits of numpy's reduction over that clip's rows alone."""
        clips = 1 if lone else 3
        _assert_stack_matches_alone(
            lambda xs, ps, c: reduce(xs[0], clips=c), [self.normal(12, 5)], clips=clips
        )
        x = self.normal(25 * clips, 64).astype(np.float32)
        name = reduce.__name__.removeprefix("reduce_")
        want = np.stack([getattr(clip, name)(axis=0) for clip in np.split(x, clips)])
        assert_same_bits(reduce(Tensor(x), clips=clips).values, want)
        assert reduce(Tensor(x)).shape == ()

    @pytest.mark.parametrize("op", [
        lambda x: T.attention(x, x, x, num_heads=1, clips=3),
        lambda x: T.conv1d(x, Tensor(np.ones((3, 2))), clips=3),
        lambda x: T.reduce_mean(x, clips=3),
        lambda x: T.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                               np.zeros(2), np.ones(2), True, clips=3),
    ])
    def test_rows_that_do_not_split_into_the_clips_rejected(self, op):
        with pytest.raises(ShapeError, match="equal clips"):
            op(Tensor(np.ones((8, 2))))

    def test_dropout_draws_each_clip_from_its_own_generator(self):
        x = self.normal(12, 6)
        stacked = T.dropout(Tensor(x), 0.4, [np.random.default_rng(s) for s in (1, 2, 3)])
        alone = [
            T.dropout(Tensor(clip), 0.4, np.random.default_rng(s)).values
            for clip, s in zip(np.split(x, 3), (1, 2, 3))
        ]
        assert_same_bits(stacked.values, np.concatenate(alone))

    def test_info_nce_is_the_mean_of_the_clip_losses(self):
        rng = np.random.default_rng(61)
        c, z = rng.normal(size=(120, 6)), rng.normal(size=(120, 6))
        # Three clips of 40 rows (12 masked), with K = 4, K = 1 and K = 2.
        alone_candidates = [_candidates(rng, 40, k) for k in (4, 1, 2)]
        assert [cand.shape[1] - 1 for cand in alone_candidates] == [4, 1, 2]
        stacked = [cand + 40 * j for j, cand in enumerate(alone_candidates)]
        leaves = [parameter(a) for a in (c, z)]
        loss = T.info_nce(*leaves, stacked, 1.3)
        backward(loss)
        want, want_grads = 0.0, [np.zeros_like(c), np.zeros_like(z)]
        for j, cand in enumerate(alone_candidates):
            rows = slice(40 * j, 40 * j + 40)
            alone = [parameter(a[rows]) for a in (c, z)]
            clip_loss = T.info_nce(*alone, [cand], 1.3)
            backward(T.mul(clip_loss, 1.0 / 3))
            want += clip_loss.item() / 3
            for acc, leaf in zip(want_grads, alone):
                acc[rows] += leaf.grad
        assert loss.item() == pytest.approx(want, rel=1e-12)
        for leaf, ref in zip(leaves, want_grads):
            np.testing.assert_allclose(leaf.grad, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("ks", [(4, 1, 2), (10, 1, 2)], ids=["K=4,1,2", "K=10,1,2"])
    def test_info_nce_pads_clips_of_fewer_candidates_with_their_last(self, ks):
        """Loss and gradients keep the bits of padding each clip's matrix
        with np.pad's "edge" mode into a C-ordered index matrix; rows of 8
        or more scores are where numpy's sums follow the layout."""
        rng = np.random.default_rng(62)
        c, z = rng.normal(size=(120, 6)), rng.normal(size=(120, 6))
        stacked = [_candidates(rng, 40, k) + 40 * j for j, k in enumerate(ks)]
        assert [cand.shape[1] - 1 for cand in stacked] == list(ks)
        leaves = [parameter(a) for a in (c, z)]
        loss = T.info_nce(*leaves, stacked, 1.3)
        backward(loss)
        want, want_gc, want_gz = _info_nce_edge_padded(c, z, stacked, 1.3)
        assert_same_bits(loss.values, want)
        assert_same_bits(leaves[0].grad, want_gc)
        assert_same_bits(leaves[1].grad, want_gz)

    @pytest.mark.parametrize("candidates", [
        np.array([[0, 1], [1, 0]]),
        [np.array([[0, 1], [1, 0]]), np.empty((0, 2), dtype=np.intp)],
        [],
    ], ids=["bare-matrix", "empty-clip", "no-clips"])
    def test_info_nce_takes_one_non_empty_matrix_per_clip(self, candidates):
        c = Tensor(np.ones((4, 3)))
        with pytest.raises(ShapeError):
            T.info_nce(c, c, candidates, 1.0)


def _info_nce_edge_padded(cv, zv, per_clip, scale):
    """info_nce's loss and gradients (for an upstream gradient of 1), its
    candidate matrices padded with np.pad(..., "edge")."""
    clips, width = len(per_clip), max(c.shape[1] for c in per_clip)
    idx = np.concatenate([np.pad(c, ((0, 0), (0, width - c.shape[1])), "edge") for c in per_clip])
    m, rows = idx.shape[0], np.arange(idx.shape[0])[:, None]
    picked, zt = cv[idx[:, 0]], zv.T.copy()
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
    ends = np.cumsum([c.shape[0] for c in per_clip])
    spans = list(zip(np.concatenate(([0], ends[:-1])), ends))
    loss = np.array([nll[a:b].mean() for a, b in spans]).sum() / clips
    gr = np.empty((m, 1))
    for a, b in spans:
        gr[a:b] = 1.0 / clips / (b - a)
    gs = gr * w
    gs[:, :1] -= gr
    gsims = np.zeros_like(sims)
    np.add.at(gsims, (rows, idx), gs)
    gsims *= scale
    gc = np.zeros_like(cv)
    np.add.at(gc, idx[:, 0], gsims @ zt.T)
    return loss, gc, (picked.T @ gsims).T


def _sum_against(out, g):
    """sum(out * g): back-propagates exactly ``g`` into ``out``."""
    return T.reduce_sum(T.mul(out, Tensor(g)))


class TestLinear:
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_bit_identical_to_matmul_then_add(self, with_bias):
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=n).astype(np.float32) for n in ((25, 64), (64, 48), (48,))]
        g = rng.normal(size=(25, 48)).astype(np.float32)
        if not with_bias:
            arrays = arrays[:2]
        fused = [parameter(a.copy()) for a in arrays]
        x, w = arrays[:2]
        out_fused = T.linear(*fused)
        # The bias add as the retired trailing-dim ``add`` formed it.
        assert_same_bits(out_fused.values, x @ w + arrays[2] if with_bias else x @ w)
        backward(_sum_against(out_fused, g))
        assert_same_bits(fused[0].grad, g @ w.T)
        assert_same_bits(fused[1].grad, x.T @ g)
        if with_bias:
            assert_same_bits(fused[2].grad, g.sum(axis=0))

    def test_one_node_per_projection(self, recorded):
        x = parameter(np.ones((3, 4)))
        out = T.linear(x, parameter(np.ones((4, 2))), parameter(np.zeros(2)))
        assert recorded() == [out]

    def test_input_without_grad_gets_none(self):
        w = parameter(np.ones((4, 2)))
        x = Tensor(np.ones((3, 4)))
        backward(T.reduce_sum(T.linear(x, w)))
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, np.full((4, 2), 3.0))

    @pytest.mark.parametrize(
        "w_shape,b_shape", [((5, 2), (2,)), ((4, 2), (3,)), ((4, 2), (1, 2)), ((4,), None)]
    )
    def test_bad_shapes_rejected(self, w_shape, b_shape):
        x = Tensor(np.ones((3, 4)))
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(ShapeError):
            T.linear(x, Tensor(np.ones(w_shape)), b)


# op -> ({operand name: shape} for its two tensor operands, the op over them).
TWO_OPERAND_OPS = {
    "linear": ({"input": (3, 4), "weight": (4, 2)}, T.linear),
    "conv1d": ({"input": (6, 3), "kernel": (3, 3)}, T.conv1d),
    "info_nce": (
        {"context": (10, 4), "latents": (10, 4)},
        lambda c, z: T.info_nce(c, z, [np.array([[1, 4, 7], [4, 7, 1], [7, 1, 4]])], 1.7),
    ),
}


@pytest.mark.parametrize(
    "op,constant", [(op, name) for op, (shapes, _) in TWO_OPERAND_OPS.items() for name in shapes]
)
def test_constant_operand_gets_none(op, constant):
    """A constant operand's grad stays None, and the other operand's gradient
    has the same bits as when both train."""
    shapes, fn = TWO_OPERAND_OPS[op]
    rng = np.random.default_rng(31)
    arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}

    def grads(trainable):
        tensors = {name: Tensor(a, requires_grad=name in trainable) for name, a in arrays.items()}
        out = fn(*tensors.values())
        backward(_sum_against(out, np.linspace(-1.0, 1.0, out.values.size).reshape(out.shape)))
        return {name: t.grad for name, t in tensors.items()}

    both = grads(set(shapes))
    one = grads(set(shapes) - {constant})
    assert one.pop(constant) is None
    ((name, grad),) = one.items()
    assert_same_bits(grad, both[name])


def _reference_dropout(x, g, rate, seed):
    cut = round(rate * 65536)
    raw = np.random.default_rng(seed).bit_generator.random_raw((x.size + 3) // 4)
    words = raw.view(np.uint16)[: x.size].reshape(x.shape)
    keep = (words >= cut) * (65536 / (65536 - cut))
    keep = keep.astype(x.dtype)
    return x * keep, g * keep


def _reference_swish(x, g):
    s = 1.0 / (1.0 + np.exp(-x))
    y = x * s
    return y, g * (s + y * (1.0 - s))


def _reference_norm(x, gv, bv, g, axis, eps=1e-5):
    """The normalization forward/backward of layer_norm (axis 1) and batch_norm (axis 0)."""
    keep = axis == 1
    mu = x.mean(axis=axis, keepdims=keep)
    var = x.var(axis=axis, keepdims=keep)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gx = g * gv
    m1 = gx.mean(axis=axis, keepdims=keep)
    m2 = (gx * xhat).mean(axis=axis, keepdims=keep)
    dx = (gx - m1 - xhat * m2) * inv
    grads = (dx, (g * xhat).sum(axis=0), g.sum(axis=0))
    return xhat * gv + bv, grads, mu, var


class TestSigmoidFamily:
    """sigmoid, swish and glu form 1 / (1 + exp(-x)) in the input's dtype."""

    # Relative error against scipy's expit over [-120, 120]: float32 outputs
    # below the smallest normal number lose bits, so they get an absolute
    # floor of a few subnormal steps. swish and glu round once more, in the
    # product with x.
    SIGMOID = {np.float32: dict(rtol=3e-7, atol=1e-44), np.float64: dict(rtol=5e-16, atol=0)}
    PRODUCT = {np.float32: dict(rtol=6e-7, atol=1e-44), np.float64: dict(rtol=1e-15, atol=0)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_swish_glu_match_expit(self, dtype):
        x = np.concatenate([np.linspace(-120, 120, 240_001), [-1000.0, 1000.0]]).astype(dtype)
        s = expit(x)
        with np.errstate(all="raise"):
            sig = T.sigmoid(Tensor(x)).values
            sw = T.swish(Tensor(x)).values
            gated = T.glu(Tensor(np.stack([x, x], axis=1))).values[:, 0]
        np.testing.assert_allclose(sig, s, **self.SIGMOID[dtype])
        np.testing.assert_allclose(sw, x * s, **self.PRODUCT[dtype])
        np.testing.assert_allclose(gated, x * s, **self.PRODUCT[dtype])
        assert sig.dtype == dtype
        assert sig[-2] == 0.0 and sig[-1] == 1.0  # saturate exactly at -1000 and +1000

    def test_backward_at_saturation_is_finite(self):
        x = parameter(np.array([-1000.0, 0.0, 1000.0], dtype=np.float32))
        with np.errstate(all="raise"):
            backward(T.reduce_sum(T.swish(x)))
        np.testing.assert_array_equal(x.grad, np.array([0.0, 0.5, 1.0], dtype=np.float32))


class TestDropoutMask:
    """Masks compare 16-bit raw generator words against the rate in 1/65536ths."""

    @pytest.mark.parametrize("rate", [0.1, 0.3])
    def test_drop_fraction_is_binomial(self, rate):
        n = 1_000_000
        ones = Tensor(np.ones((1000, 1000), dtype=np.float32))
        out = T.dropout(ones, rate, np.random.default_rng(7))
        p = round(rate * 65536) / 65536
        dropped = np.count_nonzero(out.values == 0.0)
        assert abs(dropped - n * p) < 4 * np.sqrt(n * p * (1 - p))
        np.testing.assert_array_equal(np.unique(out.values), np.float32([0.0, 1 / (1 - p)]))

    def test_rate_that_rounds_to_one_is_rejected(self):
        x = Tensor(np.ones((4, 4)))
        with pytest.raises(ShapeError, match="1/65536"):
            T.dropout(x, 1.0 - 1e-6, np.random.default_rng(0))
        for rate in (float("nan"), float("inf"), 1.0):
            with pytest.raises(ShapeError, match="outside"):
                T.dropout(x, rate, np.random.default_rng(0))
        # The largest rate that keeps anything keeps 1 word value in 65536.
        out = T.dropout(x, 65535 / 65536, np.random.default_rng(0))
        assert set(np.unique(out.values)) <= {0.0, 65536.0}

    def test_rate_that_rounds_to_zero_drops_nothing(self):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 1e-6, np.random.default_rng(0)) is x

    @pytest.mark.parametrize("rate,training", [(0.1, False), (0.0, True), (1e-6, True)])
    def test_kernel_that_drops_nothing_has_an_identity_back(self, rate, training):
        xv, g = np.ones((4, 4)), np.full((4, 4), 3.0)
        out, back = T.dropout_kernel(xv, rate, np.random.default_rng(0), training)
        assert out is xv
        assert back(g) is g and back(g, out=g) is g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(25, 64), (7, 5), (125, 256)])
class TestKernelsKeepTheirBits:
    """Rewritten kernels against copies of the straightforward formulas."""

    def test_dropout(self, dtype, shape):
        rng = np.random.default_rng(30)
        x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        for rate in (0.1, 0.3, 0.4):
            leaf = parameter(x.copy())
            out = T.dropout(leaf, rate, np.random.default_rng(31))
            backward(_sum_against(out, g))
            want_out, want_grad = _reference_dropout(x, g, rate, 31)
            assert_same_bits(out.values, want_out)
            assert_same_bits(leaf.grad, want_grad)

    def test_swish(self, dtype, shape):
        rng = np.random.default_rng(32)
        x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        leaf = parameter(x.copy())
        out = T.swish(leaf)
        backward(_sum_against(out, g))
        want_out, want_grad = _reference_swish(x, g)
        assert_same_bits(out.values, want_out)
        assert_same_bits(leaf.grad, want_grad)

    def test_layer_norm(self, dtype, shape):
        rng = np.random.default_rng(33)
        x, g = (rng.normal(size=shape).astype(dtype) * 3.0 + 1.0 for _ in range(2))
        gv, bv = (rng.normal(size=shape[1]).astype(dtype) for _ in range(2))
        leaves = [parameter(a.copy()) for a in (x, gv, bv)]
        out = T.layer_norm(*leaves)
        backward(_sum_against(out, g))
        want_out, want_grads, _, _ = _reference_norm(x, gv, bv, g, axis=1)
        assert_same_bits(out.values, want_out)
        for leaf, want in zip(leaves, want_grads):
            assert_same_bits(leaf.grad, want)

    def test_batch_norm_training(self, dtype, shape):
        rng = np.random.default_rng(34)
        x, g = (rng.normal(size=shape).astype(dtype) * 3.0 + 1.0 for _ in range(2))
        gv, bv = (rng.normal(size=shape[1]).astype(dtype) for _ in range(2))
        running_mean = rng.normal(size=shape[1]).astype(dtype)
        running_var = (np.abs(rng.normal(size=shape[1])) + 0.5).astype(dtype)
        want_mean, want_var = running_mean.copy(), running_var.copy()
        leaves = [parameter(a.copy()) for a in (x, gv, bv)]
        out = T.batch_norm(*leaves, running_mean, running_var, training=True)
        backward(_sum_against(out, g))
        want_out, want_grads, mu, var = _reference_norm(x, gv, bv, g, axis=0)
        assert_same_bits(out.values, want_out)
        for leaf, want in zip(leaves, want_grads):
            assert_same_bits(leaf.grad, want)
        want_mean[...] = ((1.0 - 0.1) * want_mean + 0.1 * mu).astype(dtype)
        want_var[...] = ((1.0 - 0.1) * want_var + 0.1 * var).astype(dtype)
        assert_same_bits(running_mean, want_mean)
        assert_same_bits(running_var, want_var)


def _candidates(rng, t, num_distractors):
    """(m, K+1) candidate rows in contrastive_loss's layout: true step first."""
    masked = np.sort(rng.choice(t, size=max(2, int(0.3 * t)), replace=False))
    k = min(num_distractors, masked.size - 1)
    return np.stack(
        [np.concatenate(([s], rng.choice(masked[masked != s], k, replace=False))) for s in masked]
    ).astype(np.intp)


def _retired_info_nce(c, z, candidates, scale, g):
    """Loss and (c, z) grads of the unfused chain take_rows, transpose, matmul,
    scalar mul, gather_cols, logsumexp and col_slice, sub, mean."""
    masked = candidates[:, 0]
    rows = np.arange(masked.size)[:, None]
    cm, zt = c[masked].copy(), z.T.copy()
    sims = (cm @ zt) * scale
    scores = sims[rows, candidates]
    top = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - top)
    s = e.sum(axis=1, keepdims=True)
    w = e / s
    nll = (np.log(s) + top) + -scores[:, 0:1].copy()
    g_nll = np.broadcast_to(g / nll.size, nll.shape).astype(nll.dtype)
    g_true = np.zeros_like(scores)
    g_true[:, 0:1] = -g_nll.copy()
    g_scores = g_nll * w + g_true
    g_sims = np.zeros_like(sims)
    np.add.at(g_sims, (rows, candidates), g_scores)
    g_sims = g_sims * scale
    g_c = np.zeros_like(c)
    np.add.at(g_c, masked, g_sims @ zt.T)
    return nll.mean(), g_c, (cm.T @ g_sims).T


def _clamped(x):
    return np.clip(x, 1e-7, 1.0 - 1e-7), (x > 1e-7) & (x < 1.0 - 1e-7)


def _retired_bce(probs, targets, g):
    """Loss and grad of clamp, log, neg/add(1), log, mul, mul, add, mean, neg."""
    p, inside = _clamped(probs)
    t = targets.astype(p.dtype)
    u = (1.0 - targets).astype(p.dtype)
    q = -p + 1.0
    ll = t * np.log(p) + u * np.log(q)
    g_ll = np.broadcast_to(-g / ll.size, ll.shape).astype(ll.dtype)
    g_p = (g_ll * t) / p + -((g_ll.copy() * u) / q)
    return -ll.mean(), g_p * inside


def _retired_kl(a, b, g):
    """Loss and grads of the 20-node clamp/log/neg/add/sub chain, with each
    input's three gradient terms summed in the order backward visited them:
    from p - q, from log p, then from log(1 - p)."""
    p, inside_p = _clamped(a)
    q, inside_q = _clamped(b)
    one_p, one_q = -p + 1.0, -q + 1.0
    diff = p + -q
    dl = (np.log(p) + -np.log(one_p)) + -(np.log(q) + -np.log(one_q))
    g_m = np.broadcast_to(g / diff.size, diff.shape).astype(diff.dtype)
    g_diff, g_dl = g_m * dl, g_m * diff
    g_p = g_diff.copy()
    g_p += g_dl / p
    g_p += -((-g_dl) / one_p)
    g_q = -g_diff
    g_q += (-g_dl) / q
    g_q += -(g_dl / one_q)
    return (diff * dl).mean(), g_p * inside_p, g_q * inside_q


def _probs(rng, shape, dtype):
    """Uniform probabilities with some entries pushed past either clip."""
    x = rng.uniform(size=shape)
    flat = x.reshape(-1)
    flat[:: 7] = 0.0
    flat[3 :: 11] = 1.0
    return x.astype(dtype)


def _backward_scaled(loss):
    """Back-propagate loss/3, as a training step scales a clip's loss by 1/B."""
    backward(T.mul(loss, 1.0 / 3.0))
    return np.ones((), dtype=loss.dtype) * (1.0 / 3.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(25, 64), (7, 5), (125, 256)])
class TestLossPrimitives:
    """Each loss as one node, bit for bit the unfused chain it replaced."""

    @pytest.mark.parametrize("scale", [1.0, 1.0 / 0.1])
    def test_info_nce(self, dtype, shape, scale, recorded):
        rng = np.random.default_rng(40)
        c, z = (rng.normal(size=shape) for _ in range(2))
        c, z = (a / (np.linalg.norm(a, axis=1, keepdims=True) + 1e-8) for a in (c, z))
        c, z = c.astype(dtype), z.astype(dtype)
        candidates = _candidates(rng, shape[0], 10)
        leaves = [parameter(a.copy()) for a in (c, z)]
        loss = T.info_nce(*leaves, [candidates], scale)
        assert recorded() == [loss]
        g = _backward_scaled(loss)
        want_loss, want_c, want_z = _retired_info_nce(c, z, candidates, scale, g)
        assert_same_bits(loss.values, want_loss)
        assert_same_bits(leaves[0].grad, want_c)
        assert_same_bits(leaves[1].grad, want_z)

    def test_info_nce_without_distractors_is_zero(self, dtype, shape):
        rng = np.random.default_rng(41)
        leaves = [parameter(rng.normal(size=shape).astype(dtype)) for _ in range(2)]
        loss = T.info_nce(*leaves, [_candidates(rng, shape[0], 0)], 1.0)
        assert loss.values == 0.0
        backward(loss)
        for leaf in leaves:
            assert not leaf.grad.any()

    def test_binary_cross_entropy(self, dtype, shape, recorded):
        rng = np.random.default_rng(42)
        probs = _probs(rng, shape, dtype)
        targets = rng.uniform(size=shape)
        leaf = parameter(probs.copy())
        loss = T.binary_cross_entropy(leaf, targets)
        assert recorded() == [loss]
        g = _backward_scaled(loss)
        want_loss, want_grad = _retired_bce(probs, targets, g)
        assert_same_bits(loss.values, want_loss)
        assert_same_bits(leaf.grad, want_grad)
        assert not leaf.grad[(probs <= 1e-7) | (probs >= 1.0 - 1e-7)].any()

    def test_symmetric_bernoulli_kl(self, dtype, shape, recorded):
        rng = np.random.default_rng(43)
        a, b = _probs(rng, shape, dtype), rng.uniform(size=shape).astype(dtype)
        leaves = [parameter(x.copy()) for x in (a, b)]
        loss = T.symmetric_bernoulli_kl(*leaves)
        assert recorded() == [loss]
        g = _backward_scaled(loss)
        want_loss, want_a, want_b = _retired_kl(a, b, g)
        assert_same_bits(loss.values, want_loss)
        assert_same_bits(leaves[0].grad, want_a)
        assert_same_bits(leaves[1].grad, want_b)
        assert not leaves[0].grad[(a <= 1e-7) | (a >= 1.0 - 1e-7)].any()


class TestBackward:
    def test_product_rule(self):
        x = parameter([2.0])
        y = parameter([5.0])
        backward(T.reduce_sum(T.mul(x, y)))
        np.testing.assert_allclose(x.grad, [5.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_sum_of_squares(self):
        x = parameter([1.0, 2.0, 3.0])
        backward(T.reduce_sum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(ShapeError):
            backward(T.mul(x, x))

    def test_fan_out_accumulates_both_paths(self):
        # f(x) = sum(x*x) + sum(3*x); same x feeds two branches.
        x = parameter([1.0, -2.0, 0.5])
        loss = T.add(T.reduce_sum(T.mul(x, x)), T.reduce_sum(T.mul(x, 3.0)))
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.values + 3.0, rtol=1e-6)

    def test_fan_out_matches_duplicated_leaf(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(3, 3))
        shared = parameter(v)
        backward(T.reduce_sum(T.linear(shared, shared)))
        a = parameter(v)
        b = parameter(v)
        backward(T.reduce_sum(T.linear(a, b)))
        np.testing.assert_allclose(shared.grad, a.grad + b.grad, rtol=1e-12)

    def test_each_node_visited_once(self):
        # A diamond: y = x + x reused twice more; double-visiting any node
        # would inflate the gradient beyond the true value of 4.
        x = parameter([1.0])
        y = T.add(x, x)
        loss = T.reduce_sum(T.add(y, y))
        backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_interior_nodes_released_after_backward(self):
        x = parameter([1.0, 2.0])
        h = T.mul(x, x)
        s = T.mul(h, 3.0)
        loss = T.reduce_sum(s)
        backward(loss)
        for node in (h, s, loss):
            assert node.grad is None and node._backward is None and node._parents is None
        np.testing.assert_allclose(x.grad, 6.0 * x.values)
        np.testing.assert_allclose(loss.values, 15.0)

    def test_add_gives_each_parent_its_own_grad(self):
        a = parameter(np.zeros((2, 3)))
        b = parameter(np.zeros((2, 3)))
        backward(T.reduce_sum(T.add(a, b)))
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad *= 2.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_reduce_sum_grad_is_writable(self):
        x = parameter(np.zeros((2, 3)))
        backward(T.reduce_sum(x))
        assert x.grad.flags.writeable
        x.grad *= 0.5
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 0.5))

    def test_second_backward_through_consumed_graph_raises(self):
        x = parameter([1.0, 2.0])
        h = T.mul(x, x)
        loss = T.reduce_sum(h)
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)
        with pytest.raises(GraphError):
            backward(T.reduce_sum(T.add(h, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_dropped_forward_leaves_no_live_node(self, monkeypatch):
        x = parameter([1.0, 2.0])
        h = T.mul(x, x)
        loss = T.reduce_sum(h)
        refs = [weakref.ref(t) for t in (h, loss)]
        del h, loss
        assert [ref() for ref in refs] == [None, None]
        # Nor does the tape grow without bound over dropped forwards.
        monkeypatch.setattr(T, "_prune_at", 1 << 12)
        for _ in range(3 << 12):
            T.mul(x, 2.0)
        assert len(T._tape) < 1 << 13
        # The tape's dead references are skipped.
        backward(T.reduce_sum(T.mul(x, 3.0)))
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_backward_consumes_every_graph_recorded_before_it(self):
        x, y = parameter([1.0, 2.0]), parameter([4.0, 5.0])
        backward(T.reduce_sum(y))
        a = T.reduce_sum(T.mul(T.mul(x, x), T.mul(y, 2.0)))
        b = T.reduce_sum(T.mul(x, 3.0))
        backward(b)
        with pytest.raises(GraphError):
            backward(a)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])
        np.testing.assert_allclose(y.grad, [1.0, 1.0])

    def test_back_that_raises_releases_the_rest_of_the_tape(self):
        x = parameter([1.0, 2.0])
        h = T.mul(x, x)

        def fail(g):
            raise RuntimeError("back failed")

        bad = T.node(h.values * 2.0, (h,), fail, "fail")
        loss = T.reduce_sum(bad)
        with pytest.raises(RuntimeError, match="back failed"):
            backward(loss)
        for t in (h, bad, loss):
            assert t.grad is None and t._backward is None and t._parents is None
        # Unreleased, h would take a new node and drop its gradient silently.
        with pytest.raises(GraphError):
            backward(T.reduce_sum(T.add(h, x)))
        with pytest.raises(GraphError):
            backward(loss)
        assert x.grad is None

    def test_leaf_grads_add_across_backward_calls(self):
        x = parameter([1.0, -3.0])
        backward(T.reduce_sum(T.mul(x, x)))
        backward(T.reduce_sum(T.mul(x, 3.0)))
        np.testing.assert_allclose(x.grad, 2.0 * x.values + 3.0)

    def test_no_grad_suppresses_recording(self):
        x = parameter([1.0])
        with T.no_grad():
            y = T.mul(x, x)
        assert y._backward is None and not y.requires_grad


class TestNodeContract:
    """``T.node`` makes every node; its ``back`` returns the parents' gradients."""

    def test_back_returning_one_array(self):
        x = parameter([1.0, -2.0, 3.0])
        sq = T.node(x.values**2, (x,), lambda g: 2.0 * x.values * g, "square")
        assert sq.requires_grad and sq._parents == (x,)
        backward(T.reduce_sum(sq))
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_back_returning_a_tuple_with_none(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0, 4.0])
        c = parameter([5.0, 6.0])
        # Only b's gradient is returned: a's is None and c, past the tuple,
        # is left to ``back`` itself, as a kernel's parameters are.
        out = T.node(a.values * b.values, (a, b, c), lambda g: (None, 2.0 * g), "scaled")
        backward(T.reduce_sum(out))
        assert a.grad is None and c.grad is None
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_nothing_recorded_when_no_parent_requires_grad(self):
        x = Tensor([1.0, 2.0])

        def back(g):
            raise AssertionError("a node over constants has no backward")

        out = T.node(x.values * 2.0, (x,), back, "double")
        assert not out.requires_grad and out._backward is None and out._parents == ()
        with T.no_grad():
            y = T.node(x.values, (parameter([1.0, 2.0]),), back, "copy")
        assert not y.requires_grad and y._backward is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise_naming_the_op(self, bad):
        x = parameter([1.0, 2.0])
        with pytest.raises(NumericError, match="'user_op'"):
            T.node(np.array([1.0, bad]), (x,), lambda g: g, "user_op")


def _spy_on_grads(nodes):
    """Record the gradient each interior node's backward closure receives."""
    seen = []
    for node in nodes:
        inner = node._backward

        def spy(g, inner=inner):
            seen.append(g)
            return inner(g)

        node._backward = spy
    return seen


def _assert_owned_and_disjoint(grads):
    for i, a in enumerate(grads):
        assert a.flags.writeable
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


class TestGradOwnership:
    """Gradients are adopted, never copied, so no two tensors may share one."""

    def test_add_of_a_tensor_with_itself(self):
        x = parameter(np.ones((2, 3)))
        backward(T.reduce_sum(T.add(x, x)))
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        _assert_owned_and_disjoint([x.grad])

    def test_add_of_two_interior_parents(self):
        # Each scalar add adopts its gradient for its parent, so the leaves
        # end up holding the arrays the outer add handed to h1 and h2.
        x = parameter(np.zeros((2, 3)))
        y = parameter(np.zeros((2, 3)))
        h1, h2 = T.add(x, 1.0), T.add(y, 2.0)
        seen = _spy_on_grads([h1, h2])
        backward(T.reduce_sum(T.add(h1, h2)))
        _assert_owned_and_disjoint(seen)
        _assert_owned_and_disjoint([x.grad, y.grad])
        x.grad *= 3.0
        np.testing.assert_array_equal(y.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("pair", [False, True], ids=["one_array", "tuple"])
    def test_returned_arrays_are_adopted_without_a_copy(self, pair):
        x = parameter(np.zeros((2, 3)))
        y = parameter(np.zeros((2, 3)))
        parents = (x, y) if pair else (x,)
        returned = []

        def back(g):
            returned.extend(g * (i + 2.0) for i in range(len(parents)))
            return tuple(returned) if pair else returned[0]

        backward(T.reduce_sum(T.node(x.values + y.values, parents, back, "sum")))
        for p, g in zip(parents, returned, strict=True):
            assert p.grad is g

    @pytest.mark.parametrize("reduce", [T.reduce_sum, T.reduce_mean])
    def test_reduction_into_a_leaf(self, reduce):
        x = parameter(np.zeros((2, 3)))
        w = parameter(np.zeros((2, 3)))
        backward(T.add(reduce(x), reduce(T.reduce_sum(w, clips=1))))
        _assert_owned_and_disjoint([x.grad, w.grad])
        x.grad += 1.0
        w.grad += 1.0


class TestGradCheck:
    def test_quadratic_is_captured(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        err = grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x, eps=1e-4)
        assert err < 1e-6

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: T.reduce_sum(t), Tensor(np.ones(3)), eps=0.0)

    @pytest.mark.parametrize("bad", [0, 2])
    def test_nan_gradient_is_the_result(self, bad):
        """A NaN analytic gradient at any coordinate makes the error NaN,
        which fails every tolerance; a wrong finite one reads as its error."""

        def identity(t, back):
            return T.reduce_sum(T.node(t.values.copy(), (t,), back, "identity"))

        nan_at_bad = lambda g: np.where(np.arange(3) == bad, np.nan, g)
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        assert np.isnan(grad_check(lambda t: identity(t, nan_at_bad), x))
        assert grad_check(lambda t: identity(t, lambda g: g * 2.0), x) == pytest.approx(0.5)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-3), (np.float64, 1e-5)])
    def test_every_primitive(self, dtype, tol):
        """Each primitive at 10 random points, both precisions."""
        for name, make in gradcheck.primitive_cases().items():
            worst = 0.0
            for point_seed in range(10):
                fn, points = make(np.random.default_rng(100 + point_seed), dtype)
                err = grad_check(fn, points, eps=1e-4, rng=np.random.default_rng(0))
                worst = max(worst, err)
            assert worst < tol, f"{name}: {worst:.3g} at {np.dtype(dtype).name}"

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("case", list(gradcheck.COMPOSITE_CASES))
    def test_composite_cases(self, case, precision):
        """The suite's fused sub-module nodes, conformer block and end-to-end
        contrastive loss (which covers apply_mask, both normalizations and
        info_nce) at their first two points."""
        first = gradcheck.COMPOSITE_CASES[case][2]
        dtype, tol = {
            "single": (np.float32, gradcheck.SINGLE_TOLERANCE),
            "double": (np.float64, gradcheck.DOUBLE_TOLERANCE),
        }[precision]
        worst = max(gradcheck.check_composite(case, first + point, dtype) for point in range(2))
        assert worst < tol, f"{case}: {worst:.3g} in {precision} precision"

    def test_suite_rows_in_order(self, monkeypatch):
        """Every row of ``melformer gradcheck``, by name and precision, in
        the order it prints them: the primitives, then the composites, in
        single then double precision."""
        monkeypatch.setattr(gradcheck, "grad_check", lambda *args, **kwargs: 0.0)
        names = [
            "sigmoid", "swish", "glu", "l2_normalize_rows", "sum_all", "sum_per_clip",
            "mean_2clips", "rows", "scale", "add", "mul", "div", "linear", "conv1d_depthwise",
            "conv1d_depthwise_2clips", "linear_bias", "info_nce", "binary_cross_entropy",
            "symmetric_bernoulli_kl", "attention", "attention_2clips", "layer_norm",
            "batch_norm_train", "batch_norm_train_2clips", "batch_norm_eval",
            "dropout_fixed_mask", "feed_forward", "conv_module_2clips",
            "self_attention_2clips", "conformer_block_d32", "contrastive_2block_e2e",
        ]
        rows = gradcheck.run_gradcheck_suite(points_per_case=1)
        assert [(r.name, r.precision) for r in rows] == [
            (name, precision) for precision in ("single", "double") for name in names
        ]
        assert len(rows) == 62 and all(r.passed for r in rows)

    def test_deterministic_forward_backward(self):
        def run():
            rng = np.random.default_rng(7)
            x = parameter(rng.normal(size=(4, 6)).astype(np.float32))
            y = T.dropout(T.swish(x), 0.3, np.random.default_rng(8))
            loss = T.reduce_sum(T.mul(y, y))
            backward(loss)
            return loss.values.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


class TestGradCheckInPlace:
    """grad_check perturbs the points themselves and hands each one back as it found it."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        x.grad = np.full((3, 4), 7.0, dtype=np.float32)
        w = parameter(rng.normal(size=(4, 2)))
        return [x, w]

    @staticmethod
    def _state(points):
        return [(p.values, p.values.copy(), p.grad, p.requires_grad) for p in points]

    def _assert_restored(self, points, before):
        for p, (values, copy, grad, requires_grad) in zip(points, before):
            assert p.values is values and np.array_equal(values, copy)
            assert p.grad is grad and p.requires_grad == requires_grad

    def test_points_restored_after_return(self):
        points = self._points()
        before = self._state(points)
        seen = []

        def fn(x, w):
            assert x is points[0] and w is points[1]
            seen.append(x.values.dtype)
            return T.reduce_sum(T.swish(T.linear(x, w)))

        assert grad_check(fn, points) < 1e-3
        assert seen[0] == np.float32 and set(seen[1:]) == {np.dtype(np.float64)}
        self._assert_restored(points, before)

    @pytest.mark.parametrize("fail_on_call", [1, 3])
    def test_points_restored_when_fn_raises(self, fail_on_call):
        points = self._points()
        before = self._state(points)
        calls = []

        def fn(x, w):
            calls.append(None)
            if len(calls) == fail_on_call:
                raise NumericError("boom")
            return T.reduce_sum(T.linear(x, w))

        with pytest.raises(NumericError):
            grad_check(fn, points)
        self._assert_restored(points, before)

    def test_module_check_flags_a_dropped_parameter_gradient(self, monkeypatch):
        check = gradcheck.check_composite
        assert check("conformer_block_d32", 2000, np.float64) < gradcheck.DOUBLE_TOLERANCE
        layer_norm = T.layer_norm
        # The gain enters as a constant, so its analytic gradient is lost.
        monkeypatch.setattr(
            T, "layer_norm", lambda x, gain, bias: layer_norm(x, Tensor(gain.values), bias)
        )
        assert check("conformer_block_d32", 2000, np.float64) > 0.5


def private_engine_uses(source: str) -> list:
    """(line, name) of every private name of ``melformer.tensor`` that the
    module ``source`` reaches: an ``_``-prefixed attribute of a name bound to
    the tensor module, or one imported from it."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            package = n.module == "melformer" or (n.level == 1 and n.module is None)
            engine = n.module == "melformer.tensor" or (n.level == 1 and n.module == "tensor")
            for a in n.names:
                if package and a.name == "tensor":
                    aliases.add(a.asname or a.name)
                if engine and a.name.startswith("_"):
                    found.append((n.lineno, a.name))
        elif isinstance(n, ast.Import):
            aliases.update(a.asname for a in n.names if a.name == "melformer.tensor" and a.asname)
    for n in ast.walk(tree):
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in aliases
            and n.attr.startswith("_")
        ):
            found.append((n.lineno, n.attr))
    return sorted(found)


class TestLayering:
    """The rest of the package reaches the engine only through public names:
    primitives, ``node`` and the kernels."""

    def test_no_module_uses_a_private_engine_name(self):
        modules = sorted(Path(T.__file__).parent.glob("*.py"))
        assert len(modules) > 5
        uses = {
            m.name: private_engine_uses(m.read_text()) for m in modules if m.name != "tensor.py"
        }
        assert {name: found for name, found in uses.items() if found} == {}

    def test_the_scan_sees_every_form(self):
        source = (
            "from . import tensor as T\n"
            "from melformer import tensor\n"
            "import melformer.tensor as E\n"
            "from .tensor import Tensor, _accum\n"
            "T._make(1)\n"
            "T.node(1)\n"
            "tensor._linear\n"
            "E._tracked()\n"
        )
        assert private_engine_uses(source) == [
            (4, "_accum"), (5, "_make"), (7, "_linear"), (8, "_tracked"),
        ]

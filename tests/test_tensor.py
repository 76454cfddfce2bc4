"""Autodiff core: primitive values, backward rules, and the gradient checker."""

import numpy as np
import pytest
from scipy.special import expit

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
    def test_matmul_shape(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 4)))
        assert T.matmul(a, b).shape == (2, 4)

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_softmax_symmetry(self):
        y = T.softmax(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(y.values, 1.0 / 3.0)

    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 16)), dtype=np.float64)
        g = Tensor(np.ones(16), dtype=np.float64)
        b = Tensor(np.zeros(16), dtype=np.float64)
        y = T.layer_norm(x, g, b).values
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)

    def test_glu_halves_and_gates(self):
        x = Tensor(np.array([[1.0, 2.0, 0.0, 0.0]]))
        y = T.glu(x, axis=1)
        np.testing.assert_allclose(y.values, [[0.5, 1.0]])

    def test_non_finite_output_raises(self):
        with pytest.raises(NumericError):
            T.log(Tensor(np.array([0.0])))

    def test_logsumexp_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 7))
        got = T.logsumexp(Tensor(x, dtype=np.float64)).values
        want = np.log(np.exp(x).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(got, want, rtol=1e-12)


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
        leaves = [parameter(a, dtype=np.float64) for a in (q, k, v)]
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
        out = T.conv1d(Tensor(x), Tensor(k), groups=4)
        np.testing.assert_allclose(out.values, x, rtol=1e-6)

    def test_same_padding_preserves_length(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 7, 31):
            x = Tensor(rng.normal(size=(12, 2)))
            kern = Tensor(rng.normal(size=(k, 2)))
            assert T.conv1d(x, kern, groups=2).shape == (12, 2)

    def test_depthwise_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        k = rng.normal(size=(5, 3))
        got = T.conv1d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64), groups=3)
        np.testing.assert_allclose(got.values, depthwise_reference(x, k), atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2))), groups=2)

    def test_bad_groups_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 4))), Tensor(np.ones((3, 2))), groups=2)

    def test_dense_kernel_rejected(self):
        # Dense (k, C_in, C_out) kernels are gone: a kernel-1 conv is ``linear``.
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((1, 2, 3))), groups=2)


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
        split = [parameter(a.copy()) for a in arrays]
        out_fused = T.linear(*fused)
        out_split = T.matmul(split[0], split[1])
        if with_bias:
            out_split = T.add(out_split, split[2])
        assert_same_bits(out_fused.values, out_split.values)
        backward(_sum_against(out_fused, g))
        backward(_sum_against(out_split, g))
        for a, b in zip(fused, split):
            assert_same_bits(a.grad, b.grad)

    def test_one_node_per_projection(self):
        x = parameter(np.ones((3, 4)))
        out = T.linear(x, parameter(np.ones((4, 2))), parameter(np.zeros(2)))
        assert len(T._topological_order(out)) == 4

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


def _reference_dropout(x, g, rate, seed):
    keep = (np.random.default_rng(seed).random(x.shape) >= rate) / (1.0 - rate)
    keep = keep.astype(x.dtype)
    return x * keep, g * keep


def _reference_swish(x, g):
    s = expit(x)
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
        shared = parameter(v, dtype=np.float64)
        backward(T.reduce_sum(T.matmul(shared, shared)))
        a = parameter(v, dtype=np.float64)
        b = parameter(v, dtype=np.float64)
        backward(T.reduce_sum(T.matmul(a, b)))
        np.testing.assert_allclose(shared.grad, a.grad + b.grad, rtol=1e-12)

    def test_each_node_visited_once(self):
        # A diamond: y = x + x reused twice more; double-visiting any node
        # would inflate the gradient beyond the true value of 4.
        x = parameter([1.0])
        y = T.add(x, x)
        loss = T.reduce_sum(T.add(y, y))
        backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_bias_add_reduces_over_rows(self):
        a = parameter(np.zeros((4, 3)))
        b = parameter(np.ones(3))
        backward(T.reduce_sum(T.add(a, b)))
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

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


def _spy_on_grads(nodes):
    """Record the gradient each interior node's backward closure receives."""
    seen = []
    for node in nodes:
        inner = node._backward

        def spy(g, inner=inner):
            seen.append(g)
            inner(g)

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

    @pytest.mark.parametrize("reduce", [T.reduce_sum, T.reduce_mean])
    def test_reduction_into_a_leaf(self, reduce):
        x = parameter(np.zeros((2, 3)))
        w = parameter(np.zeros((2, 3)))
        backward(T.add(reduce(x), reduce(T.reduce_sum(w, axis=0))))
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

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-3), (np.float64, 1e-5)])
    def test_every_primitive(self, dtype, tol):
        """Each primitive at 10 random points, both precisions."""
        from melformer.gradcheck import primitive_cases

        for name, make in primitive_cases().items():
            worst = 0.0
            for point_seed in range(10):
                fn, points = make(np.random.default_rng(100 + point_seed), dtype)
                err = grad_check(fn, points, eps=1e-4, rng=np.random.default_rng(0))
                worst = max(worst, err)
            assert worst < tol, f"{name}: {worst:.3g} at {np.dtype(dtype).name}"

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

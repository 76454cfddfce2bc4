"""Autodiff core: primitive values, backward rules, and the gradient checker."""

import numpy as np
import pytest

from melformer import tensor as T
from melformer.errors import GraphError, NumericError, ShapeError
from melformer.tensor import Tensor, backward, grad_check, parameter


def conv1d_reference(x, kernel, groups=1):
    """Triple-loop same-padded cross-correlation, independent of the engine."""
    t, c = x.shape
    k = kernel.shape[0]
    pad = k // 2
    xp = np.zeros((t + 2 * pad, c))
    xp[pad : pad + t] = x
    if groups == 1:
        c_out = kernel.shape[2]
        out = np.zeros((t, c_out))
        for i in range(t):
            for o in range(c_out):
                acc = 0.0
                for dt in range(k):
                    for ci in range(c):
                        acc += xp[i + dt, ci] * kernel[dt, ci, o]
                out[i, o] = acc
        return out
    out = np.zeros((t, c))
    for i in range(t):
        for ci in range(c):
            acc = 0.0
            for dt in range(k):
                acc += xp[i + dt, ci] * kernel[dt, ci]
            out[i, ci] = acc
    return out


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
            kern = Tensor(rng.normal(size=(k, 2, 5)))
            assert T.conv1d(x, kern).shape == (12, 5)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 4))
        k = rng.normal(size=(3, 4, 6))
        got = T.conv1d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64))
        np.testing.assert_allclose(got.values, conv1d_reference(x, k), atol=1e-6)

    def test_depthwise_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        k = rng.normal(size=(5, 3))
        got = T.conv1d(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64), groups=3)
        np.testing.assert_allclose(got.values, conv1d_reference(x, k, groups=3), atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2, 2))))

    def test_bad_groups_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((4, 4))), Tensor(np.ones((3, 2))), groups=2)


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

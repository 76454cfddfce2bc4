"""The reverse-mode autodiff core, from scalars to a conformer block.

Shows gradient computation through composed primitives, fan-out
accumulation, a new op defined with ``T.node``, and the finite-difference
checker that underwrites every backward rule in the package.
"""

import numpy as np

from melformer import Tensor, backward, grad_check, parameter
from melformer import tensor as T

# d/dx sum(x^2) at [1, 2, 3] is [2, 4, 6].
x = parameter([1.0, 2.0, 3.0])
loss = T.reduce_sum(T.mul(x, x))
backward(loss)
print(f"sum(x^2) = {loss.item():.1f}, grad = {x.grad}")

# Fan-out: using a tensor twice sums both path gradients.
y = parameter([2.0])
both = T.add(T.mul(y, y), T.mul(y, 3.0))  # y^2 + 3y -> dy = 2y + 3 = 7
backward(both)
print(f"d(y^2 + 3y)/dy at y=2 -> {y.grad[0]:.1f}")

# The checker compares analytic gradients against central differences.
rng = np.random.default_rng(0)
point = Tensor(rng.normal(size=(4, 6)))
err = grad_check(lambda t: T.reduce_sum(T.swish(T.l2_normalize_rows(t))), point)
print(f"l2-normalize+swish composite: max relative error {err:.2e}")

# A new op is one ``T.node``: its output, its parents, a ``back`` that
# returns the parent's gradient, and a name for errors. softplus(x) =
# log(1 + e^x), whose derivative is sigmoid(x).
def softplus(t):
    sig = 1.0 / (1.0 + np.exp(-t.values))
    return T.node(np.logaddexp(0.0, t.values), (t,), lambda g: g * sig, "softplus")


err = grad_check(lambda t: T.reduce_sum(T.mul(softplus(t), t)), point)
print(f"softplus(x) * x, a T.node op: max relative error {err:.2e}")

# A full conformer block in both precisions.
from melformer.gradcheck import check_composite

for dtype in (np.float64, np.float32):
    err = check_composite("conformer_block_d32", 0, dtype)
    print(f"conformer block d=32, {dtype.__name__}: {err:.2e}")

# Dropout is checked with a fixed mask: rebuild the same stream per call.
p = Tensor(rng.normal(size=(5, 5)))
err = grad_check(
    lambda t: T.reduce_sum(T.dropout(t, 0.5, np.random.default_rng(7))), p
)
print(f"dropout with a fixed mask: {err:.2e}")

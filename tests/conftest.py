"""Fixtures shared across test modules."""

import numpy as np
import pytest

from melformer import tensor as T


@pytest.fixture
def check_streamed_grads(monkeypatch):
    """Compare a step's per-clip backward with one backward over the batch.

    ``make`` builds a fresh model and optimizer and returns
    ``(run_step, named_params)``; ``run_step`` returns the step's log record
    and must leave the parameters as they were (learning rate 0). The step
    runs once as written, then once with its ``backward`` (looked up on
    ``module``) replaced by collecting the scaled clip losses. Their sum must
    be the logged batch loss, and back-propagating it in a single call must
    give the same gradients as the per-clip calls. Returns the number of
    clip losses.
    """

    def check(module, make) -> int:
        run_step, named = make()
        run_step()
        streamed = {name: p.grad for name, p in named}
        run_step, named = make()
        scaled = []
        monkeypatch.setattr(module, "backward", scaled.append)
        record = run_step()
        monkeypatch.undo()
        total = scaled[0]
        for extra in scaled[1:]:
            total = T.add(total, extra)
        assert total.item() == pytest.approx(record["loss"], rel=1e-12)
        T.backward(total)
        for name, p in named:
            if p.grad is None:  # a parameter the step does not use
                assert streamed[name] is None, name
                continue
            np.testing.assert_allclose(
                streamed[name], p.grad, rtol=1e-10, atol=1e-12 * np.abs(p.grad).max(),
                err_msg=name,
            )
        return len(scaled)

    return check

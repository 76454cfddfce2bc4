"""Fixtures shared across test modules."""

import pytest

from melformer import tensor as T


@pytest.fixture
def backward_calls(monkeypatch):
    """``count(module)`` makes ``module.backward`` record every loss it
    back-propagates and returns the list it records into."""

    def count(module) -> list:
        calls = []

        def counted(loss):
            calls.append(loss)
            T.backward(loss)

        monkeypatch.setattr(module, "backward", counted)
        return calls

    return count

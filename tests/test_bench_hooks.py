"""The benchmark's traced run finds every function it wraps, and its layer
cases call melformer in forms melformer still takes.

``bench/workload.py`` wraps melformer functions and methods by name to
build its per-layer metrics; a name it cannot find reads as a zero metric
instead of an error. Installing its tracer in a fresh interpreter must
report no missing hooks. ``bench/layers.py`` times each layer on its own;
each of its toy cases runs here once, forward and forward+backward.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import melformer
from melformer.finetune import HEAD_KINDS

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(melformer.__file__).resolve().parents[1]

PROBE = """
import json
from tracer import Tracer
from workload import install
print(json.dumps(install(Tracer())))
"""


def test_trace_hooks_all_found():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(BENCH), str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1]) == []


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy_case(layers, name):
    """(forward, params) of a toy layer case; params is None for the cases
    the bench times forward only."""
    s, rng = layers.SHAPES["toy"], layers.np.random.default_rng(0)
    if name in layers.GEMM_CASES:
        return layers._module_case(name, s, rng)
    if name == "contrastive_loss":
        return layers._contrastive_case(s, rng)[:2]
    if name in HEAD_KINDS:
        return layers._head_case(name, s, rng)[:2]
    if name == "adam_step":
        return layers._adam_case(s, "toy")[0], None
    return layers._logmel_case(s)[0], None


@pytest.mark.parametrize("name", [
    "ffn", "conv", "mhsa", "block", "contrastive_loss",
    "mean-pool", "linear-softmax-pool", "adam_step", "logmel",
])
def test_toy_layer_case_runs(layers, name):
    forward, params = _toy_case(layers, name)
    forward()
    if params is not None:
        layers._fwd_bwd(forward, params)()

"""The benchmark's traced run finds every function it wraps.

``bench/workload.py`` wraps melformer functions and methods by name to
build its per-layer metrics; a name it cannot find reads as a zero metric
instead of an error. Installing its tracer in a fresh interpreter must
report no missing hooks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import melformer

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

"""Demos run to completion, every exported name resolves, the package root
exports what the demos import, and importing the package loads no scipy
(numpy is its only dependency)."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import melformer
from melformer import tensor as T

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = Path(melformer.__file__).resolve().parents[1]


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert not any(tmp_path.iterdir()), "demo left files in the temp dir"


@pytest.mark.parametrize("module", [melformer, T], ids=lambda m: m.__name__)
def test_exports_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_package_root_exports_exactly_the_demos_imports():
    imported = set()
    for demo in DEMOS:
        for stmt in ast.walk(ast.parse(demo.read_text())):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "melformer":
                imported.update(alias.name for alias in stmt.names)
    names = {name for name in imported if not inspect.ismodule(getattr(melformer, name))}
    assert sorted(melformer.__all__) == sorted(names)


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, melformer; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"

"""Self-check of the benchmark (seconds, not minutes).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Runs every workload in ``--quick`` mode, which keeps the code paths but
shrinks model and data, and checks the output schema, metric names and
units against BENCHMARK.json, the correctness checks, and that the exact
counts repeat for a fixed seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = (
    "tensor.ops_per_step",
    "tensor.fwd_out_bytes_per_step",
    "pretrain.sample_distractors_calls_per_step",
    "dsp.logmel_calls_per_step",
    "data.ckpt_bytes",
)

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["pretrain-toy", "pretrain-cfS", "finetune-toy"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pretrain-toy", "pretrain-cfS", "finetune-toy"])
def test_quick_run_schema_and_checks(workload, trace):
    result = last_json(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_counts_repeat_exactly_for_a_seed():
    first = last_json(bench("pretrain-toy", 1, seed=3))["metrics"]
    second = last_json(bench("pretrain-toy", 1, seed=3))["metrics"]
    for name in COUNTS + tuple(n for n in first if n.startswith("tensor.op_calls.")):
        assert first[name]["value"] == second[name]["value"], name


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("pretrain-toy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_round_trip_check_catches_a_flipped_bit(tmp_path):
    import dataclasses

    import workload
    from melformer import data as mdata

    w = dataclasses.replace(workload.WORKLOADS["pretrain-toy"], **workload.QUICK)
    mdata.generate_synthetic_dataset(
        num_classes=w.num_classes, clips_per_class=w.clips_per_class,
        clip_seconds=w.clip_seconds, seed=0, out_dir=tmp_path / "data",
        eval_fraction=w.eval_fraction,
    )
    run = workload.Run(w, 0, tmp_path / "data")
    run.step(1)
    run.save(tmp_path / "ckpt", 1)
    ck = mdata.load_checkpoint(tmp_path / "ckpt")
    assert run.check_round_trip(ck) == []
    bits = ck.arrays["mask_embedding"].view(np.uint32)
    bits[0, 0] ^= 1
    assert run.check_round_trip(ck) != []

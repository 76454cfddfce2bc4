"""melformer benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload pretrain-toy --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload runs in a child process whose
environment fixes the BLAS thread count to 1 (OpenBLAS, OpenMP, MKL): the
program is specified for one CPU core, and on a shared two-core machine a
single thread also keeps the numbers steady. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a separate
traced run. Metric names and units come from BENCHMARK.json at the root.

End-to-end times are in ``ref``, multiples of a fixed reference kernel timed
right after each sample (see ``Reference`` in workload.py), because the
host's own speed drifts; set-up is in seconds.

Before the JSON line the command prints every metric with its unit, the
same statistics in seconds, and an environment record; the full record,
and the spans of a traced run, are written under ``.bench-out/``. The exit
code is 1 when a correctness check failed, 2 when the program or
BENCHMARK.json cannot be found, and 3 when the workload crashed or ran past
its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-toy", "pretrain-cfS", "finetune-toy")
DEADLINE_S = 175.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="melformer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--quick", action="store_true",
        help="self-check: small model and data, seconds not minutes; numbers not comparable",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "melformer" / "__init__.py").is_file():
        print(f"error: no melformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = ROOT / ".bench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work_root = ROOT / ".bench-work"
    work_root.mkdir(exist_ok=True)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        result_path = out_dir / "record.json"
        result_path.unlink(missing_ok=True)
        command = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work, "--out", str(result_path),
        ] + (["--quick"] if args.quick else [])
        try:
            proc = subprocess.run(
                command, env=env, cwd=ROOT, stdout=sys.stderr,
                timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
            )
        except subprocess.TimeoutExpired:
            print("error: workload exceeded the time limit", file=sys.stderr)
            return 3
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: workload exited with code {proc.returncode}", file=sys.stderr)
        return 3
    record = json.loads(result_path.read_text())
    values = record["metrics"]
    if set(values) != set(units):
        print(
            "error: metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}",
            file=sys.stderr,
        )
        return 2

    details = record["details"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    width = max(len(n) for n in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {values[name]:>14.6g} {unit}")
    if not args.trace:
        attempted, failed = record["attempted"], record["failed"]
        print(f"  {'error_rate':<{width}}  {failed / attempted:>14.6g} ratio ({failed}/{attempted} operations)")
        if details["eval_map"] is not None:
            print(
                f"  {'eval_map':<{width}}  {details['eval_map']:>14.6g} mAP "
                f"(class-prior floor {details['eval_map_prior_floor']:.4f})"
            )
        print(
            f"  step_ref_tail is p{details['step_tail_percentile']:g} of "
            f"{details['timed_steps']} timed steps ({details['step_tail_steps_beyond']} beyond); "
            f"{details['warmup_steps_untimed']} warm-up steps untimed"
        )
        print(
            f"  1 ref = {details['reference_s_p50'] * 1e3:.3f} ms in this run (median reading); "
            "in seconds:"
        )
        for name, value in details["seconds"].items():
            unit = "clips/s" if name.endswith("clips_per_s") else "s"
            print(f"    {name:<{width - 2}}  {value:>14.6g} {unit}")
    for failure in details["failures"]:
        print(f"  FAILED: {failure}")
    print(f"record: {result_path.relative_to(ROOT)}")
    correct = record["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

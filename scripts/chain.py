"""Run the seeded CLI chain into OUT_DIR and list the sha256 of every file in it.

    PYTHONPATH=src python scripts/chain.py OUT_DIR

In this process, through ``melformer.cli.main``: ``synthdata`` (4 classes x
6 clips x 2 s, seed 3), ``pretrain`` on ``configs/toy.json`` to step 4 and
then resumed to step 6, ``finetune --max-steps 5`` with each head from
``ckpt-00000006``, ``evaluate`` with each head, and ``extract`` on two clips.
Stdout is one ``sha256  relative/path`` line per file under OUT_DIR, sorted
by path; the commands' own output goes to stderr. OUT_DIR must be new or
empty. Equal listings from two builds mean they wrote the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from pathlib import Path

from melformer.cli import main as melformer
from melformer.finetune import HEAD_KINDS

TOY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy.json"


def run_chain(out: Path):
    data, pre = out / "data", out / "pretrain"
    manifest = data / "manifest.tsv"
    commands = [
        ["synthdata", "--out-dir", data, "--num-classes", 4, "--clips-per-class", 6]
        + ["--clip-seconds", 2, "--seed", 3]
    ]
    for steps in (4, 6):
        commands.append(
            ["pretrain", "--config", TOY_CONFIG, "--manifest", manifest, "--out-dir", pre]
            + ["--max-steps", steps]
        )
    for head in HEAD_KINDS:
        commands.append(
            ["finetune", "--config", TOY_CONFIG, "--manifest", manifest, "--head", head]
            + ["--out-dir", out / f"finetune-{head}", "--max-steps", 5]
            + ["--init-checkpoint", pre / "ckpt-00000006"]
        )
    for head in HEAD_KINDS:
        commands.append(
            ["evaluate", "--init-checkpoint", out / f"finetune-{head}" / "ckpt-final"]
            + ["--manifest", manifest, "--out-dir", out / f"evaluate-{head}"]
        )
    commands.append(
        ["extract", "--init-checkpoint", pre / "ckpt-00000006", "--out-dir", out / "extract"]
        + [data / "clip_00000.wav", data / "clip_00001.wav"]
    )
    for argv in commands:
        with contextlib.redirect_stdout(sys.stderr):
            code = melformer([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"melformer {argv[0]} exited {code}")


def listing(out: Path) -> list[str]:
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / f).read_bytes()).hexdigest()}  {f}" for f in files]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: chain.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    if out.exists() and any(out.iterdir()):
        print(f"chain.py: {out} is not empty; the chain needs a fresh OUT_DIR", file=sys.stderr)
        return 2
    run_chain(out)
    print("\n".join(listing(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

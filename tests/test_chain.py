"""scripts/chain.py runs the seeded CLI chain and lists each file it wrote once."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "chain.py"
# The sha256 of the whole listing: any seeded bit the chain writes moves it.
# A change that moves seeded bits on purpose sets the new hash here and says
# so, and why, in CHANGES.md.
LISTING_SHA256 = "ac58df48c9c504e5a3b8361b8c96edbb03a66a5cba3377f031540a96a080c6e1"


def test_chain_lists_every_output_file_once(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("chain", SCRIPT)
    chain = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(chain)
    out = tmp_path / "chain"
    assert chain.main([str(out)]) == 0
    listing = capsys.readouterr().out
    assert hashlib.sha256(listing.encode()).hexdigest() == LISTING_SHA256
    lines = listing.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    listed = [line.split("  ", 1)[1] for line in lines]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert listed == files
    for name in [
        "pretrain/ckpt-00000004/arrays.bin",
        "pretrain/ckpt-00000006/arrays.bin",
        "finetune-mean-pool/ckpt-final/header.json",
        "evaluate-linear-softmax-pool/report.json",
        "evaluate-mean-pool/report.json",
        "extract/clip_00001.npy",
    ]:
        assert name in listed
    log = (out / "pretrain" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(record)["step"] for record in log] == [1, 2, 3, 4, 5, 6]

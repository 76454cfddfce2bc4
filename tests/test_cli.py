"""CLI: smoke runs, exit codes, determinism, resume behavior."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from melformer.cli import main
from melformer.data import load_checkpoint

TOY_MODEL = dict(
    num_blocks=1,
    embed_dim=16,
    num_heads=2,
    ffn_dim=24,
    stack_factor=4,
    kernel_first=3,
    kernel_rest=3,
    dropout=0.1,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "synthdata",
            "--out-dir",
            str(data_dir),
            "--num-classes",
            "3",
            "--clips-per-class",
            "4",
            "--clip-seconds",
            "0.5",
            "--seed",
            "5",
            "--single-label",
            "--eval-fraction",
            "0.25",
        ]
    )
    assert code == 0
    return data_dir


@pytest.fixture(scope="module")
def toy_config(tmp_path_factory):
    cfg_dir = tmp_path_factory.mktemp("cfg")
    config = {
        "model": TOY_MODEL,
        "pretrain": {
            "num_distractors": 3,
            "mask_span": 2,
            "warmup_steps": 5,
            "total_steps": 50,
            "batch_size": 2,
            "checkpoint_interval": 100,
        },
        "finetune": {
            "peak_lr": 1e-3,
            "total_steps": 6,
            "batch_size": 3,
            "output_dropout": 0.1,
        },
    }
    path = cfg_dir / "toy.json"
    path.write_text(json.dumps(config))
    return path


def read_metrics(out_dir):
    return [
        json.loads(line)
        for line in (Path(out_dir) / "metrics.jsonl").read_text().splitlines()
    ]


class TestSynthdata:
    def test_manifest_written(self, dataset):
        assert (dataset / "manifest.tsv").is_file()
        lines = (dataset / "manifest.tsv").read_text().splitlines()
        assert len(lines) == 12


class TestPretrainCommand:
    def test_smoke_run_emits_metric_lines(self, dataset, toy_config, tmp_path):
        code = main(
            [
                "pretrain",
                "--config",
                str(toy_config),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(tmp_path / "run"),
                "--max-steps",
                "10",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        records = read_metrics(tmp_path / "run")
        assert [r["step"] for r in records] == list(range(1, 11))
        assert all(set(r) == {"step", "loss", "lr", "grad_norm"} for r in records)

    def test_missing_manifest_is_data_error(self, toy_config, tmp_path):
        code = main(
            [
                "pretrain",
                "--config",
                str(toy_config),
                "--manifest",
                str(tmp_path / "nope.tsv"),
                "--out-dir",
                str(tmp_path / "run"),
                "--max-steps",
                "2",
            ]
        )
        assert code == 3

    def test_seeded_runs_bitwise_identical_logs(self, dataset, toy_config, tmp_path):
        argv = lambda out: [
            "pretrain",
            "--config",
            str(toy_config),
            "--manifest",
            str(dataset / "manifest.tsv"),
            "--out-dir",
            out,
            "--max-steps",
            "10",
            "--seed",
            "3",
        ]
        assert main(argv(str(tmp_path / "a"))) == 0
        assert main(argv(str(tmp_path / "b"))) == 0
        log_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert log_a == log_b

    def test_interrupted_resume_matches_straight_run(self, dataset, toy_config, tmp_path):
        base = [
            "pretrain",
            "--config",
            str(toy_config),
            "--manifest",
            str(dataset / "manifest.tsv"),
            "--seed",
            "1",
        ]
        assert main(base + ["--out-dir", str(tmp_path / "full"), "--max-steps", "10"]) == 0
        assert main(base + ["--out-dir", str(tmp_path / "part"), "--max-steps", "7"]) == 0
        assert main(base + ["--out-dir", str(tmp_path / "part"), "--max-steps", "10"]) == 0
        full = read_metrics(tmp_path / "full")
        resumed = read_metrics(tmp_path / "part")
        assert [r["step"] for r in resumed] == list(range(1, 11))
        assert resumed == full

    def test_resume_after_mid_interval_crash_matches_straight_run(
        self, dataset, toy_config, tmp_path
    ):
        config = json.loads(toy_config.read_text())
        config["pretrain"]["checkpoint_interval"] = 5
        (tmp_path / "every5.json").write_text(json.dumps(config))
        base = [
            "pretrain",
            "--config",
            str(tmp_path / "every5.json"),
            "--manifest",
            str(dataset / "manifest.tsv"),
            "--seed",
            "1",
            "--deterministic",
        ]
        assert main(base + ["--out-dir", str(tmp_path / "full"), "--max-steps", "10"]) == 0
        part = tmp_path / "part"
        assert main(base + ["--out-dir", str(part), "--max-steps", "7"]) == 0
        # A crash before step 7's save: steps 6 and 7 are logged, not saved.
        shutil.rmtree(part / "ckpt-00000007")
        assert main(base + ["--out-dir", str(part), "--max-steps", "10"]) == 0
        assert [r["step"] for r in read_metrics(part)] == list(range(1, 11))
        full_log = (tmp_path / "full" / "metrics.jsonl").read_bytes()
        assert (part / "metrics.jsonl").read_bytes() == full_log

    def test_checkpoint_seed_mismatch_rejected(self, dataset, toy_config, tmp_path):
        base = [
            "pretrain",
            "--config",
            str(toy_config),
            "--manifest",
            str(dataset / "manifest.tsv"),
            "--out-dir",
            str(tmp_path / "run"),
        ]
        assert main(base + ["--max-steps", "3", "--seed", "1"]) == 0
        assert main(base + ["--max-steps", "5", "--seed", "2"]) == 2


class TestFinetuneCommand:
    def test_from_scratch_writes_report(self, dataset, toy_config, tmp_path):
        code = main(
            [
                "finetune",
                "--config",
                str(toy_config),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(tmp_path / "ft"),
                "--head",
                "mean-pool",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "ft" / "report.json").read_text())
        assert set(report) >= {"map", "accuracy", "num_examples"}
        assert (tmp_path / "ft" / "ckpt-final").is_dir()

    def test_final_checkpoint_records_last_step_run(self, dataset, toy_config, tmp_path):
        manifest = dataset / "manifest.tsv"
        args = ["finetune", "--config", str(toy_config), "--manifest", str(manifest)]
        assert main(args + ["--out-dir", str(tmp_path / "ft"), "--max-steps", "50"]) == 0
        assert load_checkpoint(tmp_path / "ft" / "ckpt-final").step == 6
        assert len(read_metrics(tmp_path / "ft")) == 6

    def test_init_from_pretrain_checkpoint(self, dataset, toy_config, tmp_path):
        pre_dir = tmp_path / "pre"
        assert (
            main(
                [
                    "pretrain",
                    "--config",
                    str(toy_config),
                    "--manifest",
                    str(dataset / "manifest.tsv"),
                    "--out-dir",
                    str(pre_dir),
                    "--max-steps",
                    "4",
                ]
            )
            == 0
        )
        ckpt = sorted(pre_dir.glob("ckpt-*"))[-1]
        code = main(
            [
                "finetune",
                "--config",
                str(toy_config),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(tmp_path / "ft2"),
                "--head",
                "linear-softmax-pool",
                "--init-checkpoint",
                str(ckpt),
            ]
        )
        assert code == 0

    def test_architecture_mismatch_is_config_error(self, dataset, toy_config, tmp_path):
        pre_dir = tmp_path / "pre"
        assert (
            main(
                [
                    "pretrain",
                    "--config",
                    str(toy_config),
                    "--manifest",
                    str(dataset / "manifest.tsv"),
                    "--out-dir",
                    str(pre_dir),
                    "--max-steps",
                    "2",
                ]
            )
            == 0
        )
        ckpt = sorted(pre_dir.glob("ckpt-*"))[-1]
        code = main(
            [
                "finetune",
                "--preset",
                "cf_S",
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(tmp_path / "ft3"),
                "--init-checkpoint",
                str(ckpt),
                "--max-steps",
                "1",
            ]
        )
        assert code == 2


@pytest.fixture(scope="module")
def finetuned(dataset, toy_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("ft-eval")
    assert (
        main(
            [
                "finetune",
                "--config",
                str(toy_config),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(out),
                "--head",
                "mean-pool",
            ]
        )
        == 0
    )
    return out / "ckpt-final"


class TestEvaluateAndExtract:

    def test_evaluate_prints_report(self, dataset, finetuned, capsys):
        code = main(
            [
                "evaluate",
                "--init-checkpoint",
                str(finetuned),
                "--manifest",
                str(dataset / "manifest.tsv"),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "map" in out

    def test_extract_embedding_shape(self, dataset, finetuned, tmp_path):
        wav = sorted(dataset.glob("*.wav"))[0]
        out_dir = tmp_path / "emb"
        code = main(
            [
                "extract",
                "--init-checkpoint",
                str(finetuned),
                "--out-dir",
                str(out_dir),
                str(wav),
            ]
        )
        assert code == 0
        emb = np.load(out_dir / (wav.stem + ".npy"))
        # 0.5 s at 16 kHz -> 25 frames -> 6 latent frames of latent_dim
        assert emb.shape == (6, TOY_MODEL["embed_dim"])

    def test_evaluate_with_pretrain_checkpoint_is_config_error(
        self, dataset, toy_config, tmp_path
    ):
        pre = tmp_path / "pre"
        assert (
            main(
                [
                    "pretrain",
                    "--config",
                    str(toy_config),
                    "--manifest",
                    str(dataset / "manifest.tsv"),
                    "--out-dir",
                    str(pre),
                    "--max-steps",
                    "2",
                ]
            )
            == 0
        )
        ckpt = sorted(pre.glob("ckpt-*"))[-1]
        code = main(
            [
                "evaluate",
                "--init-checkpoint",
                str(ckpt),
                "--manifest",
                str(dataset / "manifest.tsv"),
            ]
        )
        assert code == 2


class TestSmallCommands:
    def test_paramcount_cf_s(self, capsys):
        assert main(["paramcount", "cf_S"]) == 0
        value = int(capsys.readouterr().out.strip())
        assert abs(value - 18.4e6) / 18.4e6 < 0.05

    def test_unknown_config_key_rejected(self, dataset, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"embed_dims": 64}}))
        code = main(
            [
                "pretrain",
                "--config",
                str(bad),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(tmp_path / "x"),
                "--max-steps",
                "1",
            ]
        )
        assert code == 2

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pretraining": {}}))
        assert main(["pretrain", "--config", str(bad), "--max-steps", "1"]) == 2

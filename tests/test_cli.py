"""CLI: smoke runs, exit codes, determinism, resume behavior."""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from melformer import cli
from melformer.cli import build_parser, main
from melformer.data import (
    load_checkpoint,
    read_manifest,
    restore_model,
    save_checkpoint,
    write_wav,
)
from melformer.model import ConformerModel, ModelConfig

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


def edit_header(ckpt, edit):
    header = json.loads((ckpt / "header.json").read_text())
    edit(header)
    (ckpt / "header.json").write_text(json.dumps(header))


def transpose_in_header(ckpt, name):
    """Swap the two dimensions of one array in a checkpoint's header. Its
    size is unchanged, so the blob still parses."""

    def swap_shape(header):
        (entry,) = [e for e in header["arrays"] if e[0] == name]
        rows, cols = entry[1]
        assert rows != cols
        entry[1] = [cols, rows]

    edit_header(ckpt, swap_shape)


def tree_bytes(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


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

    def test_two_classes_give_multi_label_clips(self, tmp_path):
        argv = ["synthdata", "--out-dir", str(tmp_path), "--num-classes", "2"]
        argv += ["--clips-per-class", "4", "--clip-seconds", "0.5", "--seed", "1"]
        assert main(argv) == 0
        manifest = read_manifest(tmp_path / "manifest.tsv")
        assert manifest.vocabulary == ("class_0", "class_1")
        assert {len(r.labels) for r in manifest.records} == {1, 2}

    @pytest.mark.parametrize("option,value", [
        ("--clip-seconds", "0"),
        ("--clip-seconds", "0.00003"),
        ("--clip-seconds", "-1"),
        ("--clip-seconds", "nan"),
        ("--clip-seconds", "inf"),
        ("--clips-per-class", "0"),
        ("--eval-fraction", "-0.1"),
        ("--eval-fraction", "1.5"),
        ("--eval-fraction", "nan"),
        ("--num-classes", "40"),
    ])
    def test_invalid_argument_is_config_error(self, tmp_path, capsys, option, value):
        out_dir = tmp_path / "data"
        argv = ["synthdata", "--out-dir", str(out_dir), "--num-classes", "3"]
        argv += ["--clips-per-class", "2", "--clip-seconds", "0.1", option, value]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()


TRAIN_OPTIONS = [
    "--config", "--seed", "--deterministic", "--out-dir", "--max-steps", "--preset", "--manifest"
]
# Each subcommand's options, and nothing else: the ones its command reads.
OPTIONS = {
    "pretrain": TRAIN_OPTIONS,
    "finetune": TRAIN_OPTIONS + ["--init-checkpoint", "--head"],
    "evaluate": ["--config", "--init-checkpoint", "--manifest", "--out-dir", "--split"],
    "extract": ["--init-checkpoint", "--out-dir", "--manifest", "inputs"],
    "gradcheck": ["--points"],
    "paramcount": ["model_preset"],
    "synthdata": [
        "--out-dir", "--seed", "--num-classes", "--clips-per-class", "--clip-seconds",
        "--single-label", "--eval-fraction",
    ],
}
REQUIRED = {
    "evaluate": ["--init-checkpoint"],
    "extract": ["--init-checkpoint", "--out-dir"],
    "paramcount": ["model_preset"],
    "synthdata": ["--out-dir"],
}
# The options every subcommand once took from a shared parent parser, and
# the (command, option) pairs that no longer parse.
ONCE_SHARED = TRAIN_OPTIONS + ["--init-checkpoint", "--head"]
REMOVED = [(c, o) for c in OPTIONS for o in ONCE_SHARED if o not in OPTIONS[c]]
# option: (the words that set it, the value it then holds)
SAMPLE = {
    "--config": (["--config", "c.json"], "c.json"),
    "--seed": (["--seed", "4"], 4),
    "--deterministic": (["--deterministic"], True),
    "--out-dir": (["--out-dir", "o"], "o"),
    "--max-steps": (["--max-steps", "3"], 3),
    "--preset": (["--preset", "cf_L"], "cf_L"),
    "--manifest": (["--manifest", "m.tsv"], "m.tsv"),
    "--init-checkpoint": (["--init-checkpoint", "ck"], "ck"),
    "--head": (["--head", "linear-softmax-pool"], "linear-softmax-pool"),
    "--split": (["--split", "train"], "train"),
    "inputs": (["a.wav"], ["a.wav"]),
    "--points": (["--points", "2"], 2),
    "model_preset": (["cf_L"], "cf_L"),
    "--num-classes": (["--num-classes", "2"], 2),
    "--clips-per-class": (["--clips-per-class", "1"], 1),
    "--clip-seconds": (["--clip-seconds", "0.5"], 0.5),
    "--single-label": (["--single-label"], True),
    "--eval-fraction": (["--eval-fraction", "0.5"], 0.5),
}


def command_argv(command, options):
    return [command] + [word for option in options for word in SAMPLE[option][0]]


class TestParser:
    def test_settable_values(self):
        assert sum(len(options) for options in OPTIONS.values()) == 34
        assert len(REMOVED) == 38

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_takes_exactly_its_options(self, command):
        args = build_parser().parse_args(command_argv(command, OPTIONS[command]))
        got = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
        want = {o.lstrip("-").replace("-", "_"): SAMPLE[o][1] for o in OPTIONS[command]}
        assert got == want

    @pytest.mark.parametrize("command,option", REMOVED)
    def test_option_the_command_does_not_read_is_usage_error(self, command, option, capsys):
        parser = build_parser()
        parser.parse_args(command_argv(command, REQUIRED.get(command, [])))
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(command_argv(command, REQUIRED.get(command, []) + [option]))
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,option", [(c, o) for c, options in REQUIRED.items() for o in options]
    )
    def test_missing_required_option_is_usage_error(self, command, option, capsys):
        others = [o for o in REQUIRED[command] if o != option]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command_argv(command, others))
        assert exit_info.value.code == 2
        assert f"required: {option}" in capsys.readouterr().err


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

    def test_resume_after_a_crash_between_the_renames_of_a_save(
        self, dataset, toy_config, tmp_path, monkeypatch, capsys
    ):
        config = json.loads(toy_config.read_text())
        config["pretrain"]["checkpoint_interval"] = 5
        (tmp_path / "every5.json").write_text(json.dumps(config))
        base = [
            "pretrain", "--config", str(tmp_path / "every5.json"),
            "--manifest", str(dataset / "manifest.tsv"), "--seed", "1", "--deterministic",
        ]
        assert main(base + ["--out-dir", str(tmp_path / "full"), "--max-steps", "10"]) == 0
        part = tmp_path / "part"
        assert main(base + ["--out-dir", str(part), "--max-steps", "7"]) == 0
        # Overwriting ckpt-00000007 crashes once the old copy is at .old.
        real_rename = Path.rename

        def crash_before_staging_moves_in(self, target):
            if self.name.endswith(".tmp"):
                raise OSError("simulated crash")
            return real_rename(self, target)

        monkeypatch.setattr(Path, "rename", crash_before_staging_moves_in)
        with pytest.raises(OSError):
            model = ConformerModel(ModelConfig(**TOY_MODEL))
            save_checkpoint(part / "ckpt-00000007", model, step=7, seed=1)
        monkeypatch.undo()
        assert not (part / "ckpt-00000007").exists()
        capsys.readouterr()
        assert main(base + ["--out-dir", str(part), "--max-steps", "10"]) == 0
        assert f"resuming from {part / 'ckpt-00000007'} at step 7" in capsys.readouterr().out
        full_log = (tmp_path / "full" / "metrics.jsonl").read_bytes()
        assert (part / "metrics.jsonl").read_bytes() == full_log

    def every_2_steps(self, dataset, toy_config, tmp_path):
        config = json.loads(toy_config.read_text())
        config["pretrain"]["checkpoint_interval"] = 2
        (tmp_path / "every2.json").write_text(json.dumps(config))
        return [
            "pretrain", "--config", str(tmp_path / "every2.json"),
            "--manifest", str(dataset / "manifest.tsv"), "--seed", "1",
        ]

    @pytest.mark.parametrize(
        "corruption", ["truncated-blob", "bad-json", "wrong-version", "string-step"]
    )
    def test_resume_falls_back_past_a_corrupt_newest_checkpoint(
        self, dataset, toy_config, tmp_path, checkpoint_corruptions, corruption, capsys
    ):
        base = self.every_2_steps(dataset, toy_config, tmp_path)
        assert main(base + ["--out-dir", str(tmp_path / "full"), "--max-steps", "6"]) == 0
        part = tmp_path / "part"
        assert main(base + ["--out-dir", str(part), "--max-steps", "4"]) == 0
        checkpoint_corruptions[corruption](part / "ckpt-00000004")
        capsys.readouterr()
        assert main(base + ["--out-dir", str(part), "--max-steps", "6"]) == 0
        out = capsys.readouterr().out
        skipped = f"skipping corrupt checkpoint: {part / 'ckpt-00000004'}: "
        resumed = f"resuming from {part / 'ckpt-00000002'} at step 2"
        assert out.count(skipped) == 1 and resumed in out
        assert out.index(skipped) < out.index(resumed)
        assert tree_bytes(part) == tree_bytes(tmp_path / "full")

    def test_resume_with_no_valid_checkpoint_is_io_error(
        self, dataset, toy_config, tmp_path, checkpoint_corruptions, capsys
    ):
        base = self.every_2_steps(dataset, toy_config, tmp_path)
        part = tmp_path / "part"
        assert main(base + ["--out-dir", str(part), "--max-steps", "4"]) == 0
        checkpoint_corruptions["bad-json"](part / "ckpt-00000002")
        checkpoint_corruptions["truncated-blob"](part / "ckpt-00000004")
        before = tree_bytes(part)
        capsys.readouterr()
        assert main(base + ["--out-dir", str(part), "--max-steps", "6"]) == 5
        assert "ckpt-00000004: blob is 100 bytes" in capsys.readouterr().err
        assert tree_bytes(part) == before

    def resume_past_a_transposed_array(self, dataset, toy_config, tmp_path, capsys, name):
        base = self.every_2_steps(dataset, toy_config, tmp_path)
        part = tmp_path / "part"
        assert main(base + ["--out-dir", str(part), "--max-steps", "2"]) == 0
        ckpt = part / "ckpt-00000002"
        transpose_in_header(ckpt, name)
        before = tree_bytes(part)
        capsys.readouterr()
        assert main(base + ["--out-dir", str(part), "--max-steps", "3"]) == 5
        err = capsys.readouterr().err
        assert f"I/O error: {ckpt}: checkpoint arrays do not fit its model config" in err
        assert name in err
        assert tree_bytes(part) == before

    def test_resume_from_arrays_that_do_not_fit_the_config_is_io_error(
        self, dataset, toy_config, tmp_path, capsys
    ):
        name = "context_encoder.blocks.0.ffn_pre.lin1.weight"
        self.resume_past_a_transposed_array(dataset, toy_config, tmp_path, capsys, name)

    def test_resume_from_adam_moments_that_do_not_fit_is_io_error(
        self, dataset, toy_config, tmp_path, capsys
    ):
        name = "adam.m.context_encoder.blocks.0.ffn_pre.lin1.weight"
        self.resume_past_a_transposed_array(dataset, toy_config, tmp_path, capsys, name)

    @pytest.mark.parametrize(
        "transposed",
        [
            "context_encoder.blocks.0.ffn_pre.lin1.weight",
            "adam.m.context_encoder.blocks.0.ffn_pre.lin1.weight",
            None,
        ],
        ids=["model-array", "adam-moment", "no-adam-state"],
    )
    def test_resume_falls_back_past_a_newest_checkpoint_that_does_not_fit(
        self, dataset, toy_config, tmp_path, capsys, transposed
    ):
        base = self.every_2_steps(dataset, toy_config, tmp_path)
        assert main(base + ["--out-dir", str(tmp_path / "full"), "--max-steps", "6"]) == 0
        part = tmp_path / "part"
        assert main(base + ["--out-dir", str(part), "--max-steps", "4"]) == 0
        ckpt = part / "ckpt-00000004"
        if transposed is None:
            ck = load_checkpoint(ckpt)
            save_checkpoint(ckpt, restore_model(ck), step=ck.step, seed=ck.seed)
            assert load_checkpoint(ckpt).optimizer_arrays is None
        else:
            transpose_in_header(ckpt, transposed)
        capsys.readouterr()
        assert main(base + ["--out-dir", str(part), "--max-steps", "6"]) == 0
        out = capsys.readouterr().out
        fault = "checkpoint arrays do not fit its model config"
        skipped = f"skipping corrupt checkpoint: {ckpt}: {fault}"
        resumed = f"resuming from {part / 'ckpt-00000002'} at step 2"
        assert out.count("skipping corrupt checkpoint") == 1 and skipped in out
        assert resumed in out and out.index(skipped) < out.index(resumed)
        # metrics.jsonl and every checkpoint, ckpt-00000006 among them.
        assert tree_bytes(part) == tree_bytes(tmp_path / "full")

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_config_file_seed_applies_unless_seed_is_given(
        self, dataset, toy_config, tmp_path, command
    ):
        config = json.loads(toy_config.read_text())
        config[command]["seed"] = 7
        (tmp_path / "seed7.json").write_text(json.dumps(config))

        def run(out, *seed):
            argv = [command, "--config", str(tmp_path / "seed7.json"), "--max-steps", "2"]
            argv += ["--manifest", str(dataset / "manifest.tsv"), "--out-dir", str(tmp_path / out)]
            assert main(argv + list(seed)) == 0
            # pretrain writes ckpt-00000002, finetune ckpt-final.
            (ckpt,) = (tmp_path / out).glob("ckpt-*")
            return load_checkpoint(ckpt).seed, (tmp_path / out / "metrics.jsonl").read_bytes()

        from_file = run("file")
        assert from_file[0] == 7
        assert run("flag-7", "--seed", "7") == from_file
        seed, log = run("flag-3", "--seed", "3")
        assert seed == 3 and log != from_file[1]

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

    def test_rerun_into_same_out_dir_logs_one_series(self, dataset, toy_config, tmp_path):
        args = [
            "finetune",
            "--config",
            str(toy_config),
            "--manifest",
            str(dataset / "manifest.tsv"),
            "--out-dir",
            str(tmp_path / "ft"),
            "--max-steps",
            "3",
        ]
        assert main(args) == 0
        first = (tmp_path / "ft" / "metrics.jsonl").read_bytes()
        assert main(args) == 0
        assert [r["step"] for r in read_metrics(tmp_path / "ft")] == [1, 2, 3]
        assert (tmp_path / "ft" / "metrics.jsonl").read_bytes() == first

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

    def test_batch_that_reaches_the_mixup_stream_is_config_error(
        self, dataset, toy_config, tmp_path, capsys
    ):
        config = json.loads(toy_config.read_text())
        config["finetune"]["batch_size"] = 7920
        path = tmp_path / "big-batch.json"
        path.write_text(json.dumps(config))
        argv = ["finetune", "--config", str(path), "--manifest", str(dataset / "manifest.tsv")]
        assert main(argv + ["--out-dir", str(tmp_path / "ft")]) == 2
        assert "mixup stream" in capsys.readouterr().err
        assert not (tmp_path / "ft").exists()

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

    def renamed(self, dataset, tmp_path, old, new):
        """A copy of the dataset's manifest with label ``old`` renamed to ``new``."""
        manifest = tmp_path / "renamed.tsv"
        rows = [
            f"{dataset / audio}\t{labels.replace(old, new)}\t{split}"
            for audio, labels, split in (
                row.split("\t") for row in (dataset / "manifest.tsv").read_text().splitlines()
            )
        ]
        manifest.write_text("\n".join(rows) + "\n")
        return manifest

    def evaluate(self, checkpoint, manifest, capsys):
        code = main(["evaluate", "--init-checkpoint", str(checkpoint), "--manifest", str(manifest)])
        return code, capsys.readouterr()

    def test_evaluate_scores_by_the_checkpoints_vocabulary(
        self, dataset, finetuned, tmp_path, capsys
    ):
        """Renaming a label in the checkpoint and the manifest alike changes
        the manifest's sorted order but not the report."""
        code, want = self.evaluate(finetuned, dataset / "manifest.tsv", capsys)
        assert code == 0
        ckpt = tmp_path / "ckpt"
        shutil.copytree(finetuned, ckpt)
        header = json.loads((ckpt / "header.json").read_text())
        assert header["extra"]["vocabulary"] == ["class_0", "class_1", "class_2"]
        header["extra"]["vocabulary"][0] = "z_0"
        (ckpt / "header.json").write_text(json.dumps(header))
        manifest = self.renamed(dataset, tmp_path, "class_0", "z_0")
        code, got = self.evaluate(ckpt, manifest, capsys)
        assert code == 0
        assert json.loads(got.out) == json.loads(want.out)

    def test_evaluate_label_outside_the_vocabulary_is_data_error(
        self, dataset, finetuned, tmp_path, capsys
    ):
        manifest = self.renamed(dataset, tmp_path, "class_0", "z_0")
        code, out = self.evaluate(finetuned, manifest, capsys)
        assert code == 3
        assert "z_0" in out.err

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

    def test_extract_inputs_with_the_same_stem_is_config_error(
        self, dataset, finetuned, tmp_path, monkeypatch, capsys
    ):
        wav = sorted(dataset.glob("*.wav"))[0]
        (tmp_path / "sub").mkdir()
        shutil.copy(wav, tmp_path / "sub" / wav.name)
        logmels = []
        monkeypatch.setattr(cli, "logmel", lambda *a: logmels.append(a))
        out_dir = tmp_path / "emb"
        argv = ["extract", "--init-checkpoint", str(finetuned), "--out-dir", str(out_dir)]
        code = main(argv + [str(wav), str(tmp_path / "sub" / wav.name)])
        assert code == 2
        assert f"{wav.stem}.npy" in capsys.readouterr().err
        assert not out_dir.exists() and not logmels

    def test_extract_with_malformed_header_is_io_error(
        self, finetuned, malformed_headers, tmp_path, capsys
    ):
        out_dir = tmp_path / "emb"
        for name, edit in malformed_headers.items():
            ckpt = tmp_path / name
            shutil.copytree(finetuned, ckpt)
            edit_header(ckpt, edit)
            code = main(["extract", "--init-checkpoint", str(ckpt), "--out-dir", str(out_dir)])
            assert code == 5, name
            assert f"I/O error: {ckpt}: " in capsys.readouterr().err, name
            assert not out_dir.exists(), name

    def test_extract_with_arrays_that_do_not_fit_the_config_is_io_error(
        self, dataset, tmp_path, capsys
    ):
        toy = json.loads((Path(__file__).parents[1] / "configs" / "toy.json").read_text())
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, ConformerModel(ModelConfig(**toy["model"]), seed=1), step=0, seed=1)
        assert toy["model"]["ffn_dim"] == 128
        edit_header(ckpt, lambda h: h["model_config"].update(ffn_dim=256))
        out_dir = tmp_path / "emb"
        wav = sorted(dataset.glob("*.wav"))[0]
        argv = ["extract", "--init-checkpoint", str(ckpt), "--out-dir", str(out_dir)]
        code = main(argv + [str(wav)])
        assert code == 5
        err = capsys.readouterr().err
        assert "do not fit its model config" in err
        assert f"I/O error: {ckpt}: checkpoint arrays do not fit" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.update(extra=5),
            lambda h: h["extra"].update(vocabulary=5),
            lambda h: h["extra"].update(vocabulary=[0, 1, 2]),
            lambda h: h["extra"].update(vocabulary=["class_0"]),
            lambda h: h["extra"].update(head_kind="bogus"),
            lambda h: h.update(arrays=[[n.replace("head.", "head.x"), s] for n, s in h["arrays"]]),
        ],
        ids=[
            "extra-number", "vocabulary-number", "vocabulary-numbers", "vocabulary-too-short",
            "head-kind-unknown", "head-arrays-renamed",
        ],
    )
    def test_evaluate_with_corrupt_head_is_io_error(
        self, dataset, finetuned, tmp_path, capsys, edit
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(finetuned, ckpt)
        edit_header(ckpt, edit)
        out = tmp_path / "eval"
        argv = ["evaluate", "--init-checkpoint", ckpt, "--manifest", dataset / "manifest.tsv"]
        assert main([str(a) for a in argv + ["--out-dir", out]]) == 5
        assert f"I/O error: {ckpt}: " in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_with_head_arrays_that_do_not_fit_is_io_error(
        self, dataset, finetuned, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(finetuned, ckpt)
        transpose_in_header(ckpt, "head.proj.weight")
        out = tmp_path / "eval"
        argv = ["evaluate", "--init-checkpoint", ckpt, "--manifest", dataset / "manifest.tsv"]
        assert main([str(a) for a in argv + ["--out-dir", out]]) == 5
        err = capsys.readouterr().err
        assert f"I/O error: {ckpt}: checkpoint arrays do not fit its model config" in err
        assert "'proj.weight'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_gradcheck_without_points_is_config_error(self, points, capsys):
        assert main(["gradcheck", "--points", points]) == 2
        assert "points_per_case must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_clip_too_short_to_stack_is_config_error_before_out_dir(
        self, dataset, toy_config, tmp_path, capsys, command
    ):
        config = json.loads(toy_config.read_text())
        config["model"]["stack_factor"] = 1000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = main(
            [
                command,
                "--config",
                str(bad),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(out),
                "--max-steps",
                "2",
            ]
        )
        assert code == 2
        assert not out.exists()
        # 0.5 s clips have 25 logmel frames.
        assert "cannot stack 1000 frames out of 25" in capsys.readouterr().err

    def test_clip_too_short_to_jitter_is_data_error_before_out_dir(
        self, toy_config, tmp_path, capsys
    ):
        data = tmp_path / "short"
        data.mkdir()
        for i in range(2):
            write_wav(data / f"c{i}.wav", np.zeros(160))
        (data / "manifest.tsv").write_text("c0.wav\tclass_0\ttrain\nc1.wav\tclass_1\ttrain\n")
        config = json.loads(toy_config.read_text())
        config["model"]["stack_factor"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = main(
            [
                "finetune",
                "--config",
                str(cfg),
                "--manifest",
                str(data / "manifest.tsv"),
                "--out-dir",
                str(out),
                "--max-steps",
                "2",
            ]
        )
        assert code == 3
        assert not out.exists()
        assert "too short to jitter (160 samples" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_negative_max_steps_is_config_error(self, dataset, toy_config, tmp_path, command):
        out = tmp_path / "run"
        code = main(
            [
                command,
                "--config",
                str(toy_config),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(out),
                "--max-steps",
                "-3",
            ]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("pretrain", "checkpoint_interval", 0),
            ("pretrain", "temperature", 0),
            ("pretrain", "temperature", -1.0),
            ("pretrain", "warmup_steps", -1),
            ("pretrain", "peak_lr", -1e-3),
            ("pretrain", "mask_span", 0),
            ("pretrain", "beta1", 1.0),
            ("pretrain", "weight_decay", -1.0),
            ("pretrain", "grad_clip", -1.0),
            ("model", "num_heads", 0),
            ("model", "embed_dim", 0),
            ("model", "ffn_dim", 0),
            ("model", "kernel_first", -1),
            ("model", "dropout", 0.999999),
            ("finetune", "peak_lr", -1e-3),
            ("finetune", "batch_size", 0),
            ("finetune", "total_steps", -5),
            ("finetune", "final_lr_factor", 0),
            ("finetune", "final_lr_factor", -0.5),
            ("finetune", "output_dropout", 0.999999),
        ],
    )
    def test_bad_config_value_is_config_error(
        self, dataset, toy_config, tmp_path, section, key, value
    ):
        config = json.loads(toy_config.read_text())
        config[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "run"
        command = "finetune" if section == "finetune" else "pretrain"
        code = main(
            [
                command,
                "--config",
                str(bad),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--out-dir",
                str(out),
                "--max-steps",
                "2",
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_dropout_that_rounds_to_one_exits_before_any_data_is_read(
        self, toy_config, tmp_path, monkeypatch, capsys
    ):
        config = json.loads(toy_config.read_text())
        config["model"]["dropout"] = 0.999999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))

        def read_manifest(path):
            raise AssertionError(f"read {path} before the config was checked")

        monkeypatch.setattr(cli, "read_manifest", read_manifest)
        out = tmp_path / "run"
        argv = ["pretrain", "--config", bad, "--manifest", tmp_path / "none.tsv", "--out-dir", out]
        assert main([str(a) for a in argv]) == 2
        assert "dropout 0.999999 rounds to 1" in capsys.readouterr().err
        assert not out.exists()


# (id, command, what the row writes, its content, exit code). "config" and
# "manifest" rows write those files' bytes; "model"/"pretrain"/"finetune" rows
# overlay a section of the toy config (json.dumps writes math.nan as NaN);
# "wav-bytes" rows list one train clip cut to that many bytes; "short-clip"
# rows list one eval clip of that many samples.
MALFORMED_INPUTS = [
    ("config-not-utf8", "pretrain", "config", b'{"model": {}}\xff', 2),
    ("config-list", "pretrain", "config", b'["model"]', 2),
    ("config-section-list", "pretrain", "config", b'{"model": []}', 2),
    ("config-manifest-number", "pretrain", "config", b'{"manifest": 5}', 2),
    ("num_blocks-string", "pretrain", "model", {"num_blocks": "2"}, 2),
    ("num_blocks-float", "pretrain", "model", {"num_blocks": 1.5}, 2),
    ("dropout-string", "pretrain", "model", {"dropout": "0.1"}, 2),
    ("batch_size-float", "pretrain", "pretrain", {"batch_size": 2.5}, 2),
    ("peak_lr-NaN", "pretrain", "pretrain", {"peak_lr": math.nan}, 2),
    ("grad_clip-Infinity", "pretrain", "pretrain", {"grad_clip": math.inf}, 2),
    ("final_lr_factor-minus-Infinity", "finetune", "finetune", {"final_lr_factor": -math.inf}, 2),
    ("stage_fractions-string", "finetune", "finetune", {"stage_fractions": [0.3, "a", 0.4]}, 2),
    ("num_classes-not-the-manifests", "finetune", "finetune", {"num_classes": 4}, 2),
    ("manifest-not-utf8", "pretrain", "manifest", b"clip.wav\tclass_\xff\ttrain\n", 3),
    *[(f"wav-cut-to-{n}-bytes", "pretrain", "wav-bytes", n, 3) for n in (0, 4, 30, 45)],
    ("evaluate-clip-shorter-than-a-stack", "evaluate", "short-clip", 500, 3),
    ("extract-clip-shorter-than-a-stack", "extract", "short-clip", 500, 3),
]


@pytest.mark.parametrize(
    "command,kind,content,code",
    [row[1:] for row in MALFORMED_INPUTS],
    ids=[row[0] for row in MALFORMED_INPUTS],
)
def test_malformed_input_gets_its_exit_code_before_out_dir(
    dataset, toy_config, finetuned, tmp_path, command, kind, content, code
):
    config, manifest = toy_config, dataset / "manifest.tsv"
    if kind == "config":
        config = tmp_path / "bad.json"
        config.write_bytes(content)
    elif kind in ("model", "pretrain", "finetune"):
        sections = json.loads(toy_config.read_text())
        sections[kind].update(content)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(sections))
    elif kind == "manifest":
        manifest = tmp_path / "bad.tsv"
        manifest.write_bytes(content)
    else:
        clip = tmp_path / "clip.wav"
        write_wav(clip, np.zeros(content if kind == "short-clip" else 500))
        if kind == "wav-bytes":
            clip.write_bytes(clip.read_bytes()[:content])
        manifest = tmp_path / "bad.tsv"
        split = "eval" if kind == "short-clip" else "train"
        manifest.write_text(f"clip.wav\tclass_0\t{split}\n")
    options = {
        "pretrain": ["--config", config, "--max-steps", "2"],
        "finetune": ["--config", config, "--max-steps", "2"],
        "evaluate": ["--init-checkpoint", finetuned],
        "extract": ["--init-checkpoint", finetuned],
    }[command]
    out = tmp_path / "run"
    argv = [command, *options, "--manifest", manifest, "--out-dir", out]
    assert main([str(a) for a in argv]) == code
    assert not out.exists()


@pytest.mark.parametrize("edit", ["model-config-unknown-key", "model-config-heads-not-dividing"])
@pytest.mark.parametrize("command", ["extract", "evaluate", "finetune"])
def test_malformed_model_config_is_io_error_before_out_dir(
    dataset, toy_config, finetuned, malformed_headers, tmp_path, capsys, command, edit
):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(finetuned, ckpt)
    edit_header(ckpt, malformed_headers[edit])
    manifest = dataset / "manifest.tsv"
    options = {
        "extract": [sorted(dataset.glob("*.wav"))[0]],
        "evaluate": ["--manifest", manifest],
        "finetune": ["--config", toy_config, "--manifest", manifest, "--max-steps", "1"],
    }[command]
    out = tmp_path / "run"
    argv = [command, "--init-checkpoint", ckpt, "--out-dir", out, *options]
    assert main([str(a) for a in argv]) == 5
    assert f"I/O error: {ckpt}: malformed header" in capsys.readouterr().err
    assert not out.exists()

"""Operator entry point.

Subcommands: pretrain, finetune, evaluate, extract, gradcheck, paramcount,
synthdata. Configuration precedence is command-line flag > config file
(JSON, sections "model" / "pretrain" / "finetune") > preset default, and
every field is validated before any compute. Exit codes: 0 ok, 2 config,
3 data, 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (
    bind_arrays,
    generate_synthetic_dataset,
    load_checkpoint,
    load_examples,
    read_manifest,
    read_wav,
    restore_model,
    save_checkpoint,
)
from .dsp import frame_count, logmel
from .errors import (
    ConfigError,
    DataError,
    MelformerError,
    NumericError,
    ShapeError,
    StorageError,
)
from .finetune import HEAD_KINDS, FinetuneConfig, evaluate_model, make_head, run_finetuning
from .gradcheck import run_gradcheck_suite
from .model import PRESETS, ConformerModel, ModelConfig, check_stackable, param_count
from .pretrain import PretrainConfig, last_step, run_pretraining

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

CONFIG_SECTIONS = ("model", "pretrain", "finetune", "manifest", "out_dir")


def _non_finite(constant: str):
    raise ConfigError(f"config values must be finite numbers, got {constant}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_non_finite)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, value in raw.items():
        if not isinstance(value, str if section in ("manifest", "out_dir") else dict):
            raise ConfigError(f"config section '{section}' has the wrong JSON type")
    return raw


# A config field's annotation (less any "| None") -> the JSON types it takes.
JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "tuple": (list, tuple)}


def _has_json_type(value, kind: str) -> bool:
    """A bool is no number, and the one tuple field (stage_fractions) holds numbers."""
    if isinstance(value, bool) and kind != "bool" or not isinstance(value, JSON_TYPES[kind]):
        return False
    return kind != "tuple" or all(_has_json_type(item, "float") for item in value)


def _build_config(cls, *sources: dict):
    """Later sources win; unknown keys and values of the wrong JSON type are
    rejected; validation of the values is cls's."""
    merged = {}
    for src in sources:
        merged.update({k: v for k, v in src.items() if v is not None})
    types = {f.name: f.type.removesuffix(" | None") for f in fields(cls)}
    unknown = set(merged) - set(types)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    for name, value in merged.items():
        if not _has_json_type(value, types[name]):
            raise ConfigError(f"{cls.__name__}.{name} must be {types[name]}, got {value!r}")
    return cls(**merged)


def _model_config(args, file_config: dict) -> ModelConfig:
    base = dict(ModelConfig.preset(args.preset).to_dict()) if args.preset else {}
    return _build_config(ModelConfig, base, file_config.get("model", {}))


def _path(args, file_config: dict, key: str) -> Path:
    """``--manifest`` or ``--out-dir`` from the command line, else from the config file."""
    value = getattr(args, key) or file_config.get(key)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return Path(value)


def _nonempty(split: str, items: list) -> list:
    """A split's items, which the command cannot run without."""
    if not items:
        raise DataError(f"manifest has no '{split}' records")
    return items


def cmd_pretrain(args) -> int:
    file_config = _load_config_file(args.config)
    model_config = _model_config(args, file_config)
    pcfg = _build_config(
        PretrainConfig, file_config.get("pretrain", {}), {"seed": args.seed}
    )
    manifest_path = _path(args, file_config, "manifest")
    out_dir = _path(args, file_config, "out_dir")
    manifest = read_manifest(manifest_path)
    clips = [
        logmel(read_wav(manifest_path.parent / r.audio_path)).frames.astype(np.float32)
        for r in _nonempty("train", manifest.split("train"))
    ]

    model = ConformerModel(model_config, seed=pcfg.seed)
    run_pretraining(
        model,
        clips,
        pcfg,
        out_dir,
        max_steps=args.max_steps,
        deterministic=args.deterministic,
        log=lambda rec: print(
            f"step {rec['step']} loss {rec['loss']:.4f} lr {rec['lr']:.2e}"
        ),
    )
    return EXIT_OK


def cmd_finetune(args) -> int:
    file_config = _load_config_file(args.config)
    manifest_path = _path(args, file_config, "manifest")
    manifest = read_manifest(manifest_path)
    train = _nonempty("train", load_examples(manifest, manifest_path.parent, "train"))
    eval_set = load_examples(manifest, manifest_path.parent, "eval")
    out_dir = _path(args, file_config, "out_dir")
    fcfg = _build_config(
        FinetuneConfig,
        {"num_classes": len(manifest.vocabulary)},
        file_config.get("finetune", {}),
        {"seed": args.seed, "head_kind": args.head},
    )
    if fcfg.num_classes != len(manifest.vocabulary):
        raise ConfigError(
            f"finetune.num_classes {fcfg.num_classes} differs from the manifest's"
            f" {len(manifest.vocabulary)} labels"
        )
    if args.init_checkpoint:
        ck = load_checkpoint(args.init_checkpoint)
        expect = _model_config(args, file_config) if (args.preset or "model" in file_config) else None
        model = restore_model(ck, expect_config=expect)
        print(f"initialized encoder from {args.init_checkpoint} (step {ck.step})")
    else:
        model = ConformerModel(_model_config(args, file_config), seed=fcfg.seed)
    head = make_head(
        fcfg.head_kind, model.config.latent_dim, fcfg.num_classes, seed=fcfg.seed
    )
    report = run_finetuning(
        model,
        head,
        train,
        fcfg,
        out_dir,
        eval_examples=eval_set or None,
        max_steps=args.max_steps,
        deterministic=args.deterministic,
        log=lambda rec: print(
            f"step {rec['step']} loss {rec['loss']:.4f} bce {rec['bce']:.4f} lr {rec['lr']:.2e}"
        ),
    )
    save_checkpoint(
        out_dir / "ckpt-final",
        model,
        step=last_step(fcfg.total_steps, args.max_steps),
        seed=fcfg.seed,
        extra_arrays={f"head.{n}": p.values for n, p in head.named_parameters()},
        extra={
            "head_kind": fcfg.head_kind,
            "vocabulary": list(manifest.vocabulary),
        },
    )
    if report is not None:
        print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _restore_finetuned(checkpoint_path):
    """The model, head and checkpoint of a fine-tuned checkpoint; head
    metadata or arrays that do not make a head are a corrupt checkpoint."""
    ck = load_checkpoint(checkpoint_path)
    if "head_kind" not in ck.extra or "vocabulary" not in ck.extra:
        raise ConfigError(f"{checkpoint_path} has no fine-tuned head (use a finetune checkpoint)")
    kind, vocabulary = ck.extra["head_kind"], ck.extra["vocabulary"]
    labels = isinstance(vocabulary, list) and all(isinstance(v, str) for v in vocabulary)
    if kind not in HEAD_KINDS or not labels:
        raise StorageError(f"{checkpoint_path}: malformed head_kind {kind!r} or vocabulary")
    model = restore_model(ck)
    head = make_head(kind, model.config.latent_dim, len(vocabulary), seed=ck.seed)
    bind_arrays(ck, head=head)
    return model, head, ck


def _check_clips_stack(frame_counts, model):
    """The stack factor comes from the checkpoint, so a clip too short for it is bad data."""
    try:
        check_stackable(frame_counts, model.config.stack_factor)
    except ShapeError as exc:
        raise DataError(str(exc)) from exc


def cmd_evaluate(args) -> int:
    file_config = _load_config_file(args.config)
    model, head, ck = _restore_finetuned(args.init_checkpoint)
    manifest_path = _path(args, file_config, "manifest")
    # Score columns follow the labels the head was trained on, in their order.
    manifest = replace(read_manifest(manifest_path), vocabulary=tuple(ck.extra["vocabulary"]))
    eval_set = _nonempty(args.split, load_examples(manifest, manifest_path.parent, args.split))
    _check_clips_stack([frame_count(ex.waveform.size) for ex in eval_set], model)
    report = evaluate_model(model, head, eval_set)
    print(json.dumps(report.to_dict(), indent=2))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_extract(args) -> int:
    from . import tensor as T

    model = restore_model(load_checkpoint(args.init_checkpoint))
    model.eval()
    inputs = [Path(p) for p in args.inputs]
    if args.manifest:
        manifest_path = Path(args.manifest)
        manifest = read_manifest(manifest_path)
        inputs += [manifest_path.parent / r.audio_path for r in manifest.records]
    if not inputs:
        raise ConfigError("nothing to extract: pass wav paths or --manifest")
    shared = [stem for stem, n in Counter(p.stem for p in inputs).items() if n > 1]
    if shared:
        raise ConfigError(f"two inputs would both write {shared[0]}.npy")
    clips = [logmel(read_wav(wav_path)).frames.astype(np.float32) for wav_path in inputs]
    _check_clips_stack([len(frames) for frames in clips], model)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for wav_path, frames in zip(inputs, clips):
        with T.no_grad():
            embedding = model.embed(frames).values
        target = out_dir / (wav_path.stem + ".npy")
        np.save(target, embedding)
        print(f"{wav_path.name} -> {target} {embedding.shape}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_gradcheck_suite(points_per_case=args.points, log=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        raise NumericError(f"{len(failed)} gradient checks above tolerance")
    return EXIT_OK


def cmd_paramcount(args) -> int:
    config = ModelConfig.preset(args.model_preset)
    print(param_count(config))
    return EXIT_OK


def cmd_synthdata(args) -> int:
    out_dir = Path(args.out_dir)
    labels = (1, 1) if args.single_label else (1, min(3, args.num_classes))
    manifest = generate_synthetic_dataset(
        num_classes=args.num_classes,
        clips_per_class=args.clips_per_class,
        clip_seconds=args.clip_seconds,
        seed=args.seed or 0,
        out_dir=out_dir,
        labels_per_clip=labels,
        eval_fraction=args.eval_fraction,
    )
    print(f"wrote {len(manifest.records)} clips to {out_dir} (manifest.tsv)")
    return EXIT_OK


# Every option, declared once. A subcommand takes only the options its cmd_*
# reads, so any other one is a usage error (exit 2).
FLAGS = {
    "--config": dict(help="JSON config file"),
    "--seed": dict(type=int, help="random seed (default: the config file's, else 0)"),
    "--deterministic": dict(
        action=argparse.BooleanOptionalAction,
        default=True,
        help="drop wall-clock times from the metrics log, so seeded runs log identical bytes"
        " (random streams always derive from the seed)",
    ),
    "--out-dir": {},
    "--max-steps": dict(type=int, help="stop after this step (0 or unset: run to total_steps)"),
    "--preset": dict(choices=sorted(PRESETS)),
    "--init-checkpoint": {},
    "--head": dict(choices=HEAD_KINDS),
    "--manifest": {},
    "--split": dict(default="eval", choices=["train", "valid", "eval"]),
    "inputs": dict(nargs="*", help="wav files"),
    "--points": dict(type=int, default=10, help="random points per case"),
    "model_preset": dict(choices=sorted(PRESETS)),
    "--num-classes": dict(type=int, default=8),
    "--clips-per-class": dict(type=int, default=50),
    "--clip-seconds": dict(type=float, default=2.0),
    "--single-label": dict(action="store_true"),
    "--eval-fraction": dict(type=float, default=0.2),
}
TRAIN = "--config --seed --deterministic --out-dir --max-steps --preset --manifest"

# name: (function, help, options, the options only the command line gives, hence required)
COMMANDS = {
    "pretrain": (cmd_pretrain, "masked contrastive pretraining", TRAIN, ""),
    "finetune": (cmd_finetune, "supervised fine-tuning", TRAIN + " --init-checkpoint --head", ""),
    "evaluate": (
        cmd_evaluate, "score a fine-tuned checkpoint",
        "--config --init-checkpoint --manifest --out-dir --split", "--init-checkpoint",
    ),
    "extract": (
        cmd_extract, "write per-clip context embeddings",
        "--init-checkpoint --out-dir --manifest inputs", "--init-checkpoint --out-dir",
    ),
    "gradcheck": (cmd_gradcheck, "finite-difference verification suite", "--points", ""),
    "paramcount": (cmd_paramcount, "trainable parameter count", "model_preset", ""),
    "synthdata": (
        cmd_synthdata, "generate a synthetic dataset",
        "--out-dir --seed --num-classes --clips-per-class --clip-seconds --single-label"
        " --eval-fraction", "--out-dir",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melformer",
        description="Self-supervised conformer training on logmel audio, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, options, required) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            settings = FLAGS[option] | ({"required": True} if option in required.split() else {})
            p.add_argument(option, **settings)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StorageError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MelformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Dataset ingestion, synthetic data generation, and checkpoint persistence.

WAV files must be RIFF PCM 16-bit mono 16 kHz. Manifests are TSV lines of
``path<TAB>label;label<TAB>split``. Checkpoints are a directory holding a
JSON header (config, array names/shapes/offsets, version) and one
little-endian float32 blob; round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import shutil
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, Waveform
from .errors import ConfigError, DataError, StorageError
from .model import ConformerModel, ModelConfig

CHECKPOINT_VERSION = 2
SPLITS = ("train", "valid", "eval")


# ---------------------------------------------------------------------------
# WAV


def read_wav(path: str | Path) -> Waveform:
    """Load a PCM16 mono 16 kHz RIFF file, scaled to [-1, 1] by 1/32768.

    Samples are float32, which holds every k/32768 exactly.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            if channels != 1:
                raise DataError(f"{path.name}: expected mono, got {channels} channels")
            if width != 2:
                raise DataError(f"{path.name}: expected 16-bit PCM, got {8 * width}-bit")
            if rate != SAMPLE_RATE:
                raise DataError(f"{path.name}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
            raw = wav.readframes(wav.getnframes())
    except wave.Error as exc:
        raise DataError(f"{path.name}: not a readable RIFF/WAVE file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32)
    samples /= 32768.0
    return Waveform(samples=samples, sample_rate=SAMPLE_RATE)


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE):
    quantized = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(quantized.tobytes())


# ---------------------------------------------------------------------------
# Manifest


@dataclass
class ManifestRecord:
    audio_path: str
    labels: tuple
    split: str


@dataclass
class Manifest:
    records: list = field(default_factory=list)
    vocabulary: tuple = ()

    def split(self, tag: str) -> list:
        return [r for r in self.records if r.split == tag]

    def targets(self, record: ManifestRecord) -> np.ndarray:
        index = {name: i for i, name in enumerate(self.vocabulary)}
        multi_hot = np.zeros(len(self.vocabulary))
        for label in record.labels:
            multi_hot[index[label]] = 1.0
        return multi_hot


def read_manifest(path: str | Path) -> Manifest:
    """Parse a TSV manifest; the vocabulary is the sorted set of labels."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise DataError(f"manifest not found: {path}") from exc
    records = []
    labels_seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path.name}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        audio_path, label_field, split = parts
        if not audio_path:
            raise DataError(f"{path.name}:{lineno}: empty audio path")
        if split not in SPLITS:
            raise DataError(f"{path.name}:{lineno}: unknown split '{split}'")
        labels = tuple(sorted({l for l in label_field.split(";") if l}))
        labels_seen.update(labels)
        records.append(ManifestRecord(audio_path=audio_path, labels=labels, split=split))
    return Manifest(records=records, vocabulary=tuple(sorted(labels_seen)))


def write_manifest(manifest: Manifest, path: str | Path):
    lines = [
        "\t".join([r.audio_path, ";".join(r.labels), r.split]) for r in manifest.records
    ]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Synthetic dataset


def class_frequency(class_index: int) -> float:
    return 200.0 * (class_index + 1)


def generate_synthetic_dataset(
    num_classes: int,
    clips_per_class: int,
    clip_seconds: float,
    seed: int,
    out_dir: str | Path,
    labels_per_clip: tuple = (1, 3),
    eval_fraction: float = 0.0,
    valid_fraction: float = 0.0,
) -> Manifest:
    """Sine-mixture clips: class c contributes a 200*(c+1) Hz tone.

    Each clip carries 1-3 positive classes (the first cycles deterministically
    so every class gets ``clips_per_class`` clips) plus Gaussian noise at an
    SNR drawn from [5, 20] dB. Generation is fully determined by the seed.
    """
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    lo, hi = labels_per_clip
    if not 1 <= lo <= hi <= num_classes:
        raise ConfigError(f"invalid labels_per_clip {labels_per_clip}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create {out_dir}: {exc}") from exc
    rng = np.random.default_rng([seed, 0x5E7])
    n_clips = num_classes * clips_per_class
    n_samples = int(round(clip_seconds * SAMPLE_RATE))
    t = np.arange(n_samples) / SAMPLE_RATE
    records = []
    for i in range(n_clips):
        classes = {i % num_classes}
        extra = int(rng.integers(lo, hi + 1)) - 1
        while len(classes) < 1 + extra:
            classes.add(int(rng.integers(0, num_classes)))
        signal = np.zeros(n_samples)
        for c in sorted(classes):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            signal += np.sin(2.0 * np.pi * class_frequency(c) * t + phase)
        snr_db = rng.uniform(5.0, 20.0)
        rms = np.sqrt(np.mean(signal**2))
        noise = rng.normal(scale=rms * 10.0 ** (-snr_db / 20.0), size=n_samples)
        clip = signal + noise
        clip *= 0.9 / np.abs(clip).max()
        name = f"clip_{i:05d}.wav"
        write_wav(out_dir / name, clip)
        labels = tuple(f"class_{c}" for c in sorted(classes))
        records.append(ManifestRecord(audio_path=name, labels=labels, split="train"))
    _assign_splits(records, num_classes, eval_fraction, valid_fraction, rng)
    vocabulary = tuple(f"class_{c}" for c in range(num_classes))
    manifest = Manifest(records=records, vocabulary=vocabulary)
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


def _assign_splits(records, num_classes, eval_fraction, valid_fraction, rng):
    """Stratified by the cycling primary class so splits stay balanced."""
    if eval_fraction <= 0.0 and valid_fraction <= 0.0:
        return
    for c in range(num_classes):
        idx = [i for i in range(len(records)) if i % num_classes == c]
        idx = [idx[j] for j in rng.permutation(len(idx))]
        n_eval = int(round(eval_fraction * len(idx)))
        n_valid = int(round(valid_fraction * len(idx)))
        for i in idx[:n_eval]:
            records[i].split = "eval"
        for i in idx[n_eval : n_eval + n_valid]:
            records[i].split = "valid"


def load_examples(manifest: Manifest, base_dir: str | Path, split: str) -> list:
    """LabeledExamples (waveform + multi-hot targets) for one split."""
    from .finetune import LabeledExample

    base_dir = Path(base_dir)
    examples = []
    for record in manifest.split(split):
        wav = read_wav(base_dir / record.audio_path)
        examples.append(
            LabeledExample(targets=manifest.targets(record), waveform=wav.samples)
        )
    return examples


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    model_config: dict
    arrays: dict
    step: int
    seed: int
    version: int = CHECKPOINT_VERSION
    optimizer_arrays: dict | None = None
    optimizer_step: int = 0
    extra: dict = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    model: ConformerModel,
    step: int,
    seed: int,
    optimizer=None,
    extra_arrays: dict | None = None,
    extra: dict | None = None,
):
    """Write header.json + arrays.bin into a directory, staged then renamed.

    Overwriting keeps a loadable copy at every point: the old directory is
    renamed to ``<name>.old`` before the staged one takes its name.
    """
    path = Path(path)
    arrays = dict(model.state_arrays())
    if extra_arrays:
        arrays.update(extra_arrays)
    opt_names = []
    if optimizer is not None:
        opt_state = optimizer.state_arrays()
        opt_names = sorted(opt_state)
        arrays.update(opt_state)
    for name, arr in arrays.items():
        if arr.dtype != np.float32:
            raise StorageError(f"checkpoint arrays must be float32, '{name}' is {arr.dtype}")
    entries = []
    offset = 0
    ordered = sorted(arrays)
    for name in ordered:
        arr = arrays[name]
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes}
        )
        offset += arr.nbytes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "step": step,
        "seed": seed,
        "model_config": model.config.to_dict(),
        "arrays": entries,
        "optimizer": (
            {"step_count": optimizer.step_count, "names": opt_names}
            if optimizer is not None
            else None
        ),
        "extra": extra or {},
    }
    staging = path.with_name(path.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    (staging / "header.json").write_text(json.dumps(header, indent=2) + "\n")
    with (staging / "arrays.bin").open("wb") as blob:
        for name in ordered:
            blob.write(np.ascontiguousarray(arrays[name], dtype="<f4"))
    # An ``.old`` left by a save that crashed between the two renames is
    # stale: the staged checkpoint written above supersedes it.
    aside = path.with_name(path.name + ".old")
    if aside.exists():
        shutil.rmtree(aside)
    if path.exists():
        path.rename(aside)
    staging.rename(path)
    if aside.exists():
        shutil.rmtree(aside)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint directory back, validating sizes and version.

    The blob is read once; the arrays are writable, non-overlapping views
    of that one buffer.
    """
    path = Path(path)
    header_path = path / "header.json"
    blob_path = path / "arrays.bin"
    if not header_path.is_file() or not blob_path.is_file():
        raise StorageError(f"{path}: not a checkpoint directory")
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}: corrupt header ({exc})") from exc
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise StorageError(
            f"{path}: unsupported format version {header.get('format_version')}"
            f" (this build reads version {CHECKPOINT_VERSION})"
        )
    blob = np.fromfile(blob_path, dtype=np.uint8)
    expected = sum(e["nbytes"] for e in header["arrays"])
    if blob.size != expected:
        raise StorageError(f"{path}: blob is {blob.size} bytes, header says {expected}")
    arrays = {}
    for entry in header["arrays"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if nbytes != 4 * math.prod(entry["shape"]) or start + nbytes > blob.size:
            raise StorageError(f"{path}: shape/byte mismatch for '{entry['name']}'")
        arrays[entry["name"]] = blob[start : start + nbytes].view("<f4").reshape(entry["shape"])
    opt_header = header.get("optimizer")
    optimizer_arrays = None
    optimizer_step = 0
    if opt_header is not None:
        optimizer_arrays = {n: arrays.pop(n) for n in opt_header["names"]}
        optimizer_step = opt_header["step_count"]
    return Checkpoint(
        model_config=header["model_config"],
        arrays=arrays,
        step=header["step"],
        seed=header["seed"],
        version=header["format_version"],
        optimizer_arrays=optimizer_arrays,
        optimizer_step=optimizer_step,
        extra=header.get("extra", {}),
    )


def latest_checkpoint(out_dir: str | Path) -> Path | None:
    """Highest-step ckpt-NNNNNNNN directory under out_dir (never .tmp or -final)."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return None
    candidates = sorted(p for p in out_dir.glob("ckpt-" + "[0-9]" * 8) if p.is_dir())
    return candidates[-1] if candidates else None


def restore_model(checkpoint: Checkpoint, expect_config: ModelConfig | None = None):
    """Build a model from a checkpoint, optionally enforcing a config match."""
    config = ModelConfig(**checkpoint.model_config)
    if expect_config is not None and config.to_dict() != expect_config.to_dict():
        raise ConfigError("checkpoint architecture differs from the requested config")
    model = ConformerModel(config, seed=checkpoint.seed)
    model_arrays = {
        n: a for n, a in checkpoint.arrays.items() if not n.startswith("head.")
    }
    model.load_state_arrays(model_arrays)
    return model

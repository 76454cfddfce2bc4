"""Dataset ingestion, synthetic data generation, and checkpoint persistence.

WAV files must be RIFF PCM 16-bit mono 16 kHz. Manifests are TSV lines of
``path<TAB>label;label<TAB>split``. Checkpoints are a directory holding a
JSON header (version, config, and each array's name and shape, in blob
order) and one little-endian float32 blob of the arrays back to back;
round trips are bit-exact.
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

CHECKPOINT_VERSION = 3
SPLITS = ("train", "valid", "eval")
# Synthetic classes whose 200 (c + 1) Hz tone lies below the 8 kHz Nyquist
# frequency; class 40's 8.2 kHz tone would alias onto class 38's 7.8 kHz.
MAX_CLASSES = 39


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
    except FileNotFoundError as exc:
        raise DataError(f"audio file not found: {path}") from exc
    except (wave.Error, EOFError) as exc:
        detail = str(exc) or "file ends early"
        raise DataError(f"{path.name}: not a readable RIFF/WAVE file ({detail})") from exc
    if len(raw) % 2:
        raise DataError(f"{path.name}: truncated data chunk ({len(raw)} bytes of 16-bit samples)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32)
    samples /= 32768.0
    return Waveform(samples)


def write_wav(path: str | Path, samples: np.ndarray):
    quantized = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
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
            if label not in index:
                raise DataError(f"{record.audio_path}: label '{label}' is not in the vocabulary")
            multi_hot[index[label]] = 1.0
        return multi_hot


def read_manifest(path: str | Path) -> Manifest:
    """Parse a TSV manifest; the vocabulary is the sorted set of labels."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"manifest not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {path} is not UTF-8 text: {exc}") from exc
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
) -> Manifest:
    """Sine-mixture clips: class c contributes a 200*(c+1) Hz tone.

    Each clip carries 1-3 positive classes (the first cycles deterministically
    so every class gets ``clips_per_class`` clips) plus Gaussian noise at an
    SNR drawn from [5, 20] dB. Generation is fully determined by the seed.
    """
    if not 2 <= num_classes <= MAX_CLASSES:
        raise ConfigError(f"num_classes {num_classes} outside [2, {MAX_CLASSES}]")
    if clips_per_class < 1:
        raise ConfigError("clips_per_class must be >= 1")
    if not math.isfinite(clip_seconds) or round(clip_seconds * SAMPLE_RATE) < 1:
        raise ConfigError(f"clip_seconds {clip_seconds} gives no sample")
    if not 0.0 <= eval_fraction <= 1.0:
        raise ConfigError(f"eval_fraction {eval_fraction} outside [0, 1]")
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
    _assign_splits(records, num_classes, eval_fraction, rng)
    vocabulary = tuple(f"class_{c}" for c in range(num_classes))
    manifest = Manifest(records=records, vocabulary=vocabulary)
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


def _assign_splits(records, num_classes, eval_fraction, rng):
    """Stratified by the cycling primary class so splits stay balanced."""
    if eval_fraction <= 0.0:
        return
    for c in range(num_classes):
        idx = [i for i in range(len(records)) if i % num_classes == c]
        idx = [idx[j] for j in rng.permutation(len(idx))]
        n_eval = int(round(eval_fraction * len(idx)))
        for i in idx[:n_eval]:
            records[i].split = "eval"


@dataclass
class LabeledExample:
    """A clip's waveform with its multi-hot targets."""

    targets: np.ndarray
    waveform: np.ndarray

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.float64)


def load_examples(manifest: Manifest, base_dir: str | Path, split: str) -> list:
    """LabeledExamples (waveform + multi-hot targets) for one split."""
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
    model_config: ModelConfig
    arrays: dict
    step: int
    seed: int
    optimizer_arrays: dict | None = None
    optimizer_step: int = 0
    extra: dict = field(default_factory=dict)
    path: Path | None = None


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

    The header lists each array once, as ``[name, shape]``, in blob order:
    the model's parameters (walk order) and buffers, ``extra_arrays``, then
    the optimizer's moments. Overwriting keeps a loadable copy at every
    point: the old directory is renamed to ``<name>.old`` before the staged
    one takes its name.
    """
    path = Path(path)
    opt_state = optimizer.state_arrays() if optimizer is not None else {}
    arrays = {**model.state_arrays(), **(extra_arrays or {}), **opt_state}
    for name, arr in arrays.items():
        if arr.dtype != np.float32:
            raise StorageError(f"checkpoint arrays must be float32, '{name}' is {arr.dtype}")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "step": step,
        "seed": seed,
        "model_config": model.config.to_dict(),
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        "optimizer": (
            {"step_count": optimizer.step_count, "names": list(opt_state)}
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
        for arr in arrays.values():
            blob.write(np.ascontiguousarray(arr, dtype="<f4"))
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
    """Read a checkpoint directory back, validating its version and sizes.

    A bad header, a wrong version or a blob of the wrong size (its ``stat``
    size) is rejected before the blob is read. The blob is read once; the
    arrays are writable, non-overlapping views of that one buffer. A header
    with missing or mistyped fields, a negative dimension or a model config
    that does not validate raises :class:`StorageError`.
    """
    path = Path(path)
    header_path = path / "header.json"
    blob_path = path / "arrays.bin"
    if not header_path.is_file() or not blob_path.is_file():
        raise StorageError(f"{path}: not a checkpoint directory")
    try:
        header = json.loads(header_path.read_text())
    except ValueError as exc:
        raise StorageError(f"{path}: corrupt header ({exc})") from exc
    try:
        return _parse_checkpoint(path, header, blob_path)
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise StorageError(f"{path}: malformed header ({exc!r})") from exc


def _parse_checkpoint(path: Path, header: dict, blob_path: Path) -> Checkpoint:
    """The checkpoint a parsed header describes: its arrays lie back to back
    in header order, 4 bytes per element, as ``save_checkpoint`` writes them."""
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise StorageError(
            f"{path}: unsupported format version {header.get('format_version')}"
            f" (this build reads version {CHECKPOINT_VERSION})"
        )
    opt_header = header.get("optimizer")
    counts = {"step": header["step"], "seed": header["seed"]}
    if opt_header is not None:
        counts["optimizer.step_count"] = opt_header["step_count"]
    for field_name, value in counts.items():
        if type(value) is not int or value < 0:  # bools are not counts either
            raise StorageError(f"{path}: {field_name} {value!r} is not a non-negative integer")
    expected = sum(4 * math.prod(shape) for _, shape in header["arrays"])
    size = blob_path.stat().st_size
    if size != expected:
        raise StorageError(f"{path}: blob is {size} bytes, header says {expected}")
    blob = np.fromfile(blob_path, dtype=np.uint8)
    arrays = {}
    offset = 0
    for name, shape in header["arrays"]:
        if not isinstance(name, str):
            raise StorageError(f"{path}: array name {name!r} is not a string")
        if any(dim < 0 for dim in shape):
            raise StorageError(f"{path}: '{name}' has a negative dimension in {shape}")
        if name in arrays:
            raise StorageError(f"{path}: '{name}' is listed twice")
        nbytes = 4 * math.prod(shape)
        arrays[name] = blob[offset : offset + nbytes].view("<f4").reshape(shape)
        offset += nbytes
    optimizer_arrays = None
    optimizer_step = 0
    if opt_header is not None:
        optimizer_arrays = {n: arrays.pop(n) for n in opt_header["names"]}
        optimizer_step = opt_header["step_count"]
    return Checkpoint(
        model_config=ModelConfig(**header["model_config"]),
        arrays=arrays,
        step=header["step"],
        seed=header["seed"],
        optimizer_arrays=optimizer_arrays,
        optimizer_step=optimizer_step,
        extra=dict(header.get("extra", {})),
        path=path,
    )


def resume_newest(out_dir: str | Path, fit):
    """What ``fit(checkpoint)`` returns for the newest ckpt-NNNNNNNN directory
    under ``out_dir`` (never .tmp, .old or -final) that loads and fits; None
    when there is none. ``fit`` raises StorageError on arrays that do not fit.
    Each newer checkpoint passed over is named on stdout with its error; when
    checkpoints exist but none loads and fits, the newest one's error is
    raised. A lone ``ckpt-NNNNNNNN.old``, left by a save that crashed between
    its two renames, is renamed back first; an ``.old`` beside its
    checkpoint is left alone.
    """
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return None
    pattern = "ckpt-" + "[0-9]" * 8
    for aside in out_dir.glob(pattern + ".old"):
        if aside.is_dir() and not aside.with_suffix("").exists():
            aside.rename(aside.with_suffix(""))
    newest_error = None
    for candidate in sorted((p for p in out_dir.glob(pattern) if p.is_dir()), reverse=True):
        try:
            return fit(load_checkpoint(candidate))
        except StorageError as exc:
            newest_error = newest_error or exc
            print(f"skipping corrupt checkpoint: {exc}")
    if newest_error is not None:
        raise newest_error
    return None


def restore_model(checkpoint: Checkpoint, expect_config: ModelConfig | None = None):
    """Build a model from a checkpoint, optionally enforcing a config match."""
    if expect_config is not None and checkpoint.model_config != expect_config:
        raise ConfigError("checkpoint architecture differs from the requested config")
    model = ConformerModel(checkpoint.model_config, seed=checkpoint.seed)
    bind_arrays(checkpoint, model=model)
    return model


def bind_arrays(checkpoint: Checkpoint, model=None, head=None, optimizer=None):
    """Load a checkpoint's arrays into the parts given: ``model`` takes those
    not named ``head.*``, ``head`` the ``head.*`` ones (prefix stripped) and
    ``optimizer`` (an Adam) the moments and step count. Arrays that do not
    fit make the checkpoint corrupt: a :class:`StorageError` naming it."""
    arrays = checkpoint.arrays
    try:
        if model is not None:
            model.load_state_arrays({n: a for n, a in arrays.items() if not n.startswith("head.")})
        if head is not None:
            head.load_state_arrays({n[5:]: a for n, a in arrays.items() if n.startswith("head.")})
        if optimizer is not None:
            optimizer.load_state_arrays(checkpoint.optimizer_arrays or {}, checkpoint.optimizer_step)
    except ConfigError as exc:
        fault = f"{checkpoint.path}: checkpoint arrays do not fit its model config ({exc})"
        raise StorageError(fault) from exc

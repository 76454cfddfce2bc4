"""Data IO: WAV round trips, manifests, synthetic clips, checkpoints."""

from pathlib import Path

import numpy as np
import pytest

from melformer import dsp
from melformer.data import (
    Checkpoint,
    Manifest,
    ManifestRecord,
    class_frequency,
    generate_synthetic_dataset,
    latest_checkpoint,
    load_checkpoint,
    load_examples,
    read_manifest,
    read_wav,
    restore_model,
    save_checkpoint,
    write_manifest,
    write_wav,
)
from melformer.errors import ConfigError, DataError, StorageError
from melformer.model import ConformerModel, ModelConfig
from melformer.pretrain import Adam


def tiny_model(seed=0):
    cfg = ModelConfig(
        num_blocks=1, embed_dim=8, num_heads=2, ffn_dim=12,
        stack_factor=2, kernel_first=3, kernel_rest=3, dropout=0.0,
    )
    return ConformerModel(cfg, seed=seed)


class TestWav:
    def test_length_round_trip(self, tmp_path):
        write_wav(tmp_path / "a.wav", np.zeros(16000))
        wave = read_wav(tmp_path / "a.wav")
        assert wave.samples.size == 16000
        assert wave.duration == pytest.approx(1.0)

    def test_full_scale_sample(self, tmp_path):
        write_wav(tmp_path / "b.wav", np.array([32767.0 / 32768.0]))
        wave = read_wav(tmp_path / "b.wav")
        assert wave.samples[0] == pytest.approx(32767.0 / 32768.0, abs=1e-9)

    def test_stereo_rejected(self, tmp_path):
        import wave as wavemod

        with wavemod.open(str(tmp_path / "st.wav"), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(b"\x00\x00\x00\x00" * 4)
        with pytest.raises(DataError, match="mono"):
            read_wav(tmp_path / "st.wav")

    def test_wrong_rate_rejected(self, tmp_path):
        write_wav(tmp_path / "hz.wav", np.zeros(100), sample_rate=8000)
        with pytest.raises(DataError, match="Hz"):
            read_wav(tmp_path / "hz.wav")

    def test_float32_samples_give_the_float64_logmel(self, tmp_path):
        x = np.random.default_rng(3).uniform(-0.9, 0.9, size=16000)
        write_wav(tmp_path / "f.wav", x)
        wave = read_wav(tmp_path / "f.wav")
        assert wave.samples.dtype == np.float32
        wide = dsp.Waveform(wave.samples.astype(np.float64))
        assert wide.samples.dtype == np.float64
        assert np.array_equal(dsp.logmel(wave).frames, dsp.logmel(wide).frames)

    def test_garbage_file_rejected(self, tmp_path):
        (tmp_path / "x.wav").write_bytes(b"not a wav at all")
        with pytest.raises(DataError):
            read_wav(tmp_path / "x.wav")


class TestManifest:
    def test_three_lines_parse(self, tmp_path):
        (tmp_path / "m.tsv").write_text(
            "a.wav\tdog\ttrain\nb.wav\tcat;dog\tvalid\nc.wav\tcat\teval\n"
        )
        m = read_manifest(tmp_path / "m.tsv")
        assert len(m.records) == 3
        assert m.vocabulary == ("cat", "dog")
        assert m.split("valid")[0].labels == ("cat", "dog")

    def test_duplicate_labels_deduplicated(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.wav\tdog;dog;cat\ttrain\n")
        m = read_manifest(tmp_path / "m.tsv")
        assert m.records[0].labels == ("cat", "dog")

    def test_two_fields_rejected_with_line_number(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.wav\tdog\ttrain\nbroken line\n")
        with pytest.raises(DataError, match=":2"):
            read_manifest(tmp_path / "m.tsv")

    def test_unknown_split_rejected(self, tmp_path):
        (tmp_path / "m.tsv").write_text("a.wav\tdog\ttesting\n")
        with pytest.raises(DataError, match="split"):
            read_manifest(tmp_path / "m.tsv")

    def test_round_trip_identity(self, tmp_path):
        m = Manifest(
            records=[
                ManifestRecord("x.wav", ("a", "b"), "train"),
                ManifestRecord("y.wav", ("b",), "eval"),
            ],
            vocabulary=("a", "b"),
        )
        write_manifest(m, tmp_path / "m.tsv")
        again = read_manifest(tmp_path / "m.tsv")
        assert again.records == m.records
        assert again.vocabulary == m.vocabulary
        write_manifest(again, tmp_path / "m2.tsv")
        assert (tmp_path / "m.tsv").read_text() == (tmp_path / "m2.tsv").read_text()

    def test_targets_multi_hot(self):
        m = Manifest(
            records=[ManifestRecord("x.wav", ("b",), "train")], vocabulary=("a", "b", "c")
        )
        np.testing.assert_array_equal(m.targets(m.records[0]), [0, 1, 0])


class TestSyntheticDataset:
    def test_counts_and_files(self, tmp_path):
        m = generate_synthetic_dataset(8, 5, 0.5, seed=0, out_dir=tmp_path)
        assert len(m.records) == 40
        assert len(list(tmp_path.glob("*.wav"))) == 40
        assert (tmp_path / "manifest.tsv").is_file()

    def test_seed_determinism_bitwise(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(3, 2, 0.3, seed=7, out_dir=a_dir)
        generate_synthetic_dataset(3, 2, 0.3, seed=7, out_dir=b_dir)
        for name in sorted(p.name for p in a_dir.glob("*.wav")):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        assert (a_dir / "manifest.tsv").read_text() == (b_dir / "manifest.tsv").read_text()

    def test_single_label_clip_peaks_near_class_frequency(self, tmp_path):
        m = generate_synthetic_dataset(
            4, 3, 0.5, seed=1, out_dir=tmp_path, labels_per_clip=(1, 1)
        )
        record = next(r for r in m.records if r.labels == ("class_0",))
        wave = read_wav(tmp_path / record.audio_path)
        spec = dsp.logmel(wave)
        centers = dsp.filterbank_center_frequencies()
        expected_band = int(np.argmin(np.abs(centers - class_frequency(0))))
        band_votes = np.bincount(spec.frames[2:-2].argmax(axis=1), minlength=64)
        assert abs(int(band_votes.argmax()) - expected_band) <= 1

    def test_eval_split_stratified(self, tmp_path):
        m = generate_synthetic_dataset(
            4, 10, 0.2, seed=2, out_dir=tmp_path, labels_per_clip=(1, 1), eval_fraction=0.2
        )
        eval_records = m.split("eval")
        assert len(eval_records) == 8
        per_class = {}
        for r in eval_records:
            per_class[r.labels[0]] = per_class.get(r.labels[0], 0) + 1
        assert all(v == 2 for v in per_class.values())

    def test_nearest_centroid_separates_classes(self, tmp_path):
        """Mean-logmel features are linearly separable at these SNRs."""
        m = generate_synthetic_dataset(
            4, 8, 0.5, seed=3, out_dir=tmp_path, labels_per_clip=(1, 1)
        )
        feats, labels = [], []
        for r in m.records:
            spec = dsp.logmel(read_wav(tmp_path / r.audio_path))
            feats.append(spec.frames.mean(axis=0))
            labels.append(int(r.labels[0].split("_")[1]))
        feats = np.stack(feats)
        labels = np.array(labels)
        centroids = np.stack([feats[labels == c].mean(axis=0) for c in range(4)])
        pred = ((feats[:, None, :] - centroids[None]) ** 2).sum(-1).argmin(1)
        assert (pred == labels).mean() >= 0.99

    def test_too_few_classes_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(1, 5, 0.5, seed=0, out_dir=tmp_path)

    def test_load_examples_targets(self, tmp_path):
        m = generate_synthetic_dataset(
            3, 2, 0.3, seed=4, out_dir=tmp_path, labels_per_clip=(1, 1)
        )
        examples = load_examples(m, tmp_path, "train")
        assert len(examples) == 6
        assert all(ex.targets.sum() == 1 for ex in examples)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=5)
        opt = Adam(list(model.named_parameters()), weight_decay=0.01)
        for _, p in model.named_parameters():
            p.grad = np.ones_like(p.values)
        opt.step(1e-3)
        save_checkpoint(tmp_path / "ck", model, step=3, seed=5, optimizer=opt)
        ck = load_checkpoint(tmp_path / "ck")
        assert ck.step == 3 and ck.seed == 5
        for name, arr in model.state_arrays().items():
            assert np.array_equal(ck.arrays[name], arr), name
        assert ck.optimizer_step == 1
        for name, arr in opt.state_arrays().items():
            assert np.array_equal(ck.optimizer_arrays[name], arr), name

    def test_loaded_arrays_are_writable_and_disjoint(self, tmp_path):
        model = tiny_model(seed=4)
        opt = Adam(list(model.named_parameters()))
        save_checkpoint(tmp_path / "ck", model, step=1, seed=4, optimizer=opt)
        ck = load_checkpoint(tmp_path / "ck")
        loaded = list(ck.arrays.values()) + list(ck.optimizer_arrays.values())
        assert all(a.flags.writeable for a in loaded)
        for i, a in enumerate(loaded):
            for b in loaded[i + 1 :]:
                assert not np.shares_memory(a, b)
        name = "mask_embedding"
        ck.arrays[name] += 1.0
        again = load_checkpoint(tmp_path / "ck")
        assert np.array_equal(again.arrays[name], model.state_arrays()[name])

    def test_restored_model_reproduces_outputs(self, tmp_path):
        model = tiny_model(seed=6)
        x = np.random.default_rng(0).normal(size=(10, 64)).astype(np.float32)
        model.eval()
        want = model.embed(x).values
        save_checkpoint(tmp_path / "ck", model, step=0, seed=6)
        clone = restore_model(load_checkpoint(tmp_path / "ck"))
        clone.eval()
        np.testing.assert_array_equal(clone.embed(x).values, want)

    def test_truncated_blob_detected(self, tmp_path):
        model = tiny_model(seed=7)
        save_checkpoint(tmp_path / "ck", model, step=0, seed=7)
        blob = tmp_path / "ck" / "arrays.bin"
        blob.write_bytes(blob.read_bytes()[:-1])
        with pytest.raises(StorageError, match="bytes"):
            load_checkpoint(tmp_path / "ck")

    def test_model_only_checkpoint_has_no_optimizer(self, tmp_path):
        model = tiny_model(seed=8)
        save_checkpoint(tmp_path / "ck", model, step=0, seed=8)
        ck = load_checkpoint(tmp_path / "ck")
        assert ck.optimizer_arrays is None

    def test_version_mismatch_detected(self, tmp_path):
        import json

        model = tiny_model(seed=9)
        save_checkpoint(tmp_path / "ck", model, step=0, seed=9)
        header = json.loads((tmp_path / "ck" / "header.json").read_text())
        header["format_version"] = 99
        (tmp_path / "ck" / "header.json").write_text(json.dumps(header))
        with pytest.raises(StorageError, match="version"):
            load_checkpoint(tmp_path / "ck")

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # Version 1 stored the pointwise convs as (1, d, n) kernels with
        # separate ``*_bias`` arrays; version 2 stores them as Linear layers.
        import json

        save_checkpoint(tmp_path / "ck", tiny_model(seed=9), step=0, seed=9)
        header = json.loads((tmp_path / "ck" / "header.json").read_text())
        assert header["format_version"] == 2
        assert "context_encoder.blocks.0.conv.pointwise_in.weight" in {
            e["name"] for e in header["arrays"]
        }
        header["format_version"] = 1
        (tmp_path / "ck" / "header.json").write_text(json.dumps(header))
        with pytest.raises(StorageError, match="version 1"):
            load_checkpoint(tmp_path / "ck")

    def test_crash_while_overwriting_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        old, new = tiny_model(seed=14), tiny_model(seed=15)
        save_checkpoint(tmp_path / "ck", old, step=1, seed=14)
        real_rename = Path.rename

        def crash_before_staging_moves_in(self, target):
            if self.name.endswith(".tmp"):
                raise OSError("simulated crash")
            return real_rename(self, target)

        monkeypatch.setattr(Path, "rename", crash_before_staging_moves_in)
        with pytest.raises(OSError, match="simulated crash"):
            save_checkpoint(tmp_path / "ck", new, step=2, seed=15)
        monkeypatch.undo()
        survivor = load_checkpoint(tmp_path / "ck.old")
        assert survivor.step == 1
        for name, arr in old.state_arrays().items():
            assert np.array_equal(survivor.arrays[name], arr), name
        assert latest_checkpoint(tmp_path) is None
        # The next save succeeds and clears the stale aside copy.
        save_checkpoint(tmp_path / "ck", new, step=2, seed=15)
        assert load_checkpoint(tmp_path / "ck").step == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    def test_overwrite_leaves_one_directory(self, tmp_path):
        model = tiny_model(seed=16)
        for step in (1, 2):
            save_checkpoint(tmp_path / "ckpt-00000001", model, step=step, seed=16)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-00000001"]
        assert load_checkpoint(tmp_path / "ckpt-00000001").step == 2

    def test_architecture_mismatch_rejected(self, tmp_path):
        model = tiny_model(seed=10)
        save_checkpoint(tmp_path / "ck", model, step=0, seed=10)
        other = ModelConfig(
            num_blocks=2, embed_dim=8, num_heads=2, ffn_dim=12,
            stack_factor=2, kernel_first=3, kernel_rest=3,
        )
        with pytest.raises(ConfigError):
            restore_model(load_checkpoint(tmp_path / "ck"), expect_config=other)

    def test_latest_checkpoint_picks_highest_step(self, tmp_path):
        model = tiny_model(seed=11)
        for step in (5, 12, 9):
            save_checkpoint(tmp_path / f"ckpt-{step:08d}", model, step=step, seed=11)
        assert latest_checkpoint(tmp_path).name == "ckpt-00000012"
        assert latest_checkpoint(tmp_path / "nope") is None

    def test_latest_checkpoint_skips_staging_and_final(self, tmp_path):
        model = tiny_model(seed=12)
        for name in ("ckpt-00000012", "ckpt-00000013.tmp", "ckpt-final"):
            save_checkpoint(tmp_path / name, model, step=12, seed=12)
        assert latest_checkpoint(tmp_path).name == "ckpt-00000012"

    def test_restore_adopts_loaded_arrays(self, tmp_path):
        model = tiny_model(seed=13)
        opt = Adam(list(model.named_parameters()))
        save_checkpoint(tmp_path / "ck", model, step=1, seed=13, optimizer=opt)
        ck = load_checkpoint(tmp_path / "ck")
        clone = restore_model(ck)
        clone_opt = Adam(list(clone.named_parameters()))
        clone_opt.load_state_arrays(ck.optimizer_arrays, ck.optimizer_step)
        for name, p in clone.named_parameters():
            assert np.shares_memory(p.values, ck.arrays[name]), name
        for name, arr in clone_opt.state_arrays().items():
            assert np.shares_memory(arr, ck.optimizer_arrays[name]), name

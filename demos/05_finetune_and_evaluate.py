"""The fine-tuning recipe: augmentations, consistency loss, pooling, mAP.

Fine-tunes a small conformer on the synthetic classification task with the
full augmentation stack, then evaluates mAP and accuracy on a held-out
split. Equivalent CLI:

    melformer finetune --manifest data/manifest.tsv --out-dir run \
        --head mean-pool --config toy.json
"""

import tempfile
from pathlib import Path

import numpy as np

from melformer import (
    ConformerModel,
    FinetuneConfig,
    ModelConfig,
    balance_weights,
    consistency_loss,
    generate_synthetic_dataset,
    make_head,
    mixup_batch,
    run_finetuning,
    temporal_jitter,
    three_stage_lr,
    time_mask_augment,
)
from melformer.data import load_examples
from melformer.tensor import Tensor

with tempfile.TemporaryDirectory(prefix="melformer-demo-") as tmp:
    data_dir = Path(tmp)
    manifest = generate_synthetic_dataset(
        num_classes=4, clips_per_class=10, clip_seconds=1.0, seed=0,
        out_dir=data_dir, labels_per_clip=(1, 1), eval_fraction=0.25,
    )
    train = load_examples(manifest, data_dir, "train")
    held_out = load_examples(manifest, data_dir, "eval")
print(f"{len(train)} train, {len(held_out)} eval clips, {len(manifest.vocabulary)} classes")

# The augmentations, individually.
rng = np.random.default_rng(0)
wave = train[0].waveform
print(f"jitter preserves length: {temporal_jitter(wave, rng).shape == wave.shape}")
frames = np.random.default_rng(1).normal(size=(100, 64))
masked = time_mask_augment(frames, rng)
print(f"time mask blanks {int((masked != frames).any(axis=1).sum())} frames (max 100 = 2 s)")
mixed = mixup_batch([frames, frames + 1.0], rng)
print(f"mixup keeps shapes: {mixed[0].shape == frames.shape}")

# Linear softmax pooling weights frames by their own confidence: sum(y^2) / sum(y).
y = np.array([0.5, 0.25])
print(f"pool([0.5, 0.25]) = {(y * y).sum() / y.sum():.6f} (= 0.3125/0.75)")

# Symmetric KL between two views is the consistency regularizer.
kl = consistency_loss(Tensor(np.array([0.8])), Tensor(np.array([0.2])))
print(f"symmetric Bernoulli KL(0.8 || 0.2) = {kl.item():.6f}")

# Balanced sampling equalizes skewed class frequencies.
weights = balance_weights(np.stack([ex.targets for ex in train]))
print(f"sampling weights range [{weights.min():.3f}, {weights.max():.3f}]")

config = FinetuneConfig(
    head_kind="mean-pool", num_classes=4, peak_lr=2e-3, total_steps=120,
    batch_size=8, output_dropout=0.1, seed=0,
)
for s in (0, 36, 72, 120):
    print(f"  three_stage_lr({s}) = {three_stage_lr(s, config):.2e}")

model = ConformerModel(
    ModelConfig(num_blocks=1, embed_dim=32, num_heads=4, ffn_dim=64,
                stack_factor=4, kernel_first=7, kernel_rest=5, dropout=0.0),
    seed=0,
)
head = make_head(config.head_kind, model.config.latent_dim, 4, seed=0)
with tempfile.TemporaryDirectory(prefix="melformer-run-") as run_dir:
    report = run_finetuning(
        model, head, train, config,
        out_dir=Path(run_dir),
        eval_examples=held_out,
        log=lambda r: print(f"step {r['step']:3d}: bce {r['bce']:.4f} "
                            f"consistency {r['consistency']:.4f}")
        if r["step"] % 30 == 0 else None,
    )
print(f"\neval mAP {report.map_score:.3f}, accuracy {report.accuracy:.3f} "
      f"on {report.num_examples} clips")

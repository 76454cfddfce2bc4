"""Masked contrastive pretraining on synthetic audio, end to end.

Generates a small sine-mixture dataset, pretrains a 2-block encoder for a
few hundred steps, and shows the loss falling from the ln(K'+1) random
baseline. Equivalent CLI:

    melformer synthdata --out-dir data --num-classes 4 --clips-per-class 4
    melformer pretrain --manifest data/manifest.tsv --out-dir run --max-steps 300
"""

import tempfile
from pathlib import Path

import numpy as np

from melformer import (
    Adam,
    ConformerModel,
    ModelConfig,
    PretrainConfig,
    generate_synthetic_dataset,
    logmel,
    pretrain_lr,
    pretrain_step,
    read_wav,
)

with tempfile.TemporaryDirectory(prefix="melformer-demo-") as tmp:
    data_dir = Path(tmp)
    manifest = generate_synthetic_dataset(
        num_classes=4, clips_per_class=4, clip_seconds=2.0, seed=0, out_dir=data_dir
    )
    clips = [
        logmel(read_wav(data_dir / r.audio_path)).frames.astype(np.float32)
        for r in manifest.records
    ]
print(f"{len(clips)} clips, logmel {clips[0].shape}")

config = ModelConfig(
    num_blocks=2, embed_dim=32, num_heads=4, ffn_dim=64,
    stack_factor=4, kernel_first=7, kernel_rest=5, dropout=0.0,
)
model = ConformerModel(config, seed=0)
train = PretrainConfig(
    num_distractors=20, mask_rate=0.30, mask_span=3,
    peak_lr=2e-3, warmup_steps=30, total_steps=300,
    batch_size=4, weight_decay=0.0, seed=0,
)
optimizer = Adam(
    list(model.named_parameters()), beta1=train.beta1, beta2=train.beta2,
)

# The warmup/decay schedule behind the loop.
for s in (0, 30, 150, 300):
    print(f"  lr({s}) = {pretrain_lr(s, train):.2e}")

for step in range(1, train.total_steps + 1):
    rng = np.random.default_rng([train.seed, 1, step])
    picks = rng.choice(len(clips), size=train.batch_size, replace=False)
    record = pretrain_step([clips[i] for i in picks], model, optimizer, train, step)
    if step == 1 or step % 60 == 0:
        print(f"step {record['step']:3d}: loss {record['loss']:.4f} "
              f"lr {record['lr']:.2e} grad_norm {record['grad_norm']:.3f}")

# K' = masked-1 capped at 20 here, so the random baseline is about ln(K'+1).
print("a falling loss means the encoder tells masked latents apart from distractors")

"""Supervised fine-tuning recipe.

Two independently augmented views of each batch (temporal jitter on the
waveform, one temporal mask on the logmel, mixup across the batch) feed the
full trainable conformer plus a pooling head. The loss is BCE on the first
view plus a weighted symmetric Bernoulli KL between the two views'
predictions. The learning rate follows a warmup / hold / exponential-decay
schedule over fixed fractions of the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import LabeledExample
from .dsp import Waveform, frame_count, logmel
from .errors import ConfigError, DataError, ShapeError
from .metrics import EvalReport, evaluate_scores
from .model import ConformerModel, Linear, Module, check_stackable, clip_groups
from .pretrain import Adam, check_finite_fields, last_step, step_rng, training_loop
from .tensor import Tensor, backward

RNG_VIEW_A = 10
RNG_VIEW_B = 11
RNG_SAMPLING = 12
RNG_HEAD_DROPOUT_A = 13
RNG_HEAD_DROPOUT_B = 14
MIXUP_ITEM = 7919  # a view's mixup stream; clip i's augmentations draw from item i

MAX_JITTER = 200  # samples; half the 64 ms analysis window hop side
MAX_TIME_MASK_FRAMES = 100  # 2 s at the 20 ms hop


@dataclass
class FinetuneConfig:
    head_kind: str = "mean-pool"
    num_classes: int = 2
    peak_lr: float = 1e-4
    total_steps: int = 1000
    stage_fractions: tuple = (0.30, 0.30, 0.40)
    final_lr_factor: float = 0.01
    batch_size: int = 16
    output_dropout: float = 0.0
    mixup_enabled: bool = True
    jitter_enabled: bool = True
    timemask_enabled: bool = True
    consistency_weight: float = 2.0
    balance_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        self.stage_fractions = tuple(self.stage_fractions)
        self.validate()

    def validate(self):
        check_finite_fields(self)
        if self.head_kind not in HEADS:
            raise ConfigError(f"head_kind must be one of {HEAD_KINDS}")
        if len(self.stage_fractions) != 3 or any(f <= 0 for f in self.stage_fractions):
            raise ConfigError("stage_fractions must be three positive values")
        if abs(sum(self.stage_fractions) - 1.0) > 1e-9:
            raise ConfigError(f"stage_fractions sum to {sum(self.stage_fractions)}, not 1")
        if self.consistency_weight < 0:
            raise ConfigError("consistency_weight must be >= 0")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.peak_lr < 0 or self.final_lr_factor <= 0:
            raise ConfigError("peak_lr must be >= 0 and final_lr_factor > 0")
        if min(self.batch_size, self.total_steps) < 1:
            raise ConfigError("batch_size and total_steps must be >= 1")
        if self.mixup_enabled and self.batch_size > MIXUP_ITEM:
            raise ConfigError(f"batch_size > {MIXUP_ITEM}: clip {MIXUP_ITEM} shares the mixup stream")
        T.dropout_cut(self.output_dropout, ConfigError, "output_dropout")


# ---------------------------------------------------------------------------
# Augmentations (pure numpy, pre-graph)


def temporal_jitter(samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shift by a uniform integer in [-200, 200]; vacated samples are zeros."""
    samples = np.asarray(samples)
    if samples.size <= MAX_JITTER:
        raise DataError(f"waveform too short to jitter ({samples.size} samples)")
    shift = int(rng.integers(-MAX_JITTER, MAX_JITTER + 1))
    if shift == 0:
        return samples.copy()
    out = np.zeros_like(samples)
    if shift > 0:
        out[shift:] = samples[:-shift]
    else:
        out[:shift] = samples[-shift:]
    return out


def time_mask_augment(frames: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Blank one temporal interval of up to 2 s (never any frequency bands).

    The interval is filled with the clip's mean logmel value.
    """
    frames = np.asarray(frames)
    if frames.size == 0:
        raise DataError("empty logmel")
    t = frames.shape[0]
    max_len = min(MAX_TIME_MASK_FRAMES, t)
    length = int(rng.integers(0, max_len + 1))
    out = frames.copy()
    if length == 0:
        return out
    start = int(rng.integers(0, t - length + 1))
    out[start : start + length, :] = frames.mean()
    return out


def mixup_batch(batch: list[np.ndarray], rng: np.random.Generator) -> list[np.ndarray]:
    """Convex combinations with a shuffled partner, alpha from Beta(0.5, 0.5)
    folded to [0.5, 1]; targets are the caller's and stay untouched."""
    n = len(batch)
    if n < 2:
        return [np.asarray(x).copy() for x in batch]
    partner = rng.permutation(n)
    alphas = rng.beta(0.5, 0.5, size=n)
    alphas = np.maximum(alphas, 1.0 - alphas)
    return [
        alphas[i] * np.asarray(batch[i]) + (1.0 - alphas[i]) * np.asarray(batch[partner[i]])
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Pooling heads


class FramewiseHead(Module):
    """Frame-level linear + sigmoid, pooled to clip probabilities by
    confidence weighting (p = sum y^2 / sum y)."""

    def __init__(self, latent_dim, num_classes, rng):
        self.proj = Linear(latent_dim, num_classes, rng)

    def __call__(self, context: Tensor, clips: int = 1) -> Tensor:
        """(clips, num_classes) probabilities, one row per clip of a stack."""
        y = T.sigmoid(self.proj(context))
        # Made before num, so backward adds den's term into y's gradient last.
        den = T.reduce_sum(y, clips=clips)
        num = T.reduce_sum(T.mul(y, y), clips=clips)
        # Sigmoid outputs are strictly positive; the epsilon only guards the
        # graph against pathological saturation.
        return T.div(num, T.add(den, 1e-12))


class MeanPoolHead(Module):
    """Frame-mean then linear; probabilities via sigmoid."""

    def __init__(self, latent_dim, num_classes, rng):
        self.proj = Linear(latent_dim, num_classes, rng)

    def __call__(self, context: Tensor, clips: int = 1) -> Tensor:
        """(clips, num_classes) probabilities, one row per clip of a stack."""
        pooled = T.reduce_mean(context, clips=clips)
        return T.sigmoid(self.proj(pooled))


HEADS = {"linear-softmax-pool": FramewiseHead, "mean-pool": MeanPoolHead}
HEAD_KINDS = tuple(HEADS)


def make_head(kind: str, latent_dim: int, num_classes: int, seed: int):
    if kind not in HEADS:
        raise ConfigError(f"unknown head kind '{kind}'")
    return HEADS[kind](latent_dim, num_classes, np.random.default_rng([seed, 0xEAD]))


# ---------------------------------------------------------------------------
# Losses and schedule


def bce_loss(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over clips and classes (probs clamped to
    1e-7); ``targets`` has the probs' (clips, classes) shape."""
    return T.binary_cross_entropy(probs, targets)


def consistency_loss(probs_a: Tensor, probs_b: Tensor) -> Tensor:
    """Symmetric Bernoulli KL per class, averaged: (p-q)(logit p - logit q)."""
    return T.symmetric_bernoulli_kl(probs_a, probs_b)


def three_stage_lr(step: int, config: FinetuneConfig) -> float:
    """Linear warmup, hold at peak, exponential decay to peak*final_lr_factor."""
    if step < 0:
        raise ConfigError(f"negative step {step}")
    total = config.total_steps
    warm_end = config.stage_fractions[0] * total
    hold_end = (config.stage_fractions[0] + config.stage_fractions[1]) * total
    step = min(step, total)
    if step <= warm_end:
        return config.peak_lr * step / warm_end
    if step <= hold_end:
        return config.peak_lr
    progress = (step - hold_end) / (total - hold_end)
    return config.peak_lr * config.final_lr_factor**progress


def balance_weights(label_matrix: np.ndarray) -> np.ndarray:
    """Per-example sampling weight: max over its positive classes of 1/count."""
    labels = np.asarray(label_matrix)
    if labels.ndim != 2:
        raise ShapeError("expected examples x classes multi-hot matrix")
    if np.any(labels.sum(axis=1) < 1):
        bad = int(np.flatnonzero(labels.sum(axis=1) < 1)[0])
        raise DataError(f"example {bad} has no positive label")
    counts = labels.sum(axis=0)
    inverse = np.zeros_like(counts, dtype=np.float64)
    np.divide(1.0, counts, out=inverse, where=counts > 0)
    return (labels * inverse).max(axis=1)


# ---------------------------------------------------------------------------
# Training step and loop


def _clip_frames(example: LabeledExample, jitter: bool, rng, filterbank) -> np.ndarray:
    samples = example.waveform
    if jitter:
        samples = temporal_jitter(samples, rng)
    return logmel(Waveform(samples), filterbank).frames


def _augmented_views(batch, config, step, filterbank):
    """Independently augmented logmel views of the batch: view A, and view B
    when the consistency term reads it. Each view draws from its own streams."""
    views = []
    purposes = (RNG_VIEW_A, RNG_VIEW_B) if config.consistency_weight > 0.0 else (RNG_VIEW_A,)
    for purpose in purposes:
        frames = []
        for i, ex in enumerate(batch):
            rng = step_rng(config.seed, purpose, step, i)
            f = _clip_frames(ex, config.jitter_enabled, rng, filterbank)
            if config.timemask_enabled:
                f = time_mask_augment(f, rng)
            frames.append(f)
        if config.mixup_enabled:
            min_t = min(f.shape[0] for f in frames)
            frames = [f[:min_t] for f in frames]
            frames = mixup_batch(frames, step_rng(config.seed, purpose, step, MIXUP_ITEM))
        views.append(frames)
    return views


def _group_probs(model, head, frames, output_dropout, dropout_rngs) -> Tensor:
    """(clips, classes) probabilities of equal-length clips; clip i draws its
    dropout masks from ``dropout_rngs[i]`` (None in evaluation mode)."""
    context = model.contextualize(model.encode_features(frames), rng=dropout_rngs)
    if output_dropout > 0.0:
        context = T.dropout(context, output_dropout, dropout_rngs, training=model.training)
    return head(context, clips=len(dropout_rngs))


def finetune_step(
    batch: list[LabeledExample],
    model: ConformerModel,
    head,
    optimizer: Adam,
    config: FinetuneConfig,
    step: int,
    filterbank=None,
) -> dict:
    """Augmented views -> BCE(view A) + consistency_weight * symKL(A, B).

    View B is built only when consistency_weight > 0. The batch runs as
    groups of equal-length clips (``model.clip_groups``: at most
    ``GROUP_ROWS`` rows a group, counting both views' rows when the
    consistency term spans them), one graph per group
    that stacks the group's view-A clips, then its view-B clips. Each
    group's loss, the mean of its clip terms, is back-propagated scaled by
    group size / B before the next group's graph is built, so only one
    group's graph is alive at a time; the parameter gradients add up over
    the groups. Every clip draws its augmentations and each view's dropout
    masks from its own streams, as it would alone. The logged ``bce`` and
    ``consistency`` are the means of the clip terms.
    """
    if not batch:
        raise ConfigError("empty batch")
    optimizer.zero_grad()
    views = _augmented_views(batch, config, step, filterbank)
    purposes = (RNG_HEAD_DROPOUT_A, RNG_HEAD_DROPOUT_B)[: len(views)]
    stack = model.config.stack_factor
    frame_counts = [tuple(len(v[i]) // stack for v in views) for i in range(len(batch))]
    scale = 1.0 / len(batch)
    bce_sum = consistency_sum = 0.0
    for group in clip_groups(frame_counts):
        # A group's graph keeps float32 copies of its logmels, so the step
        # drops them here and holds one group's graph and the logmels to come.
        frames = [view[i] for view in views for i in group]
        for view in views:
            view[group.start : group.stop] = [None] * len(group)
        probs = _group_probs(
            model, head, frames, config.output_dropout,
            [step_rng(config.seed, purpose, step, i) for purpose in purposes for i in group],
        )
        n = len(group)
        probs_a = probs if len(views) == 1 else T.rows(probs, 0, n)
        loss = bce_loss(probs_a, np.stack([batch[i].targets for i in group]))
        bce_sum += float(loss.values) * n
        if len(views) > 1:
            consistency = consistency_loss(probs_a, T.rows(probs, n, 2 * n))
            consistency_sum += float(consistency.values) * n
            loss = T.add(loss, T.mul(consistency, config.consistency_weight))
        backward(T.mul(loss, n / len(batch)))
    lr = three_stage_lr(step, config)
    grad_norm = optimizer.step(lr)
    bce = bce_sum * scale
    consistency = consistency_sum * scale
    return {
        "step": step,
        "loss": bce + config.consistency_weight * consistency,
        "bce": bce,
        "consistency": consistency,
        "lr": lr,
        "grad_norm": grad_norm,
    }


def evaluate_model(model, head, examples, filterbank=None) -> EvalReport:
    """Score every example in eval mode and summarize.

    Consecutive examples of equal length are scored as one stack, in the
    groups ``model.clip_groups`` forms in training. No examples is a DataError.
    """
    if not examples:
        raise DataError("no examples to evaluate")
    model.eval()
    stack = model.config.stack_factor
    frame_counts = [(frame_count(ex.waveform.size) // stack,) for ex in examples]
    scores = []
    try:
        with T.no_grad():
            for group in clip_groups(frame_counts):
                frames = [
                    _clip_frames(examples[i], jitter=False, rng=None, filterbank=filterbank)
                    for i in group
                ]
                probs = _group_probs(model, head, frames, 0.0, [None] * len(group))
                scores.extend(probs.values.astype(np.float64))
    finally:
        model.train()
    return evaluate_scores(np.stack(scores), np.stack([ex.targets for ex in examples]))


def run_finetuning(
    model: ConformerModel,
    head,
    train_examples: list[LabeledExample],
    config: FinetuneConfig,
    out_dir: str | Path,
    eval_examples: list[LabeledExample] | None = None,
    max_steps: int | None = None,
    deterministic: bool = True,
    log=None,
) -> EvalReport | None:
    """Fine-tune with balanced sampling; evaluate at the end when data given.

    A rerun into the same ``out_dir`` starts ``metrics.jsonl`` afresh.
    """
    check_stackable(
        [frame_count(ex.waveform.size) for ex in train_examples + list(eval_examples or [])],
        model.config.stack_factor,
    )
    shortest = min((ex.waveform.size for ex in train_examples), default=MAX_JITTER + 1)
    if config.jitter_enabled and shortest <= MAX_JITTER:
        raise DataError(
            f"train clip too short to jitter ({shortest} samples, need {MAX_JITTER + 1})"
        )
    out_dir = Path(out_dir)
    end_step = last_step(config.total_steps, max_steps)
    optimizer = Adam(
        list(model.named_parameters()) + [(f"head.{n}", p) for n, p in head.named_parameters()]
    )
    if config.balance_enabled:
        weights = balance_weights(np.stack([ex.targets for ex in train_examples]))
        probabilities = weights / weights.sum()
    else:
        probabilities = None
    model.train()
    n = len(train_examples)

    def step_fn(step):
        rng = step_rng(config.seed, RNG_SAMPLING, step)
        picks = rng.choice(
            n, size=min(config.batch_size, n), replace=n < config.batch_size, p=probabilities
        )
        batch = [train_examples[i] for i in picks]
        return finetune_step(batch, model, head, optimizer, config, step)

    training_loop(step_fn, out_dir, 0, end_step, deterministic, log)
    if eval_examples:
        report = evaluate_model(model, head, eval_examples)
        (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        return report
    return None

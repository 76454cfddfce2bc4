"""Masked contrastive pretraining.

A masked latent frame must be identified among K distractors drawn uniformly
from the other masked steps of the same clip, by cosine similarity between
the context output and the candidate latents. Optimization is bias-corrected
Adam with decoupled weight decay under a linear warmup / linear decay
schedule.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .model import ConformerModel, apply_mask, sample_mask
from .tensor import Tensor, backward

# Purpose tags for derived RNG streams; every draw is seeded by
# [seed, purpose, step, item] so runs are reproducible and resumable.
RNG_BATCH = 1
RNG_MASK = 2
RNG_DISTRACTOR = 3
RNG_DROPOUT = 4


def step_rng(seed: int, purpose: int, step: int, item: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, step, item])


@dataclass
class PretrainConfig:
    num_distractors: int = 100
    mask_rate: float = 0.30
    mask_span: int = 10
    peak_lr: float = 3e-4
    warmup_steps: int = 10_000
    total_steps: int = 300_000
    beta1: float = 0.9
    beta2: float = 0.98
    weight_decay: float = 0.01
    batch_size: int = 8
    temperature: float = 1.0
    grad_clip: float | None = None
    checkpoint_interval: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.warmup_steps >= self.total_steps:
            raise ConfigError("warmup_steps must be below total_steps")
        if self.num_distractors < 0:
            raise ConfigError("num_distractors must be >= 0")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigError(f"mask_rate {self.mask_rate} outside (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def pretrain_lr(step: int, config: PretrainConfig) -> float:
    """Linear 0 -> peak over warmup, then linear peak -> 0 at total_steps."""
    if step < 0:
        raise ConfigError(f"negative step {step}")
    if step <= config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    if step <= config.total_steps:
        remaining = config.total_steps - step
        return config.peak_lr * remaining / (config.total_steps - config.warmup_steps)
    return 0.0


def sample_distractors(mask_indices, t: int, num_distractors: int, rng) -> np.ndarray:
    """min(K, m-1) distinct indices from the other masked steps."""
    mask_indices = np.asarray(mask_indices)
    others = mask_indices[mask_indices != t]
    if others.size == mask_indices.size:
        raise ShapeError(f"step {t} is not among the masked indices")
    k = min(num_distractors, others.size)
    if k == 0:
        return np.empty(0, dtype=np.intp)
    return rng.choice(others, size=k, replace=False).astype(np.intp)


def contrastive_loss(
    context: Tensor,
    latents: Tensor,
    mask: np.ndarray,
    num_distractors: int,
    rng,
    temperature: float = 1.0,
) -> Tensor:
    """Mean over masked steps of -log softmax(sim) at the true latent.

    Candidates are the true latent plus distractors from other masked steps
    of the same clip; sim is cosine similarity (eps 1e-8 in the norms).
    Steps with no available distractors are skipped unless K=0, where the
    single-candidate loss is exactly zero.
    """
    if context.shape != latents.shape:
        raise ShapeError(f"context {context.shape} vs latents {latents.shape}")
    mask = np.asarray(mask, dtype=bool)
    masked = np.flatnonzero(mask)
    if masked.size == 0:
        raise ShapeError("contrastive loss needs at least one masked step")
    k = min(num_distractors, masked.size - 1)
    if k == 0 and num_distractors > 0:
        # No candidates to draw; every step is skipped.
        return Tensor(np.zeros((), dtype=context.values.dtype))
    candidates = np.empty((masked.size, k + 1), dtype=np.intp)
    candidates[:, 0] = masked
    for row, t in enumerate(masked):
        candidates[row, 1:] = sample_distractors(masked, int(t), k, rng)

    c_hat = T.l2_normalize_rows(context)
    z_hat = T.l2_normalize_rows(latents)
    sims = T.matmul(T.take_rows(c_hat, masked), T.transpose(z_hat))
    if temperature != 1.0:
        sims = T.mul(sims, 1.0 / temperature)
    scores = T.gather_cols(sims, candidates)
    true_score = T.col_slice(scores, 0, 1)
    return T.reduce_mean(T.sub(T.logsumexp(scores, axis=1), true_score))


class Adam:
    """Bias-corrected Adam with decoupled weight decay.

    The update is atomic: gradients are validated finite before any
    parameter or moment buffer is touched.
    """

    def __init__(
        self,
        named_params,
        beta1: float = 0.9,
        beta2: float = 0.98,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.named_params = list(named_params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.values) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.values) for name, p in self.named_params}

    def step(self, lr: float):
        if lr < 0:
            raise ConfigError(f"negative learning rate {lr}")
        grads = {}
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for '{name}'; step aborted")
            grads[name] = g
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for name, p in self.named_params:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.values
            p.values = p.values - (lr * update).astype(p.values.dtype, copy=False)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None

    def state_arrays(self) -> dict:
        state = {}
        for name, _ in self.named_params:
            state[f"adam.m.{name}"] = self.m[name]
            state[f"adam.v.{name}"] = self.v[name]
        return state

    def load_state_arrays(self, arrays: dict, step_count: int):
        """Restore the moments; adopts ``arrays`` without a copy where the dtype matches."""
        for name, p in self.named_params:
            for prefix, store in (("adam.m.", self.m), ("adam.v.", self.v)):
                key = prefix + name
                if key not in arrays:
                    raise ConfigError(f"optimizer state missing '{key}'")
                if arrays[key].shape != p.values.shape:
                    raise ConfigError(f"optimizer state shape mismatch for '{key}'")
                store[name] = arrays[key].astype(p.values.dtype, copy=False)
        self.step_count = step_count


def global_grad_norm(named_params) -> float:
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_gradients(named_params, max_norm: float) -> float:
    norm = global_grad_norm(named_params)
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def pretrain_step(
    batch_logmels: list[np.ndarray],
    model: ConformerModel,
    optimizer: Adam,
    config: PretrainConfig,
    step: int,
) -> dict:
    """One full training step over a batch of logmel matrices.

    Per clip: feature-encode, mask, contextualize, contrastive loss, then
    back-propagate loss/B at once, so only one clip's graph is alive at a
    time; the parameter gradients add up over the clips. The logged loss is
    the mean of the clip losses. Aborts atomically on numeric errors.
    """
    if not batch_logmels:
        raise ConfigError("empty batch")
    optimizer.zero_grad()
    scale = 1.0 / len(batch_logmels)
    loss_sum = 0.0
    for i, frames in enumerate(batch_logmels):
        z = model.encode_features(frames)
        mask = sample_mask(
            z.shape[0],
            rate=config.mask_rate,
            span_length=min(config.mask_span, z.shape[0]),
            rng=step_rng(config.seed, RNG_MASK, step, i),
        )
        zm = apply_mask(z, mask, model.mask_embedding)
        c = model.contextualize(zm, rng=step_rng(config.seed, RNG_DROPOUT, step, i))
        loss = contrastive_loss(
            c,
            z,
            mask,
            config.num_distractors,
            rng=step_rng(config.seed, RNG_DISTRACTOR, step, i),
            temperature=config.temperature,
        )
        loss_sum += float(loss.values)
        backward(T.mul(loss, scale))
    if config.grad_clip is not None:
        grad_norm = clip_gradients(optimizer.named_params, config.grad_clip)
    else:
        grad_norm = global_grad_norm(optimizer.named_params)
    lr = pretrain_lr(step, config)
    optimizer.step(lr)
    return {"step": step, "loss": loss_sum * scale, "lr": lr, "grad_norm": grad_norm}


def write_metrics_line(handle, record: dict, deterministic: bool, wall_ms: float):
    """One JSON record per step; wall_ms is omitted in deterministic mode so
    seeded runs produce bitwise-identical logs."""
    if not deterministic:
        record = {**record, "wall_ms": wall_ms}
    handle.write(json.dumps(record) + "\n")
    handle.flush()


def _drop_records_after(metrics_path: Path, step: int):
    """Cut a JSONL metrics log back to the records of steps 1..``step``.

    A run that crashed after its last checkpoint logged steps the resumed run
    will log again; those records, and a line torn by the crash, are dropped.
    """
    if not metrics_path.exists():
        return
    with metrics_path.open("r+b") as handle:
        keep = 0
        for line in handle:
            try:
                if json.loads(line)["step"] > step:
                    break
            except ValueError:
                break
            keep += len(line)
        handle.truncate(keep)


def run_pretraining(
    model: ConformerModel,
    logmels: list[np.ndarray],
    config: PretrainConfig,
    out_dir: str | Path,
    max_steps: int | None = None,
    start_step: int = 0,
    optimizer: Adam | None = None,
    deterministic: bool = True,
    log=None,
) -> Adam:
    """Training loop with periodic checkpoints and a JSONL metrics log.

    Steps are numbered from 1; ``start_step`` is the last completed step
    (nonzero when resuming), and ``metrics.jsonl`` is first cut back to it.
    Returns the optimizer for further inspection.
    """
    from .data import save_checkpoint

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if optimizer is None:
        optimizer = Adam(
            list(model.named_parameters()),
            beta1=config.beta1,
            beta2=config.beta2,
            weight_decay=config.weight_decay,
        )
    model.train()
    last_step = min(config.total_steps, max_steps) if max_steps else config.total_steps
    metrics_path = out_dir / "metrics.jsonl"
    _drop_records_after(metrics_path, start_step)
    with metrics_path.open("a") as handle:
        for step in range(start_step + 1, last_step + 1):
            t0 = time.monotonic()
            rng = step_rng(config.seed, RNG_BATCH, step)
            replace = len(logmels) < config.batch_size
            picks = rng.choice(len(logmels), size=config.batch_size, replace=replace)
            batch = [logmels[i] for i in picks]
            record = pretrain_step(batch, model, optimizer, config, step)
            wall_ms = (time.monotonic() - t0) * 1000.0
            write_metrics_line(handle, record, deterministic, wall_ms)
            if log is not None:
                log(record)
            if step % config.checkpoint_interval == 0 or step == last_step:
                save_checkpoint(
                    out_dir / f"ckpt-{step:08d}",
                    model,
                    step=step,
                    seed=config.seed,
                    optimizer=optimizer,
                )
    return optimizer

"""Masked contrastive pretraining.

A masked latent frame must be identified among K distractors drawn uniformly
from the other masked steps of the same clip, by cosine similarity between
the context output and the candidate latents. Optimization is bias-corrected
Adam with decoupled weight decay under a linear warmup / linear decay
schedule.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import bind_arrays, resume_newest, save_checkpoint
from .errors import ConfigError, NumericError, ShapeError
from .model import ConformerModel, apply_mask, check_stackable, clip_groups, sample_mask
from .tensor import Tensor, backward

# Purpose tags for derived RNG streams; every draw is seeded by
# [seed, purpose, step, item] so runs are reproducible and resumable.
RNG_BATCH = 1
RNG_MASK = 2
RNG_DISTRACTOR = 3
RNG_DROPOUT = 4


def step_rng(seed: int, purpose: int, step: int, item: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, step, item])


def check_finite_fields(config):
    """Raise ConfigError when a number in a field of the dataclass ``config``,
    or in one of its tuple fields, is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, numbers.Real) and not math.isfinite(v):
                raise ConfigError(f"{f.name} {value} is not finite")


def check_nonnegative(name: str, value: float):
    """A learning rate or weight decay that is not finite and >= 0 is a
    ConfigError; Adam and the configs that feed it both apply this rule."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} {value} is not finite and >= 0")


def check_beta(name: str, value: float):
    """An Adam moment decay outside [0, 1) is a ConfigError: at 1 the bias
    correction divides by zero."""
    if not 0.0 <= value < 1.0:
        raise ConfigError(f"{name} {value} outside [0, 1)")


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
        check_finite_fields(self)
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError("warmup_steps must be >= 0 and below total_steps")
        if self.num_distractors < 0:
            raise ConfigError("num_distractors must be >= 0")
        check_nonnegative("peak_lr", self.peak_lr)
        check_nonnegative("weight_decay", self.weight_decay)
        check_beta("beta1", self.beta1)
        check_beta("beta2", self.beta2)
        if min(self.batch_size, self.mask_span, self.checkpoint_interval) < 1:
            raise ConfigError("batch_size, mask_span and checkpoint_interval must be >= 1")
        if not 0.0 < self.mask_rate < 1.0:
            raise ConfigError(f"mask_rate {self.mask_rate} outside (0, 1)")
        if self.temperature <= 0 or (self.grad_clip is not None and self.grad_clip <= 0):
            raise ConfigError("temperature and grad_clip (unless null) must be > 0")


def pretrain_lr(step: int, config: PretrainConfig) -> float:
    """Linear 0 -> peak over warmup, then linear peak -> 0 at total_steps."""
    if step < 0:
        raise ConfigError(f"negative step {step}")
    if config.warmup_steps > 0 and step <= config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    if step <= config.total_steps:
        remaining = config.total_steps - step
        return config.peak_lr * remaining / (config.total_steps - config.warmup_steps)
    return 0.0


def sample_distractors(masked, num_distractors: int, rng) -> np.ndarray:
    """(M, k) distractors for the M masked steps of a clip, k = min(K, M-1).

    Row i holds k distinct masked steps other than ``masked[i]``, every
    k-subset equally likely: the first k of a random order of the others.
    """
    if num_distractors < 0:
        raise ConfigError(f"negative distractor count {num_distractors}")
    masked = np.asarray(masked, dtype=np.intp)
    keys = rng.random((masked.size, masked.size))
    np.fill_diagonal(keys, np.inf)
    k = min(num_distractors, masked.size - 1)
    return masked[np.argsort(keys, axis=1)[:, :k]]


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
    of the same clip; sim is cosine similarity (eps 1e-8 in the norms). A
    step with no other masked step in its clip scores only itself, so its
    loss and gradient are exactly zero.

    When context and latents stack B equal-length clips, ``rng`` is a list
    of B generators and ``mask`` covers all rows. Each clip draws its
    distractors from its own masked steps with its own generator, and the
    loss is the mean of the clip losses. A temperature that is not finite
    and > 0 is a ConfigError.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"temperature {temperature} is not finite and > 0")
    mask = np.asarray(mask, dtype=bool)
    rngs = T.clip_rngs(rng)
    if mask.shape != context.shape[:1] or mask.size % len(rngs):
        raise ShapeError(
            f"mask {mask.shape} does not split {context.shape[0]} rows into {len(rngs)} clips"
        )
    clip_masks = mask.reshape(len(rngs), -1)
    candidates = []
    for offset, clip_mask, clip_rng in zip(
        range(0, mask.size, clip_masks.shape[1]), clip_masks, rngs
    ):
        masked = np.flatnonzero(clip_mask)
        if masked.size == 0:
            raise ShapeError("contrastive loss needs at least one masked step")
        distractors = sample_distractors(masked, num_distractors, clip_rng)
        candidates.append(np.column_stack([masked, distractors]) + offset)
    return T.info_nce(
        T.l2_normalize_rows(context), T.l2_normalize_rows(latents), candidates, 1.0 / temperature
    )


ADAM_EPS = 1e-8  # added to the root of the second moment
ADAM_CHUNK = 1 << 16  # elements an update pass covers, so its temporaries stay in cache


def _flat_span(arrays: list, dtype) -> np.ndarray | None:
    """One 1-D array over ``arrays`` when they lie back to back, in order, in
    one writable buffer of ``dtype`` (as a loaded checkpoint's arrays do);
    None otherwise."""
    if not arrays:
        return None

    def root(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    base = root(arrays[0])
    end = arrays[0].ctypes.data
    for a in arrays:
        contiguous = a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable
        if not contiguous or a.ctypes.data != end or root(a) is not base:
            return None
        end += a.nbytes
    if not base.flags.c_contiguous:
        return None
    raw = base.reshape(-1).view(np.uint8)
    start = arrays[0].ctypes.data - raw.ctypes.data
    return raw[start : start + end - arrays[0].ctypes.data].view(dtype)


class Adam:
    """Bias-corrected Adam with decoupled weight decay over one flat arena.

    The parameters' values, their gradients and the two moments each live in
    one contiguous buffer of the parameters' dtype (mixed dtypes are a
    ConfigError), and every ``p.values``, ``m[name]`` and ``v[name]`` is a
    view into its buffer. Parameters that already lie back to back in one
    buffer, as a restored checkpoint's do, are adopted without a copy.
    Backward copies a parameter's first gradient into its arena view (the
    parameter's ``_grad_view``); ``p.grad is None`` still means that no
    backward reached it, and ``zero_grad`` only resets ``p.grad``. A
    ``p.grad`` or ``p.values`` that is not the parameter's own view (set by
    hand, or rebound by ``load_state_arrays``) is copied in at the next step.

    The update is a few in-place passes over each ``ADAM_CHUNK`` elements of
    the buffers; it is elementwise, so its bits do not depend on the chunks.
    It is atomic: a gradient that is not finite aborts the step before any
    parameter or moment is touched.
    """

    def __init__(
        self,
        named_params,
        beta1: float = 0.9,
        beta2: float = 0.98,
        weight_decay: float = 0.0,
    ):
        check_beta("beta1", beta1)
        check_beta("beta2", beta2)
        check_nonnegative("weight_decay", weight_decay)
        self.named_params = list(named_params)
        self.beta1, self.beta2 = beta1, beta2
        self.weight_decay = weight_decay
        self.step_count = 0
        dtypes = sorted({str(p.values.dtype) for _, p in self.named_params})
        if len(dtypes) > 1:
            raise ConfigError(f"Adam needs parameters of one dtype, got {', '.join(dtypes)}")
        dtype = np.dtype(dtypes[0] if dtypes else np.float32)
        sizes = [p.values.size for _, p in self.named_params]
        self._offsets = [0]
        for size in sizes:
            self._offsets.append(self._offsets[-1] + size)
        total = self._offsets[-1]
        adopted = _flat_span([p.values for _, p in self.named_params], dtype)
        self._values = np.empty(total, dtype) if adopted is None else adopted
        self._grads = np.zeros(total, dtype)
        self._m = np.zeros_like(self._grads)
        self._v = np.zeros_like(self._grads)
        self._value_views = self._views(self._values)
        self._grad_views = self._views(self._grads)
        for (_, p), value, grad in zip(self.named_params, self._value_views, self._grad_views):
            if adopted is None:
                value[...] = p.values
            p.values = value
            p._grad_view = grad
        self._bind_moments()
        # The norm sums each parameter whole: runs of whole parameters of
        # about ADAM_CHUNK elements, as (start, stop, parameter offsets).
        self._runs = []
        first = 0
        for i in range(1, len(sizes) + 1):
            run = self._offsets[i] - self._offsets[first]
            if i == len(sizes) or (run and run + sizes[i] > ADAM_CHUNK):
                lo = self._offsets[first]
                bounds = [o - lo for o in self._offsets[first : i + 1]]
                self._runs.append((lo, self._offsets[i], bounds))
                first = i
        widest = max((stop - start for start, stop, _ in self._runs), default=0)
        self._squares = np.empty(widest, np.float64)
        self._scratch = [np.empty(min(ADAM_CHUNK, total), dtype) for _ in range(2)]

    def _views(self, flat: np.ndarray) -> list:
        return [
            flat[a:b].reshape(p.values.shape)
            for (_, p), a, b in zip(self.named_params, self._offsets, self._offsets[1:])
        ]

    def _bind_moments(self):
        names = [name for name, _ in self.named_params]
        self.m = dict(zip(names, self._views(self._m)))
        self.v = dict(zip(names, self._views(self._v)))

    def _gather(self):
        """Bring every parameter's values and gradient into the arena."""
        for (name, p), value, grad in zip(self.named_params, self._value_views, self._grad_views):
            if p.values is not value:
                if p.values.shape != value.shape or p.values.dtype != value.dtype:
                    raise ConfigError(
                        f"'{name}' became {p.values.dtype}{p.values.shape} after the"
                        f" optimizer was built over {value.dtype}{value.shape}"
                    )
                value[...] = p.values
                p.values = value
            if p.grad is None:
                grad.fill(0)
            elif p.grad is not grad:
                grad[...] = p.grad
                p.grad = grad

    def step(self, lr: float, max_norm: float | None = None) -> float:
        """One update; returns the global gradient norm before clipping.

        With ``max_norm``, gradients whose global norm exceeds it are scaled
        by max_norm / norm, in place, as they are applied.
        """
        check_nonnegative("lr", lr)
        if max_norm is not None and not (math.isfinite(max_norm) and max_norm > 0):
            raise ConfigError(f"max_norm {max_norm} is not finite and > 0")
        self._gather()
        norm = global_grad_norm(self._grads, self._runs, self._squares)
        if not np.isfinite(norm):
            # A finite norm proves every gradient finite; only now look for
            # the culprit (float64 squares can also overflow on their own).
            for (name, p), grad in zip(self.named_params, self._grad_views):
                if p.grad is not None and not np.isfinite(grad).all():
                    raise NumericError(f"non-finite gradient for '{name}'; step aborted")
        scale = max_norm / norm if max_norm is not None and norm > max_norm else None
        self.step_count += 1
        b1, b2, decay = self.beta1, self.beta2, self.weight_decay
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for start in range(0, self._offsets[-1], ADAM_CHUNK):
            stop = start + ADAM_CHUNK
            g, m, v, values = (
                flat[start:stop] for flat in (self._grads, self._m, self._v, self._values)
            )
            a, b = (s[: g.size] for s in self._scratch)
            if scale is not None:
                g *= scale
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            # update = (m / c1) / (sqrt(v / c2) + eps) + decay * values
            np.divide(m, c1, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            if decay:
                np.multiply(values, decay, out=b)
                a += b
            a *= lr
            values -= a
        return norm

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None

    def state_arrays(self) -> dict:
        """Every ``adam.m.*``, then every ``adam.v.*``, in parameter order, so
        that a checkpoint holds each moment as one block."""
        state = {f"adam.m.{name}": a for name, a in self.m.items()}
        state.update({f"adam.v.{name}": a for name, a in self.v.items()})
        return state

    def load_state_arrays(self, arrays: dict, step_count: int):
        """Restore the moments. A moment whose arrays lie back to back, in
        parameter order, in one buffer of the arena's dtype (as a checkpoint
        holds them) is adopted without a copy; otherwise it is copied in."""
        for prefix, attr in (("adam.m.", "_m"), ("adam.v.", "_v")):
            incoming = []
            for name, p in self.named_params:
                key = prefix + name
                if key not in arrays:
                    raise ConfigError(f"optimizer state missing '{key}'")
                if arrays[key].shape != p.values.shape:
                    raise ConfigError(f"optimizer state shape mismatch for '{key}'")
                incoming.append(arrays[key])
            span = _flat_span(incoming, self._values.dtype)
            if span is None:
                for view, a in zip(self._views(getattr(self, attr)), incoming):
                    view[...] = a
            else:
                setattr(self, attr, span)
        self._bind_moments()
        self.step_count = step_count


def global_grad_norm(grads: np.ndarray, runs, squares: np.ndarray) -> float:
    """L2 norm of a flat gradient buffer, in float64.

    ``runs`` are (start, stop, parameter offsets in the run) of whole
    parameters and ``squares`` is float64 scratch as wide as the widest run.
    Each parameter's sum of squares is formed as ``np.sum`` forms it over
    that parameter alone, and the sums are added in parameter order.
    """
    total = 0.0
    for start, stop, bounds in runs:
        sq = squares[: stop - start]
        np.square(grads[start:stop], out=sq, dtype=np.float64)
        for a, b in zip(bounds, bounds[1:]):
            total += float(np.add.reduce(sq[a:b]))
    return float(np.sqrt(total))


def pretrain_step(
    batch_logmels: list[np.ndarray],
    model: ConformerModel,
    optimizer: Adam,
    config: PretrainConfig,
    step: int,
) -> dict:
    """One full training step over a batch of logmel matrices.

    The batch runs as groups of equal-length clips (``model.clip_groups``:
    consecutive clips, at most ``GROUP_ROWS`` rows a group), one graph per
    group. Per group: feature-encode the stacked clips, mask each
    clip, contextualize, contrastive loss (the mean of the clip losses),
    then back-propagate it scaled by group size / B, so only one group's
    graph is alive at a time and the parameter gradients add up over the
    groups. Every clip draws its mask, dropout and distractors from its own
    streams, as it would alone. The logged loss is the mean of the clip
    losses. Aborts atomically on numeric errors.
    """
    if not batch_logmels:
        raise ConfigError("empty batch")
    optimizer.zero_grad()
    scale = 1.0 / len(batch_logmels)
    loss_sum = 0.0
    frame_counts = [(len(f) // model.config.stack_factor,) for f in batch_logmels]
    for group in clip_groups(frame_counts):
        z = model.encode_features([batch_logmels[i] for i in group])
        t = z.shape[0] // len(group)
        mask = np.concatenate([
            sample_mask(
                t,
                rate=config.mask_rate,
                span_length=min(config.mask_span, t),
                rng=step_rng(config.seed, RNG_MASK, step, i),
            )
            for i in group
        ])
        zm = apply_mask(z, mask, model.mask_embedding)
        c = model.contextualize(
            zm, rng=[step_rng(config.seed, RNG_DROPOUT, step, i) for i in group]
        )
        loss = contrastive_loss(
            c,
            z,
            mask,
            config.num_distractors,
            rng=[step_rng(config.seed, RNG_DISTRACTOR, step, i) for i in group],
            temperature=config.temperature,
        )
        loss_sum += float(loss.values) * len(group)
        backward(T.mul(loss, len(group) / len(batch_logmels)))
    lr = pretrain_lr(step, config)
    grad_norm = optimizer.step(lr, config.grad_clip)
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

    A rerun, or a resume after a crash past the last checkpoint, logs steps
    the log already holds; those records, and a line torn by a crash, are
    dropped.
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


def last_step(total_steps: int, max_steps: int | None) -> int:
    """The step a run ends on: ``total_steps``, capped by a positive ``max_steps``."""
    if max_steps is not None and max_steps < 0:
        raise ConfigError(f"max_steps {max_steps} is negative (0 or None means no cap)")
    return min(total_steps, max_steps) if max_steps else total_steps


def training_loop(
    step_fn,
    out_dir: Path,
    start_step: int,
    end_step: int,
    deterministic: bool,
    log,
    checkpoint=None,
):
    """Run ``step_fn(step)`` for steps ``start_step+1 .. end_step``.

    Each returned record goes to ``out_dir/metrics.jsonl``, which is first
    cut back to ``start_step``, and then to ``log``; ``checkpoint(step)``
    runs after every logged step.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    _drop_records_after(metrics_path, start_step)
    with metrics_path.open("a") as handle:
        for step in range(start_step + 1, end_step + 1):
            t0 = time.monotonic()
            record = step_fn(step)
            write_metrics_line(handle, record, deterministic, (time.monotonic() - t0) * 1e3)
            if log is not None:
                log(record)
            if checkpoint is not None:
                checkpoint(step)


def run_pretraining(
    model: ConformerModel,
    logmels: list[np.ndarray],
    config: PretrainConfig,
    out_dir: str | Path,
    max_steps: int | None = None,
    deterministic: bool = True,
    log=None,
) -> Adam:
    """Pretrain with periodic checkpoints and a JSONL metrics log.

    Steps are numbered from 1. When ``out_dir`` holds a ``ckpt-NNNNNNNN``
    checkpoint, the run resumes from the newest one that loads and fits
    (``resume_newest``, which names each newer one it skips): its
    architecture and seed must match (else ConfigError), its model and Adam
    arrays are bound, and a ``resuming from`` line is printed. A checkpoint
    whose model or Adam arrays do not fit, or that has no Adam state, is
    skipped; when none fits, the newest one's StorageError is raised.
    Returns the optimizer.
    """
    check_stackable([len(f) for f in logmels], model.config.stack_factor)
    out_dir = Path(out_dir)
    end_step = last_step(config.total_steps, max_steps)

    def new_adam():
        return Adam(
            list(model.named_parameters()),
            beta1=config.beta1,
            beta2=config.beta2,
            weight_decay=config.weight_decay,
        )

    def resume(ck):
        if ck.model_config != model.config:
            raise ConfigError(f"checkpoint at {ck.path} has a different architecture")
        if ck.seed != config.seed:
            raise ConfigError(f"checkpoint seed {ck.seed} differs from this run's {config.seed}")
        # Bound before Adam is built, so its arena adopts the loaded arrays.
        bind_arrays(ck, model=model)
        optimizer = new_adam()
        bind_arrays(ck, optimizer=optimizer)
        print(f"resuming from {ck.path} at step {ck.step}")
        return optimizer, ck.step

    optimizer, start_step = resume_newest(out_dir, resume) or (new_adam(), 0)
    model.train()

    def step_fn(step):
        rng = step_rng(config.seed, RNG_BATCH, step)
        replace = len(logmels) < config.batch_size
        picks = rng.choice(len(logmels), size=config.batch_size, replace=replace)
        return pretrain_step([logmels[i] for i in picks], model, optimizer, config, step)

    def checkpoint(step):
        if step % config.checkpoint_interval == 0 or step == end_step:
            save_checkpoint(
                out_dir / f"ckpt-{step:08d}",
                model,
                step=step,
                seed=config.seed,
                optimizer=optimizer,
            )

    training_loop(step_fn, out_dir, start_step, end_step, deterministic, log, checkpoint)
    return optimizer

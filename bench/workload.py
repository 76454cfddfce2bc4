"""One benchmark workload in one process (started by run.py).

Each workload is a closed loop: one process runs one training loop and the
next step starts when the last one ends. Inputs come from the seed through
``generate_synthetic_dataset``, written before any timing starts, so the
program under test sees only WAV files and a manifest.

Every run trains at least ``quality_step`` steps. After that step it makes
the checkpoint round trip and the eval pass, so ``final_loss``, the
checkpoint contents and ``eval_map`` depend only on the seed, not on how
many steps fit in the time budget. Then it keeps training until
``--seconds`` of timed steps have run. The first ``warmup_steps`` steps are
never timed: the first cf_S step runs about twice as slow while the heap
grows to its working size.

Every timed sample (a step, an eval pass, a checkpoint save or load) is
followed at once by a reading of a fixed reference kernel, and the
end-to-end times are reported in units of that reading (see ``Reference``).
Set-up is timed in seconds, several times spread over the run.

With ``--trace 1`` the same procedure runs twice in this process, plain and
then with every traced function wrapped, over the same number of steps. The
two loss sequences must be equal bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import melformer
from melformer import data as mdata
from melformer import dsp, finetune, metrics, model, pretrain
from melformer import tensor as T
from melformer.errors import MelformerError

import layers
from tracer import Tracer

TOY = dict(
    num_blocks=2, embed_dim=64, num_heads=4, ffn_dim=128, kernel_first=31, kernel_rest=15, dropout=0.1
)
BATCH_STREAM = 0xBA7C


class Reference:
    """A fixed kernel that measures how fast the host runs at the moment.

    The host is shared, and its speed drifts by up to 1.5x over minutes, in
    user time as well as wall time; a slow stretch can cover a whole run. A
    sample's time divided by a reading of this kernel taken right after it
    moves with the program but much less with the host. The kernel is the
    benchmark's own code and never changes. Host slowdowns hit kinds of
    work unequally (small numpy calls can slow 2x while a large sgemm slows
    1.4x), so each workload reads a kernel made of the work it spends its
    time on: ``MixedReference`` for the toy workloads, ``DenseReference``
    for cf_S.
    """

    def burst(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def work(self):
        raise NotImplementedError

    def read(self, sample_s: float) -> float:
        """Median of at least three bursts, more after a long sample.

        The first burst after a sample runs on caches the sample left cold
        (up to 2x slower after a cf_S step); the median drops it.
        """
        n = min(15, 3 + int(sample_s / 0.1))
        return float(np.median([self.burst() for _ in range(n)]))


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents

    def grad(self, g):
        return g * 0.5 + self.value


class MixedReference(Reference):
    """About 4-5 ms of interpreted Python, small numpy calls in place and
    allocating, short-lived Python objects, a cache-resident sgemm and
    random reads from memory: what a toy step, made of ~1.4k small
    primitive calls, spends its time on. A streaming copy was tried and
    left out: it followed the host worse than any of these."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = {i: i * 3 for i in range(64)}
        self.vec = rng.standard_normal(64, dtype=np.float32)
        self.vec_out = np.empty_like(self.vec)
        self.small = rng.standard_normal((64, 64), dtype=np.float32)
        self.a = rng.standard_normal((192, 192), dtype=np.float32)
        self.b = rng.standard_normal((192, 192), dtype=np.float32)
        self.c = np.empty_like(self.a)
        self.big = rng.standard_normal(8_000_000, dtype=np.float32)  # 32 MB
        self.index = rng.integers(0, self.big.size, 50_000)
        self.gathered = np.empty(self.index.size, np.float32)

    def work(self):
        acc = 0.0
        for i in range(3000):
            acc += self.table[i & 63] ^ (i >> 2)
        for _ in range(150):
            np.multiply(self.vec, 1.5, out=self.vec_out)
            np.add(self.vec_out, self.vec, out=self.vec_out)
        for _ in range(100):
            self.small * 1.5 + self.small
        nodes = [_Node(float(i), (i, {"i": i})) for i in range(1000)]
        for node in nodes:
            acc += node.grad(1.0)
        for _ in range(6):
            np.matmul(self.a, self.b, out=self.c)
        np.take(self.big, self.index, out=self.gathered)


class DenseReference(Reference):
    """About 5-6 ms of cf_S-shaped sgemm (512x256 @ 256x1024, the FFN of
    four 125-frame clips): what a cf_S step, made mostly of large GEMMs,
    spends its time on. An Adam-like streaming update over 32 MB was part
    of it at first; it slowed with the host about twice as much as the
    cf_S step did, so dividing by it added noise instead of removing it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((512, 256), dtype=np.float32)
        self.b = rng.standard_normal((256, 1024), dtype=np.float32)
        self.c = np.empty((512, 1024), np.float32)

    def work(self):
        for _ in range(2):
            np.matmul(self.a, self.b, out=self.c)


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "pretrain" or "finetune"
    model: dict
    clip_seconds: float
    num_classes: int
    clips_per_class: int
    eval_fraction: float
    batch_size: int
    warmup_steps: int
    quality_step: int
    loss_window: int
    # Fixed per workload so the tail is the same statistic on every commit;
    # the loop always times enough steps to leave 10 beyond it.
    tail_percentile: float
    reference: type  # the Reference kernel its times are divided by
    # Set-ups per run; all but the first are spread over the timed steps.
    setup_repeats: int
    # Checkpoint round trips and eval passes per run. Each is one sample
    # whose reference ratio varies by ~15-20% with sub-second load from
    # other tenants, so a steady median needs a few dozen of them.
    samples: int


WORKLOADS = {
    "pretrain-toy": Workload(
        kind="pretrain", model=TOY, clip_seconds=2.0, num_classes=8, clips_per_class=10,
        eval_fraction=0.2, batch_size=8, warmup_steps=5, quality_step=100, loss_window=20,
        tail_percentile=90.0, reference=MixedReference, setup_repeats=7, samples=40,
    ),
    # Batch 4, not 8: a step takes ~2 s instead of ~4 s, so a run times
    # about a dozen steps and the medians hold still; the step stays
    # GEMM- and bandwidth-bound, and Adam still sweeps all 18.4M parameters.
    "pretrain-cfS": Workload(
        kind="pretrain", model=dict(model.PRESETS["cf_S"]), clip_seconds=10.0, num_classes=4,
        clips_per_class=5, eval_fraction=0.2, batch_size=4, warmup_steps=1, quality_step=4,
        loss_window=3, tail_percentile=100.0, reference=DenseReference, setup_repeats=3,
        samples=12,
    ),
    "finetune-toy": Workload(
        kind="finetune", model=TOY, clip_seconds=2.0, num_classes=8, clips_per_class=18,
        eval_fraction=1.0 / 3.0, batch_size=16, warmup_steps=2, quality_step=40, loss_window=10,
        tail_percentile=75.0, reference=MixedReference, setup_repeats=15, samples=30,
    ),
}

# Seconds-not-minutes variant for the self-check: same code paths, smaller
# model and data, so the numbers are not comparable to full runs.
QUICK = dict(
    clips_per_class=3, quality_step=3, loss_window=2, warmup_steps=1, tail_percentile=100.0,
    setup_repeats=2, samples=2,
)


def quick(w: Workload) -> Workload:
    w = dataclasses.replace(w, **QUICK)
    if w.model is not TOY:
        w = dataclasses.replace(w, model=dict(w.model, num_blocks=1), clip_seconds=2.0)
    return w

PRETRAIN_SECTION = dict(peak_lr=1e-3, warmup_steps=100, total_steps=2000)
FINETUNE_SECTION = dict(peak_lr=1e-3, total_steps=600, output_dropout=0.1)


def min_timed_steps(w: Workload) -> int:
    if w.tail_percentile >= 100.0:
        return 1
    return math.ceil(10 / (1.0 - w.tail_percentile / 100.0))


class Run:
    """Model, head, optimizer and data of one workload; building it is the
    timed set-up (manifest and WAV reads, logmel precompute for pretraining,
    model and Adam construction)."""

    def __init__(self, w: Workload, seed: int, data_dir: Path):
        self.w, self.seed = w, seed
        manifest = mdata.read_manifest(data_dir / "manifest.tsv")
        config = model.ModelConfig(**w.model)
        self.filterbank = None
        self.head = None
        if w.kind == "pretrain":
            self.train = self._logmels(manifest, data_dir, "train")
            self.eval = self._logmels(manifest, data_dir, "eval")
            self.config = pretrain.PretrainConfig(
                batch_size=w.batch_size, seed=seed, **PRETRAIN_SECTION
            )
            self.model = model.ConformerModel(config, seed=seed)
            named = list(self.model.named_parameters())
            self.optimizer = pretrain.Adam(
                named, beta1=self.config.beta1, beta2=self.config.beta2,
                weight_decay=self.config.weight_decay,
            )
            self.sample_p = None
        else:
            self.train = mdata.load_examples(manifest, data_dir, "train")
            self.eval = mdata.load_examples(manifest, data_dir, "eval")
            self.config = finetune.FinetuneConfig(
                num_classes=len(manifest.vocabulary), batch_size=w.batch_size, seed=seed,
                **FINETUNE_SECTION,
            )
            self.filterbank = dsp.mel_filterbank()
            self.model = model.ConformerModel(config, seed=seed)
            self.head = finetune.make_head(
                self.config.head_kind, config.latent_dim, self.config.num_classes, seed=seed
            )
            named = list(self.model.named_parameters()) + [
                (f"head.{n}", p) for n, p in self.head.named_parameters()
            ]
            self.optimizer = pretrain.Adam(named)
            weights = finetune.balance_weights(np.stack([ex.targets for ex in self.train]))
            self.sample_p = weights / weights.sum()
            self.prior_floor = float(np.stack([ex.targets for ex in self.eval]).mean())

    @staticmethod
    def _logmels(manifest, data_dir, split):
        return [
            dsp.logmel(mdata.read_wav(data_dir / r.audio_path)).frames.astype(np.float32)
            for r in manifest.split(split)
        ]

    def step(self, step: int) -> float:
        n = len(self.train)
        rng = np.random.default_rng([self.seed, BATCH_STREAM, step])
        size = self.w.batch_size if self.w.kind == "pretrain" else min(self.w.batch_size, n)
        picks = rng.choice(n, size=size, replace=n < self.w.batch_size, p=self.sample_p)
        batch = [self.train[i] for i in picks]
        if self.w.kind == "pretrain":
            record = pretrain.pretrain_step(batch, self.model, self.optimizer, self.config, step)
        else:
            record = finetune.finetune_step(
                batch, self.model, self.head, self.optimizer, self.config, step, self.filterbank
            )
        return record["loss"]

    def forward_eval(self, net, head, clip) -> np.ndarray:
        """One eval-mode, no-grad forward; the output a user would read."""
        net.eval()
        try:
            with T.no_grad():
                if self.w.kind == "pretrain":
                    return net.embed(clip).values.copy()
                frames = dsp.logmel(dsp.Waveform(clip.waveform), self.filterbank).frames
                return head(net.contextualize(net.encode_features(frames))).values.copy()
        finally:
            net.train()

    def eval_pass(self) -> tuple[int, int, float | None]:
        """(clips, failed clips, mAP or None)."""
        if self.w.kind == "pretrain":
            failed = 0
            for clip in self.eval:
                if not np.all(np.isfinite(self.forward_eval(self.model, None, clip))):
                    failed += 1
            return len(self.eval), failed, None
        report = finetune.evaluate_model(self.model, self.head, self.eval, self.filterbank)
        ok = math.isfinite(report.map_score)
        return len(self.eval), 0 if ok else len(self.eval), report.map_score

    def live_arrays(self) -> dict:
        arrays = dict(self.model.state_arrays())
        if self.head is not None:
            arrays.update({f"head.{n}": a for n, a in self.head.state_arrays().items()})
        return arrays

    def save(self, path: Path, step: int):
        extra = None
        if self.head is not None:
            extra = {f"head.{n}": p.values for n, p in self.head.named_parameters()}
        mdata.save_checkpoint(
            path, self.model, step=step, seed=self.seed, optimizer=self.optimizer,
            extra_arrays=extra,
        )

    def check_round_trip(self, ck) -> list[str]:
        """Bit-exact arrays and Adam state, and a bit-identical restored forward."""
        problems = []
        if not _same_arrays(ck.arrays, self.live_arrays()):
            problems.append("checkpoint parameters/buffers differ from the live model")
        if not _same_arrays(ck.optimizer_arrays or {}, self.optimizer.state_arrays()):
            problems.append("checkpoint Adam moments differ from the live optimizer")
        if ck.optimizer_step != self.optimizer.step_count:
            problems.append("checkpoint Adam step count differs")
        restored = mdata.restore_model(ck)
        head = None
        if self.head is not None:
            head = finetune.make_head(
                self.config.head_kind, restored.config.latent_dim, self.config.num_classes,
                seed=self.seed,
            )
            head.load_state_arrays(
                {n[len("head."):]: a for n, a in ck.arrays.items() if n.startswith("head.")}
            )
        clip = self.eval[0]
        live = self.forward_eval(self.model, self.head, clip)
        again = self.forward_eval(restored, head, clip)
        if live.tobytes() != again.tobytes():
            problems.append("restored model's eval forward differs from the live model")
        return problems


def _same_arrays(a: dict, b: dict) -> bool:
    if sorted(a) != sorted(b):
        return False
    return all(a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Samples:
    """Seconds of each timed sample, by kind, with the reference reading
    taken right after it."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.seconds: dict[str, list[float]] = {}
        self.refs: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def timed(self, kind: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds.setdefault(kind, []).append(dt)
            self.refs.setdefault(kind, []).append(self.reference.read(dt))

    def raw(self, kind: str) -> list[float]:
        return self.seconds.get(kind, [])

    def in_refs(self, kind: str) -> np.ndarray:
        return np.divide(self.raw(kind), self.refs.get(kind, []))


def run_procedure(w, seed, data_dir, work_dir, seconds, outcome, reference, tracer=None, steps=None):
    """Setup, training loop, checkpoint round trips and eval passes.

    With ``steps`` given, exactly that many steps run (the traced replay)
    and the checkpoint, eval and set-up are sampled once; otherwise the loop
    runs until ``seconds`` of timed steps have passed. The first checkpoint
    and eval sample come right after ``quality_step`` and carry the checks.
    The rest, and the set-up repeats after the first, are spread evenly over
    the timed steps, so that they see the host as the steps do.
    """

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    samples = Samples(reference)

    def setup():
        with samples.timed("setup"), span("bench.setup"):
            return Run(w, seed, data_dir)

    run = setup()
    replay = steps is not None
    n_samples = 1 if replay else w.samples
    n_setups = 1 if replay else w.setup_repeats
    ckpt = {}
    evals = {"clips": [], "map": None}
    losses = []
    need_timed = min_timed_steps(w)

    def due(done: int, total: int) -> bool:
        return sum(samples.raw("step")) >= done * seconds / total

    def sample(step, checks=None):
        checkpoint_round_trip(run, step, work_dir, ckpt, samples, span, checks)
        eval_pass(run, evals, samples, span, checks)
        done = len(samples.raw("setup"))
        if done < n_setups and due(done - 1, n_setups - 1):
            setup()  # a throwaway build, timed like the first

    step = 0
    while True:
        if replay:
            if step >= steps:
                break
        elif (
            step >= w.quality_step
            and len(samples.raw("step")) >= need_timed
            and sum(samples.raw("step")) >= seconds
        ):
            break
        step += 1
        warm = step <= w.warmup_steps
        with samples.timed("warmup" if warm else "step"):
            try:
                with span("bench.warmup_step" if warm else "bench.train_step"):
                    loss = run.step(step)
            except MelformerError as exc:
                loss = float("nan")
                print(f"step {step} failed: {exc}", file=sys.stderr)
        outcome.check(math.isfinite(loss), f"step {step}: non-finite loss")
        losses.append(loss)
        if step == w.quality_step:
            sample(step, outcome)
        elif step > w.quality_step and len(samples.raw("save")) < n_samples:
            if due(len(samples.raw("save")), n_samples):
                sample(step)
    while len(samples.raw("save")) < n_samples:
        sample(step)
    while len(samples.raw("setup")) < n_setups:
        setup()
    return {
        "samples": samples,
        "losses": losses,
        "ckpt": ckpt,
        "eval": evals,
        "prior_floor": getattr(run, "prior_floor", None),
        "steps": step,
    }


def checkpoint_round_trip(run, step, work_dir, ckpt, samples, span, outcome=None):
    """Timed save and load; with ``outcome``, also the round-trip checks."""
    path = work_dir / "ckpt"
    with samples.timed("save"), span("bench.ckpt_save"):
        run.save(path, step)
    with samples.timed("load"), span("bench.ckpt_load"):
        ck = mdata.load_checkpoint(path)
    if outcome is not None:
        problems = run.check_round_trip(ck)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        outcome.check(not problems, "checkpoint round trip")
        ckpt["bytes"] = _dir_bytes(path)


def eval_pass(run, evals, samples, span, outcome=None):
    """One timed pass over the eval split; with ``outcome``, its checks."""
    with samples.timed("eval"), span("bench.eval"):
        clips, failed, eval_map = run.eval_pass()
    evals["clips"].append(clips)
    if outcome is None:
        return
    for i in range(clips):
        outcome.check(i >= failed, "eval clip with a non-finite output")
    if eval_map is not None:
        evals["map"] = eval_map
        outcome.check(
            eval_map > run.prior_floor,
            f"eval mAP {eval_map:.4f} not above the class-prior floor {run.prior_floor:.4f}",
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w, record) -> tuple[dict, dict]:
    samples = record["samples"]
    losses = record["losses"]
    window = losses[w.quality_step - w.loss_window : w.quality_step]
    steps = samples.in_refs("step")
    # The tail is a few slow steps; each divided by its own reading would
    # add that reading's scatter to the extremes, so the tail is divided by
    # the run's median step reading, which removes only the host's speed.
    step_ref = float(np.median(samples.refs["step"]))
    raw_steps = samples.raw("step")
    eval_rates = np.divide(record["eval"]["clips"], samples.in_refs("eval"))
    tail_n_beyond = int(round(len(steps) * (1.0 - w.tail_percentile / 100.0)))
    metrics_ = {
        "setup_s": float(np.median(samples.raw("setup"))),
        "train_clips_per_ref": w.batch_size * len(steps) / float(np.sum(steps)),
        "step_ref_p50": float(np.median(steps)),
        "step_ref_tail": float(np.percentile(raw_steps, w.tail_percentile)) / step_ref,
        "eval_clips_per_ref": float(np.median(eval_rates)),
        "ckpt_save_ref": float(np.median(samples.in_refs("save"))),
        "ckpt_load_ref": float(np.median(samples.in_refs("load"))),
        "peak_rss_mb": peak_rss_mb(),
        "final_loss": float(np.mean(window)),
    }
    details = {
        "steps": record["steps"],
        "timed_steps": len(steps),
        "warmup_steps_untimed": w.warmup_steps,
        "step_tail_percentile": w.tail_percentile,
        "step_tail_steps_beyond": tail_n_beyond,
        "final_loss_steps": [w.quality_step - w.loss_window + 1, w.quality_step],
        "eval_map": record["eval"]["map"],
        "eval_map_prior_floor": record["prior_floor"],
        "ckpt_bytes": record["ckpt"]["bytes"],
        "reference_s_p50": step_ref,
        # The same statistics in seconds, as this host ran them.
        "seconds": {
            "train_clips_per_s": w.batch_size * len(raw_steps) / sum(raw_steps),
            "step_s_p50": float(np.median(raw_steps)),
            "step_s_tail": float(np.percentile(raw_steps, w.tail_percentile)),
            "eval_clips_per_s": float(
                np.median(np.divide(record["eval"]["clips"], samples.raw("eval")))
            ),
            "ckpt_save_s": float(np.median(samples.raw("save"))),
            "ckpt_load_s": float(np.median(samples.raw("load"))),
        },
        "samples_s": samples.seconds,
        "samples_ref_s": samples.refs,
    }
    return metrics_, details


# ---------------------------------------------------------------------------
# Traced run

# Primitives reported by name: the ten with the most self time across the
# three workloads at the commit that defined the benchmark. Every other
# primitive is still traced and kept in the details.
TOP_OPS = (
    "matmul", "layer_norm", "dropout", "add", "conv1d",
    "col_slice", "swish", "softmax", "mul", "batch_norm",
)
NOT_OPS = {"Tensor", "parameter", "no_grad", "grad_check", "backward"}


def _tensor_measure(name):
    def measure(args, kwargs, out):
        nbytes = out.values.nbytes if isinstance(out, T.Tensor) else 0
        flops = 0
        if name == "matmul":
            a, b = args[0].values, args[1].values
            flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
        elif name == "conv1d":
            groups = args[2] if len(args) > 2 else kwargs.get("groups", 1)
            k = args[1].values
            if groups == 1 and k.ndim == 3:
                flops = 2 * args[0].values.shape[0] * k.shape[0] * k.shape[1] * k.shape[2]
        return nbytes, flops

    return measure


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; returns the names found missing."""
    missing = []
    for name in T.__all__:
        fn = getattr(T, name, None)
        if name in NOT_OPS or not callable(fn) or isinstance(fn, type):
            continue
        tracer.patch_function(fn, f"tensor.{name}", _tensor_measure(name))
    functions = [
        (T, "backward", "tensor.backward"),
        (model, "sample_mask", "model.sample_mask"),
        (model, "apply_mask", "model.apply_mask"),
        (pretrain, "pretrain_step", "pretrain.step"),
        (pretrain, "contrastive_loss", "pretrain.contrastive_loss"),
        (pretrain, "sample_distractors", "pretrain.sample_distractors"),
        (pretrain, "global_grad_norm", "pretrain.grad_norm"),
        (finetune, "finetune_step", "finetune.step"),
        (finetune, "temporal_jitter", "finetune.temporal_jitter"),
        (finetune, "time_mask_augment", "finetune.time_mask"),
        (finetune, "mixup_batch", "finetune.mixup"),
        (finetune, "bce_loss", "finetune.bce_loss"),
        (finetune, "consistency_loss", "finetune.consistency_loss"),
        (finetune, "evaluate_model", "finetune.evaluate_model"),
        (dsp, "logmel", "dsp.logmel"),
        (mdata, "read_wav", "data.read_wav"),
        (mdata, "save_checkpoint", "data.save_checkpoint"),
        (mdata, "load_checkpoint", "data.load_checkpoint"),
        (metrics, "evaluate_scores", "metrics.evaluate_scores"),
    ]
    for module, attr, span_name in functions:
        fn = getattr(module, attr, None)
        if fn is None or not tracer.patch_function(fn, span_name):
            missing.append(f"{module.__name__}.{attr}")
    methods = [
        (model.ConformerModel, "encode_features", "model.encode_features"),
        (model.ConformerModel, "contextualize", "model.contextualize"),
        (model.ConformerBlock, "__call__", "model.block_fwd"),
        (model.FeedForward, "__call__", "model.ffn_fwd"),
        (model.ConvolutionModule, "__call__", "model.conv_fwd"),
        (model.SelfAttention, "__call__", "model.attention_fwd"),
        (pretrain.Adam, "step", "pretrain.adam_step"),
        (finetune.FramewiseHead, "__call__", "finetune.head_fwd"),
        (finetune.MeanPoolHead, "__call__", "finetune.head_fwd"),
    ]
    for cls, attr, span_name in methods:
        if not tracer.patch_method(cls, attr, span_name):
            missing.append(f"{cls.__name__}.{attr}")
    return missing


def per_layer(tracer: Tracer, record: dict, traced_times, plain_times, sgemm) -> tuple[dict, dict]:
    steps = max(1, len(record["samples"].raw("step")))
    train = tracer.summarize("bench.train_step")
    setup = tracer.summarize("bench.setup")
    evals = tracer.summarize("bench.eval")
    saves = tracer.summarize("bench.ckpt_save")
    loads = tracer.summarize("bench.ckpt_load")

    def per_step(name, key="incl_s", table=train):
        return table.get(name, {}).get(key, 0) / steps

    def per_call(name, table):
        entry = table.get(name)
        return entry["incl_s"] / entry["calls"] if entry else 0.0

    ops = {k[len("tensor."):]: v for k, v in train.items() if k.startswith("tensor.") and k != "tensor.backward"}
    step_s = per_step("pretrain.step") + per_step("finetune.step")
    gemm_flops = sum(v["flops"] for v in ops.values())
    gemm_s = sum(v["flops_self_s"] for v in ops.values())
    m = {
        "tensor.ops_per_step": sum(v["leaf_calls"] for v in ops.values()) / steps,
        "tensor.fwd_out_bytes_per_step": sum(v["out_bytes"] for v in ops.values()) / steps,
        "tensor.backward_s": per_step("tensor.backward"),
        "tensor.matmul_gflops_per_step": gemm_flops / steps / 1e9,
        "tensor.matmul_eff": (gemm_flops / gemm_s / (sgemm * 1e9)) if gemm_s else 0.0,
    }
    for op in TOP_OPS:
        m[f"tensor.op_calls.{op}"] = ops.get(op, {}).get("calls", 0) / steps
        m[f"tensor.fwd_s.{op}"] = ops.get(op, {}).get("self_s", 0.0) / steps
    for name in (
        "encode_features", "contextualize", "block_fwd", "ffn_fwd", "conv_fwd",
        "attention_fwd", "sample_mask", "apply_mask",
    ):
        m[f"model.{name}_s"] = per_step(f"model.{name}")
    m["pretrain.step_s"] = per_step("pretrain.step")
    m["pretrain.contrastive_loss_s"] = per_step("pretrain.contrastive_loss")
    m["pretrain.sample_distractors_calls_per_step"] = per_step("pretrain.sample_distractors", "calls")
    m["pretrain.sample_distractors_s"] = per_step("pretrain.sample_distractors")
    m["pretrain.grad_norm_s"] = per_step("pretrain.grad_norm")
    m["pretrain.adam_step_s"] = per_step("pretrain.adam_step")
    for name in ("step", "temporal_jitter", "time_mask", "mixup", "head_fwd", "bce_loss", "consistency_loss"):
        m[f"finetune.{name}_s"] = per_step(f"finetune.{name}")
    m["finetune.evaluate_model_s"] = per_call("finetune.evaluate_model", evals)
    m["dsp.logmel_calls_per_step"] = per_step("dsp.logmel", "calls")
    m["dsp.logmel_s"] = per_step("dsp.logmel")
    m["dsp.logmel_share_of_step"] = m["dsp.logmel_s"] / step_s if step_s else 0.0
    m["data.read_wav_s"] = per_call("data.read_wav", setup)
    m["data.save_checkpoint_s"] = per_call("data.save_checkpoint", saves)
    m["data.load_checkpoint_s"] = per_call("data.load_checkpoint", loads)
    m["data.ckpt_bytes"] = record["ckpt"]["bytes"]
    m["metrics.evaluate_scores_s"] = per_call("metrics.evaluate_scores", evals)
    # Both passes run the same steps, so compare them step by step.
    plain = float(np.median(plain_times))
    m["trace.overhead_s"] = float(np.median(np.subtract(traced_times, plain_times)))
    m["trace.overhead_share"] = m["trace.overhead_s"] / plain
    m["machine.sgemm_gflops"] = sgemm
    details = {
        "steps_traced": steps,
        "all_ops_per_step": {
            op: {
                "calls": v["calls"] / steps,
                "self_s": v["self_s"] / steps,
                "out_bytes": v["out_bytes"] / steps,
                "gflops": v["flops"] / steps / 1e9,
            }
            for op, v in sorted(ops.items(), key=lambda kv: -kv[1]["self_s"])
        },
        "untraced_step_s_p50": plain,
        "traced_step_s_p50": float(np.median(traced_times)),
    }
    return m, details


def trace_run(w, seed, data_dir, work_dir, seconds, outcome, reference, quick, out_dir):
    plain = run_procedure(w, seed, data_dir, work_dir, seconds / 2, outcome, reference)
    tracer = Tracer()
    missing = install(tracer)
    try:
        traced = run_procedure(
            w, seed, data_dir, work_dir, seconds, outcome, reference, tracer=tracer,
            steps=plain["steps"],
        )
    finally:
        tracer.restore()
    same = [np.float64(a).tobytes() for a in plain["losses"]] == [
        np.float64(b).tobytes() for b in traced["losses"]
    ]
    outcome.check(same, "traced loss sequence differs from the untraced run")
    sgemm = layers.sgemm_gflops(0.05 if quick else 0.3)
    metrics_, details = per_layer(
        tracer, traced, traced["samples"].raw("step"), plain["samples"].raw("step"), sgemm
    )
    layer_metrics, layer_details = layers.run_layer_cases(
        sgemm, min_seconds=0.0 if quick else 0.25, min_reps=1 if quick else 5
    )
    metrics_.update(layer_metrics)
    details.update(
        traced_functions_missing=missing,
        layer_cases=layer_details,
        losses_untraced=plain["losses"],
        losses_traced=traced["losses"],
    )
    tracer.save(out_dir / "spans.npz")
    return metrics_, details


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    """Versions, thread settings and source identity of this run."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    root = Path(melformer.__file__).resolve().parents[2]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "melformer": getattr(melformer, "__version__", "?"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.quick:
        w = quick(w)
    data_dir = args.work_dir / "data"
    mdata.generate_synthetic_dataset(
        num_classes=w.num_classes, clips_per_class=w.clips_per_class,
        clip_seconds=w.clip_seconds, seed=args.seed, out_dir=data_dir,
        eval_fraction=w.eval_fraction,
    )
    outcome = Outcome()
    reference = w.reference()
    if args.trace:
        metrics_, details = trace_run(
            w, args.seed, data_dir, args.work_dir, args.seconds, outcome, reference, args.quick,
            args.out.parent,
        )
    else:
        record = run_procedure(
            w, args.seed, data_dir, args.work_dir, args.seconds, outcome, reference
        )
        metrics_, details = end_to_end(w, record)
        details["losses"] = record["losses"]
    details["environment"] = environment(args.seed)
    details["failures"] = outcome.failures
    args.out.write_text(
        json.dumps(
            {
                "attempted": outcome.attempted,
                "failed": len(outcome.failures),
                "metrics": metrics_,
                "details": details,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

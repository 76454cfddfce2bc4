"""Layer micro-cases and the machine's sgemm rate.

Each case times one layer in isolation at the toy shape (2 s clip: 25
latent frames, 64-d) and the cf_S shape (10 s clip: 125 latent frames,
256-d), forward and forward+backward, in training mode as inside a
training step. FLOPs are analytic; efficiency is achieved FLOP/s over the
sgemm rate measured in the same process.
"""

from __future__ import annotations

import math
import time

import numpy as np

from melformer import dsp, finetune, model, pretrain
from melformer import tensor as T

SHAPES = {
    "toy": dict(frames=25, dim=64, heads=4, ffn=128, kernel=15, classes=8, seconds=2.0),
    "cfS": dict(frames=125, dim=256, heads=8, ffn=1024, kernel=15, classes=8, seconds=10.0),
}
GEMM_CASES = ("ffn", "conv", "mhsa", "block")
DROPOUT = 0.1
NUM_DISTRACTORS = 100


def median_time(fn, min_seconds: float, min_reps: int, max_reps: int = 400) -> float:
    """Median wall time of fn() after one untimed warm-up call."""
    fn()
    times = []
    total = 0.0
    while len(times) < min_reps or (total < min_seconds and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
    return float(np.median(times))


def sgemm_gflops(min_seconds: float = 0.3) -> float:
    """float32 1024^3 matmul rate on the current BLAS thread setting."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 1024), dtype=np.float32)
    b = rng.standard_normal((1024, 1024), dtype=np.float32)
    seconds = median_time(lambda: a @ b, min_seconds, min_reps=5)
    return 2 * 1024**3 / seconds / 1e9


def _gemm_flops(case: str, s: dict) -> int:
    t, d, f = s["frames"], s["dim"], s["ffn"]
    ffn = 4 * t * d * f
    conv = 6 * t * d * d + 2 * t * d * s["kernel"]
    mhsa = 8 * t * d * d + 4 * t * t * d
    return {"ffn": ffn, "conv": conv, "mhsa": mhsa, "block": 2 * ffn + conv + mhsa}[case]


def _module_case(case: str, s: dict, rng):
    d = s["dim"]
    if case == "ffn":
        layer = model.FeedForward(d, s["ffn"], DROPOUT, rng)
    elif case == "conv":
        layer = model.ConvolutionModule(d, s["kernel"], DROPOUT, rng)
    elif case == "mhsa":
        layer = model.SelfAttention(d, s["heads"], DROPOUT, rng)
    else:
        layer = model.ConformerBlock(d, s["heads"], s["ffn"], s["kernel"], DROPOUT, rng)
    x = rng.standard_normal((s["frames"], d)).astype(np.float32)

    def forward():
        return layer(T.Tensor(x, requires_grad=True), np.random.default_rng(1))

    return forward, layer.parameters()


def _contrastive_case(s: dict, rng):
    t, d = s["frames"], s["dim"]
    context = rng.standard_normal((t, d)).astype(np.float32)
    latents = rng.standard_normal((t, d)).astype(np.float32)
    mask = model.sample_mask(t, rng=np.random.default_rng(2))
    m = int(mask.sum())
    flops = 2 * m * t * d + 6 * 2 * t * d

    def forward():
        return pretrain.contrastive_loss(
            T.Tensor(context, requires_grad=True),
            T.Tensor(latents, requires_grad=True),
            mask,
            NUM_DISTRACTORS,
            np.random.default_rng(3),
        )

    return forward, [], flops


def _head_case(kind: str, s: dict, rng):
    t, d, c = s["frames"], s["dim"], s["classes"]
    head = finetune.make_head(kind, d, c, seed=0)
    context = rng.standard_normal((t, d)).astype(np.float32)
    flops = 2 * t * d * c + 4 * t * c if kind == "linear-softmax-pool" else t * d + 2 * d * c

    def forward():
        return head(T.Tensor(context, requires_grad=True))

    return forward, head.parameters(), flops


def _fwd_bwd(forward, params):
    def run():
        out = forward()
        T.backward(T.reduce_sum(out) if out.values.size > 1 else out)
        for p in params:
            p.grad = None

    return run


def _adam_case(s: dict, scale: str):
    if scale == "toy":
        config = model.ModelConfig(
            num_blocks=2, embed_dim=64, num_heads=4, ffn_dim=128, kernel_first=31, kernel_rest=15
        )
    else:
        config = model.ModelConfig.preset("cf_S")
    net = model.ConformerModel(config, seed=0)
    named = list(net.named_parameters())
    rng = np.random.default_rng(4)
    for _, p in named:
        p.grad = (1e-3 * rng.standard_normal(p.values.shape)).astype(p.values.dtype)
    optimizer = pretrain.Adam(named, beta1=0.9, beta2=0.98, weight_decay=0.01)
    count = sum(p.values.size for _, p in named)
    # m, v, bias correction, sqrt, divide, decay, update: ~12 FLOPs a parameter.
    return (lambda: optimizer.step(1e-4)), 12 * count


def _logmel_case(s: dict):
    n = int(s["seconds"] * dsp.SAMPLE_RATE)
    wave = dsp.Waveform(0.1 * np.random.default_rng(5).standard_normal(n))
    filterbank = dsp.mel_filterbank()
    frames = -(-n // dsp.HOP_SAMPLES)
    bins = dsp.WINDOW_SAMPLES // 2 + 1
    fft = 2.5 * dsp.WINDOW_SAMPLES * math.log2(dsp.WINDOW_SAMPLES)
    flops = int(frames * (fft + 3 * bins + 2 * bins * dsp.NUM_MEL_BANDS))
    return (lambda: dsp.logmel(wave, filterbank)), flops


def run_layer_cases(sgemm: float, min_seconds: float, min_reps: int) -> tuple[dict, dict]:
    """Returns (metrics, details). Metric names: layer.<case>.<fwd|fwd_bwd>.<scale>."""
    metrics, details = {}, {}

    def record(name, seconds, flops, gemm):
        metrics[name] = seconds
        eff = flops / seconds / (sgemm * 1e9)
        details[name] = {"seconds": seconds, "flops": flops, "eff": eff}
        if gemm:
            metrics[name + ".eff"] = eff

    for scale, s in SHAPES.items():
        rng = np.random.default_rng(0)
        cases = []
        for case in GEMM_CASES:
            forward, params = _module_case(case, s, rng)
            cases.append((case, forward, params, _gemm_flops(case, s), True))
        forward, params, flops = _contrastive_case(s, rng)
        cases.append(("contrastive_loss", forward, params, flops, False))
        for kind, label in (("mean-pool", "head_mean_pool"), ("linear-softmax-pool", "head_linear_softmax_pool")):
            forward, params, flops = _head_case(kind, s, rng)
            cases.append((label, forward, params, flops, False))
        for case, forward, params, flops, gemm in cases:
            record(f"layer.{case}.fwd.{scale}", median_time(forward, min_seconds, min_reps), flops, gemm)
            run = _fwd_bwd(forward, params)
            record(
                f"layer.{case}.fwd_bwd.{scale}",
                median_time(run, min_seconds, min_reps),
                3 * flops,
                gemm,
            )
        step, flops = _adam_case(s, scale)
        record(f"layer.adam_step.fwd.{scale}", median_time(step, min_seconds, min_reps), flops, False)
        del step
        forward, flops = _logmel_case(s)
        record(f"layer.logmel.fwd.{scale}", median_time(forward, min_seconds, min_reps), flops, False)
    return metrics, details

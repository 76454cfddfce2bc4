"""Pretraining: distractor sampling, contrastive loss closed forms, schedule, Adam."""

import math

import numpy as np
import pytest

from melformer import pretrain as pretrain_module
from melformer import tensor as T
from melformer.errors import ConfigError, NumericError, ShapeError
from melformer.model import (
    GROUP_ROWS,
    ConformerModel,
    ModelConfig,
    apply_mask,
    clip_groups,
    sample_mask,
)
from melformer.pretrain import (
    RNG_DISTRACTOR,
    RNG_DROPOUT,
    RNG_MASK,
    Adam,
    PretrainConfig,
    contrastive_loss,
    pretrain_lr,
    pretrain_step,
    run_pretraining,
    sample_distractors,
    step_rng,
)
from melformer.tensor import Tensor


def toy_pretrain_config(**overrides):
    base = dict(
        num_distractors=100,
        mask_rate=0.30,
        mask_span=3,
        peak_lr=1e-3,
        warmup_steps=10,
        total_steps=100,
        batch_size=2,
        seed=0,
    )
    base.update(overrides)
    return PretrainConfig(**base)


class TestSampleDistractors:
    @staticmethod
    def assert_rows_valid(masked, got):
        for step, row in zip(masked, got):
            assert step not in row
            assert len(set(row.tolist())) == row.size
            assert set(row.tolist()) <= set(masked.tolist())

    def test_shrinks_to_available_candidates(self):
        masked = np.arange(40) * 3
        got = sample_distractors(masked, num_distractors=100, rng=np.random.default_rng(0))
        assert got.shape == (40, 39)
        self.assert_rows_valid(masked, got)
        lone = sample_distractors(np.array([4]), num_distractors=5, rng=np.random.default_rng(3))
        assert lone.shape == (1, 0)

    def test_exactly_k_when_enough_masked(self):
        masked = np.arange(150)
        got = sample_distractors(masked, num_distractors=100, rng=np.random.default_rng(1))
        assert got.shape == (150, 100)
        self.assert_rows_valid(masked, got)

    def test_k_zero_gives_empty_set(self):
        got = sample_distractors(np.arange(10), num_distractors=0, rng=np.random.default_rng(2))
        assert got.shape == (10, 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="negative distractor count -1"):
            sample_distractors(np.arange(10), num_distractors=-1, rng=np.random.default_rng(2))

    def test_draws_cover_candidates_uniformly(self):
        masked = np.arange(6)
        counts = np.zeros((6, 6))
        rng = np.random.default_rng(4)
        for _ in range(4000):
            got = sample_distractors(masked, num_distractors=2, rng=rng)
            np.add.at(counts, (np.repeat(masked, 2), got.ravel()), 1)
        assert np.all(np.diag(counts) == 0)
        # Each row picks each of its 5 other steps ~ 4000 * 2/5 times.
        off_diagonal = counts[~np.eye(6, dtype=bool)]
        np.testing.assert_allclose(off_diagonal / 4000.0, 0.4, atol=0.05)


class TestContrastiveLoss:
    def test_identical_candidates_give_ln_k_plus_1(self):
        """All candidates equal the true latent -> uniform softmax -> ln(101)."""
        t_frames = 150
        z = Tensor(np.tile(np.array([[0.3, -0.2, 0.9]]), (t_frames, 1)))
        c = Tensor(np.random.default_rng(5).normal(size=(t_frames, 3)))
        mask = np.ones(t_frames, dtype=bool)
        loss = contrastive_loss(c, z, mask, 100, np.random.default_rng(6))
        assert abs(loss.item() - math.log(101.0)) < 1e-6

    def test_perfect_alignment_against_opposed_distractors(self):
        """Step 0 has sim(c,z_t)=1 against 100 sims of -1 -> ln(1 + 100 e^-2).

        With 101 masked steps and K=100 every other step is a distractor, so
        candidates are deterministic. Rows 1..100 use contexts orthogonal to
        every latent and contribute exactly ln(101) each, which makes the
        batch mean a closed form.
        """
        v = np.array([100.0, 0.0, 0.0])
        w = np.array([0.0, 100.0, 0.0])
        z = np.tile(-v, (101, 1))
        z[0] = v
        c = np.tile(w, (101, 1))
        c[0] = v
        mask = np.ones(101, dtype=bool)
        loss = contrastive_loss(
            Tensor(c), Tensor(z),
            mask, 100, np.random.default_rng(7),
        )
        row0 = math.log(1.0 + 100.0 * math.exp(-2.0))
        assert row0 == pytest.approx(2.6765, abs=1e-4)
        expected = (row0 + 100.0 * math.log(101.0)) / 101.0
        assert abs(loss.item() - expected) < 1e-6

    def test_k_zero_single_candidate_loss_is_zero(self):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(6, 4)))
        c = Tensor(rng.normal(size=(6, 4)))
        mask = np.ones(6, dtype=bool)
        loss = contrastive_loss(c, z, mask, 0, np.random.default_rng(10))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_single_masked_step_is_skipped(self):
        """A lone masked step scores only itself: zero loss, zero gradient."""
        rng = np.random.default_rng(11)
        z = T.parameter(rng.normal(size=(6, 4)))
        c = T.parameter(rng.normal(size=(6, 4)))
        mask = np.zeros(6, dtype=bool)
        mask[2] = True
        loss = contrastive_loss(c, z, mask, 100, np.random.default_rng(12))
        assert loss.item() == 0.0
        T.backward(loss)
        assert not c.grad.any() and not z.grad.any()

    def test_empty_mask_rejected(self):
        z = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            contrastive_loss(z, z, np.zeros(4, dtype=bool), 5, np.random.default_rng(0))

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_not_finite_and_positive_rejected(self, temperature):
        """With K = 3, 0 once raised a raw ZeroDivisionError, -1 flipped
        every similarity's sign and inf gave the constant ln 4."""
        z = Tensor(np.eye(8))
        with pytest.raises(ConfigError, match="temperature"):
            contrastive_loss(
                z, z, np.ones(8, dtype=bool), 3, np.random.default_rng(16),
                temperature=temperature,
            )

    def test_scale_invariance_of_cosine(self):
        """Rescaling all vectors by positive constants leaves the loss unchanged."""
        rng = np.random.default_rng(13)
        zv = rng.normal(size=(20, 8))
        cv = rng.normal(size=(20, 8))
        mask = np.zeros(20, dtype=bool)
        mask[::2] = True
        base = contrastive_loss(
            Tensor(cv), Tensor(zv), mask, 5,
            np.random.default_rng(14),
        ).item()
        scaled = contrastive_loss(
            Tensor(37.0 * cv), Tensor(0.03 * zv), mask, 5,
            np.random.default_rng(14),
        ).item()
        assert abs(base - scaled) < 1e-6

    def test_loss_decreases_as_true_similarity_rises(self):
        losses = []
        for s in (-0.5, 0.0, 0.5, 0.9):
            z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.3]])
            c = np.array([[s, math.sqrt(max(0.0, 1 - s * s))], [0.0, 1.0], [1.0, 1.0]])
            loss = contrastive_loss(
                Tensor(c), Tensor(z),
                np.array([True, True, True]), 2, np.random.default_rng(15),
            )
            losses.append(loss.item())
        assert losses == sorted(losses, reverse=True)

    def test_true_latent_always_among_candidates(self):
        """With c == z rows orthogonal, every row's own latent wins: loss < ln 2."""
        z = np.eye(8)
        loss = contrastive_loss(
            Tensor(10.0 * z), Tensor(z),
            np.ones(8, dtype=bool), 3, np.random.default_rng(16),
        )
        uniform = math.log(4.0)
        assert loss.item() < uniform


class TestPretrainLr:
    def test_peak_at_warmup_end(self):
        cfg = PretrainConfig()
        assert pretrain_lr(10_000, cfg) == pytest.approx(3e-4, abs=0)

    def test_linear_decay_midpoint(self):
        cfg = PretrainConfig()
        assert pretrain_lr(155_000, cfg) == pytest.approx(1.5e-4, rel=1e-12)

    def test_zero_at_total_steps_and_beyond(self):
        cfg = PretrainConfig()
        assert pretrain_lr(300_000, cfg) == 0.0
        assert pretrain_lr(300_001, cfg) == 0.0

    def test_continuous_piecewise_linear_max_at_warmup(self):
        cfg = toy_pretrain_config()
        lrs = [pretrain_lr(s, cfg) for s in range(cfg.total_steps + 1)]
        assert max(lrs) == lrs[cfg.warmup_steps] == cfg.peak_lr
        diffs = np.diff(lrs)
        # Two slope regimes only.
        assert len({round(d, 12) for d in diffs}) == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            PretrainConfig(warmup_steps=10, total_steps=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        ["mask_rate", "peak_lr", "beta1", "beta2", "weight_decay", "temperature", "grad_clip"],
    )
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} .* not finite"):
            PretrainConfig(**{field: value})

    def test_without_warmup_decays_from_peak_at_step_0(self):
        cfg = PretrainConfig(warmup_steps=0, total_steps=10)
        lrs = [pretrain_lr(s, cfg) for s in range(12)]
        assert lrs[0] == cfg.peak_lr
        assert lrs[5] == pytest.approx(cfg.peak_lr / 2, rel=1e-12)
        assert lrs[10:] == [0.0, 0.0]

    def test_warmup_starts_from_zero_at_step_0(self):
        assert pretrain_lr(0, toy_pretrain_config()) == 0.0


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = T.parameter(np.array([1.0, 2.0], dtype=np.float32))
        p.grad = np.ones(2, dtype=np.float32)
        opt = Adam([("p", p)], weight_decay=0.0)
        opt.step(lr=1e-3)
        np.testing.assert_allclose(p.values, [1.0 - 1e-3, 2.0 - 1e-3], atol=1e-8)

    def test_zero_lr_zero_decay_freezes_params_updates_moments(self):
        p = T.parameter(np.array([0.5], dtype=np.float32))
        p.grad = np.array([2.0], dtype=np.float32)
        opt = Adam([("p", p)], weight_decay=0.0)
        opt.step(lr=0.0)
        np.testing.assert_array_equal(p.values, [0.5])
        assert opt.m["p"][0] != 0.0 and opt.v["p"][0] != 0.0

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, math.nan, math.inf])
    def test_max_norm_not_finite_and_positive_rejected(self, max_norm):
        """With g = 2 and lr 0.1, a max_norm of -1 once moved the parameter
        by +0.1: a gradient ascent step."""
        p = T.parameter(np.array([0.5], dtype=np.float32))
        p.grad = np.array([2.0], dtype=np.float32)
        opt = Adam([("p", p)], weight_decay=0.0)
        with pytest.raises(ConfigError, match="max_norm"):
            opt.step(lr=0.1, max_norm=max_norm)
        np.testing.assert_array_equal(p.values, [0.5])
        assert opt.step_count == 0

    @pytest.mark.parametrize("lr", [-1e-3, math.nan, math.inf])
    def test_lr_not_finite_and_non_negative_rejected(self, lr):
        """With g = 2, a NaN lr once made every parameter NaN and an
        infinite one made it -inf."""
        p = T.parameter(np.array([0.5, 1.0, -2.0], dtype=np.float32))
        p.grad = np.full(3, 2.0, dtype=np.float32)
        opt = Adam([("p", p)], weight_decay=0.0)
        with pytest.raises(ConfigError, match="lr"):
            opt.step(lr)
        np.testing.assert_array_equal(p.values, [0.5, 1.0, -2.0])
        assert opt.step_count == 0

    @pytest.mark.parametrize(
        "setting",
        [
            {"beta1": 1.0}, {"beta2": 1.0}, {"beta1": -0.1}, {"beta1": math.nan},
            {"beta2": math.nan}, {"weight_decay": -0.01}, {"weight_decay": math.nan},
            {"weight_decay": math.inf},
        ],
        ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
    )
    def test_setting_outside_its_range_rejected(self, setting):
        """Each of these once built an optimizer whose first step made every
        parameter NaN; PretrainConfig rejects the same values."""
        p = T.parameter(np.array([0.5, 1.0, -2.0], dtype=np.float32))
        (name, value), = setting.items()
        with pytest.raises(ConfigError, match=name):
            Adam([("p", p)], **setting)
        with pytest.raises(ConfigError, match=name):
            PretrainConfig(**setting)

    def test_decay_only_step_shrinks_params(self):
        p = T.parameter(np.array([1.0, -2.0], dtype=np.float64))
        p.grad = np.zeros(2)
        opt = Adam([("p", p)], weight_decay=0.01)
        opt.step(lr=1e-3)
        np.testing.assert_allclose(p.values, [1.0 * (1 - 1e-5), -2.0 * (1 - 1e-5)], rtol=1e-12)

    def test_non_finite_grad_aborts_atomically(self):
        p = T.parameter(np.array([1.0]))
        q = T.parameter(np.array([2.0]))
        p.grad = np.array([np.nan])
        q.grad = np.array([1.0])
        opt = Adam([("p", p), ("q", q)])
        with pytest.raises(NumericError, match="'p'"):
            opt.step(lr=1e-3)
        np.testing.assert_array_equal(p.values, [1.0])
        np.testing.assert_array_equal(q.values, [2.0])
        assert opt.step_count == 0
        assert all(np.all(opt.m[n] == 0.0) and np.all(opt.v[n] == 0.0) for n in "pq")

    def test_overflowing_norm_of_finite_grads_still_steps(self):
        # Finite float64 gradients whose squares overflow: the norm is inf,
        # but no gradient is at fault, so the step goes ahead.
        p = T.parameter(np.array([1.0, 2.0]))
        p.grad = np.array([1e200, -1e200])
        opt = Adam([("p", p)])
        with np.errstate(over="ignore"):
            assert opt.step(lr=1e-3) == math.inf
        assert opt.step_count == 1
        np.testing.assert_allclose(opt.m["p"], [1e199, -1e199])


@pytest.fixture(scope="module")
def toy_setup():
    cfg = ModelConfig(
        num_blocks=1, embed_dim=16, num_heads=2, ffn_dim=24,
        stack_factor=2, kernel_first=3, kernel_rest=3, dropout=0.1,
    )
    rng = np.random.default_rng(17)
    clips = [rng.normal(size=(20, 64)).astype(np.float32) for _ in range(4)]
    return cfg, clips


class TestPretrainStep:

    def run_steps(self, cfg, clips, n_steps, seed=0):
        model = ConformerModel(cfg, seed=123)
        pcfg = toy_pretrain_config(seed=seed, num_distractors=4)
        opt = Adam(list(model.named_parameters()), weight_decay=pcfg.weight_decay)
        return [
            pretrain_step(clips, model, opt, pcfg, step)["loss"]
            for step in range(1, n_steps + 1)
        ]

    def test_equal_seeds_equal_trajectories(self, toy_setup):
        cfg, clips = toy_setup
        a = self.run_steps(cfg, clips, 5, seed=3)
        b = self.run_steps(cfg, clips, 5, seed=3)
        assert a == b

    def test_different_seeds_diverge(self, toy_setup):
        cfg, clips = toy_setup
        assert self.run_steps(cfg, clips, 3, seed=1) != self.run_steps(cfg, clips, 3, seed=2)

    def test_initial_loss_near_uniform_baseline(self, toy_setup):
        cfg, clips = toy_setup
        model = ConformerModel(cfg, seed=9)
        pcfg = toy_pretrain_config(num_distractors=4)
        opt = Adam(list(model.named_parameters()))
        out = pretrain_step(clips, model, opt, pcfg, step=1)
        assert abs(out["loss"] - math.log(5.0)) < 0.5

    def test_empty_batch_rejected(self, toy_setup):
        cfg, _ = toy_setup
        model = ConformerModel(cfg, seed=9)
        pcfg = toy_pretrain_config()
        opt = Adam(list(model.named_parameters()))
        with pytest.raises(ConfigError):
            pretrain_step([], model, opt, pcfg, step=1)

    def test_negative_max_steps_rejected_before_out_dir(self, toy_setup, tmp_path):
        cfg, clips = toy_setup
        out = tmp_path / "run"
        with pytest.raises(ConfigError):
            run_pretraining(ConformerModel(cfg, seed=9), clips, toy_pretrain_config(), out, -3)
        assert not out.exists()


class TestGradClip:
    """``PretrainConfig.grad_clip`` scales the gradients by max_norm / norm
    when their global norm exceeds it; the logged norm is the one before."""

    STEP = 3

    def step(self, cfg, clips, grad_clip):
        """One step of a fresh model; returns the record, model and optimizer."""
        model = ConformerModel(cfg, seed=123)
        pcfg = toy_pretrain_config(seed=4, num_distractors=4, grad_clip=grad_clip)
        opt = Adam(list(model.named_parameters()), weight_decay=pcfg.weight_decay)
        return pretrain_step(clips, model, opt, pcfg, self.STEP), model, opt

    @staticmethod
    def assert_same_state(a, b):
        (_, model_a, opt_a), (_, model_b, opt_b) = a, b
        for (name, p), q in zip(model_a.named_parameters(), model_b.parameters()):
            np.testing.assert_array_equal(p.values, q.values, err_msg=name)
        for store_a, store_b in ((opt_a.m, opt_b.m), (opt_a.v, opt_b.v)):
            for name in store_a:
                np.testing.assert_array_equal(store_a[name], store_b[name], err_msg=name)
        assert opt_a.step_count == opt_b.step_count

    def test_clip_below_the_norm_steps_on_scaled_gradients(self, toy_setup):
        cfg, clips = toy_setup
        free = self.step(cfg, clips, None)
        norm = free[0]["grad_norm"]
        max_norm = norm / 4
        clipped = self.step(cfg, clips, max_norm)
        assert clipped[0]["grad_norm"] == norm  # logged before clipping
        # An unclipped Adam step on the unclipped gradients times max_norm / norm.
        model = ConformerModel(cfg, seed=123)
        opt = Adam(list(model.named_parameters()), weight_decay=toy_pretrain_config().weight_decay)
        for p, raw in zip(model.parameters(), free[1].parameters()):
            p.grad = raw.grad * (max_norm / norm)
        opt.step(pretrain_lr(self.STEP, toy_pretrain_config()))
        self.assert_same_state(clipped, (None, model, opt))

    def test_clip_above_the_norm_is_no_clip(self, toy_setup):
        cfg, clips = toy_setup
        free = self.step(cfg, clips, None)
        loose = self.step(cfg, clips, 2 * free[0]["grad_norm"])
        assert loose[0] == free[0]
        self.assert_same_state(loose, free)



def per_clip_pretrain_step(clips, model, config, step):
    """The step as one graph and one backward per clip, from the single-clip
    call forms; returns the mean clip loss, summed as the step sums it."""
    losses = []
    for i, frames in enumerate(clips):
        z = model.encode_features(frames)
        t = z.shape[0]
        mask = sample_mask(
            t, config.mask_rate, min(config.mask_span, t),
            rng=step_rng(config.seed, RNG_MASK, step, i),
        )
        c = model.contextualize(
            apply_mask(z, mask, model.mask_embedding),
            rng=step_rng(config.seed, RNG_DROPOUT, step, i),
        )
        loss = contrastive_loss(
            c, z, mask, config.num_distractors,
            rng=step_rng(config.seed, RNG_DISTRACTOR, step, i),
            temperature=config.temperature,
        )
        T.backward(T.mul(loss, 1.0 / len(clips)))
        losses.append(loss.item())
    return sum(losses) * (1.0 / len(clips))


class TestGroupedStep:
    """A step stacks equal-length clips into one graph per group and still
    computes what one graph per clip computes."""

    CFG = ModelConfig(
        num_blocks=1, embed_dim=16, num_heads=2, ffn_dim=24,
        stack_factor=2, kernel_first=3, kernel_rest=3, dropout=0.1,
    )

    def models(self, cfg):
        """Two equal float64 models, one to step grouped and one per clip."""
        return [ConformerModel(cfg, seed=42).astype(np.float64) for _ in range(2)]

    def test_grads_equal_one_graph_per_clip(self, backward_calls):
        rng = np.random.default_rng(41)
        # Two latent lengths (20 and 24 frames), in three runs.
        clips = [rng.normal(size=(n, 64)) for n in (40, 40, 40, 48, 48, 40, 40)]
        pcfg = toy_pretrain_config(seed=5, batch_size=len(clips), mask_span=3)
        counts = [(len(c) // 2,) for c in clips]
        assert clip_groups(counts) == [range(0, 3), range(3, 5), range(5, 7)]
        masked = [
            sample_mask(n, 0.3, 3, rng=step_rng(5, RNG_MASK, 0, i)).sum()
            for i, (n,) in enumerate(counts)
        ]
        assert len(set(masked)) > 1  # K = masked - 1 differs between clips

        grouped, oracle = self.models(self.CFG)
        opt = Adam(list(grouped.named_parameters()))
        calls = backward_calls(pretrain_module)
        # Step 0 has learning rate 0, so the parameters stay put.
        record = pretrain_step(clips, grouped, opt, pcfg, step=0)
        assert len(calls) == 3
        want = per_clip_pretrain_step(clips, oracle, pcfg, step=0)
        assert record["loss"] == pytest.approx(want, rel=1e-10)
        for (name, p), q in zip(grouped.named_parameters(), oracle.parameters()):
            np.testing.assert_allclose(p.grad, q.grad, rtol=1e-10, atol=1e-13, err_msg=name)
        for (name, a), b in zip(grouped.named_buffers(), dict(oracle.named_buffers()).values()):
            np.testing.assert_allclose(a, b, rtol=1e-10, err_msg=name)

    def test_clips_over_the_cap_backpropagate_one_at_a_time(self, backward_calls):
        rng = np.random.default_rng(43)
        clips = [rng.normal(size=(520, 64)) for _ in range(3)]  # 260 latent rows each
        assert 260 > GROUP_ROWS
        pcfg = toy_pretrain_config(seed=6, batch_size=3)
        grouped, oracle = self.models(self.CFG)
        calls = backward_calls(pretrain_module)
        record = pretrain_step(clips, grouped, Adam(list(grouped.named_parameters())), pcfg, 0)
        assert len(calls) == 3
        # Alone in its graph, a clip runs the single-clip arithmetic exactly.
        assert record["loss"] == per_clip_pretrain_step(clips, oracle, pcfg, step=0)
        for p, q in zip(grouped.parameters(), oracle.parameters()):
            np.testing.assert_array_equal(p.grad, q.grad)


class TestStackedContrastiveLoss:
    def test_mean_of_clip_losses_with_a_skipped_clip(self):
        rng = np.random.default_rng(44)
        c, z = rng.normal(size=(18, 5)), rng.normal(size=(18, 5))
        mask = np.zeros(18, dtype=bool)
        mask[[0, 2, 3, 4]] = True  # clip 0: K = 3
        mask[[7]] = True  # clip 1: one masked step, so it is skipped
        mask[[12, 15]] = True  # clip 2: K = 1
        leaves = [T.parameter(a) for a in (c, z)]
        loss = contrastive_loss(*leaves, mask, 5, [np.random.default_rng(s) for s in range(3)])
        T.backward(loss)
        want, grads = 0.0, [np.zeros_like(c), np.zeros_like(z)]
        for j in range(3):
            rows = slice(6 * j, 6 * j + 6)
            alone = [T.parameter(a[rows]) for a in (c, z)]
            clip_loss = contrastive_loss(*alone, mask[rows], 5, np.random.default_rng(j))
            want += clip_loss.item() / 3
            if clip_loss.requires_grad:
                T.backward(T.mul(clip_loss, 1.0 / 3))
                for acc, leaf in zip(grads, alone):
                    acc[rows] += leaf.grad
        assert loss.item() == pytest.approx(want, rel=1e-12)
        for leaf, ref in zip(leaves, grads):
            np.testing.assert_allclose(leaf.grad, ref, rtol=1e-12, atol=1e-15)

    def test_one_distractor_draw_per_clip(self, monkeypatch):
        draws = []

        def counted(masked, num_distractors, rng):
            draws.append(masked.size)
            return sample_distractors(masked, num_distractors, rng)

        monkeypatch.setattr(pretrain_module, "sample_distractors", counted)
        x = Tensor(np.random.default_rng(45).normal(size=(18, 5)))
        mask = np.zeros(18, dtype=bool)
        mask[[0, 2, 3, 4, 7, 12, 15]] = True
        contrastive_loss(x, x, mask, 5, [np.random.default_rng(s) for s in range(3)])
        assert draws == [4, 1, 2]

    def test_mask_must_cover_the_stack(self):
        x = Tensor(np.ones((6, 2)))
        with pytest.raises(ShapeError):
            contrastive_loss(x, x, np.ones(4, dtype=bool), 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            rngs = [np.random.default_rng(s) for s in range(4)]
            contrastive_loss(x, x, np.ones(6, dtype=bool), 2, rngs)


class TestMetricsLogCut:
    LINES = [f'{{"step": {i}, "loss": 1.0}}\n' for i in range(1, 8)]

    @pytest.mark.parametrize("step,kept", [(5, 5), (7, 7), (0, 0)])
    def test_cut_back_to_step_drops_later_and_torn_records(self, tmp_path, step, kept):
        log = tmp_path / "metrics.jsonl"
        log.write_text("".join(self.LINES) + '{"step": 8, "lo')
        pretrain_module._drop_records_after(log, step)
        assert log.read_text() == "".join(self.LINES[:kept])

    def test_missing_log_is_left_alone(self, tmp_path):
        pretrain_module._drop_records_after(tmp_path / "metrics.jsonl", 3)
        assert not (tmp_path / "metrics.jsonl").exists()


def _per_parameter_adam(params, grads, m, v, step_count, lr, max_norm, beta1, beta2, decay):
    """The per-parameter update the flat arena replaced, as a plain loop:
    returns the grad norm and updates ``params``, ``m`` and ``v`` in place."""
    total = 0.0
    for g in grads:
        if g is not None:
            total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    scale = max_norm / norm if max_norm is not None and norm > max_norm else None
    c1, c2 = 1.0 - beta1**step_count, 1.0 - beta2**step_count
    for i, p in enumerate(params):
        g = grads[i].copy() if grads[i] is not None else np.zeros_like(p)
        if scale is not None:
            g *= scale
        m[i] *= beta1
        m[i] += (1.0 - beta1) * g
        v[i] *= beta2
        v[i] += (1.0 - beta2) * g * g
        update = (m[i] / c1) / (np.sqrt(v[i] / c2) + pretrain_module.ADAM_EPS)
        if decay:
            update = update + decay * p
        params[i] = p - (lr * update).astype(p.dtype, copy=False)
    return norm


class TestArenaAdam:
    """Adam keeps values, gradients and moments in one flat buffer each."""

    # Sizes straddle ADAM_CHUNK (65536), so runs and chunks split and join.
    SHAPES = [(70_000,), (3,), (64, 64), (2, 50_000), (5,)]

    def params(self, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        return [T.parameter(rng.normal(size=s).astype(dtype)) for s in self.SHAPES]

    def test_matches_the_per_parameter_loop_bit_for_bit(self):
        params = self.params()
        names = [f"p{i}" for i in range(len(params))]
        opt = Adam(list(zip(names, params)), beta1=0.9, beta2=0.98, weight_decay=0.01)
        ref_params = [p.values.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in ref_params]
        ref_v = [np.zeros_like(p) for p in ref_params]
        rng = np.random.default_rng(1)
        for step in range(1, 6):
            grads = [rng.normal(size=s).astype(np.float32) for s in self.SHAPES]
            if step in (3, 4):
                grads[1] = None  # no backward reaches it: stale arena contents must not count
            max_norm = 300.0 if step % 2 else None  # clips: the norm is ~470
            opt.zero_grad()
            for p, g in zip(params, grads):
                if g is not None:
                    T.backward(T.reduce_sum(T.mul(p, Tensor(g))))
            norm = opt.step(1e-3, max_norm)
            want = _per_parameter_adam(
                ref_params, grads, ref_m, ref_v, step, 1e-3, max_norm, 0.9, 0.98, 0.01
            )
            assert norm == pytest.approx(want, rel=1e-12)
            assert norm == want  # each parameter is summed whole, in order
            for i, name in enumerate(names):
                np.testing.assert_array_equal(params[i].values, ref_params[i], err_msg=name)
                np.testing.assert_array_equal(opt.m[name], ref_m[i], err_msg=name)
                np.testing.assert_array_equal(opt.v[name], ref_v[i], err_msg=name)
            assert (params[1].grad is None) == (grads[1] is None)

    def test_backward_writes_into_the_arena(self):
        used, unused = T.parameter(np.ones(3)), T.parameter(np.ones(2))
        opt = Adam([("used", used), ("unused", unused)])
        T.backward(T.reduce_sum(T.mul(used, used)))
        assert np.shares_memory(used.grad, opt._grads)
        np.testing.assert_array_equal(used.grad, [2.0, 2.0, 2.0])
        assert unused.grad is None
        assert np.shares_memory(used.values, opt._values)
        opt.zero_grad()
        assert used.grad is None

    def test_grads_set_before_and_values_rebound_after_construction(self):
        # A gradient set by hand before Adam exists, and values that
        # load_state_arrays rebinds after, are copied in at every step.
        model = ConformerModel(TestGroupedStep.CFG, seed=3)
        named = list(model.named_parameters())
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=p.values.shape).astype(np.float32) for _, p in named]
        for (_, p), g in zip(named, grads):
            p.grad = g
        opt = Adam(named, weight_decay=0.01)
        source = ConformerModel(TestGroupedStep.CFG, seed=5)
        model.load_state_arrays({n: a.copy() for n, a in source.state_arrays().items()})
        ref = [p.values.copy() for p in source.parameters()]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        for step in (1, 2):
            opt.step(1e-3)
            _per_parameter_adam(ref, grads, ref_m, ref_v, step, 1e-3, None, 0.9, 0.98, 0.01)
            for (name, p), want in zip(named, ref):
                np.testing.assert_array_equal(p.values, want, err_msg=name)
                assert np.shares_memory(p.values, opt._values), name

    def test_grad_check_leaves_the_arena_gradients_alone(self):
        p = T.parameter(np.linspace(-1.0, 1.0, 4))
        opt = Adam([("p", p)])
        T.backward(T.reduce_sum(T.mul(p, Tensor(np.full(4, 3.0)))))
        before = opt._grads.copy()
        assert T.grad_check(lambda x: T.reduce_sum(T.mul(x, x)), [p]) < 1e-6
        np.testing.assert_array_equal(opt._grads, before)
        assert p.grad is not None and np.shares_memory(p.grad, opt._grads)

    def test_mixed_dtypes_rejected(self):
        a = T.parameter(np.ones(2, dtype=np.float32))
        b = T.parameter(np.ones(2, dtype=np.float64))
        with pytest.raises(ConfigError, match="one dtype"):
            Adam([("a", a), ("b", b)])

    def test_moments_lying_apart_are_copied_in(self):
        params = self.params()
        opt = Adam([(f"p{i}", p) for i, p in enumerate(params)])
        rng = np.random.default_rng(6)
        state = {}
        for i, p in enumerate(params):  # interleaved, so no moment is one block
            state[f"adam.m.p{i}"] = rng.normal(size=p.values.shape).astype(np.float32)
            state[f"adam.v.p{i}"] = rng.random(p.values.shape).astype(np.float32)
        opt.load_state_arrays(state, step_count=7)
        assert opt.step_count == 7
        for name, arr in opt.state_arrays().items():
            np.testing.assert_array_equal(arr, state[name], err_msg=name)
            assert not np.shares_memory(arr, state[name]), name
            assert np.shares_memory(arr, opt._m if ".m." in name else opt._v), name

    def test_state_arrays_list_each_moment_as_one_block(self):
        opt = Adam([("a", T.parameter(np.ones(2))), ("b", T.parameter(np.ones(3)))])
        assert list(opt.state_arrays()) == ["adam.m.a", "adam.m.b", "adam.v.a", "adam.v.b"]

"""Pretraining: distractor sampling, contrastive loss closed forms, schedule, Adam."""

import math

import numpy as np
import pytest

from melformer import pretrain as pretrain_module
from melformer import tensor as T
from melformer.errors import ConfigError, NumericError, ShapeError
from melformer.model import ConformerModel, ModelConfig
from melformer.pretrain import (
    Adam,
    PretrainConfig,
    contrastive_loss,
    pretrain_lr,
    pretrain_step,
    sample_distractors,
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
    def test_shrinks_to_available_candidates(self):
        masked = np.arange(40)
        got = sample_distractors(masked, t=7, num_distractors=100, rng=np.random.default_rng(0))
        assert got.size == 39
        assert 7 not in got
        assert len(set(got.tolist())) == 39

    def test_exactly_k_when_enough_masked(self):
        masked = np.arange(150)
        got = sample_distractors(masked, t=3, num_distractors=100, rng=np.random.default_rng(1))
        assert got.size == 100
        assert 3 not in got

    def test_k_zero_gives_empty_set(self):
        got = sample_distractors(np.arange(10), t=2, num_distractors=0, rng=np.random.default_rng(2))
        assert got.size == 0

    def test_t_must_be_masked(self):
        with pytest.raises(ShapeError):
            sample_distractors(np.array([1, 2, 3]), t=9, num_distractors=5, rng=np.random.default_rng(3))

    def test_draws_cover_candidates_uniformly(self):
        masked = np.arange(6)
        counts = np.zeros(6)
        rng = np.random.default_rng(4)
        for _ in range(4000):
            counts[sample_distractors(masked, t=0, num_distractors=2, rng=rng)] += 1
        assert counts[0] == 0
        # Each of the other 5 indices appears ~ 4000 * 2/5 times.
        np.testing.assert_allclose(counts[1:] / 4000.0, 0.4, atol=0.05)


class TestContrastiveLoss:
    def test_identical_candidates_give_ln_k_plus_1(self):
        """All candidates equal the true latent -> uniform softmax -> ln(101)."""
        t_frames = 150
        z = Tensor(np.tile(np.array([[0.3, -0.2, 0.9]]), (t_frames, 1)), dtype=np.float64)
        c = Tensor(np.random.default_rng(5).normal(size=(t_frames, 3)), dtype=np.float64)
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
            Tensor(c, dtype=np.float64), Tensor(z, dtype=np.float64),
            mask, 100, np.random.default_rng(7),
        )
        row0 = math.log(1.0 + 100.0 * math.exp(-2.0))
        assert row0 == pytest.approx(2.6765, abs=1e-4)
        expected = (row0 + 100.0 * math.log(101.0)) / 101.0
        assert abs(loss.item() - expected) < 1e-6

    def test_k_zero_single_candidate_loss_is_zero(self):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(6, 4)), dtype=np.float64)
        c = Tensor(rng.normal(size=(6, 4)), dtype=np.float64)
        mask = np.ones(6, dtype=bool)
        loss = contrastive_loss(c, z, mask, 0, np.random.default_rng(10))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_single_masked_step_is_skipped(self):
        rng = np.random.default_rng(11)
        z = Tensor(rng.normal(size=(6, 4)))
        c = Tensor(rng.normal(size=(6, 4)))
        mask = np.zeros(6, dtype=bool)
        mask[2] = True
        loss = contrastive_loss(c, z, mask, 100, np.random.default_rng(12))
        assert loss.item() == 0.0

    def test_empty_mask_rejected(self):
        z = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            contrastive_loss(z, z, np.zeros(4, dtype=bool), 5, np.random.default_rng(0))

    def test_scale_invariance_of_cosine(self):
        """Rescaling all vectors by positive constants leaves the loss unchanged."""
        rng = np.random.default_rng(13)
        zv = rng.normal(size=(20, 8))
        cv = rng.normal(size=(20, 8))
        mask = np.zeros(20, dtype=bool)
        mask[::2] = True
        base = contrastive_loss(
            Tensor(cv, dtype=np.float64), Tensor(zv, dtype=np.float64), mask, 5,
            np.random.default_rng(14),
        ).item()
        scaled = contrastive_loss(
            Tensor(37.0 * cv, dtype=np.float64), Tensor(0.03 * zv, dtype=np.float64), mask, 5,
            np.random.default_rng(14),
        ).item()
        assert abs(base - scaled) < 1e-6

    def test_loss_decreases_as_true_similarity_rises(self):
        losses = []
        for s in (-0.5, 0.0, 0.5, 0.9):
            z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.3]])
            c = np.array([[s, math.sqrt(max(0.0, 1 - s * s))], [0.0, 1.0], [1.0, 1.0]])
            loss = contrastive_loss(
                Tensor(c, dtype=np.float64), Tensor(z, dtype=np.float64),
                np.array([True, True, True]), 2, np.random.default_rng(15),
            )
            losses.append(loss.item())
        assert losses == sorted(losses, reverse=True)

    def test_true_latent_always_among_candidates(self):
        """With c == z rows orthogonal, every row's own latent wins: loss < ln 2."""
        z = np.eye(8)
        loss = contrastive_loss(
            Tensor(10.0 * z, dtype=np.float64), Tensor(z, dtype=np.float64),
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
        with pytest.raises(NumericError):
            opt.step(lr=1e-3)
        np.testing.assert_array_equal(q.values, [2.0])
        assert opt.step_count == 0
        assert np.all(opt.m["q"] == 0.0)


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



class TestStreamedBackward:
    def test_pretrain_grads_equal_whole_batch_graph(self, check_streamed_grads):
        cfg = ModelConfig(
            num_blocks=1, embed_dim=16, num_heads=2, ffn_dim=24,
            stack_factor=2, kernel_first=3, kernel_rest=3, dropout=0.1,
        )
        rng = np.random.default_rng(41)
        clips = [rng.normal(size=(20, 64)) for _ in range(3)]
        pcfg = toy_pretrain_config(seed=5, num_distractors=4, batch_size=3)

        def make():
            model = ConformerModel(cfg, seed=42, dtype=np.float64)
            opt = Adam(list(model.named_parameters()))
            # Step 0 has learning rate 0, so the parameters stay put.
            return lambda: pretrain_step(clips, model, opt, pcfg, step=0), opt.named_params

        assert check_streamed_grads(pretrain_module, make) == 3


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

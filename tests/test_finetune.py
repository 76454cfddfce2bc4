"""Fine-tuning: augmentations, pooling, losses, schedule, balancing, steps."""

import math

import numpy as np
import pytest
from scipy import stats

from melformer import finetune as finetune_module
from melformer import tensor as T
from melformer import model as model_module
from melformer.errors import ConfigError, DataError, ShapeError
from melformer.finetune import (
    HEAD_KINDS,
    RNG_HEAD_DROPOUT_A,
    RNG_HEAD_DROPOUT_B,
    RNG_SAMPLING,
    FinetuneConfig,
    LabeledExample,
    balance_weights,
    bce_loss,
    consistency_loss,
    finetune_step,
    linear_softmax_pool,
    make_head,
    mixup_batch,
    run_finetuning,
    temporal_jitter,
    three_stage_lr,
    time_mask_augment,
)
from melformer.model import GROUP_ROWS, ConformerModel, ModelConfig
from melformer.pretrain import Adam, step_rng
from melformer.tensor import Tensor, backward, grad_check


class TestTemporalJitter:
    def test_length_preserved(self):
        x = np.random.default_rng(0).normal(size=3000)
        assert temporal_jitter(x, np.random.default_rng(1)).shape == x.shape

    def test_positive_shift_zero_fills_the_front(self):
        x = np.arange(1.0, 1001.0)
        rng = np.random.default_rng(2)
        # Draw until a +200 shift appears, then check the layout exactly.
        for _ in range(10_000):
            out = temporal_jitter(x, rng)
            if out[200] == 1.0 and np.all(out[:200] == 0.0):
                np.testing.assert_array_equal(out[200:], x[:-200])
                return
        pytest.fail("never drew a +200 shift")

    def test_shift_distribution_uniform(self):
        """Chi-square over all 401 shifts at 10k draws, fixed seed."""
        x = np.zeros(500)
        x[250] = 1.0
        rng = np.random.default_rng(3)
        shifts = []
        for _ in range(10_000):
            out = temporal_jitter(x, rng)
            shifts.append(int(np.flatnonzero(out == 1.0)[0]) - 250)
        counts = np.bincount(np.array(shifts) + 200, minlength=401)
        assert counts.sum() == 10_000
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_too_short_input_rejected(self):
        with pytest.raises(DataError):
            temporal_jitter(np.zeros(150), np.random.default_rng(0))


class TestTimeMask:
    def test_masked_interval_capped_at_two_seconds(self):
        frames = np.random.default_rng(4).normal(size=(500, 64))
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = time_mask_augment(frames, rng)
            changed = np.flatnonzero((out != frames).any(axis=1))
            assert changed.size <= 100
            if changed.size:
                # One contiguous interval, every band affected inside it.
                assert changed[-1] - changed[0] + 1 == changed.size
                assert np.all(out[changed] == frames.mean())

    def test_shape_and_untouched_columns(self):
        frames = np.random.default_rng(6).normal(size=(40, 64))
        out = time_mask_augment(frames, np.random.default_rng(7))
        assert out.shape == frames.shape
        same = (out == frames).all(axis=1)
        np.testing.assert_array_equal(out[same], frames[same])

    def test_zero_length_draw_is_identity(self):
        frames = np.random.default_rng(8).normal(size=(10, 64))
        for seed in range(200):
            out = time_mask_augment(frames, np.random.default_rng(seed))
            if np.array_equal(out, frames):
                return
        pytest.fail("never drew a zero-length mask")


class TestMixup:
    def test_batch_and_target_invariants(self):
        rng = np.random.default_rng(9)
        batch = [rng.normal(size=(20, 64)) for _ in range(6)]
        targets = [rng.integers(0, 2, size=8) for _ in range(6)]
        snapshot = [t.copy() for t in targets]
        mixed = mixup_batch(batch, np.random.default_rng(10))
        assert len(mixed) == 6
        assert all(m.shape == (20, 64) for m in mixed)
        for t, s in zip(targets, snapshot):
            np.testing.assert_array_equal(t, s)

    def test_effective_alpha_always_dominant(self):
        """Every mixed clip is at least half its own clip, over 10k draws."""
        a = np.zeros((1, 1))
        b = np.ones((1, 1))
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            mixed = mixup_batch([a, b], rng)
            # x''_0 = alpha*0 + (1-alpha)*partner; partner is a or b.
            weight_other = float(mixed[0][0, 0])  # (1-alpha) if partner is b
            assert weight_other <= 0.5 + 1e-12

    def test_single_clip_batch_skipped(self):
        x = np.random.default_rng(12).normal(size=(4, 4))
        out = mixup_batch([x], np.random.default_rng(13))
        np.testing.assert_array_equal(out[0], x)


class TestLinearSoftmaxPool:
    def test_constant_frames_pool_to_that_value(self):
        y = np.full((7, 3), 0.42)
        np.testing.assert_allclose(linear_softmax_pool(y), 0.42)

    def test_half_and_quarter(self):
        got = linear_softmax_pool(np.array([[0.5], [0.25]]))
        assert got[0] == pytest.approx(0.416667, abs=1e-6)

    def test_all_zero_frames_pool_to_zero(self):
        np.testing.assert_array_equal(linear_softmax_pool(np.zeros((5, 2))), 0.0)

    def test_result_bounded_by_frame_range(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            y = rng.random((10, 4))
            pooled = linear_softmax_pool(y)
            assert np.all(pooled >= y.min(axis=0) - 1e-12)
            assert np.all(pooled <= y.max(axis=0) + 1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            linear_softmax_pool(np.array([[1.5, 0.2]]))


class TestHeads:
    def test_framewise_head_matches_pure_pool(self):
        head = make_head("linear-softmax-pool", 8, 3, seed=0).astype(np.float64)
        c = Tensor(np.random.default_rng(15).normal(size=(6, 8)))
        probs = head(c)
        from scipy.special import expit

        frame = expit(c.values @ head.proj.weight.values + head.proj.bias.values)
        np.testing.assert_allclose(probs.values, [linear_softmax_pool(frame)], rtol=1e-9)

    def test_mean_pool_single_frame_equals_projection(self):
        head = make_head("mean-pool", 8, 3, seed=1).astype(np.float64)
        c = Tensor(np.random.default_rng(16).normal(size=(1, 8)))
        from scipy.special import expit

        expected = expit(c.values @ head.proj.weight.values + head.proj.bias.values)
        np.testing.assert_allclose(head(c).values, expected, rtol=1e-12)

    def test_mean_pool_constant_frames_match_single_frame(self):
        head = make_head("mean-pool", 8, 3, seed=2).astype(np.float64)
        row = np.random.default_rng(17).normal(size=(1, 8))
        many = Tensor(np.repeat(row, 9, axis=0))
        one = Tensor(row)
        np.testing.assert_allclose(head(many).values, head(one).values, rtol=1e-12)

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_heads_return_one_row_per_clip(self, kind):
        head = make_head(kind, 8, 5, seed=4)
        context = np.random.default_rng(21).normal(size=(12, 8)).astype(np.float32)
        assert head(Tensor(context[:4])).shape == (1, 5)
        assert head(Tensor(context), clips=3).shape == (3, 5)

    @pytest.mark.parametrize("kind", HEAD_KINDS)
    def test_head_gradients(self, kind):
        head = make_head(kind, 6, 2, seed=3).astype(np.float64)
        targets = np.array([[1.0, 0.0]])
        c = Tensor(np.random.default_rng(18).normal(size=(5, 6)))
        err = grad_check(
            lambda ct, *params: bce_loss(head(ct), targets),
            [c] + head.parameters(),
            rng=np.random.default_rng(0),
        )
        assert err < 1e-5


class TestBceLoss:
    def test_confident_correct_prediction_is_near_zero(self):
        loss = bce_loss(Tensor(np.array([1.0])), np.array([1.0]))
        assert loss.item() == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-3)

    def test_half_probability_is_ln2(self):
        loss = bce_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_exact_match_is_tiny(self):
        t = np.array([1.0, 0.0, 1.0, 1.0])
        loss = bce_loss(Tensor(t), t)
        assert loss.item() <= 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bce_loss(Tensor(np.array([0.5])), np.array([1.0, 0.0]))


class TestConsistencyLoss:
    def test_identical_views_give_zero(self):
        p = Tensor(np.array([0.3, 0.9]))
        q = Tensor(np.array([0.3, 0.9]))
        assert consistency_loss(p, q).item() == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_symmetric_kl_closed_form(self):
        p = Tensor(np.array([0.8]))
        q = Tensor(np.array([0.2]))
        expected = 0.6 * (math.log(4.0) - math.log(0.25))
        got = consistency_loss(p, q).item()
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(1.663553, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.uniform(0.05, 0.95, size=6))
        b = Tensor(rng.uniform(0.05, 0.95, size=6))
        assert consistency_loss(a, b).item() == consistency_loss(b, a).item()

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = Tensor(rng.uniform(0.01, 0.99, size=4))
            b = Tensor(rng.uniform(0.01, 0.99, size=4))
            assert consistency_loss(a, b).item() >= 0.0


class TestThreeStageLr:
    def cfg(self, **kw):
        base = dict(num_classes=2, peak_lr=1e-3, total_steps=1000, final_lr_factor=0.01)
        base.update(kw)
        return FinetuneConfig(**base)

    def test_peak_at_warmup_boundary(self):
        assert three_stage_lr(300, self.cfg()) == pytest.approx(1e-3, abs=0)

    def test_constant_through_hold(self):
        cfg = self.cfg()
        assert three_stage_lr(450, cfg) == pytest.approx(1e-3, abs=0)
        assert three_stage_lr(600, cfg) == pytest.approx(1e-3, abs=0)

    def test_decay_endpoint(self):
        assert three_stage_lr(1000, self.cfg()) == pytest.approx(1e-5, rel=1e-12)

    def test_continuity_at_both_boundaries(self):
        cfg = self.cfg()
        assert three_stage_lr(300, cfg) == cfg.peak_lr
        assert three_stage_lr(600, cfg) == cfg.peak_lr
        # One step across the decay boundary moves by |ln f|/decay_steps.
        expected_step = 1.0 - cfg.final_lr_factor ** (1.0 / 400.0)
        assert abs(three_stage_lr(601, cfg) - cfg.peak_lr) == pytest.approx(
            cfg.peak_lr * expected_step, rel=1e-9
        )

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            FinetuneConfig(num_classes=2, stage_fractions=(0.5, 0.3, 0.3))

    def test_batch_that_reaches_the_mixup_stream_rejected(self):
        self.cfg(batch_size=7919)
        self.cfg(batch_size=7920, mixup_enabled=False)
        with pytest.raises(ConfigError, match="batch_size > 7919: clip 7919 shares the mixup stream"):
            self.cfg(batch_size=7920)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        ["peak_lr", "final_lr_factor", "output_dropout", "consistency_weight", "stage_fractions"],
    )
    def test_non_finite_float_rejected(self, field, value):
        bad = (value, 0.5, 0.5) if field == "stage_fractions" else value
        with pytest.raises(ConfigError, match=f"{field} .* not finite"):
            self.cfg(**{field: bad})


class TestBalanceWeights:
    def test_unbalanced_classes_equalize(self):
        """90/10 single-label split samples ~50/50 under the weights."""
        labels = np.zeros((100, 2))
        labels[:90, 0] = 1
        labels[90:, 1] = 1
        w = balance_weights(labels)
        p = w / w.sum()
        rng = np.random.default_rng(21)
        picks = rng.choice(100, size=10_000, p=p)
        frac_majority = (picks < 90).mean()
        assert 0.45 <= frac_majority <= 0.55

    def test_uniform_dataset_gets_equal_weights(self):
        labels = np.eye(4)[np.repeat(np.arange(4), 5)]
        w = balance_weights(labels)
        assert np.allclose(w, w[0])

    def test_rarest_label_dominates(self):
        labels = np.zeros((10, 3))
        labels[:9, 0] = 1
        labels[9, [0, 2]] = 1  # example 9 holds the rarest class 2
        w = balance_weights(labels)
        assert w[9] == w.max()
        assert w[9] == 1.0

    def test_unlabeled_example_rejected(self):
        with pytest.raises(DataError):
            balance_weights(np.zeros((3, 2)))


@pytest.fixture(scope="module")
def setup():
    cfg = ModelConfig(
        num_blocks=1, embed_dim=16, num_heads=2, ffn_dim=24,
        stack_factor=2, kernel_first=3, kernel_rest=3, dropout=0.0,
    )
    rng = np.random.default_rng(22)
    examples = []
    for i in range(4):
        targets = np.zeros(3)
        targets[i % 3] = 1
        examples.append(
            LabeledExample(targets=targets, waveform=rng.normal(scale=0.1, size=8000))
        )
    return cfg, examples


class TestFinetuneStep:

    def make(self, cfg, head_kind="mean-pool", **overrides):
        model = ConformerModel(cfg, seed=31)
        head = make_head(head_kind, cfg.latent_dim, 3, seed=32)
        opt = Adam(
            list(model.named_parameters())
            + [(f"head.{n}", p) for n, p in head.named_parameters()]
        )
        fcfg = FinetuneConfig(
            num_classes=3, peak_lr=1e-3, total_steps=100, batch_size=4, **overrides
        )
        return model, head, opt, fcfg

    def test_consistency_term_zero_when_disabled(self, setup):
        cfg, examples = setup
        model, head, opt, fcfg = self.make(
            cfg, consistency_weight=0.0, mixup_enabled=False,
            jitter_enabled=False, timemask_enabled=False,
        )
        out = finetune_step(examples, model, head, opt, fcfg, step=1)
        assert out["consistency"] == 0.0
        assert out["loss"] == pytest.approx(out["bce"])

    def test_identical_views_zero_consistency(self, setup):
        """With all augmentation off the two views coincide exactly."""
        cfg, examples = setup
        model, head, opt, fcfg = self.make(
            cfg, mixup_enabled=False, jitter_enabled=False, timemask_enabled=False,
        )
        out = finetune_step(examples, model, head, opt, fcfg, step=1)
        assert out["consistency"] == pytest.approx(0.0, abs=1e-12)
        assert out["loss"] >= out["bce"]

    def test_total_at_least_bce(self, setup):
        cfg, examples = setup
        model, head, opt, fcfg = self.make(cfg)
        out = finetune_step(examples, model, head, opt, fcfg, step=1)
        assert out["loss"] >= out["bce"]

    def test_deterministic_across_runs(self, setup):
        cfg, examples = setup

        def run():
            model, head, opt, fcfg = self.make(cfg)
            return [
                finetune_step(examples, model, head, opt, fcfg, step)["loss"]
                for step in range(1, 4)
            ]

        assert run() == run()

    def test_negative_max_steps_rejected_before_out_dir(self, setup, tmp_path):
        cfg, examples = setup
        model, head, _, fcfg = self.make(cfg)
        out = tmp_path / "run"
        with pytest.raises(ConfigError):
            run_finetuning(model, head, examples, fcfg, out, max_steps=-3)
        assert not out.exists()

    @pytest.mark.parametrize("weight,views", [(0.0, 1), (2.0, 2)])
    def test_view_b_built_only_when_its_loss_reads_it(self, setup, monkeypatch, weight, views):
        cfg, examples = setup
        model, head, opt, fcfg = self.make(cfg, consistency_weight=weight)
        calls = []
        logmel = finetune_module.logmel
        monkeypatch.setattr(finetune_module, "logmel", lambda *a: calls.append(1) or logmel(*a))
        finetune_step(examples, model, head, opt, fcfg, step=1)
        assert len(calls) == views * len(examples)

    @pytest.mark.parametrize("balance", [False, True])
    def test_balance_toggle_sets_the_sampling_weights(self, setup, tmp_path, monkeypatch, balance):
        cfg, examples = setup
        model, head, _, _ = self.make(cfg)
        fcfg = FinetuneConfig(num_classes=3, batch_size=2, balance_enabled=balance)
        picked = []

        def record(batch, *args):
            picked.append([next(i for i, ex in enumerate(examples) if ex is b) for b in batch])
            return {"step": args[-1]}

        monkeypatch.setattr(finetune_module, "finetune_step", record)
        run_finetuning(model, head, examples, fcfg, tmp_path / "run", max_steps=6)
        weights = balance_weights(np.stack([ex.targets for ex in examples]))

        def draws(p):
            return [
                list(step_rng(fcfg.seed, RNG_SAMPLING, step).choice(4, 2, replace=False, p=p))
                for step in range(1, 7)
            ]

        uniform, balanced = draws(None), draws(weights / weights.sum())
        assert uniform != balanced
        assert picked == (balanced if balance else uniform)

    def test_eval_clip_too_short_to_stack_rejected_before_out_dir(self, setup, tmp_path):
        cfg, examples = setup
        model, head, _, fcfg = self.make(cfg)
        # 300 samples make one logmel frame, fewer than one stack of 2.
        short = LabeledExample(targets=examples[0].targets, waveform=np.zeros(300))
        out = tmp_path / "run"
        with pytest.raises(ShapeError, match="cannot stack 2 frames out of 1"):
            run_finetuning(model, head, examples, fcfg, out, eval_examples=[short], max_steps=1)
        assert not out.exists()



def per_clip_finetune_step(batch, model, head, config, step):
    """The step as one graph and one backward per clip, from the single-clip
    call forms; returns the logged loss, summed as the step sums it."""
    view_a, view_b = finetune_module._augmented_views(batch, config, step, None)
    total = 0.0
    for i, ex in enumerate(batch):
        probs = []
        for view, purpose in ((view_a, RNG_HEAD_DROPOUT_A), (view_b, RNG_HEAD_DROPOUT_B)):
            rng = step_rng(config.seed, purpose, step, i)
            context = model.contextualize(model.encode_features(view[i]), rng=rng)
            probs.append(head(T.dropout(context, config.output_dropout, rng)))
        bce, consistency = bce_loss(probs[0], ex.targets[None]), consistency_loss(*probs)
        loss = T.add(bce, T.mul(consistency, config.consistency_weight))
        T.backward(T.mul(loss, 1.0 / len(batch)))
        total += bce.item() + config.consistency_weight * consistency.item()
    return total / len(batch)


def per_clip_stacked_views_step(batch, model, head, config, step):
    """The step as one graph and one backward per clip, each graph stacking
    that clip's view A and view B as the step stacks a group's views;
    returns the logged loss, summed as the step sums it."""
    view_a, view_b = finetune_module._augmented_views(batch, config, step, None)
    total = 0.0
    for i, ex in enumerate(batch):
        rngs = [step_rng(config.seed, p, step, i) for p in (RNG_HEAD_DROPOUT_A, RNG_HEAD_DROPOUT_B)]
        context = model.contextualize(model.encode_features([view_a[i], view_b[i]]), rng=rngs)
        probs = head(T.dropout(context, config.output_dropout, rngs), clips=2)
        probs_a = T.rows(probs, 0, 1)
        bce = bce_loss(probs_a, ex.targets[None])
        consistency = consistency_loss(probs_a, T.rows(probs, 1, 2))
        loss = T.add(bce, T.mul(consistency, config.consistency_weight))
        T.backward(T.mul(loss, 1.0 / len(batch)))
        total += bce.item() + config.consistency_weight * consistency.item()
    return total / len(batch)


def named_grads(model, head):
    return list(model.named_parameters()) + list(head.named_parameters())


def assert_same_grads(got, want, **tolerance):
    for (name, p), (_, q) in zip(got, want):
        if q.grad is None:  # the mask embedding is not used in fine-tuning
            assert p.grad is None, name
        elif tolerance:
            np.testing.assert_allclose(p.grad, q.grad, **tolerance, err_msg=name)
        else:
            np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)


class TestGroupedStep:
    """A step stacks equal-length clips into one graph per group and still
    computes what one graph per clip computes."""

    CFG = ModelConfig(
        num_blocks=1, embed_dim=16, num_heads=2, ffn_dim=24,
        stack_factor=2, kernel_first=3, kernel_rest=3, dropout=0.1,
    )

    @staticmethod
    def batch(lengths, seed=45):
        rng = np.random.default_rng(seed)
        return [
            LabeledExample(targets=np.eye(3)[i % 3], waveform=rng.normal(scale=0.1, size=n))
            for i, n in enumerate(lengths)
        ]

    def build(self, cfg, head_kind):
        model = ConformerModel(cfg, seed=31).astype(np.float64)
        head = make_head(head_kind, cfg.latent_dim, 3, seed=32).astype(np.float64)
        return model, head

    @pytest.mark.parametrize("head_kind", HEAD_KINDS)
    @pytest.mark.parametrize("mixup", [True, False], ids=["mixup", "two-lengths"])
    def test_grads_equal_one_graph_per_clip(self, backward_calls, head_kind, mixup):
        # 25 and 28 logmel frames: 12 and 14 latent frames. Mixup trims a
        # view to its shortest clip, so only without it do the lengths mix.
        batch = self.batch([8000, 8000, 8960, 8960, 8000])
        fcfg = FinetuneConfig(
            num_classes=3, total_steps=100, batch_size=5, output_dropout=0.1,
            mixup_enabled=mixup,
        )
        grouped, grouped_head = self.build(self.CFG, head_kind)
        calls = backward_calls(finetune_module)
        opt = Adam(named_grads(grouped, grouped_head))
        # Step 0 has learning rate 0, so the parameters stay put.
        record = finetune_step(batch, grouped, grouped_head, opt, fcfg, step=0)
        assert len(calls) == (1 if mixup else 3)
        oracle, oracle_head = self.build(self.CFG, head_kind)
        want = per_clip_finetune_step(batch, oracle, oracle_head, fcfg, step=0)
        assert record["loss"] == pytest.approx(want, rel=1e-10)
        assert_same_grads(
            named_grads(grouped, grouped_head), named_grads(oracle, oracle_head),
            rtol=1e-10, atol=1e-13,
        )

    def test_clips_over_the_cap_backpropagate_one_at_a_time(self, backward_calls):
        # 260 logmel frames, 130 latent rows a view: one view's rows would
        # fit; a group counts both views' rows.
        assert 130 <= GROUP_ROWS < 130 + 130
        batch = self.batch([83200] * 3)
        fcfg = FinetuneConfig(num_classes=3, total_steps=100, batch_size=3, output_dropout=0.1)
        grouped, grouped_head = self.build(self.CFG, "mean-pool")
        calls = backward_calls(finetune_module)
        opt = Adam(named_grads(grouped, grouped_head))
        record = finetune_step(batch, grouped, grouped_head, opt, fcfg, step=0)
        assert len(calls) == 3
        oracle, oracle_head = self.build(self.CFG, "mean-pool")
        assert record["loss"] == pytest.approx(
            per_clip_stacked_views_step(batch, oracle, oracle_head, fcfg, step=0), rel=1e-14
        )
        assert_same_grads(named_grads(grouped, grouped_head), named_grads(oracle, oracle_head))

    @pytest.mark.parametrize("head_kind", HEAD_KINDS)
    def test_eval_scores_equal_one_clip_at_a_time(self, monkeypatch, head_kind):
        batch = self.batch([8000, 8000, 8960, 8000, 8000, 8000])
        model, head = self.build(self.CFG, head_kind)
        seen = []
        monkeypatch.setattr(
            finetune_module, "evaluate_scores", lambda scores, targets: seen.append(scores)
        )
        finetune_module.evaluate_model(model, head, batch)
        monkeypatch.setattr(model_module, "GROUP_ROWS", 0)
        finetune_module.evaluate_model(model, head, batch)
        np.testing.assert_allclose(seen[0], seen[1], rtol=1e-12)

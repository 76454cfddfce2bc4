"""Conformer model: stacking, masking, attention, blocks, parameter counts."""

import numpy as np
import pytest

from melformer import tensor as T
from melformer.errors import ConfigError, ShapeError
from melformer.model import (
    ConformerBlock,
    ConformerModel,
    ModelConfig,
    SelfAttention,
    apply_mask,
    param_count,
    sample_mask,
    time_stack,
)
from melformer.tensor import Tensor, backward, grad_check


def tiny_config(**overrides):
    base = dict(
        num_blocks=2,
        embed_dim=32,
        num_heads=4,
        ffn_dim=48,
        stack_factor=4,
        kernel_first=5,
        kernel_rest=3,
        dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestTimeStack:
    def test_500_frames_stack_to_125x256(self):
        out = time_stack(np.zeros((500, 64)), 4)
        assert out.shape == (125, 256)

    def test_remainder_frames_dropped(self):
        out = time_stack(np.arange(7 * 2, dtype=float).reshape(7, 2), 4)
        assert out.shape == (1, 8)
        np.testing.assert_array_equal(out[0], np.arange(8))

    def test_stack_factor_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(time_stack(x, 1), x)

    def test_too_short_input_rejected(self):
        with pytest.raises(ShapeError):
            time_stack(np.zeros((3, 64)), 4)

    def test_rows_are_concatenated_consecutive_frames(self):
        x = np.random.default_rng(1).normal(size=(8, 3))
        out = time_stack(x, 4)
        np.testing.assert_array_equal(out[1], x[4:8].reshape(-1))


class TestFeatureEncoder:
    def test_output_shape(self):
        model = ConformerModel(tiny_config(), seed=0)
        z = model.encode_features(np.zeros((23, 64)))
        assert z.shape == (5, 32)

    def test_identity_weights_reproduce_stacked_input(self):
        cfg = tiny_config(embed_dim=256, num_heads=8, num_blocks=0)
        model = ConformerModel(cfg, seed=0)
        model.feature_encoder.proj.weight.values = np.eye(256, dtype=np.float32)
        model.feature_encoder.proj.bias.values = np.zeros(256, dtype=np.float32)
        x = np.random.default_rng(2).normal(size=(8, 64)).astype(np.float32)
        z = model.encode_features(x)
        np.testing.assert_allclose(z.values, time_stack(x, 4), rtol=1e-6)

    def test_projection_gradient_matches_finite_differences(self):
        cfg = tiny_config(num_blocks=0)
        model = ConformerModel(cfg, seed=0)
        x = np.random.default_rng(3).normal(size=(8, 64))

        def fn(w):
            stacked = Tensor(time_stack(x, 4).astype(np.float64))
            return T.reduce_sum(T.swish(T.matmul(stacked, w)))

        w0 = Tensor(model.feature_encoder.proj.weight.values.astype(np.float64))
        err = grad_check(fn, w0, rng=np.random.default_rng(0), max_coords_per_tensor=64)
        assert err < 1e-5


class TestSampleMask:
    def test_coverage_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            mask = sample_mask(125, rate=0.30, span_length=10, rng=rng)
            coverage = mask.mean()
            assert 0.30 <= coverage <= 0.38

    def test_minimal_rate_masks_exactly_one(self):
        rng = np.random.default_rng(5)
        mask = sample_mask(50, rate=1.0 / 50, span_length=1, rng=rng)
        assert mask.sum() == 1

    def test_mean_coverage_over_1000_draws(self):
        rng = np.random.default_rng(6)
        mean = np.mean(
            [sample_mask(125, 0.30, 10, rng).mean() for _ in range(1000)]
        )
        assert 0.30 <= mean <= 0.34

    def test_span_longer_than_sequence_rejected(self):
        with pytest.raises(ConfigError):
            sample_mask(5, 0.3, 10, np.random.default_rng(0))


class TestApplyMask:
    def test_all_false_mask_is_identity(self):
        z = Tensor(np.random.default_rng(7).normal(size=(6, 8)).astype(np.float32))
        emb = T.parameter(np.ones((1, 8), dtype=np.float32))
        out = apply_mask(z, np.zeros(6, dtype=bool), emb)
        np.testing.assert_array_equal(out.values, z.values)

    def test_all_true_mask_saturates_to_embedding(self):
        z = Tensor(np.random.default_rng(8).normal(size=(6, 8)).astype(np.float32))
        emb = T.parameter(np.full((1, 8), 0.5, dtype=np.float32))
        out = apply_mask(z, np.ones(6, dtype=bool), emb)
        np.testing.assert_allclose(out.values, 0.5)

    def test_input_is_never_mutated(self):
        z = Tensor(np.random.default_rng(9).normal(size=(6, 8)).astype(np.float32))
        snapshot = z.values.copy()
        emb = T.parameter(np.zeros((1, 8), dtype=np.float32))
        mask = np.array([True, False, True, False, True, False])
        apply_mask(z, mask, emb)
        np.testing.assert_array_equal(z.values, snapshot)

    def test_embedding_gradient_scales_with_masked_rows(self):
        emb = T.parameter(np.zeros((1, 4), dtype=np.float64))
        z = Tensor(np.zeros((10, 4), dtype=np.float64))
        mask = np.zeros(10, dtype=bool)
        mask[:3] = True
        backward(T.reduce_sum(apply_mask(z, mask, emb)))
        np.testing.assert_allclose(emb.grad, 3.0)

    def test_length_mismatch_rejected(self):
        z = Tensor(np.zeros((6, 8)))
        emb = T.parameter(np.zeros((1, 8)))
        with pytest.raises(ShapeError):
            apply_mask(z, np.zeros(5, dtype=bool), emb)


class TestSelfAttention:
    def test_constant_keys_average_the_values(self):
        rng = np.random.default_rng(10)
        attn = SelfAttention(8, 2, 0.0, rng, dtype=np.float64)
        # Zero q/k projections -> uniform attention -> every row is the mean
        # of the projected values.
        attn.query.weight.values[:] = 0.0
        attn.key.weight.values[:] = 0.0
        x = Tensor(rng.normal(size=(5, 8)))
        out = attn.attend(x)
        v = x.values @ attn.value.weight.values + attn.value.bias.values
        expected = (
            np.repeat(v.mean(axis=0, keepdims=True), 5, axis=0) @ attn.out.weight.values
            + attn.out.bias.values
        )
        np.testing.assert_allclose(out.values, expected, rtol=1e-10)

    def test_single_frame_attends_to_itself(self):
        rng = np.random.default_rng(11)
        attn = SelfAttention(8, 2, 0.0, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 8)))
        out = attn.attend(x)
        v = x.values @ attn.value.weight.values + attn.value.bias.values
        expected = v @ attn.out.weight.values + attn.out.bias.values
        np.testing.assert_allclose(out.values, expected, rtol=1e-10)

    def test_logit_scaling_preserves_argmax(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 4))
        logits = x @ rng.normal(size=(4, 6))
        for c in (0.5, 3.0, 17.0):
            w1 = T.softmax(Tensor(logits)).values
            w2 = T.softmax(Tensor(c * logits)).values
            assert not np.allclose(w1, w2) or c == 1.0
            np.testing.assert_array_equal(w1.argmax(axis=1), w2.argmax(axis=1))


class TestConformerBlock:
    def test_shape_preserved(self):
        rng = np.random.default_rng(13)
        block = ConformerBlock(16, 4, 24, 3, 0.0, rng)
        for t in (1, 2, 9):
            x = Tensor(rng.normal(size=(t, 16)).astype(np.float32))
            assert block(x, np.random.default_rng(0)).shape == (t, 16)

    def test_zeroed_outputs_reduce_to_final_layer_norm(self):
        rng = np.random.default_rng(14)
        block = ConformerBlock(16, 4, 24, 3, 0.0, rng, dtype=np.float64)
        for module, names in [
            (block.ffn_pre.lin2, ["weight", "bias"]),
            (block.ffn_post.lin2, ["weight", "bias"]),
            (block.attention.out, ["weight", "bias"]),
            (block.conv.pointwise_out, ["weight", "bias"]),
        ]:
            for n in names:
                getattr(module, n).values[:] = 0.0
        x = Tensor(rng.normal(size=(5, 16)))
        out = block(x, np.random.default_rng(0))
        expected = block.norm(x)
        np.testing.assert_allclose(out.values, expected.values, rtol=1e-10)

    def test_toy_block_graph_stays_small(self):
        # Attention is one fused node; a per-head chain of slices, matmuls
        # and softmaxes would push a 4-head block past 100 nodes. Every
        # projection is one linear node, not a matmul plus a bias add.
        rng = np.random.default_rng(15)
        block = ConformerBlock(64, 4, 128, 31, 0.1, rng)
        x = Tensor(rng.normal(size=(20, 64)).astype(np.float32))
        loss = T.reduce_sum(block(x, np.random.default_rng(0)))
        assert len(T._topological_order(loss)) <= 68


class TestContextEncoder:
    def test_shape_contract(self):
        model = ConformerModel(tiny_config(), seed=1)
        z = model.encode_features(np.zeros((500, 64), dtype=np.float32))
        c = model.contextualize(z, np.random.default_rng(0))
        assert c.shape == (125, 32)

    def test_zero_blocks_compose_the_two_linears(self):
        cfg = tiny_config(num_blocks=0)
        model = ConformerModel(cfg, seed=2)
        enc = model.context_encoder
        z = np.random.default_rng(15).normal(size=(6, 32)).astype(np.float32)
        out = model.contextualize(Tensor(z))
        h = z @ enc.proj_in.weight.values + enc.proj_in.bias.values
        expected = h @ enc.proj_out.weight.values + enc.proj_out.bias.values
        np.testing.assert_allclose(out.values, expected, rtol=1e-5)

    def test_deterministic_repeat_runs_bitwise_identical(self):
        cfg = tiny_config(dropout=0.1)
        x = np.random.default_rng(16).normal(size=(20, 64)).astype(np.float32)

        def run():
            model = ConformerModel(cfg, seed=3)
            z = model.encode_features(x)
            return model.contextualize(z, np.random.default_rng(42)).values

        assert np.array_equal(run(), run())


class TestParamCount:
    def test_cf_s_within_5_percent(self):
        n = param_count(ModelConfig.preset("cf_S"))
        assert abs(n - 18.4e6) / 18.4e6 < 0.05

    def test_cf_l_within_5_percent(self):
        n = param_count(ModelConfig.preset("cf_L"))
        assert abs(n - 88.1e6) / 88.1e6 < 0.05

    def test_more_blocks_strictly_increase_count(self):
        small = param_count(tiny_config())
        big = param_count(tiny_config(num_blocks=4))
        assert big > small

    def test_parameter_names_unique_and_ordered(self):
        model = ConformerModel(tiny_config(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert names == [n for n, _ in model.named_parameters()]


class TestFullModelGradient:
    def test_two_block_model_passes_grad_check(self):
        """End-to-end check through feature encoder, masking and context encoder."""
        from melformer.gradcheck import install_params

        cfg = tiny_config(dropout=0.0)
        model = ConformerModel(cfg, seed=4, dtype=np.float64)
        frames = np.random.default_rng(17).normal(size=(24, 64))
        mask = np.zeros(6, dtype=bool)
        mask[2:4] = True
        names = [n for n, _ in model.named_parameters()]
        originals = [p for _, p in model.named_parameters()]

        def fn(*params):
            install_params(model, names, params)
            z = model.encode_features(frames)
            zm = apply_mask(z, mask, model.mask_embedding)
            c = model.contextualize(zm, np.random.default_rng(0))
            return T.reduce_sum(T.mul(c, c))

        try:
            err = grad_check(
                fn,
                originals,
                eps=2e-5,
                rng=np.random.default_rng(1),
                max_coords_per_tensor=3,
                min_grad_fraction=1e-3,
            )
        finally:
            install_params(model, names, originals)
        assert err < 1e-5

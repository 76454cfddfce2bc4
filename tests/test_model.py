"""Conformer model: stacking, masking, attention, blocks, parameter counts."""

import tracemalloc

import numpy as np
import pytest

from melformer import tensor as T
from melformer.errors import ConfigError, NumericError, ShapeError
from melformer import model as model_module
from melformer.model import (
    GROUP_ROWS,
    ConformerBlock,
    ConformerModel,
    ContextEncoder,
    ConvolutionModule,
    FeedForward,
    ModelConfig,
    SelfAttention,
    apply_mask,
    clip_groups,
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
            return T.reduce_sum(T.swish(T.linear(stacked, w)))

        w0 = Tensor(model.feature_encoder.proj.weight.values.astype(np.float64))
        err = grad_check(fn, w0, rng=np.random.default_rng(0), max_coords_per_tensor=64)
        assert err < 1e-5


class TestStackedClips:
    def test_toy_pretrain_batch_is_one_graph(self):
        assert clip_groups([(25,)] * 8) == [range(0, 8)]

    def test_toy_finetune_batch_runs_as_four_groups_of_four(self):
        # Both views count: 50 rows a clip, so 5 fit; 16 clips need 4.
        groups = clip_groups([(25, 25)] * 16)
        assert [len(g) for g in groups] == [4, 4, 4, 4]
        assert [i for g in groups for i in g] == list(range(16))

    def test_cf_s_clips_pair_up(self):
        # A 10 s clip is 125 latent frames, so two fit in GROUP_ROWS.
        assert 2 * 125 <= GROUP_ROWS < 3 * 125
        assert clip_groups([(125,)] * 4) == [range(0, 2), range(2, 4)]

    def test_runs_of_equal_lengths_split_near_equally_in_batch_order(self):
        counts = [(20,)] * 70 + [(8,)] * 2 + [(20,)]  # 20 rows: 12 clips a graph
        sizes = [(g.start, len(g)) for g in clip_groups(counts)]
        assert sizes == [
            (0, 12), (12, 12), (24, 12), (36, 12), (48, 11), (59, 11), (70, 2), (72, 1),
        ]

    def test_stack_equals_each_clip_alone(self):
        cfg = tiny_config(dropout=0.1)
        model = ConformerModel(cfg, seed=4).astype(np.float64)
        rng = np.random.default_rng(17)
        clips = [rng.normal(size=(20, 64)) for _ in range(3)]
        stacked = model.contextualize(
            model.encode_features(clips), [np.random.default_rng(s) for s in range(3)]
        )
        alone = [
            model.contextualize(model.encode_features(c), np.random.default_rng(s)).values
            for s, c in enumerate(clips)
        ]
        np.testing.assert_allclose(stacked.values, np.concatenate(alone), rtol=1e-12)

    def test_embed_of_a_list_encodes_each_clip_alone(self):
        model = ConformerModel(tiny_config(), seed=5).astype(np.float64).eval()
        rng = np.random.default_rng(18)
        clips = [rng.normal(size=(20, 64)) for _ in range(3)]
        stacked = model.embed(clips).values
        alone = [model.embed(c).values for c in clips]
        np.testing.assert_allclose(stacked, np.concatenate(alone), rtol=1e-12)

    def test_clips_of_unequal_latent_length_rejected(self):
        model = ConformerModel(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match="unequal"):
            model.encode_features([np.zeros((20, 64)), np.zeros((24, 64))])
        # 20 and 23 frames both stack to 5 latent frames.
        assert model.encode_features([np.zeros((20, 64)), np.zeros((23, 64))]).shape == (10, 32)


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
            [sample_mask(125, 0.30, 10, rng=rng).mean() for _ in range(1000)]
        )
        assert 0.30 <= mean <= 0.34

    def test_generator_is_required(self):
        with pytest.raises(TypeError):
            sample_mask(50)

    def test_span_longer_than_sequence_rejected(self):
        with pytest.raises(ConfigError):
            sample_mask(5, 0.3, 10, rng=np.random.default_rng(0))


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
    @staticmethod
    def _values(attn, x):
        """The pre-normed input's value projection."""
        h = T.layer_norm(x, attn.norm.gain, attn.norm.bias).values
        return h @ attn.value.weight.values + attn.value.bias.values

    def test_constant_keys_average_the_values(self):
        rng = np.random.default_rng(10)
        attn = SelfAttention(8, 2, 0.0, rng).astype(np.float64)
        # Zero q/k projections -> uniform attention -> every row is the mean
        # of the projected values.
        attn.query.weight.values[:] = 0.0
        attn.key.weight.values[:] = 0.0
        x = Tensor(rng.normal(size=(5, 8)))
        out = attn(x, None)
        v = self._values(attn, x)
        expected = x.values + (
            np.repeat(v.mean(axis=0, keepdims=True), 5, axis=0) @ attn.out.weight.values
            + attn.out.bias.values
        )
        np.testing.assert_allclose(out.values, expected, rtol=1e-10)

    def test_single_frame_attends_to_itself(self):
        rng = np.random.default_rng(11)
        attn = SelfAttention(8, 2, 0.0, rng).astype(np.float64)
        x = Tensor(rng.normal(size=(1, 8)))
        out = attn(x, None)
        v = self._values(attn, x)
        expected = x.values + v @ attn.out.weight.values + attn.out.bias.values
        np.testing.assert_allclose(out.values, expected, rtol=1e-10)


class TestConformerBlock:
    def test_shape_preserved(self):
        rng = np.random.default_rng(13)
        block = ConformerBlock(16, 4, 24, 3, 0.0, rng)
        for t in (1, 2, 9):
            x = Tensor(rng.normal(size=(t, 16)).astype(np.float32))
            assert block(x, np.random.default_rng(0)).shape == (t, 16)

    def test_zeroed_outputs_reduce_to_final_layer_norm(self):
        rng = np.random.default_rng(14)
        block = ConformerBlock(16, 4, 24, 3, 0.0, rng).astype(np.float64)
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

    def test_toy_block_graph_stays_small(self, recorded):
        # Each sub-module is one fused node; attention alone as a per-head
        # chain of slices, matmuls and softmaxes would push a 4-head block
        # past 100 nodes.
        rng = np.random.default_rng(15)
        block = ConformerBlock(64, 4, 128, 31, 0.1, rng)
        x = Tensor(rng.normal(size=(20, 64)).astype(np.float32))
        loss = T.reduce_sum(block(x, np.random.default_rng(0)))
        # Four sub-module nodes, the final layer norm and the sum.
        nodes = recorded()
        assert len(nodes) == 6 and nodes[-1] is loss


# The unfused compositions of public primitives that the fused sub-module
# nodes replace, kept as their oracles.


def _norm(norm, x):
    return T.layer_norm(x, norm.gain, norm.bias)


def _linear(lin, x):
    return T.linear(x, lin.weight, lin.bias)


def _ffn_oracle(m, x, rng):
    h = T.swish(_linear(m.lin1, _norm(m.norm, x)))
    h = T.dropout(h, m.dropout, rng, m.training)
    h = T.dropout(_linear(m.lin2, h), m.dropout, rng, m.training)
    return T.add(x, T.mul(h, 0.5))


def _conv_oracle(m, x, rng):
    clips, bn = len(T.clip_rngs(rng)), m.batch_norm
    h = T.glu(_linear(m.pointwise_in, _norm(m.norm, x)))
    h = T.conv1d(h, m.depthwise, clips=clips)
    h = T.batch_norm(h, bn.gain, bn.bias, bn.running_mean, bn.running_var, m.training, clips)
    h = T.swish(h)
    return T.add(x, T.dropout(_linear(m.pointwise_out, h), m.dropout, rng, m.training))


def _attention_oracle(m, x, rng):
    h = _norm(m.norm, x)
    # Made v, k, q, so backward sums h's gradient in the fused order q, k, v.
    v, k, q = (_linear(proj, h) for proj in (m.value, m.key, m.query))
    heads = T.attention(q, k, v, m.num_heads, len(T.clip_rngs(rng)))
    return T.add(x, T.dropout(_linear(m.out, heads), m.dropout, rng, m.training))


SUB_MODULES = {
    "feed_forward": (lambda rng: FeedForward(16, 24, 0.3, rng), _ffn_oracle),
    "conv_module": (lambda rng: ConvolutionModule(16, 5, 0.3, rng), _conv_oracle),
    "self_attention": (lambda rng: SelfAttention(16, 4, 0.3, rng), _attention_oracle),
}


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestFusedSubModules:
    CLIPS, FRAMES = 3, 7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("name", list(SUB_MODULES))
    def test_bits_match_the_composition(self, name, training, dtype):
        """Output, input and parameter gradients, running buffers and the
        generators' next draws, on a stack of 3 clips."""
        build, oracle = SUB_MODULES[name]
        rng = np.random.default_rng(40)
        module = build(rng).astype(dtype)
        (module.train if training else module.eval)()
        for _, buf in module.named_buffers():
            buf[...] = np.abs(rng.normal(size=buf.shape)) + 0.5
        buffers = {n: b.copy() for n, b in module.named_buffers()}
        x = rng.normal(size=(self.CLIPS * self.FRAMES, 16)).astype(dtype)
        w = rng.normal(size=x.shape).astype(dtype)

        def run(forward):
            for n, b in module.named_buffers():
                b[...] = buffers[n]
            gens = [np.random.default_rng([41, i]) for i in range(self.CLIPS)]
            leaf = Tensor(x.copy(), requires_grad=True)
            out = forward(module, leaf, gens)
            backward(T.reduce_sum(T.mul(out, Tensor(w))))
            grads = [leaf.grad] + [p.grad for p in module.parameters()]
            for p in module.parameters():
                p.grad = None
            state = [b.copy() for _, b in module.named_buffers()]
            draws = [g.bit_generator.random_raw(4) for g in gens]
            return [out.values, *grads, *state, *draws]

        got = run(lambda m, leaf, gens: m(leaf, gens))
        want = run(oracle)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_bits(a, b)

    @pytest.mark.parametrize("name", list(SUB_MODULES))
    def test_non_finite_input_names_the_node(self, name):
        module = SUB_MODULES[name][0](np.random.default_rng(42))
        x = np.ones((self.FRAMES, 16), dtype=np.float32)
        x[2, 3] = np.nan
        with pytest.raises(NumericError, match=f"'{name}'"):
            module(Tensor(x), np.random.default_rng(43))

    @pytest.mark.parametrize("name", list(SUB_MODULES))
    def test_input_of_the_wrong_width_names_the_node(self, name):
        module = SUB_MODULES[name][0](np.random.default_rng(44))
        x = Tensor(np.ones((self.FRAMES, 15), dtype=np.float32))
        with pytest.raises(ShapeError, match=f"^{name}: gain/bias must match the feature dim"):
            module(x, np.random.default_rng(45))

    @pytest.mark.parametrize("kernel", [4, 0, -3])
    def test_even_or_non_positive_depthwise_kernel_is_config_error(self, kernel):
        with pytest.raises(ConfigError, match=f"kernel {kernel} must be odd and positive"):
            ConvolutionModule(16, kernel, 0.3, np.random.default_rng(46))

    @pytest.mark.parametrize("build", [
        lambda rate, rng: FeedForward(16, 24, rate, rng),
        lambda rate, rng: ConvolutionModule(16, 5, rate, rng),
        lambda rate, rng: SelfAttention(16, 4, rate, rng),
    ], ids=list(SUB_MODULES))
    @pytest.mark.parametrize("rate", [1.5, 1.0, -0.1])
    def test_dropout_rate_outside_unit_interval_is_config_error(self, build, rate):
        with pytest.raises(ConfigError, match=rf"dropout {rate} outside \[0, 1\)"):
            build(rate, np.random.default_rng(47))

    @pytest.mark.parametrize("build", [
        lambda rate, rng: FeedForward(16, 24, rate, rng),
        lambda rate, rng: ConvolutionModule(16, 5, rate, rng),
        lambda rate, rng: SelfAttention(16, 4, rate, rng),
        lambda rate, rng: ModelConfig(dropout=rate),
    ], ids=[*SUB_MODULES, "model_config"])
    def test_dropout_rate_that_rounds_to_one_is_config_error(self, build):
        # Dropout draws 16-bit words: 1 - 1/65536 keeps one word in 65536,
        # and 0.999999 rounds to 65536/65536, which would keep nothing.
        build(1 - 1 / 65536, np.random.default_rng(47))
        with pytest.raises(ConfigError, match=r"dropout 0.999999 rounds to 1"):
            build(0.999999, np.random.default_rng(47))

    @pytest.mark.parametrize("heads", [0, -4])
    def test_attention_with_fewer_than_one_head_is_config_error(self, heads):
        with pytest.raises(ConfigError, match=f"num_heads {heads} must be >= 1"):
            SelfAttention(16, heads, 0.3, np.random.default_rng(48))


class TestGraphMemory:
    def test_a_cf_s_width_block_keeps_a_lean_graph(self):
        """tracemalloc peak of one training forward+backward through a
        1-block ContextEncoder at cf_S width on a stack of 2 x 125 frames.
        It read 17.10 MB when the graph held each layer norm's standardized
        rows, each linear's input after a layer norm and the FFNs' first
        dropout masks, and 14.80 MB without them; holding any one of the
        three again reads 15.57, 15.83 or 15.32 MB. The bound lies between."""
        cfg = ModelConfig(
            num_blocks=1, embed_dim=256, num_heads=8, ffn_dim=1024, kernel_first=15, dropout=0.1,
        )
        encoder = ContextEncoder(cfg, np.random.default_rng(0))
        z = np.random.default_rng(1).normal(size=(250, 256)).astype(np.float32)
        rngs = [np.random.default_rng(s) for s in (2, 3)]
        tracemalloc.start()
        try:
            backward(T.reduce_sum(encoder(Tensor(z), rngs)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15.1e6

    def test_a_cf_s_width_conv_module_holds_its_batch_norm_input_once(self):
        """tracemalloc memory still held after one training forward of a
        ConvolutionModule at cf_S width on a stack of 2 x 125 frames, its
        output included. It read 2.41 MB when training batch norm kept its
        standardized rows beside its input, and 2.16 MB now that backward
        forms them again. The bound lies between."""
        conv = ConvolutionModule(256, 15, 0.1, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(250, 256)).astype(np.float32))
        rngs = [np.random.default_rng(s) for s in (2, 3)]
        tracemalloc.start()
        try:
            out = conv(x, rngs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        backward(T.reduce_sum(out))
        assert held < 2.28e6


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

    def test_training_mode_without_generators_is_config_error(self):
        model = ConformerModel(tiny_config(dropout=0.1), seed=3)
        x = np.random.default_rng(16).normal(size=(20, 64)).astype(np.float32)
        with pytest.raises(ConfigError, match="generator"):
            model.embed(x)

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

    def test_names_follow_attribute_order_depth_first(self):
        # Adam's parameter order sets the summation order of the grad norm,
        # so a module's own parameters stay between its submodules' ones.
        model = ConformerModel(tiny_config(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        at = names.index("mask_embedding")
        assert all(n.startswith("feature_encoder.") for n in names[:at])
        assert all(n.startswith("context_encoder.") for n in names[at + 1 :])
        conv = [n for n in names if n.startswith("context_encoder.blocks.1.conv.")]
        assert conv.index("context_encoder.blocks.1.conv.depthwise") == 4
        assert [n for n, _ in model.named_buffers()] == [
            f"context_encoder.blocks.{i}.conv.batch_norm.{s}"
            for i in (0, 1)
            for s in ("running_mean", "running_var")
        ]

    def test_eval_and_train_reach_every_module(self):
        model = ConformerModel(tiny_config(), seed=0)
        modules, _ = model._walk()
        assert model.context_encoder.blocks[1].conv.batch_norm in modules
        model.eval()
        assert not any(m.training for m in modules)
        model.train()
        assert all(m.training for m in modules)

    def test_astype_casts_every_parameter_and_buffer(self):
        model = ConformerModel(tiny_config(), seed=0)
        built = {name: a.copy() for name, a in model.state_arrays().items()}
        assert {a.dtype for a in built.values()} == {np.dtype(np.float32)}
        assert model.astype(np.float64) is model
        cast = model.state_arrays()
        assert list(cast) == list(built)
        for name, a in cast.items():
            assert a.dtype == np.float64 and np.array_equal(a, built[name]), name


class TestFullModelGradient:
    def test_two_block_model_passes_grad_check(self):
        """End-to-end check through feature encoder, masking and context encoder."""
        cfg = tiny_config(dropout=0.0)
        model = ConformerModel(cfg, seed=4).astype(np.float64)
        frames = np.random.default_rng(17).normal(size=(24, 64))
        mask = np.zeros(6, dtype=bool)
        mask[2:4] = True

        def fn(*params):
            z = model.encode_features(frames)
            zm = apply_mask(z, mask, model.mask_embedding)
            c = model.contextualize(zm, np.random.default_rng(0))
            return T.reduce_sum(T.mul(c, c))

        err = grad_check(
            fn,
            model.parameters(),
            eps=2e-5,
            rng=np.random.default_rng(1),
            max_coords_per_tensor=3,
            min_grad_fraction=1e-3,
        )
        assert err < 1e-5

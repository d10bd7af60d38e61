import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockops import tensor as T
from blockops.nn import (
    Fnn,
    FnnConfig,
    Fnnr,
    LayerTrace,
    Multiplexer,
    Smfr,
    SmfrConfig,
    fnn_parameter_count,
    force_copy_routing,
    max_abs_routing_logit,
    routing_regularization_loss,
    smfr_parameter_count,
)


def small_smfr(attention="softmax", depth=1, width=2, block_size=3,
               n_in=2, n_out=1, hidden=(4,), no_context=False, seed=0):
    cfg = SmfrConfig(block_size=block_size, input_blocks=n_in, output_blocks=n_out,
                     stack_width=width, stack_depth=depth, fnn_hidden=list(hidden),
                     attention=attention, no_context=no_context)
    return Smfr(cfg, np.random.default_rng(seed))


class TestFnn:
    def test_parameter_count_closed_form(self):
        assert fnn_parameter_count(30, [100, 100], 30) == 16230

    def test_live_count_matches_closed_form(self):
        fnn = Fnn(np.random.default_rng(0), FnnConfig(30, 30, [100, 100]))
        assert fnn.num_parameters() == 16230

    def test_no_hidden_layer_is_affine(self):
        fnn = Fnn(np.random.default_rng(0), FnnConfig(3, 2, []))
        w, b = fnn.layers[0]
        x = np.random.default_rng(1).normal(size=(4, 3))
        out = fnn.forward(T.tensor(x))
        assert np.allclose(out.data, x @ w.data + b.data)

    def test_biases_start_at_zero(self):
        fnn = Fnn(np.random.default_rng(0), FnnConfig(5, 4, [7]))
        for _, b in fnn.layers:
            assert np.array_equal(b.data, np.zeros_like(b.data))

    def test_init_bound_scales_with_fan_in(self):
        fnn = Fnn(np.random.default_rng(0), FnnConfig(400, 4, []))
        w, _ = fnn.layers[0]
        assert np.abs(w.data).max() <= np.sqrt(1.0 / 400)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            FnnConfig(0, 5).validate()
        with pytest.raises(ValueError):
            FnnConfig(5, 5, [0]).validate()


class TestBlendBlocks:
    # the Multiplexer's blend, the engine's mix node
    def test_one_hot_weights_copy_blocks(self):
        blocks = np.random.default_rng(0).normal(size=(2, 3, 4))
        weights = np.zeros((2, 3, 2))
        weights[:, 1, 0] = 1.0
        weights[:, 2, 1] = 1.0
        out = T.mix(T.tensor(weights), T.tensor(blocks))
        assert np.array_equal(out.data[:, 0], blocks[:, 1])
        assert np.array_equal(out.data[:, 1], blocks[:, 2])

    def test_permuting_blocks_and_weight_rows_is_invariant(self):
        # relabeling the inputs while permuting the mixing rows the same way
        # is an exact algebraic identity of the blend
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(2, 4, 3))
        weights = rng.random(size=(2, 4, 2))
        perm = np.array([2, 0, 3, 1])
        base = T.mix(T.tensor(weights), T.tensor(blocks))
        permuted = T.mix(T.tensor(weights[:, perm]), T.tensor(blocks[:, perm]))
        assert np.allclose(base.data, permuted.data, atol=1e-15)


class TestMultiplexer:
    def test_single_input_block_is_identity(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=1, n_out=1, block_size=5,
                          fnn_hidden=[8])
        blocks = np.random.default_rng(1).normal(size=(3, 1, 5))
        out, weights, _ = mux.forward(T.tensor(blocks))
        assert np.array_equal(weights.data, np.ones((3, 1, 1)))
        assert np.array_equal(out.data, blocks)

    def test_equal_logits_average_blocks(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=2, n_out=1, block_size=4,
                          fnn_hidden=[8])
        w, b = mux.fnn.layers[-1]
        w.data[:] = 0.0
        b.data[:] = 0.0
        blocks = np.random.default_rng(1).normal(size=(3, 2, 4))
        out, weights, _ = mux.forward(T.tensor(blocks))
        assert np.allclose(weights.data, 0.5)
        assert np.allclose(out.data[:, 0], blocks.mean(axis=1))

    def test_softmax_weights_normalize_over_inputs(self):
        mux = Multiplexer(np.random.default_rng(2), n_in=4, n_out=3, block_size=5,
                          fnn_hidden=[16])
        blocks = np.random.default_rng(3).normal(size=(6, 4, 5))
        _, weights, _ = mux.forward(T.tensor(blocks))
        assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-6)

    def test_saturated_logits_copy_bit_exact(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=3, n_out=2, block_size=4,
                          fnn_hidden=[8])
        w, b = mux.fnn.layers[-1]
        w.data[:] = 0.0
        bias = np.zeros((3, 2))
        bias[2, 0] = 1000.0
        bias[0, 1] = 1000.0
        b.data[:] = bias.reshape(-1)
        blocks = np.random.default_rng(1).normal(size=(2, 3, 4))
        out, weights, _ = mux.forward(T.tensor(blocks))
        assert np.array_equal(out.data[:, 0], blocks[:, 2])
        assert np.array_equal(out.data[:, 1], blocks[:, 0])

    def test_gumbel_training_mode_is_one_hot(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=3, n_out=2, block_size=4,
                          fnn_hidden=[8], attention="gumbel_st")
        blocks = np.random.default_rng(1).normal(size=(5, 3, 4))
        _, weights, _ = mux.forward(T.tensor(blocks), rng=np.random.default_rng(2))
        assert np.all(np.sort(weights.data, axis=1)[:, :-1] == 0.0)
        assert np.all(weights.data.sum(axis=1) == 1.0)

    def test_gumbel_needs_rng_in_training_mode(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=2, n_out=1, block_size=3,
                          fnn_hidden=[4], attention="gumbel_st")
        with pytest.raises(ValueError):
            mux.forward(T.tensor(np.zeros((1, 2, 3))))

    def test_gumbel_eval_mode_is_noise_free(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=3, n_out=2, block_size=4,
                          fnn_hidden=[8], attention="gumbel_st")
        blocks = np.random.default_rng(1).normal(size=(2, 3, 4))
        _, w1, _ = mux.forward(T.tensor(blocks), eval_mode=True)
        _, w2, _ = mux.forward(T.tensor(blocks), eval_mode=True)
        assert np.array_equal(w1.data, w2.data)
        assert np.all(w1.data.sum(axis=1) == 1.0)

    def test_rejects_wrong_block_shape(self):
        mux = Multiplexer(np.random.default_rng(0), n_in=2, n_out=1, block_size=3,
                          fnn_hidden=[4])
        with pytest.raises(ValueError):
            mux.forward(T.tensor(np.zeros((1, 3, 3))))


class TestFnnr:
    def saturated(self, gate_logit):
        fnnr = Fnnr(np.random.default_rng(0), n_blocks=2, block_size=3,
                    context_blocks=0, fnn_hidden=[8])
        w, b = fnnr.fnn.layers[-1]
        w.data[:] = 0.0
        b.data[:] = 0.0
        b.data[2 * 3:] = gate_logit
        return fnnr

    def test_gate_one_passes_routed_through(self):
        fnnr = self.saturated(40.0)
        routed = np.random.default_rng(1).normal(size=(2, 2, 3))
        out, gates, _ = fnnr.forward(T.tensor(routed), None)
        assert np.all(gates.data == 1.0)
        assert np.array_equal(out.data, routed)

    def test_gate_zero_emits_candidates(self):
        fnnr = self.saturated(-40.0)
        routed = np.random.default_rng(1).normal(size=(2, 2, 3))
        out, gates, _ = fnnr.forward(T.tensor(routed), None)
        assert np.allclose(gates.data, 0.0, atol=1e-17)
        # candidate head was zeroed, so the output is the zero candidates
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_gate_zero_logit_is_even_mix(self):
        fnnr = self.saturated(0.0)
        routed = np.random.default_rng(1).normal(size=(2, 2, 3))
        out, gates, _ = fnnr.forward(T.tensor(routed), None)
        assert np.allclose(gates.data, 0.5)
        assert np.allclose(out.data, 0.5 * routed)

    def test_context_is_required_when_configured(self):
        fnnr = Fnnr(np.random.default_rng(0), n_blocks=2, block_size=3,
                    context_blocks=2, fnn_hidden=[8])
        with pytest.raises(ValueError):
            fnnr.forward(T.tensor(np.zeros((1, 2, 3))), None)


class TestSmfrStructure:
    def test_depth_zero_is_single_layer(self):
        cfg = SmfrConfig(block_size=3, input_blocks=4, output_blocks=2,
                         stack_width=7, stack_depth=0)
        assert cfg.layer_shapes() == [(4, 2)]
        model = Smfr(cfg, np.random.default_rng(0))
        out, traces = model.forward(T.tensor(np.zeros((2, 4, 3))))
        assert out.data.shape == (2, 2, 3)
        assert len(traces) == 1

    def test_depth_n_has_n_plus_one_layers(self):
        cfg = SmfrConfig(block_size=3, input_blocks=4, output_blocks=2,
                         stack_width=5, stack_depth=3)
        assert cfg.layer_shapes() == [(4, 5), (5, 5), (5, 5), (5, 2)]
        model = Smfr(cfg, np.random.default_rng(0))
        _, traces = model.forward(T.tensor(np.zeros((1, 4, 3))))
        assert len(traces) == 4

    def test_trace_fields_are_well_formed(self):
        model = small_smfr(width=3, n_in=2, n_out=2)
        x = np.random.default_rng(1).normal(size=(4, 2, 3))
        _, traces = model.forward(T.tensor(x))
        for trace in traces:
            assert np.allclose(trace.mux_weights.data.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(trace.mux_weights.data >= 0.0)
            assert np.all(trace.gate_values.data > 0.0)
            assert np.all(trace.gate_values.data < 1.0)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            SmfrConfig(block_size=3, input_blocks=2, output_blocks=1,
                       stack_width=2, stack_depth=-1).validate()

    def test_rejects_unknown_attention(self):
        with pytest.raises(ValueError):
            SmfrConfig(block_size=3, input_blocks=2, output_blocks=1,
                       stack_width=2, stack_depth=1, attention="sparsemax").validate()


class TestParameterCounts:
    # reference sizes for the two-summand digit task family: block size 10,
    # five input blocks, one output block, hidden width 100 per contained layer
    @pytest.mark.parametrize("width,depth,layers,expected", [
        (5, 1, 1, 36096),
        (8, 1, 1, 50247),
        (9, 1, 1, 54964),
        (9, 1, 2, 95364),
        (10, 2, 1, 111091),
    ])
    def test_reference_sizes(self, width, depth, layers, expected):
        cfg = SmfrConfig(block_size=10, input_blocks=5, output_blocks=1,
                         stack_width=width, stack_depth=depth,
                         fnn_hidden=[100] * layers)
        assert smfr_parameter_count(cfg) == expected

    def test_live_model_matches_closed_form(self):
        cfg = SmfrConfig(block_size=10, input_blocks=5, output_blocks=1,
                         stack_width=5, stack_depth=1, fnn_hidden=[100])
        model = Smfr(cfg, np.random.default_rng(0))
        assert model.num_parameters() == 36096

    def test_count_grows_with_width_and_depth(self):
        def count(width, depth):
            return smfr_parameter_count(
                SmfrConfig(block_size=10, input_blocks=5, output_blocks=1,
                           stack_width=width, stack_depth=depth))
        assert count(6, 1) > count(5, 1)
        assert count(5, 2) > count(5, 1)

    def test_no_context_is_smaller(self):
        base = SmfrConfig(block_size=10, input_blocks=5, output_blocks=1,
                          stack_width=5, stack_depth=1)
        slim = SmfrConfig(block_size=10, input_blocks=5, output_blocks=1,
                          stack_width=5, stack_depth=1, no_context=True)
        assert smfr_parameter_count(slim) < smfr_parameter_count(base)


class TestForcedRouting:
    def test_identity_chain_is_bit_exact(self):
        cfg = SmfrConfig(block_size=6, input_blocks=2, output_blocks=2,
                         stack_width=4, stack_depth=3, fnn_hidden=[8])
        model = Smfr(cfg, np.random.default_rng(0))
        force_copy_routing(model, [[0, 1, 0, 1], [0, 1, 2, 3], [0, 1, 2, 3], [0, 1]])
        x = np.random.default_rng(1).normal(size=(3, 2, 6))
        out, _ = model.forward(T.tensor(x))
        assert np.array_equal(out.data, x)

    def test_permutation_routing(self):
        cfg = SmfrConfig(block_size=4, input_blocks=3, output_blocks=3,
                         stack_width=3, stack_depth=0, fnn_hidden=[8])
        model = Smfr(cfg, np.random.default_rng(0))
        force_copy_routing(model, [[2, 0, 1]])
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        out, _ = model.forward(T.tensor(x))
        assert np.array_equal(out.data, x[:, [2, 0, 1]])

    def test_copy_fidelity_at_moderate_logit(self):
        cfg = SmfrConfig(block_size=5, input_blocks=2, output_blocks=2,
                         stack_width=2, stack_depth=1, fnn_hidden=[8])
        model = Smfr(cfg, np.random.default_rng(0))
        force_copy_routing(model, [[0, 1], [0, 1]], logit=40.0)
        x = np.random.default_rng(1).normal(size=(4, 2, 5))
        out, _ = model.forward(T.tensor(x))
        assert np.abs(out.data - x).max() < 1e-6

    def test_rejects_wrong_shape_routing(self):
        model = small_smfr(depth=1, width=2, n_in=2, n_out=1)
        with pytest.raises(ValueError):
            force_copy_routing(model, [[0, 1]])
        with pytest.raises(ValueError):
            force_copy_routing(model, [[0, 5], [0]])

    def test_gate_zero_emulates_plain_fnn(self):
        # with gates forced shut the layer output is exactly the candidate
        # head, a plain FNN read of (routed, context)
        model = small_smfr(depth=0, n_in=2, n_out=2, width=2, block_size=3)
        layer = model.layers[0]
        w, b = layer.fnnr.fnn.layers[-1]
        b.data[2 * 3:] = -1000.0
        x = np.random.default_rng(1).normal(size=(2, 2, 3))
        out, traces = model.forward(T.tensor(x))
        assert np.all(traces[0].gate_values.data == 0.0)

        routed, _, _ = layer.mux.forward(T.tensor(x))
        assert np.array_equal(traces[0].routed.data, routed.data)
        flat = np.concatenate([routed.data.reshape(2, -1), x.reshape(2, -1)], axis=1)
        trunk = layer.fnnr.fnn.forward(T.tensor(flat))
        candidates = trunk.data[:, :2 * 3].reshape(2, 2, 3)
        assert np.allclose(out.data, candidates, atol=1e-15)


class TestRoutingRegularization:
    def trace(self, mux_logits, gate_logits):
        mux = T.parameter(np.array(mux_logits, dtype=np.float64))
        gate = T.parameter(np.array(gate_logits, dtype=np.float64))
        # the penalty reads only the logits; no gate values or routed blocks
        # are needed
        return LayerTrace(T.softmax(mux, axis=1), mux, None, gate, routed=None), mux, gate

    def test_in_band_logits_cost_nothing(self):
        trace, _, _ = self.trace(np.full((1, 2, 2), 19.9), np.zeros((1, 2)))
        assert routing_regularization_loss([trace]).item() == 0.0

    def test_single_violation_costs_excess_squared(self):
        mux_logits = np.zeros((1, 2, 2))
        mux_logits[0, 0, 0] = 22.0
        trace, _, _ = self.trace(mux_logits, np.zeros((1, 2)))
        # a logit 2 beyond the band costs (22-20)^2 regardless of how many
        # in-band entries share the tensor
        assert routing_regularization_loss([trace]).item() == pytest.approx(4.0)

    def test_violations_add_across_tensors(self):
        mux_logits = np.zeros((1, 2, 2))
        mux_logits[0, 0, 0] = 22.0
        gate_logits = np.zeros((1, 2))
        gate_logits[0, 1] = -23.0
        trace, _, _ = self.trace(mux_logits, gate_logits)
        assert routing_regularization_loss([trace]).item() == pytest.approx(4.0 + 9.0)

    def test_gradient_pushes_back_toward_band(self):
        mux_logits = np.zeros((1, 2, 2))
        mux_logits[0, 0, 0] = 22.0
        mux_logits[0, 1, 1] = -25.0
        trace, mux, gate = self.trace(mux_logits, np.zeros((1, 2)))
        routing_regularization_loss([trace]).backward()
        assert mux.grad[0, 0, 0] > 0.0
        assert mux.grad[0, 1, 1] < 0.0
        assert mux.grad[0, 0, 1] == 0.0
        assert np.array_equal(gate.grad, np.zeros((1, 2)))

    def test_fresh_model_starts_in_band(self):
        model = small_smfr(width=3, n_in=3, n_out=2, block_size=4)
        x = np.random.default_rng(1).normal(size=(8, 3, 4))
        _, traces = model.forward(T.tensor(x))
        assert routing_regularization_loss(traces).item() == 0.0
        assert max_abs_routing_logit(traces) < 20.0

    def test_saturated_model_is_penalized(self):
        model = small_smfr(width=2, n_in=2, n_out=1)
        force_copy_routing(model, [[0, 1], [0]], logit=100.0)
        x = np.random.default_rng(1).normal(size=(4, 2, 3))
        _, traces = model.forward(T.tensor(x))
        assert routing_regularization_loss(traces).item() > 0.0
        assert max_abs_routing_logit(traces) == pytest.approx(100.0)

    def test_rejects_nonpositive_threshold(self):
        trace, _, _ = self.trace(np.zeros((1, 2, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            routing_regularization_loss([trace], threshold=0.0)

    def test_peak_is_order_independent_and_propagates_nan(self):
        # a NaN anywhere, before or after a larger finite logit, reads NaN
        logits = [np.full((1, 2, 2), 2.0), np.full((1, 2), -3.0),
                  np.full((1, 2, 1), np.nan), np.full((1, 1), 0.5)]
        for order in itertools.permutations(logits):
            traces = [self.trace(order[0], order[1])[0], self.trace(order[2], order[3])[0]]
            assert np.isnan(max_abs_routing_logit(traces))
        finite = logits[:2] + [np.full((1, 2, 1), -1.0), logits[3]]
        for order in itertools.permutations(finite):
            traces = [self.trace(order[0], order[1])[0], self.trace(order[2], order[3])[0]]
            assert max_abs_routing_logit(traces) == 3.0
        assert max_abs_routing_logit([]) == 0.0


@st.composite
def in_band_float32_logits(draw):
    """A threshold that float32 cannot hold exactly, and float32 Multiplexer
    and gate logits whose |value| is at most that threshold, the largest
    such float32 among the candidates."""
    threshold = draw(st.just(0.1) | st.floats(1e-3, 1e3).filter(
        lambda t: float(np.float32(t)) != t))
    t32 = np.float32(threshold)
    edges = [t32, np.nextafter(t32, np.float32(0)), np.nextafter(t32, np.float32(np.inf))]
    value = (st.floats(-1.0, 1.0).map(lambda f: np.float32(f * threshold))
             | st.sampled_from(edges + [-e for e in edges]))
    value = value.filter(lambda v: abs(float(v)) <= threshold)
    mux = draw(st.lists(value, min_size=4, max_size=4))
    gate = draw(st.lists(value, min_size=2, max_size=2))
    return threshold, mux, gate


@settings(max_examples=200, deadline=None)
@given(in_band_float32_logits())
def test_in_band_float32_logits_add_exact_zeros(case):
    # the training step skips the penalty when the peak |logit| is within
    # the band; that keeps the bits only if the penalty there is exactly 0.0
    # and adds +0.0 to every logit's gradient
    threshold, mux_values, gate_values = case
    mux = T.parameter(np.array(mux_values, dtype=np.float32).reshape(1, 2, 2))
    gate = T.parameter(np.array(gate_values, dtype=np.float32).reshape(1, 2))
    trace = LayerTrace(None, mux, None, gate, None)
    assert max_abs_routing_logit([trace]) <= threshold
    penalty = routing_regularization_loss([trace], threshold)
    penalty.backward()
    assert penalty.item() == 0.0 and not np.signbit(penalty.data)
    for logits in (mux, gate):
        # the -0.0 birth gradient plus the node's gradient: +0.0 only if it added +0.0
        assert np.all(logits.grad == 0.0) and not np.signbit(logits.grad).any()


class TestSmfrGradients:
    def test_full_model_matches_finite_differences(self):
        cfg = SmfrConfig(block_size=3, input_blocks=2, output_blocks=1,
                         stack_width=2, stack_depth=1, fnn_hidden=[4])
        model = Smfr(cfg, np.random.default_rng(0))
        params = model.parameters()
        x = np.random.default_rng(1).normal(size=(2, 2, 3))
        w_out = np.random.default_rng(2).normal(size=(2, 1, 3))

        def loss_tensor():
            out, _ = model.forward(T.tensor(x))
            return T.sum_all(T.mul(out, T.tensor(w_out)))

        loss = loss_tensor()
        loss.backward()

        h = 1e-5
        worst = 0.0
        for p in params.values():
            flat = p.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_tensor().item()
                flat[i] = orig - h
                fm = loss_tensor().item()
                flat[i] = orig
                numeric[i] = (fp - fm) / (2 * h)
            analytic = p.grad.reshape(-1)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
        assert worst < 1e-3

    def test_half_open_gate_feeds_both_paths(self):
        model = small_smfr(depth=0, n_in=2, n_out=2, width=2)
        layer = model.layers[0]
        x = np.random.default_rng(1).normal(size=(3, 2, 3))
        out, _ = model.forward(T.tensor(x))
        T.sum_all(out).backward()
        mux_w = layer.mux.fnn.layers[0][0]
        fnnr_w = layer.fnnr.fnn.layers[0][0]
        assert np.abs(mux_w.grad).max() > 0.0
        assert np.abs(fnnr_w.grad).max() > 0.0

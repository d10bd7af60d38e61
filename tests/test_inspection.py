import csv

import numpy as np
import pytest

from blockops.inspection import (
    RoutingTrace,
    attention_fairness,
    attention_sharpness,
    extract_routing_trace,
    gate_summary,
    permutation_difference,
    write_indicator_csv,
)
from blockops.harness.config import ExperimentConfig
from blockops.harness.training import build_model
from blockops.nn import Smfr, SmfrConfig, force_copy_routing
from blockops.tasks.bpmnist import BLOCK_SIZE, NUM_PERMS, build_permutation_set, encode_bpmnist
from blockops.tensor import Tensor
from blockops.transformer import Transformer, TransformerConfig


def random_smfr(seed=0, **overrides):
    base = dict(block_size=4, input_blocks=3, output_blocks=2, stack_width=3,
                stack_depth=1, fnn_hidden=[8])
    base.update(overrides)
    return Smfr(SmfrConfig(**base), np.random.default_rng(seed))


def layer(attention, gates=None, routed=None):
    entry = {"attention": np.asarray(attention, dtype=np.float64)}
    if gates is not None:
        entry["gates"] = np.asarray(gates, dtype=np.float64)
    if routed is not None:
        entry["routed"] = np.asarray(routed, dtype=np.float64)
    return entry


def undo_routing_model(pset):
    """SMFR whose first multiplexer reads the indicator block and routes the
    exact inverse band permutation, so routed activations are permutation
    independent by construction."""
    cfg = SmfrConfig(block_size=BLOCK_SIZE, input_blocks=5, output_blocks=4,
                     stack_width=4, stack_depth=0, fnn_hidden=[8])
    model = Smfr(cfg, np.random.default_rng(0))
    mux_fnn = model.layers[0].mux.fnn
    w1, b1 = mux_fnn.layers[0]
    w2, b2 = mux_fnn.layers[1]
    w1.data[:] = 0.0
    b1.data[:] = 0.0
    for pid in range(NUM_PERMS):
        # indicator one-hot sits at flat offset 4*196; hidden neuron pid fires
        w1.data[4 * BLOCK_SIZE + pid, pid] = 1.0
    w2.data[:] = 0.0
    b2.data[:] = -1000.0
    for pid in range(NUM_PERMS):
        sources = np.argsort(pset.perms[pid])
        for n in range(4):
            w2.data[pid, sources[n] * 4 + n] = 2000.0
    return model


class TestTraceExtraction:
    def test_layer_shapes_put_sources_last(self):
        model = random_smfr(stack_width=3)
        inputs = np.random.default_rng(1).normal(size=(6, 3, 4))
        trace = extract_routing_trace(model, inputs)
        assert len(trace.layers) == 2
        assert trace.layers[0]["attention"].shape == (6, 3, 3)
        assert trace.layers[1]["attention"].shape == (6, 2, 3)
        assert trace.layers[0]["gates"].shape == (6, 3)
        assert trace.layers[0]["routed"].shape == (6, 3, 4)

    def test_attention_rows_are_distributions(self):
        model = random_smfr()
        inputs = np.random.default_rng(2).normal(size=(5, 3, 4))
        trace = extract_routing_trace(model, inputs)
        for entry in trace.layers:
            assert np.allclose(entry["attention"].sum(axis=-1), 1.0, atol=1e-9)

    def test_saturated_copy_model_is_one_hot(self):
        model = random_smfr(stack_width=3, output_blocks=2)
        force_copy_routing(model, [[0, 1, 2], [1, 0]])
        inputs = np.random.default_rng(3).normal(size=(4, 3, 4))
        trace = extract_routing_trace(model, inputs)
        for entry in trace.layers:
            att = entry["attention"]
            assert np.array_equal(np.sort(att, axis=-1)[..., :-1], np.zeros_like(att[..., :-1]))
        assert attention_sharpness(trace) == 1.0

    def test_values_match_recomputed_forward(self):
        from blockops import tensor as T

        model = random_smfr(seed=4)
        inputs = np.random.default_rng(5).normal(size=(3, 3, 4))
        trace = extract_routing_trace(model, inputs)
        again = extract_routing_trace(model, inputs)
        for a, b in zip(trace.layers, again.layers):
            assert np.array_equal(a["attention"], b["attention"])
            assert np.array_equal(a["gates"], b["gates"])
        _, forward_traces = model.forward(T.tensor(inputs), eval_mode=True)
        manual = np.transpose(forward_traces[0].mux_weights.data, (0, 2, 1))
        assert np.array_equal(trace.layers[0]["attention"], manual)

    def test_gumbel_eval_trace_is_deterministic_and_sharp(self):
        model = random_smfr(seed=6, attention="gumbel_st")
        inputs = np.random.default_rng(7).normal(size=(4, 3, 4))
        trace = extract_routing_trace(model, inputs)
        assert attention_sharpness(trace) == 1.0

    def test_transformer_trace_collects_encoder_and_cross_attention(self):
        cfg = TransformerConfig(block_size=4, input_blocks=3, output_blocks=2,
                                model_width=8, num_heads=2, num_encoder_layers=2,
                                num_decoder_layers=2, ffn_width=8)
        model = Transformer(cfg, np.random.default_rng(8))
        inputs = np.random.default_rng(9).normal(size=(3, 3, 4))
        trace = extract_routing_trace(model, inputs)
        assert len(trace.layers) == 4
        for entry in trace.layers:
            assert np.allclose(entry["attention"].sum(axis=-1), 1.0, atol=1e-9)

    def test_bare_model_builds_no_graph(self):
        model = random_smfr(seed=10)
        returned = []
        forward = model.forward

        def spy(*args, **kwargs):
            returned.append(forward(*args, **kwargs))
            return returned[-1]
        model.forward = spy
        extract_routing_trace(model, np.random.default_rng(11).normal(size=(3, 3, 4)))
        out, traces = returned[0]
        tensors = [out] + [v for tr in traces for v in vars(tr).values()
                           if isinstance(v, Tensor)]
        assert len(tensors) == 1 + 5 * len(traces)
        assert all(not t.requires_grad and t._parents == () for t in tensors)

    def test_plain_fnn_is_rejected(self):
        cfg = ExperimentConfig.from_dict({"model": {"kind": "fnn", "hidden_widths": [8]}})
        bundle = build_model(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no routing"):
            extract_routing_trace(bundle, np.zeros((1, 5, 10)))


class TestSharpness:
    def test_one_hot_trace_scores_one(self):
        att = np.zeros((2, 3, 4))
        att[..., 1] = 1.0
        assert attention_sharpness(RoutingTrace([layer(att)])) == 1.0

    def test_uniform_trace_scores_inverse_sources(self):
        att = np.full((2, 3, 4), 0.25)
        assert attention_sharpness(RoutingTrace([layer(att)])) == pytest.approx(0.25)

    def test_mixed_trace_is_mean_of_maxima(self):
        att = np.array([[[0.7, 0.3], [0.5, 0.5]]])
        expected = (0.7 + 0.5) / 2
        assert attention_sharpness(RoutingTrace([layer(att)])) == pytest.approx(expected)

    def test_bounds_on_random_model(self):
        model = random_smfr(seed=10, input_blocks=4)
        inputs = np.random.default_rng(11).normal(size=(8, 4, 4))
        trace = extract_routing_trace(model, inputs)
        value = attention_sharpness(trace)
        assert 1.0 / 4.0 <= value <= 1.0


class TestFairness:
    def test_uniform_mass_is_fair(self):
        att = np.full((3, 2, 4), 0.25)
        assert attention_fairness(RoutingTrace([layer(att)])) == pytest.approx(1.0)

    def test_single_source_mass_is_unfair(self):
        att = np.zeros((3, 2, 4))
        att[..., 2] = 1.0
        assert attention_fairness(RoutingTrace([layer(att)])) == pytest.approx(0.0)

    def test_only_first_layer_counts(self):
        balanced = np.full((2, 2, 4), 0.25)
        skewed = np.zeros((2, 2, 4))
        skewed[..., 0] = 1.0
        trace = RoutingTrace([layer(balanced), layer(skewed)])
        assert attention_fairness(trace) == pytest.approx(1.0)

    def test_idempotent_under_batch_duplication(self):
        att = np.random.default_rng(12).dirichlet(np.ones(4), size=(5, 3))
        double = np.concatenate([att, att], axis=0)
        a = attention_fairness(RoutingTrace([layer(att)]))
        b = attention_fairness(RoutingTrace([layer(double)]))
        assert a == pytest.approx(b)

    def test_zero_mass_scores_zero(self):
        assert attention_fairness(RoutingTrace([layer(np.zeros((1, 2, 4)))])) == 0.0


class TestPermutationDifference:
    def grouped_batches(self, pset, images, indicator=True):
        return [encode_bpmnist(images, np.full(len(images), pid, dtype=np.int64),
                               pset, indicator=indicator)
                for pid in range(NUM_PERMS)]

    def test_exact_undo_scores_zero(self):
        pset = build_permutation_set(np.random.default_rng(13))
        model = undo_routing_model(pset)
        images = np.random.default_rng(14).random(size=(6, 28, 28))
        batches = self.grouped_batches(pset, images)
        assert permutation_difference(model, batches) == 0.0

    def test_single_group_is_degenerate_zero(self):
        pset = build_permutation_set(np.random.default_rng(15))
        model = random_smfr(block_size=BLOCK_SIZE, input_blocks=5, output_blocks=4,
                            stack_width=4, stack_depth=0)
        images = np.random.default_rng(16).random(size=(4, 28, 28))
        batches = self.grouped_batches(pset, images)[:1]
        assert permutation_difference(model, batches) == 0.0

    def test_random_model_scores_positive(self):
        pset = build_permutation_set(np.random.default_rng(17))
        model = random_smfr(block_size=BLOCK_SIZE, input_blocks=5, output_blocks=4,
                            stack_width=4, stack_depth=0)
        images = np.random.default_rng(18).random(size=(6, 28, 28))
        batches = self.grouped_batches(pset, images)
        assert permutation_difference(model, batches) > 0.0

    def test_invariant_to_group_order(self):
        pset = build_permutation_set(np.random.default_rng(19))
        model = random_smfr(block_size=BLOCK_SIZE, input_blocks=5, output_blocks=4,
                            stack_width=4, stack_depth=0)
        images = np.random.default_rng(20).random(size=(4, 28, 28))
        batches = self.grouped_batches(pset, images)
        forward = permutation_difference(model, batches)
        backward = permutation_difference(model, batches[::-1])
        assert forward == pytest.approx(backward)

    def test_empty_groups_are_rejected(self):
        model = random_smfr()
        with pytest.raises(ValueError):
            permutation_difference(model, [])


class TestGateSummary:
    def test_constant_gates(self):
        trace = RoutingTrace([layer(np.full((4, 2, 3), 1 / 3),
                                            gates=np.full((4, 2), 0.5))])
        assert gate_summary(trace) == {"gate_mean_layer0": 0.5}

    def test_saturated_pass_through_means_one(self):
        model = random_smfr(stack_width=2, output_blocks=1)
        force_copy_routing(model, [[0, 1], [0]])
        inputs = np.random.default_rng(21).normal(size=(4, 3, 4))
        trace = extract_routing_trace(model, inputs)
        assert gate_summary(trace) == {"gate_mean_layer0": 1.0, "gate_mean_layer1": 1.0}

    def test_concatenation_matches_weighted_mean(self):
        rng = np.random.default_rng(22)
        g1 = rng.random(size=(4, 2))
        g2 = rng.random(size=(4, 2))
        att = np.full((4, 2, 3), 1 / 3)
        s1 = gate_summary(RoutingTrace([layer(att, gates=g1)]))
        s2 = gate_summary(RoutingTrace([layer(att, gates=g2)]))
        joined = gate_summary(RoutingTrace([
            layer(np.concatenate([att, att]), gates=np.concatenate([g1, g2]))]))
        expected = (s1["gate_mean_layer0"] + s2["gate_mean_layer0"]) / 2
        assert joined["gate_mean_layer0"] == pytest.approx(expected)

    def test_flat_form_emits_per_layer_keys(self):
        model = random_smfr()
        inputs = np.random.default_rng(23).normal(size=(4, 3, 4))
        trace = extract_routing_trace(model, inputs)
        flat = gate_summary(trace)
        assert set(flat) == {"gate_mean_layer0", "gate_mean_layer1"}
        for value in flat.values():
            assert 0.0 < value < 1.0

    def test_transformer_layers_have_no_gates(self):
        cfg = TransformerConfig(block_size=4, input_blocks=3, output_blocks=2,
                                model_width=8, num_heads=2, num_encoder_layers=1,
                                num_decoder_layers=1, ffn_width=8)
        model = Transformer(cfg, np.random.default_rng(24))
        trace = extract_routing_trace(model, np.random.default_rng(25).normal(size=(2, 3, 4)))
        assert gate_summary(trace) == {}


class TestIndicatorCsv:
    def test_round_trip_with_step_first(self, tmp_path):
        path = str(tmp_path / "indicators.csv")
        rows = [{"step": 0, "sharpness": 0.4, "fairness": 0.9},
                {"step": 100, "sharpness": 0.8, "fairness": 0.7}]
        write_indicator_csv(path, rows)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["step", "fairness", "sharpness"]
        assert parsed[1] == ["0", "0.9", "0.4"]
        assert not (tmp_path / "indicators.csv.part").exists()

    def test_empty_rows_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_indicator_csv(str(tmp_path / "x.csv"), [])

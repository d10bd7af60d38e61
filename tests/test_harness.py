"""Experiment harness: config schema, metrics files, trials, grids, reports."""

import errno
import functools
import json
import os
import shutil
import weakref

import numpy as np
import pytest

import blockops
from blockops import cli
from blockops import tensor as T
from blockops.tensor import Tensor
from blockops.nn import LayerTrace
from blockops.checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from blockops.harness.config import (
    ExperimentConfig, ConfigError, config_hash, parse_override,
    apply_overrides, valid_override_keys, json_object,
)
from blockops.harness.metrics import MetricsWriter, read_records, results_path
from blockops.harness.training import (
    build_model, evaluate_accuracy, apply_smfr_bias, code_fingerprint, run_trial,
)
from blockops.harness import training
from blockops.harness.grid import GridSpec, grid_search, size_bucket
from blockops.harness import report as report_mod
from blockops.tasks.batches import TaskBatch
from blockops.tasks import algo as algo_task
from blockops.tasks import bpmnist
from blockops.tasks import doubleadd as doubleadd_task


TINY_TRANSFORMER = {"kind": "transformer", "model_width": 8, "num_heads": 2,
                    "encoder_layers": 1, "decoder_layers": 1, "ffn_width": 8}


def tiny_config(tmp_path, **edits):
    """Smallest config that still exercises a full doubleadd trial."""
    data = {
        "experiment": "doubleadd",
        "seed": 0,
        "model": {"kind": "smfr", "stack_width": 2, "stack_depth": 0,
                  "fnn_hidden": [8]},
        "batch_size": 8,
        "max_steps": 4,
        "eval_every": 4,
        "early_stop_evals": 0,
        "results_dir": str(tmp_path / "results"),
    }
    for key, value in edits.items():
        data[key] = value
    return data


FLOAT_FIELDS = ["clip_norm", "threshold", "optimizer.learning_rate", "optimizer.beta1",
                "optimizer.beta2", "optimizer.epsilon", "model.gumbel_temperature",
                "regularization.threshold", "bpmnist.scale"]


class TestConfigValidation:
    def test_default_config_validates(self):
        ExperimentConfig().validate()

    def test_unknown_top_level_key_lists_valid_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"experimnt": "addmul"})
        assert "experimnt" in str(err.value)
        assert "valid keys here" in str(err.value)
        assert "experiment" in str(err.value)

    def test_unknown_nested_key_carries_path(self):
        with pytest.raises(ConfigError, match=r"model\.banana"):
            ExperimentConfig.from_dict({"model": {"banana": 1}})

    def test_type_error_carries_path(self):
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig.from_dict({"batch_size": "many"})
        with pytest.raises(ConfigError, match="expected integer"):
            ExperimentConfig.from_dict({"batch_size": True})
        with pytest.raises(ConfigError, match=r"optimizer\.learning_rate"):
            ExperimentConfig.from_dict({"optimizer": {"learning_rate": "fast"}})

    def test_enum_fields_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig(experiment="tripleadd").validate()
        cfg = ExperimentConfig()
        cfg.model.kind = "rnn"
        with pytest.raises(ConfigError, match=r"model\.kind"):
            cfg.validate()
        cfg = ExperimentConfig()
        cfg.model.attention = "hard"
        with pytest.raises(ConfigError, match=r"model\.attention"):
            cfg.validate()

    def test_threshold_range(self):
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig(threshold=0.0).validate()
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig(threshold=1.5).validate()
        ExperimentConfig(threshold=1.0).validate()

    def test_positive_counters(self):
        for name in ("batch_size", "max_steps", "eval_every", "interference_steps"):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig(**{name: 0}).validate()

    def test_negative_stack_depth(self):
        cfg = ExperimentConfig()
        cfg.model.stack_depth = -1
        with pytest.raises(ConfigError, match="stack_depth"):
            cfg.validate()

    def test_bad_hidden_width_lists(self):
        # bool is an int subclass; True would pass as a width-1 layer
        for field, value in [("fnn_hidden", [100, 0]), ("hidden_widths", "100"),
                             ("fnn_hidden", [True]), ("hidden_widths", [True, 3])]:
            cfg = ExperimentConfig()
            setattr(cfg.model, field, value)
            with pytest.raises(ConfigError, match=field):
                cfg.validate()

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=-1).validate()
        ExperimentConfig(seed=0).validate()

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -0.1), ("epsilon", 0.0),
        ("beta1", 1.0), ("beta1", 1.5), ("beta1", -0.1), ("beta2", 1.0), ("beta2", -1e-9),
    ])
    def test_optimizer_ranges(self, field, value):
        cfg = ExperimentConfig()
        setattr(cfg.optimizer, field, value)
        with pytest.raises(ConfigError, match=rf"optimizer\.{field}"):
            cfg.validate()

    def test_optimizer_range_ends(self):
        cfg = ExperimentConfig()
        cfg.optimizer.beta1 = 0.0
        cfg.optimizer.beta2 = 0.0
        cfg.validate()

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_gumbel_temperature_must_be_positive(self, value):
        cfg = ExperimentConfig()
        cfg.model.attention = "gumbel_st"
        cfg.model.gumbel_temperature = value
        with pytest.raises(ConfigError, match=r"model\.gumbel_temperature"):
            cfg.validate()

    @pytest.mark.parametrize("path", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_floats(self, path, value):
        data = apply_overrides({}, [(path, value)])
        with pytest.raises(ConfigError, match=rf"{path}: must be finite"):
            ExperimentConfig.from_dict(data).validate()

    def test_the_non_finite_cases_cover_every_float_field(self):
        cfg = ExperimentConfig()
        floats = [key for key in valid_override_keys()
                  if isinstance(functools.reduce(getattr, key.split("."), cfg), float)]
        assert sorted(floats) == sorted(FLOAT_FIELDS)

    def test_every_numeric_field_rejects_minus_one(self):
        # a size of -1 fails deep inside a trial, or runs and records NaN
        cfg = ExperimentConfig()
        wrong = []
        for key in valid_override_keys():
            value = functools.reduce(getattr, key.split("."), cfg)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            try:
                ExperimentConfig.from_dict(apply_overrides({}, [(key, -1)])).validate()
                message = "accepted"
            except ConfigError as err:
                message = str(err)
            if not message.startswith(f"{key}: "):
                wrong.append((key, message))
        assert not wrong

    def test_variant_constraints(self):
        cfg = ExperimentConfig()
        cfg.model.kind = "fnn"
        cfg.variants.bias = True
        with pytest.raises(ConfigError, match="bias"):
            cfg.validate()
        cfg = ExperimentConfig(experiment="doubleadd")
        cfg.variants.noisy_permutation = True
        with pytest.raises(ConfigError, match="noisy_permutation"):
            cfg.validate()
        # each flag below trains exactly what the config without it trains
        for experiment in ("addmul", "doubleadd", "algo"):
            cfg = ExperimentConfig(experiment=experiment)
            cfg.variants.bias = True
            with pytest.raises(ConfigError, match="variants.bias"):
                cfg.validate()
        for experiment in ("addmul", "doubleadd", "bpmnist"):
            with pytest.raises(ConfigError, match="loss_per_step"):
                ExperimentConfig(experiment=experiment, loss_per_step=True).validate()
        for experiment in ("algo", "bpmnist"):
            cfg = ExperimentConfig(experiment=experiment)
            cfg.variants.alternate_split = True
            with pytest.raises(ConfigError, match="alternate_split"):
                cfg.validate()
        # and where each applies, it validates
        for experiment, edits in [("bpmnist", {"variants": {"bias": True}}),
                                  ("algo", {"loss_per_step": True}),
                                  ("addmul", {"variants": {"alternate_split": True}}),
                                  ("doubleadd", {"variants": {"alternate_split": True}})]:
            ExperimentConfig.from_dict({"experiment": experiment, **edits}).validate()

    def test_algo_full_eval_must_fall_on_eval_steps(self):
        # run_algo checks full_eval_every only on evaluation steps, so 300
        # and the default 1000 would sweep 1-9 iterations every 3000 steps
        with pytest.raises(ConfigError, match="full_eval_every.*eval_every.*1000 and 300"):
            ExperimentConfig(experiment="algo", eval_every=300).validate()
        # the benchmark's, the acceptance gates' and the bit check's cadences
        for every, full in [(40, 1000), (500, 2500), (100, 200), (250, 1000)]:
            ExperimentConfig(experiment="algo", eval_every=every,
                             full_eval_every=full).validate()
        # only algo has a full evaluation
        ExperimentConfig(experiment="doubleadd", eval_every=300).validate()

    def test_from_json_errors(self):
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            json_object("{bad json", "config")
        with pytest.raises(ConfigError, match="grid spec root"):
            json_object("[1, 2]", "grid spec")
        assert json_object('{"seed": 3}', "config") == {"seed": 3}

    def test_round_trip_preserves_fields(self):
        cfg = ExperimentConfig(experiment="algo", seed=11, batch_size=32)
        cfg.model.stack_width = 9
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()


class TestConfigHash:
    def test_stable_across_round_trip(self):
        cfg = ExperimentConfig(seed=3)
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert config_hash(cfg) == config_hash(clone)

    def test_sensitive_to_any_field(self):
        base = config_hash(ExperimentConfig())
        assert config_hash(ExperimentConfig(seed=1)) != base
        assert config_hash(ExperimentConfig(batch_size=65)) != base

    def test_ignores_file_locations(self):
        base = config_hash(ExperimentConfig())
        assert config_hash(ExperimentConfig(results_dir="elsewhere")) == base
        assert config_hash(ExperimentConfig(data_dir="/tmp/digits")) == base

    def test_short_hex(self):
        h = config_hash(ExperimentConfig())
        assert len(h) == 16
        int(h, 16)


class TestOverrides:
    def test_parse_json_values(self):
        assert parse_override("optimizer.learning_rate=0.001") == \
            ("optimizer.learning_rate", 0.001)
        assert parse_override("model.hidden_widths=[50, 50]") == \
            ("model.hidden_widths", [50, 50])
        assert parse_override("regularization.enabled=false") == \
            ("regularization.enabled", False)

    def test_parse_bare_string_fallback(self):
        assert parse_override("experiment=addmul") == ("experiment", "addmul")

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ConfigError) as err:
            parse_override("model.widht=3")
        assert "model.widht" in str(err.value)
        assert "model.stack_width" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_override("experiment")

    def test_apply_creates_nested_path(self):
        data = apply_overrides({}, [("model.stack_width", 7), ("seed", 2)])
        assert data == {"model": {"stack_width": 7}, "seed": 2}

    def test_apply_then_validate(self):
        data = apply_overrides({}, [parse_override("experiment=algo"),
                                    parse_override("model.kind=fnn")])
        cfg = ExperimentConfig.from_dict(data).validate()
        assert cfg.experiment == "algo"
        assert cfg.model.kind == "fnn"

    def test_override_keys_are_leaves(self):
        keys = valid_override_keys()
        assert "experiment" in keys
        assert "model.stack_width" in keys
        assert "optimizer.beta2" in keys
        assert "variants.alternate_split" in keys
        assert "model" not in keys


class TestEvaluateAccuracy:
    def make_batch(self, targets):
        targets = np.asarray(targets)
        b, n = targets.shape
        return TaskBatch(np.zeros((b, 1, 10)), targets)

    def test_all_blocks_must_match(self):
        # four of five blocks right still counts as a miss
        batch = self.make_batch([[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]])
        fixed = np.array([1, 2, 3, 4, 9])

        def predict(inputs):
            return np.tile(fixed, (inputs.shape[0], 1))
        assert evaluate_accuracy(predict, batch) == 0.0

    def test_fraction_of_exact_rows(self):
        batch = self.make_batch([[1, 2], [3, 4], [5, 6], [7, 8]])

        def predict(inputs):
            return np.array([[1, 2], [3, 0], [5, 6], [0, 8]])[:inputs.shape[0]]
        assert evaluate_accuracy(predict, batch) == 0.5

    def test_chunking_matches_single_pass(self):
        rng = np.random.default_rng(0)
        targets = rng.integers(0, 10, size=(5003, 2))
        batch = TaskBatch(np.zeros((5003, 1, 10)), targets)
        wrong = targets.copy()
        wrong[::7, 0] = (wrong[::7, 0] + 1) % 10
        offsets = {}

        def predict(inputs):
            lo = offsets.setdefault("lo", 0)
            out = wrong[lo:lo + inputs.shape[0]]
            offsets["lo"] += inputs.shape[0]
            return out
        chunked = evaluate_accuracy(predict, batch, chunk=2500)
        expected = np.all(wrong == targets, axis=1).mean()
        assert chunked == pytest.approx(expected)

    def test_list_of_batches_aggregates(self):
        a = self.make_batch([[1]])
        b = self.make_batch([[2]])

        def predict(inputs):
            return np.full((inputs.shape[0], 1), 1)
        assert evaluate_accuracy(predict, [a, b]) == 0.5

    def test_shape_mismatch_rejected(self):
        batch = self.make_batch([[1, 2]])

        def predict(inputs):
            return np.zeros((inputs.shape[0], 3), dtype=int)
        with pytest.raises(ValueError, match="shape"):
            evaluate_accuracy(predict, batch)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(lambda x: x, [])


class TestEvalForward:
    @pytest.mark.parametrize("model", [
        {"kind": "smfr", "stack_width": 2, "stack_depth": 1, "fnn_hidden": [8]},
        {"kind": "fnn", "hidden_widths": [8]},
        TINY_TRANSFORMER,
    ], ids=["smfr", "fnn", "transformer"])
    def test_eval_mode_builds_no_graph_and_matches_a_graph_forward(self, model):
        bundle = build_model(ExperimentConfig.from_dict({"model": model}),
                             np.random.default_rng(0))
        inputs = np.random.default_rng(1).normal(size=(4, 5, 10))
        out, traces = bundle.forward(inputs, eval_mode=True)
        graph_out, graph_traces = bundle.forward(inputs)
        assert graph_out.requires_grad

        def tensors(out, traces):
            return [out] + [v for tr in traces for v in vars(tr).values()
                            if isinstance(v, Tensor)]
        evaluated, recorded = tensors(out, traces), tensors(graph_out, graph_traces)
        assert len(evaluated) == len(recorded)
        assert len(traces) == {"smfr": 2, "fnn": 0, "transformer": 3}[model["kind"]]
        for t, g in zip(evaluated, recorded):
            assert not t.requires_grad and t._parents == ()
            assert np.array_equal(t.data, g.data)


EVAL_MODELS = {
    "fnn": {"kind": "fnn", "hidden_widths": [100, 100]},
    "smfr_softmax": {"kind": "smfr", "stack_width": 8, "stack_depth": 1,
                     "fnn_hidden": [100], "attention": "softmax"},
    "smfr_gumbel_st": {"kind": "smfr", "stack_width": 5, "stack_depth": 1,
                       "fnn_hidden": [50], "attention": "gumbel_st"},
    "transformer": {"kind": "transformer", "model_width": 64, "num_heads": 4,
                    "encoder_layers": 1, "decoder_layers": 1, "ffn_width": 128},
}


def assert_chunks_match_one_pass(model, chunked, one_pass):
    """The Transformer runs each example's products as its own BLAS call, so
    chunking keeps every bit.  A 2-D product (an ``Fnn`` layer) over M rows
    may take a small-matrix kernel in a chunk and the large one over the
    whole batch (OpenBLAS's AVX-512 build switches at M*N*K = 1e6); the two
    round differently when N is not a multiple of 8, so there only the last
    bits may move: at most a few units of the logits' own precision at
    their largest magnitude."""
    if model["kind"] == "transformer":
        assert np.array_equal(chunked, one_pass)
    else:
        last_bits = 8 * np.finfo(one_pass.dtype).eps * np.abs(one_pass).max()
        np.testing.assert_allclose(chunked, one_pass, rtol=0, atol=last_bits)


class TestChunkedEvaluation:
    @pytest.mark.parametrize("model", list(EVAL_MODELS.values()), ids=list(EVAL_MODELS))
    def test_doubleadd_rows_match_one_pass(self, model):
        bundle = build_model(ExperimentConfig.from_dict({"model": model}),
                             np.random.default_rng(0))
        full = doubleadd_task.doubleadd_train_set()
        batch = TaskBatch(full.inputs[::4][:1100], full.targets[::4][:1100])
        logits = []

        def predict(inputs):
            out, _ = bundle.forward(inputs, eval_mode=True)
            logits.append(bundle.logits(out).data)
            return np.argmax(logits[-1], axis=2)
        hits = training.rows_correct(predict, batch)
        assert [len(chunk) for chunk in logits] == [512, 512, 76]
        chunked = np.concatenate(logits)
        assert np.array_equal(hits, training.rows_correct(predict, batch, chunk=batch.size))
        assert_chunks_match_one_pass(model, chunked, logits[-1])

    @pytest.mark.parametrize("model", list(EVAL_MODELS.values()), ids=list(EVAL_MODELS))
    def test_algo_unrolls_match_one_pass(self, model):
        bundle = build_model(ExperimentConfig.from_dict({"experiment": "algo", "model": model}),
                             np.random.default_rng(0))
        batch = algo_task.gen_algo_episode(300, 3, np.random.default_rng(1)).batch()
        one_pass, _ = training._algo_unroll(bundle, batch.inputs, eval_mode=True)
        finals = []

        def predict(inputs):
            outputs, _ = training._algo_unroll(bundle, inputs, eval_mode=True)
            finals.append(outputs[-1].data)
            return np.argmax(finals[-1], axis=2)
        hits = training.rows_correct(predict, batch, training.ALGO_EVAL_CHUNK_ROWS)
        assert [len(f) for f in finals] == [128, 128, 44]
        assert np.array_equal(
            hits, np.all(np.argmax(one_pass[-1].data, axis=2) == batch.targets, axis=1))
        assert_chunks_match_one_pass(model, np.concatenate(finals), one_pass[-1].data)


class TestEvalEncoding:
    @pytest.mark.parametrize("experiment", ["doubleadd", "bpmnist"])
    def test_evaluation_encodes_one_chunk_at_a_time(self, tmp_path, monkeypatch, experiment):
        # every encoding outside a training step is an evaluation's (or the
        # probe's), and none may hold more rows than one evaluation chunk
        in_step, encoded = [False], []
        train_step = training._train_step

        def spy_step(*args):
            in_step[0] = True
            try:
                return train_step(*args)
            finally:
                in_step[0] = False

        def spy_encoder(module, name):
            encode = getattr(module, name)

            def spy(*args, **kwargs):
                blocks = encode(*args, **kwargs)
                if not in_step[0]:
                    encoded.append(len(blocks))
                return blocks
            monkeypatch.setattr(module, name, spy)
        monkeypatch.setattr(training, "_train_step", spy_step)
        spy_encoder(doubleadd_task, "encode_doubleadd")
        spy_encoder(bpmnist, "encode_bpmnist")
        data = tiny_config(tmp_path, experiment=experiment, max_steps=4, eval_every=2)
        mnist = None
        if experiment == "bpmnist":
            # 1100 test rows per permutation and 1200 train_eval rows: three chunks each
            rng = np.random.default_rng(0)
            mnist = {"train_images": rng.random((1500, 28, 28)),
                     "train_labels": rng.integers(0, 10, 1500),
                     "test_images": rng.random((1100, 28, 28)),
                     "test_labels": rng.integers(0, 10, 1100)}
            data["bpmnist"] = {"scale": 1e-4, "eval_subset": 300, "probe_size": 16}
        run_trial(ExperimentConfig.from_dict(data), mnist=mnist)
        assert max(encoded) == training.EVAL_CHUNK_ROWS


class TestAlgoUnroll:
    @pytest.mark.parametrize("model", list(EVAL_MODELS.values()), ids=list(EVAL_MODELS))
    def test_eval_unroll_keeps_no_traces(self, model):
        bundle = build_model(ExperimentConfig.from_dict({"experiment": "algo", "model": model}),
                             np.random.default_rng(0))
        inputs = algo_task.gen_algo_episode(50, 9, np.random.default_rng(1)).batch().inputs
        outputs, traces = training._algo_unroll(bundle, inputs, eval_mode=True)
        assert len(outputs) == 9 and traces == []
        # the same iterations one forward at a time, each keeping its traces
        state, per_forward = inputs[:, :algo_task.NUM_VARS], []
        for t in range(algo_task.NUM_VARS, inputs.shape[1]):
            out, tr = bundle.forward(np.concatenate([state, inputs[:, t:t + 1]], axis=1),
                                     eval_mode=True)
            state, per_forward = out.data, per_forward + [len(tr)]
        assert np.array_equal(outputs[-1].data, state)
        # a training unroll still returns every iteration's traces
        _, traces = training._algo_unroll(bundle, inputs, rng=np.random.default_rng(2))
        assert len(traces) == sum(per_forward) == 9 * per_forward[0]


class TestNoisyPermutation:
    @pytest.mark.parametrize("model", [
        {"kind": "smfr", "stack_width": 2, "stack_depth": 1, "fnn_hidden": [8]},
        {"kind": "fnn", "hidden_widths": [8]},
        TINY_TRANSFORMER,
    ], ids=["smfr", "fnn", "transformer"])
    def test_forward_feeds_the_net_the_scrambled_inputs(self, model):
        data = {"experiment": "algo", "model": model}
        noisy = dict(data, variants={"noisy_permutation": True})
        bundle = build_model(ExperimentConfig.from_dict(noisy), np.random.default_rng(0))
        # drawn from the init stream right after the parameters
        rng = np.random.default_rng(0)
        build_model(ExperimentConfig.from_dict(data), rng)
        perm = rng.permutation(60)
        assert np.array_equal(bundle.permutation, perm)

        # in the trial's dtype, and C-contiguous like the scramble's product:
        # a strided operand takes another BLAS path and rounds differently
        inputs = np.random.default_rng(1).normal(size=(4, 6, 10)).astype(np.float32)
        out, _ = bundle.forward(inputs, eval_mode=True)
        flat = np.ascontiguousarray(inputs.reshape(4, 60)[:, perm])
        if model["kind"] == "fnn":
            want = bundle.net.forward(Tensor(flat)).data.reshape(4, 5, 10)
        else:
            want = bundle.net.forward(Tensor(flat.reshape(4, 6, 10)), eval_mode=True)[0].data
        assert np.array_equal(out.data, want)

    def test_trial_finishes_and_reruns_bit_identically(self, tmp_path):
        def trial(name):
            data = tiny_config(tmp_path, experiment="algo", max_steps=4, eval_every=2,
                               results_dir=str(tmp_path / name))
            data["variants"] = {"noisy_permutation": True}
            cfg = ExperimentConfig.from_dict(data)
            summary = run_trial(cfg)
            path = results_path(cfg.results_dir, "algo", config_hash(cfg), 0)
            records = read_records(path)
            for record in records:
                for key in ("wall_time_s", "train_ms_per_step", "eval_ms"):
                    record.pop(key, None)
                record.get("config", {}).pop("results_dir", None)
            tensors, _ = load_checkpoint(path[:-len(".jsonl")] + "_final.ckpt")
            return summary, records, tensors

        (summary, records_a, tensors_a), (_, records_b, tensors_b) = trial("a"), trial("b")
        assert summary["completed"] and summary["steps"] == 4
        assert records_a == records_b
        assert sorted(tensors_a) == sorted(tensors_b)
        for name in tensors_a:
            assert np.array_equal(tensors_a[name], tensors_b[name])


def bias_trace(weights: np.ndarray) -> list:
    w = Tensor(np.asarray(weights))
    zeros = Tensor(np.zeros(weights.shape[:1] + weights.shape[2:], dtype=w.dtype))
    return [LayerTrace(mux_weights=w, mux_logits=w, gate_values=zeros,
                       gate_logits=zeros, routed=None)]


class TestApplySmfrBias:
    """Routing bias used by the image task for the first 300 steps."""

    def setup_method(self):
        self.pset = bpmnist.build_permutation_set(np.random.default_rng(0))

    def test_zero_after_step_300(self):
        traces = bias_trace(np.full((2, 5, 4), 0.2))
        ids = np.array([0, 1])
        for step in (300, 301, 10_000):
            out = apply_smfr_bias(traces, ids, self.pset, step)
            assert float(out.data) == 0.0

    def test_perfect_routing_costs_nothing(self):
        ids = np.array([0, 3, 5])
        weights = np.zeros((3, 5, 4))
        for i, pid in enumerate(ids):
            inv = np.argsort(self.pset.perms[pid])
            for n in range(4):
                weights[i, inv[n], n] = 1.0
        loss = apply_smfr_bias(bias_trace(weights), ids, self.pset, step=0)
        assert abs(float(loss.data)) < 1e-10

    def test_uniform_routing_costs_log_sources(self):
        for m in (4, 5):
            weights = np.full((3, m, 4), 1.0 / m)
            loss = apply_smfr_bias(bias_trace(weights), np.array([0, 1, 2]),
                                   self.pset, step=10)
            assert float(loss.data) == pytest.approx(np.log(m), rel=1e-9)

    def test_gradient_pulls_toward_inverse_permutation(self):
        logits = T.parameter(np.zeros((1, 5, 4)))
        weights = T.softmax(logits, axis=1)
        traces = [LayerTrace(mux_weights=weights, mux_logits=weights,
                             gate_values=weights, gate_logits=weights, routed=None)]
        loss = apply_smfr_bias(traces, np.array([2]), self.pset, step=0)
        loss.backward()
        inv = np.argsort(self.pset.perms[2])
        grad = logits.grad[0]
        for n in range(4):
            # target entry is pushed up, the rest of the column down
            assert grad[inv[n], n] < 0
            others = [grad[m, n] for m in range(5) if m != inv[n]]
            assert all(g > 0 for g in others)


class TestMetricsWriter:
    def test_streams_to_part_then_renames(self, tmp_path):
        path = str(tmp_path / "a" / "0.jsonl")
        writer = MetricsWriter(path)
        writer.write({"record": "header", "n": 1})
        assert os.path.exists(path + ".part")
        assert not os.path.exists(path)
        writer.write({"record": "final", "n": 2})
        writer.finalize()
        assert not os.path.exists(path + ".part")
        assert [r["n"] for r in read_records(path)] == [1, 2]

    @pytest.mark.parametrize("error, reason", [
        (ValueError("bad"), "exception"), (KeyboardInterrupt(), "interrupted")],
        ids=["exception", "interrupt"])
    def test_abort_keeps_partial_file_with_a_record(self, tmp_path, error, reason):
        path = str(tmp_path / "0.jsonl")
        writer = MetricsWriter(path)
        writer.write({"x": 1})
        writer.abort(error)
        assert os.listdir(tmp_path) == ["0.jsonl.part"]
        assert read_records(path + ".part") == [
            {"x": 1},
            {"record": "aborted", "reason": reason,
             "error": f"{type(error).__name__}: {error}"}]

    def test_read_records_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert [r["a"] for r in read_records(str(path))] == [1, 2]

    def test_results_path_layout(self):
        assert results_path("out", "algo", "abcd", 3) == \
            os.path.join("out", "algo", "abcd", "3.jsonl")


class TestRunTrial:
    def test_writes_header_and_final(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path))
        summary = run_trial(cfg)
        assert summary["completed"]
        path = results_path(cfg.results_dir, "doubleadd", config_hash(cfg), 0)
        records = read_records(path)
        assert records[0]["record"] == "header"
        assert records[0]["config"]["model"]["stack_width"] == 2
        assert records[0]["parameter_count"] == summary["parameter_count"]
        assert records[0]["code_fingerprint"] == summary["code_fingerprint"] == \
            code_fingerprint()
        assert records[0]["dtype"] == "float32"
        assert records[0]["numpy_version"] == np.__version__
        assert records[0]["blas_threads"] == {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        assert records[-1]["record"] == "final"
        assert records[-1]["seed"] == 0
        assert records[-1]["wall_time_s"] >= 0
        metrics = [r for r in records if r["record"] == "metrics"]
        assert metrics
        for record in metrics:
            assert record["train_ms_per_step"] > 0 and record["eval_ms"] > 0
        assert "train_ms_per_step" not in records[-1] and "eval_ms" not in records[-1]
        for key in ("ood_accuracy", "ood_one_sided_accuracy",
                    "ood_swapped_accuracy"):
            assert 0.0 <= records[-1][key] <= 1.0

    def test_counts_steps_with_a_sampled_logit_beyond_the_band(self, tmp_path):
        def trial(threshold):
            data = tiny_config(tmp_path, max_steps=6, eval_every=3,
                               results_dir=str(tmp_path / str(threshold)))
            data["regularization"] = {"threshold": threshold}
            cfg = ExperimentConfig.from_dict(data)
            summary = run_trial(cfg)
            records = read_records(results_path(cfg.results_dir, "doubleadd",
                                                config_hash(cfg), 0))
            return summary, [r for r in records if r["record"] == "metrics"]

        every, windows = trial(0.01)
        assert every["steps_beyond_band"] == every["longest_run_beyond_band"] == 6
        assert [w["window_steps_beyond_band"] for w in windows] == [3, 3]
        assert max(w["window_max_routing_logit"] for w in windows) == \
            every["max_routing_logit"] > 0.01
        none, windows = trial(1e9)
        assert none["steps_beyond_band"] == none["longest_run_beyond_band"] == 0
        assert [w["window_steps_beyond_band"] for w in windows] == [0, 0]

    @pytest.mark.parametrize("early_stop_evals, steps", [(3, 12), (0, 100)])
    def test_early_stop_after_consecutive_full_accuracy(self, tmp_path, monkeypatch,
                                                        early_stop_evals, steps):
        monkeypatch.setattr(training, "evaluate_accuracy", lambda predict, batches: 1.0)
        cfg = ExperimentConfig.from_dict(tiny_config(
            tmp_path, max_steps=100, eval_every=4, early_stop_evals=early_stop_evals))
        summary = run_trial(cfg)
        assert summary["steps"] == steps
        records = read_records(results_path(cfg.results_dir, "doubleadd", config_hash(cfg), 0))
        assert [r["step"] for r in records if r["record"] == "metrics"] == \
            list(range(4, steps + 1, 4))

    def test_step_markers_are_called_once_per_step(self, tmp_path, monkeypatch):
        # the benchmark's tracer wraps these names to find step boundaries, so
        # the loop must look them up when it calls them
        from blockops.tasks import doubleadd as doubleadd_task
        calls = {"batch": 0, "adam": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(doubleadd_task, "gen_doubleadd_batch",
                            counted("batch", doubleadd_task.gen_doubleadd_batch))
        monkeypatch.setattr(training, "adam_step", counted("adam", training.adam_step))
        run_trial(ExperimentConfig.from_dict(tiny_config(tmp_path, max_steps=6, eval_every=3)))
        assert calls == {"batch": 6, "adam": 6}

    def test_saves_loadable_final_checkpoint(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path))
        run_trial(cfg)
        ckpt = os.path.join(cfg.results_dir, "doubleadd", config_hash(cfg),
                            "0_final.ckpt")
        tensors, header = load_checkpoint(ckpt)
        assert header["config"]["experiment"] == "doubleadd"
        assert header["step"] == 4
        assert tensors

    @pytest.mark.parametrize("experiment, model", [
        ("doubleadd", None),
        ("doubleadd", {"kind": "fnn", "hidden_widths": [8]}),
        ("doubleadd", TINY_TRANSFORMER),
        ("algo", None),
    ], ids=["smfr-doubleadd", "fnn-doubleadd", "transformer-doubleadd", "smfr-algo"])
    def test_reruns_are_deterministic_up_to_wall_time(self, tmp_path, experiment, model):
        def trial(name):
            data = tiny_config(tmp_path, experiment=experiment,
                               results_dir=str(tmp_path / name))
            if model is not None:
                data["model"] = model
            return run_trial(ExperimentConfig.from_dict(data))

        a, b = trial("a"), trial("b")
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_seed_changes_the_run(self, tmp_path):
        base = run_trial(ExperimentConfig.from_dict(
            tiny_config(tmp_path, results_dir=str(tmp_path / "a"))))
        other = run_trial(ExperimentConfig.from_dict(
            tiny_config(tmp_path, seed=1, results_dir=str(tmp_path / "b"))))
        assert base["train_accuracy"] != other["train_accuracy"] or \
            base["ood_accuracy"] != other["ood_accuracy"]

    def test_addmul_stages_and_threshold(self, tmp_path):
        data = tiny_config(tmp_path, experiment="addmul", max_steps=40,
                           eval_every=5, interference_steps=12)
        data["threshold"] = 0.05   # cleared by chance-level accuracy
        cfg = ExperimentConfig.from_dict(data)
        summary = run_trial(cfg)
        assert summary["completed"]
        switched_at = summary["switched_at"]
        assert switched_at is not None
        assert summary["steps"] == switched_at + 12
        assert 0.0 <= summary["preparation_data_accuracy"] <= 1.0
        # every eval_every-th step of the stage, and its last step
        records = read_records(results_path(cfg.results_dir, "addmul", config_hash(cfg), 0))
        assert [r["step"] for r in records if r.get("stage") == "interference"] == \
            [switched_at + 5, switched_at + 10, switched_at + 12]

    def test_addmul_threshold_never_reached(self, tmp_path):
        data = tiny_config(tmp_path, experiment="addmul", max_steps=10,
                           eval_every=10)
        data["threshold"] = 1.0
        summary = run_trial(ExperimentConfig.from_dict(data))
        assert not summary["completed"]
        assert summary["reason"] == "threshold_not_reached"
        assert summary["switched_at"] is None

    def test_algo_reports_per_iteration_accuracy(self, tmp_path):
        data = tiny_config(tmp_path, experiment="algo", max_steps=2,
                           eval_every=2)
        summary = run_trial(ExperimentConfig.from_dict(data))
        for n in range(1, 10):
            assert 0.0 <= summary[f"accuracy_iter_{n}"] <= 1.0
        assert summary["ood_even"] == pytest.approx(np.mean(
            [summary[f"accuracy_iter_{n}"] for n in (4, 6, 8)]))
        assert summary["ood_odd"] == pytest.approx(np.mean(
            [summary[f"accuracy_iter_{n}"] for n in (1, 3, 5, 7, 9)]))

    def test_algo_per_step_loss_variant(self, tmp_path):
        data = tiny_config(tmp_path, experiment="algo", max_steps=2,
                           eval_every=2)
        data["loss_per_step"] = True
        assert run_trial(ExperimentConfig.from_dict(data))["completed"]

    def test_algo_penalty_sees_every_unrolled_iteration(self, tmp_path, monkeypatch):
        # training episodes unroll 2 iterations of a 1-layer stack
        seen = []
        penalty = training.routing_regularization_loss

        def spy(traces, threshold):
            seen.append(len(traces))
            return penalty(traces, threshold)

        monkeypatch.setattr(training, "routing_regularization_loss", spy)
        data = tiny_config(tmp_path, experiment="algo", max_steps=2, eval_every=2)
        run_trial(ExperimentConfig.from_dict(data))
        assert seen == [2, 2]

    @pytest.mark.parametrize("kind", ["fnn", "smfr"])
    def test_bpmnist_on_in_memory_images(self, tmp_path, kind):
        mnist = in_memory_mnist(np.random.default_rng(0))
        data = tiny_config(tmp_path, experiment="bpmnist", max_steps=6, eval_every=3)
        data["model"] = ({"kind": "fnn", "hidden_widths": [8]} if kind == "fnn"
                         else {"kind": "smfr", "stack_width": 4, "stack_depth": 0,
                               "fnn_hidden": [8]})
        data["bpmnist"] = {"scale": 1e-4, "eval_subset": 32, "probe_size": 16}
        cfg = ExperimentConfig.from_dict(data)
        summary = run_trial(cfg, mnist=mnist)
        assert summary["completed"]
        assert summary["checkpoint_marks"] == [2, 6]
        records = read_records(results_path(cfg.results_dir, "bpmnist", config_hash(cfg), 0))
        # step 6's metrics record comes before its checkpoint record
        assert [(r["record"], r["step"]) for r in records
                if r["record"] in ("metrics", "checkpoint")] == \
            [("checkpoint", 2), ("metrics", 3), ("metrics", 6), ("checkpoint", 6)]
        for mark in ("early", "late"):
            assert 0.0 <= summary[mark]["test_accuracy"] <= 1.0
        # the permutation difference reads routing, which only routing models have
        routes = kind != "fnn"
        assert ("initial_permutation_difference" in summary) == routes
        assert ("permutation_difference" in summary["late"]) == routes


def in_memory_mnist(rng):
    return {"train_images": rng.random((64, 28, 28)),
            "train_labels": rng.integers(0, 10, 64),
            "test_images": rng.random((300, 28, 28)),
            "test_labels": rng.integers(0, 10, 300)}


DTYPE_MODELS = {
    "smfr": {"kind": "smfr", "stack_width": 3, "stack_depth": 1, "fnn_hidden": [8]},
    "smfr_gumbel_st": {"kind": "smfr", "stack_width": 3, "stack_depth": 1, "fnn_hidden": [8],
                       "attention": "gumbel_st"},
    "fnn": {"kind": "fnn", "hidden_widths": [8]},
    "transformer": TINY_TRANSFORMER,
}


class TestTrialDtype:
    """Every tensor a trial makes is float32: the nodes of its training
    steps, its eval forwards, its routing traces and the inspection of its
    checkpoint.  A float64 input, constant or noise draw would upcast every
    product after it without failing anything else."""

    @staticmethod
    def spy_dtypes(monkeypatch) -> dict:
        """Counts by dtype name of the tensors made from now on, but for the
        parameters: they are drawn in float64 and rounded once, before the
        first step, which the checkpoint shows."""
        seen = {}
        init = Tensor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if not (self.requires_grad and not self._parents):
                seen[self.data.dtype.name] = seen.get(self.data.dtype.name, 0) + 1
        monkeypatch.setattr(Tensor, "__init__", spy)
        return seen

    @pytest.mark.parametrize("kind", list(DTYPE_MODELS))
    @pytest.mark.parametrize("experiment", ["addmul", "doubleadd", "algo", "bpmnist"])
    def test_every_tensor_of_a_trial_is_float32(self, tmp_path, monkeypatch, experiment, kind):
        model = DTYPE_MODELS[kind]
        edits = {
            # both stages: a threshold any correct row clears, then one step
            "addmul": {"threshold": 1e-6, "interference_steps": 1},
            "doubleadd": {},
            "algo": {"loss_per_step": True, "full_eval_every": 1,
                     "variants": {"noisy_permutation": True}},
            # the permutation difference, the routing trace and the bias
            "bpmnist": {"bpmnist": {"scale": 1e-4, "eval_subset": 32, "probe_size": 16},
                        "variants": {"bias": model["kind"] == "smfr"}},
        }[experiment]
        cfg = ExperimentConfig.from_dict(tiny_config(
            tmp_path, experiment=experiment, model=model, max_steps=2, eval_every=1, **edits))
        mnist = in_memory_mnist(np.random.default_rng(0)) if experiment == "bpmnist" else None
        seen = self.spy_dtypes(monkeypatch)
        assert run_trial(cfg, mnist=mnist)["completed"]
        path = results_path(cfg.results_dir, experiment, config_hash(cfg), 0)
        checkpoint = path[:-len(".jsonl")] + "_final.ckpt"
        if model["kind"] != "fnn" and experiment != "bpmnist":
            assert cli.main(["inspect", "--checkpoint", checkpoint]) == 0
        assert set(seen) == {"float32"}, seen
        assert read_records(path)[0]["dtype"] == "float32"
        tensors, _ = load_checkpoint(checkpoint)
        assert {a.dtype.name for a in tensors.values()} == {"float32"}

    def test_a_float64_checkpoint_loads_by_rounding(self, tmp_path):
        # as written before trials moved to float32
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path))
        params = {name: Tensor(p.data.astype(np.float64) + 1e-9)
                  for name, p in build_model(cfg, np.random.default_rng(0)).params.items()}
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(path, params, {"config": cfg.to_dict()})
        tensors, _ = load_checkpoint(path)
        bundle = build_model(cfg, np.random.default_rng(1))
        restore_parameters(bundle.params, tensors)
        for name, p in bundle.params.items():
            assert p.dtype == np.float32
            assert np.array_equal(p.data, tensors[name].astype(np.float32))

    @pytest.mark.parametrize("step", [0, 300])
    def test_the_routing_bias_keeps_the_weights_dtype(self, step):
        pset = bpmnist.build_permutation_set(np.random.default_rng(0))
        traces = bias_trace(np.full((2, 5, 4), 0.2, dtype=np.float32))
        bias = apply_smfr_bias(traces, np.array([0, 1]), pset, step)
        assert bias.dtype == np.float32


# names in tensor.__all__ that are not ops: constructors and the context manager
NOT_OPS = {"Tensor", "tensor", "parameter", "no_grad"}


def test_every_engine_op_runs_in_some_model(tmp_path, monkeypatch):
    # one-step trials of every model kind, routing variant and routing bias;
    # an op none of them runs is dead engine surface
    ran = set()

    def spying(name, op):
        def spy(*args, **kwargs):
            ran.add(name)
            return op(*args, **kwargs)
        return spy

    ops = sorted(set(T.__all__) - NOT_OPS)
    for name in ops:
        monkeypatch.setattr(T, name, spying(name, getattr(T, name)))
    smfr = {"kind": "smfr", "stack_width": 3, "stack_depth": 1, "fnn_hidden": [8]}
    trials = [
        {"model": smfr},
        {"model": {**smfr, "attention": "gumbel_st"}},
        {"model": {"kind": "fnn", "hidden_widths": [8]}},
        {"experiment": "algo", "model": {"kind": "transformer", "model_width": 8,
                                         "num_heads": 2, "encoder_layers": 1,
                                         "decoder_layers": 1, "ffn_width": 8}},
        {"experiment": "bpmnist", "model": {**smfr, "stack_depth": 0},
         "variants": {"bias": True},
         "bpmnist": {"scale": 1e-4, "eval_subset": 32, "probe_size": 16}},
    ]
    for i, edits in enumerate(trials):
        data = tiny_config(tmp_path / str(i), max_steps=1, eval_every=1, **edits)
        mnist = in_memory_mnist(np.random.default_rng(0)) if "bpmnist" in edits else None
        assert run_trial(ExperimentConfig.from_dict(data), mnist=mnist)["completed"]
    assert not sorted(set(ops) - ran), f"no model runs {sorted(set(ops) - ran)}"


def graph_nodes(root: Tensor) -> int:
    """Nodes whose backward a pass from ``root`` runs."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward_fn is not None
        stack.extend(node._parents)
    return count


def _owner(array: np.ndarray) -> np.ndarray:
    while array.base is not None:
        array = array.base
    return array


def graph_bytes(root: Tensor, params) -> int:
    """Bytes of the distinct buffers that the graph below ``root`` holds:
    node data and the arrays its backward closures keep, the parameters'
    buffers excluded."""
    excluded = {id(_owner(p.data)) for p in params}
    held, seen, stack = {}, set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays = [node.data]
        if node._backward_fn is not None:
            arrays += [cell.cell_contents for cell in node._backward_fn.__closure__ or ()]
        for array in arrays:
            if isinstance(array, np.ndarray) and id(_owner(array)) not in excluded:
                held[id(_owner(array))] = _owner(array).nbytes
        stack.extend(node._parents)
    return sum(held.values())


class TestTrainingGraph:
    @staticmethod
    def training_loss_nodes(tmp_path, monkeypatch, **edits):
        """Backward node counts of the losses of a one-step trial."""
        counts = []
        backward = Tensor.backward

        def spy(loss):
            counts.append(graph_nodes(loss))
            return backward(loss)

        monkeypatch.setattr(Tensor, "backward", spy)
        monkeypatch.setattr(training, "evaluate_accuracy", lambda *args: 0.0)
        run_trial(ExperimentConfig.from_dict(
            tiny_config(tmp_path, batch_size=64, max_steps=1, eval_every=1, **edits)))
        return counts

    def test_smfr_training_loss_node_count(self, tmp_path, monkeypatch):
        # the benchmark's doubleadd SMFR model: each FNN layer is one affine
        # node, each Multiplexer's blend one mix node, each Fnnr's gated
        # blend one gate node behind its logit slice, each Fnnr's input one
        # concat of its routed and context blocks and one reshape, and the
        # penalty one band_excess node over every logit tensor, and the loss
        # one node on the output blocks, so splitting any of them again
        # raises the count
        model = {"kind": "smfr", "stack_width": 8, "stack_depth": 1,
                 "fnn_hidden": [100], "attention": "softmax"}
        assert self.training_loss_nodes(tmp_path, monkeypatch, model=model) == [30]

    def test_algo_smfr_training_loss_node_count(self, tmp_path, monkeypatch):
        # the depth-3 cell of the algo SMFR gate: four layers, each with the
        # nodes above, unrolled over a training episode's two rule steps
        model = {"kind": "smfr", "stack_width": 6, "stack_depth": 3,
                 "fnn_hidden": [100], "attention": "softmax"}
        assert self.training_loss_nodes(tmp_path, monkeypatch, experiment="algo",
                                        model=model) == [115]

    def transformer_training_loss(self, tmp_path, monkeypatch):
        """The loss of one training step of the benchmark's algo Transformer,
        and the trial's parameters."""
        losses, states = [], []
        backward, adam = Tensor.backward, training.adam_step

        def spy(loss):
            losses.append(loss)
            return backward(loss)

        def spy_adam(state):
            states.append(state)
            return adam(state)

        monkeypatch.setattr(Tensor, "backward", spy)
        monkeypatch.setattr(training, "adam_step", spy_adam)
        monkeypatch.setattr(training, "evaluate_accuracy", lambda *args: 0.0)
        data = tiny_config(tmp_path, experiment="algo", batch_size=64, max_steps=1,
                           eval_every=1, model=EVAL_MODELS["transformer"])
        run_trial(ExperimentConfig.from_dict(data))
        (loss,), (state,) = losses, states
        return loss, state.params

    def test_transformer_training_loss_node_count(self, tmp_path, monkeypatch):
        # the benchmark's algo Transformer: each projection is one affine
        # node that also adds its residual (the input projection its 2-D
        # position embeddings), each attention one attention node and the
        # loss one node on the output blocks, so splitting any of them again
        # raises the count, and the decoder starts from the shared queries,
        # so tiling them to the batch adds a node per unrolled iteration
        loss, _ = self.transformer_training_loss(tmp_path, monkeypatch)
        assert graph_nodes(loss) == 50

    def test_transformer_training_graph_bytes(self, tmp_path, monkeypatch):
        # the arrays a training step's graph keeps alive until the next
        # step's graph is built: every node's data and every array a
        # backward closure holds, each buffer counted once, the parameters'
        # flat buffer left out.  Keeping the scores, the per-head mix or a
        # pre-residual product again raises it
        loss, params = self.transformer_training_loss(tmp_path, monkeypatch)
        assert graph_bytes(loss, params) <= 3_943_716

    @pytest.mark.parametrize("experiment, model", [
        ("doubleadd", {"kind": "smfr", "stack_width": 8, "stack_depth": 1,
                       "fnn_hidden": [100], "attention": "softmax"}),
        ("algo", EVAL_MODELS["transformer"]),
    ], ids=["doubleadd-smfr", "algo-transformer"])
    def test_one_training_graph_is_alive_at_a_time(self, tmp_path, monkeypatch, experiment,
                                                   model):
        # a weak reference to each step's loss array: every later forward
        # (the next step's batch loss) and every evaluation must find the
        # losses of the steps before it freed, graph and all
        losses, freed = [], []
        loss_fn, forward = T.cross_entropy_loss, training.ModelBundle.forward

        def spy_loss(logits, targets):
            loss = loss_fn(logits, targets)
            losses.append(weakref.ref(loss.data))
            return loss

        def spy_forward(bundle, inputs, rng=None, eval_mode=False):
            freed.append([ref() is None for ref in losses])
            return forward(bundle, inputs, rng=rng, eval_mode=eval_mode)

        def spy_evaluate(*args):
            freed.append([ref() is None for ref in losses])
            return 0.0
        monkeypatch.setattr(T, "cross_entropy_loss", spy_loss)
        monkeypatch.setattr(training.ModelBundle, "forward", spy_forward)
        monkeypatch.setattr(training, "evaluate_accuracy", spy_evaluate)
        run_trial(ExperimentConfig.from_dict(tiny_config(
            tmp_path, experiment=experiment, model=model, batch_size=16, max_steps=3,
            eval_every=2)))
        assert len(losses) == 3
        # the step-2 evaluation saw two losses, the final one all three
        assert {len(seen) for seen in freed} >= {1, 2, 3}
        assert all(all(seen) for seen in freed)


class TestKeepHeapMapped:
    class Library:
        """A C library whose ``mallopt`` records its calls."""

        def __init__(self):
            self.calls = []

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return 1

    @pytest.mark.parametrize("missing", ["library", "mallopt"])
    def test_trial_runs_without_mallopt(self, tmp_path, monkeypatch, missing):
        def cdll(name):
            if missing == "library":
                raise OSError("no C library")
            return object()
        monkeypatch.setattr(training, "_heap_kept_mapped", False)
        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        assert run_trial(ExperimentConfig.from_dict(tiny_config(tmp_path)))["completed"]

    def test_sets_mmap_and_trim_thresholds_once_per_process(self, tmp_path, monkeypatch):
        library = self.Library()
        monkeypatch.setattr(training, "_heap_kept_mapped", False)
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: library)
        for seed in (0, 1):
            run_trial(ExperimentConfig.from_dict(tiny_config(tmp_path, seed=seed)))
        assert library.calls == [(-3, 32 * 1024 * 1024), (-1, 2 ** 30)]

    def test_an_evaluation_without_a_trial_sets_them(self, tmp_path, monkeypatch):
        # a process that only reloads a checkpoint and evaluates it
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path))
        run_trial(cfg)
        path = results_path(cfg.results_dir, "doubleadd", config_hash(cfg), 0)
        tensors, _ = load_checkpoint(path[:-len(".jsonl")] + "_final.ckpt")
        library = self.Library()
        monkeypatch.setattr(training, "_heap_kept_mapped", False)
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: library)
        bundle = build_model(cfg, np.random.default_rng(0))
        restore_parameters(bundle.params, tensors)
        assert library.calls == []
        evaluate_accuracy(training.make_predict(bundle), doubleadd_task.doubleadd_train_set())
        assert library.calls == [(-3, 32 * 1024 * 1024), (-1, 2 ** 30)]

    def test_a_second_setting_in_the_process_is_harmless(self, tmp_path, monkeypatch):
        # the process's own C library, set twice; the trials still agree
        losses = []
        for name in ("first", "second"):
            monkeypatch.setattr(training, "_heap_kept_mapped", False)
            cfg = ExperimentConfig.from_dict(tiny_config(
                tmp_path, results_dir=str(tmp_path / name)))
            assert run_trial(cfg)["completed"]
            losses.append([r["loss"] for r in metrics_records(cfg)])
        assert losses[0] == losses[1]


def metrics_records(cfg):
    path = results_path(cfg.results_dir, cfg.experiment, config_hash(cfg), cfg.seed)
    return [r for r in read_records(path) if r["record"] == "metrics"]


class TestClipRecord:
    def test_window_counts_clipped_steps_and_their_smallest_scale(self, tmp_path,
                                                                  monkeypatch):
        scales = []
        clip = training.clip_global_norm

        def spy(state, max_norm):
            scales.append(clip(state, max_norm))
            return scales[-1]
        monkeypatch.setattr(training, "clip_global_norm", spy)
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path, max_steps=6, eval_every=3,
                                                     clip_norm=0.05))
        run_trial(cfg)
        windows = metrics_records(cfg)
        assert len(scales) == 6 and min(scales) < 1.0
        for record, window in zip(windows, (scales[:3], scales[3:])):
            assert record["window_clipped_steps"] == sum(s < 1.0 for s in window)
            assert record["window_min_clip_scale"] == min(window)

    def test_a_clip_that_never_fires_reads_one(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path, clip_norm=1e9))
        run_trial(cfg)
        (record,) = metrics_records(cfg)
        assert record["window_clipped_steps"] == 0
        assert record["window_min_clip_scale"] == 1.0


class TestFlatGradients:
    def test_backward_adds_into_the_optimizer_buffer(self, tmp_path, monkeypatch):
        # a 2-step trial of the benchmark's doubleadd SMFR: each backward
        # starts from a zeroed buffer, and at each Adam step every
        # parameter's grad is still its view of that buffer, so backward
        # allocated no gradient array of its own
        bundles, zeroed, seen = [], [], []
        replay, backward, adam = training.replay_init, Tensor.backward, training.adam_step

        def spy_replay(cfg):
            rngs, pset, bundle = replay(cfg)
            bundles.append(bundle)
            return rngs, pset, bundle

        def spy_backward(loss):
            zeroed.append(not bundles[0].opt.grad.any())
            return backward(loss)

        def spy_adam(state):
            seen.append((all(p.grad.base is state.grad for p in state.params),
                         np.array_equal(np.concatenate([p.grad.ravel() for p in state.params]),
                                        state.grad),
                         state.grad.any()))
            return adam(state)
        monkeypatch.setattr(training, "replay_init", spy_replay)
        monkeypatch.setattr(Tensor, "backward", spy_backward)
        monkeypatch.setattr(training, "adam_step", spy_adam)
        model = {"kind": "smfr", "stack_width": 8, "stack_depth": 1,
                 "fnn_hidden": [100], "attention": "softmax"}
        run_trial(ExperimentConfig.from_dict(tiny_config(tmp_path, model=model,
                                                         max_steps=2, eval_every=2)))
        assert len(bundles[0].params) == 16
        assert zeroed == [True, True]
        assert seen == [(True, True, True)] * 2

    def test_a_step_zeroes_stale_gradients_and_an_unreached_parameter_reads_zero(
            self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path, clip_norm=1e9))
        _, _, bundle = training.replay_init(cfg)
        reached, *unreached = bundle.params.values()
        bundle.opt.grad.fill(1.0)
        monkeypatch.setattr(training, "adam_step", lambda state: None)
        training._train_step(bundle, training._Window(0.0),
                             lambda step: (T.sum_all(T.mul(reached, reached)), [], None), 0)
        assert np.array_equal(reached.grad, 2 * reached.data)
        assert unreached and not any(p.grad.any() for p in unreached)


class TestNonFiniteLoss:
    FNN = {"kind": "fnn", "hidden_widths": [8]}

    def poison_after(self, monkeypatch, updates):
        """Set one weight to NaN once ``updates`` Adam steps have run."""
        def poison(bundle):
            next(iter(bundle.params.values())).data[0, 0] = np.nan

        replay, adam = training.replay_init, training.adam_step
        calls = []

        def poisoned_replay(cfg):
            rngs, pset, bundle = replay(cfg)
            if updates == 0:
                poison(bundle)
            return rngs, pset, bundle

        def poisoned_adam(state):
            adam(state)
            calls.append(state)
            if len(calls) == updates:
                next(iter(state.params)).data[0, 0] = np.nan
        monkeypatch.setattr(training, "replay_init", poisoned_replay)
        monkeypatch.setattr(training, "adam_step", poisoned_adam)

    @pytest.mark.parametrize("updates", [0, 5])
    def test_trial_ends_in_a_failure_record(self, tmp_path, monkeypatch, updates):
        self.poison_after(monkeypatch, updates)
        cfg = ExperimentConfig.from_dict(tiny_config(tmp_path, model=self.FNN,
                                                     max_steps=8, eval_every=2))
        summary = run_trial(cfg)
        assert summary["completed"] is False
        assert summary["reason"] == "non_finite_loss"
        assert summary["steps"] == updates
        path = results_path(cfg.results_dir, "doubleadd", config_hash(cfg), 0)
        with open(path) as fh:
            lines = fh.read().splitlines()

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert [r["record"] for r in records] == \
            ["header"] + ["metrics"] * (updates // 2) + ["final"]
        assert records[-1] == {**summary, "record": "final"}
        assert not os.path.exists(path + ".part")
        assert not os.path.exists(os.path.join(os.path.dirname(path), "0_final.ckpt"))

    def test_resume_keeps_the_record_and_report_reads_it(self, tmp_path, monkeypatch):
        self.poison_after(monkeypatch, 0)
        spec = GridSpec.from_json(json.dumps({
            "base": tiny_config(tmp_path, model=self.FNN), "axes": {},
            "trials_per_cell": 1}))
        first = grid_search(spec)
        assert first[0]["reason"] == "non_finite_loss" and first[0]["error"] is None
        assert [row["skipped"] for row in grid_search(spec)] == [True]
        # alone, the cell still gets a row: no completed trial and no means
        results = str(tmp_path / "results")
        (row,) = report_mod.write_report(results, str(tmp_path / "report"))["doubleadd"]
        assert row == {"model": "fnn", "n": 0, "n_incomplete": 1}
        # beside a finished trial of the same cell, the means are that one's
        monkeypatch.undo()
        run_trial(ExperimentConfig.from_dict(tiny_config(tmp_path, model=self.FNN, seed=1)))
        report = report_mod.write_report(results, str(tmp_path / "report"))
        assert [(row["model"], row["n"], row["n_incomplete"])
                for row in report["doubleadd"]] == [("fnn", 1, 1)]


class TestAbortedTrial:
    FNN = {"kind": "fnn", "hidden_widths": [8]}

    def stop_at_step(self, monkeypatch, error, step=3):
        """Raise ``error`` from the forward pass of training step ``step``."""
        forward = training.ModelBundle.forward
        calls = []

        def failing(bundle, inputs, rng=None, eval_mode=False):
            if not eval_mode:
                calls.append(1)
                if len(calls) == step:
                    raise error
            return forward(bundle, inputs, rng=rng, eval_mode=eval_mode)
        monkeypatch.setattr(training.ModelBundle, "forward", failing)

    @pytest.mark.parametrize("error, reason", [
        (RuntimeError("boom"), "exception"), (KeyboardInterrupt(), "interrupted")],
        ids=["exception", "interrupt"])
    def test_trial_keeps_its_records_and_resume_reruns_it(self, tmp_path, monkeypatch,
                                                          error, reason):
        self.stop_at_step(monkeypatch, error)
        spec = GridSpec.from_json(json.dumps({
            "base": tiny_config(tmp_path, model=self.FNN, max_steps=6, eval_every=1),
            "axes": {}, "trials_per_cell": 1}))
        cfg = ExperimentConfig.from_dict(spec.base)
        path = results_path(cfg.results_dir, "doubleadd", config_hash(cfg), 0)
        with pytest.raises(type(error)):
            run_trial(cfg)
        records = read_records(path + ".part")
        assert [r["record"] for r in records] == ["header", "metrics", "metrics", "aborted"]
        assert records[-1] == {"record": "aborted", "reason": reason,
                               "error": f"{type(error).__name__}: {error}"}
        assert not os.path.exists(path)
        assert report_mod.load_results(cfg.results_dir) == []
        # resume runs the trial again over the partial file
        monkeypatch.undo()
        (row,) = grid_search(spec)
        assert not row["skipped"] and row["error"] is None and row["completed"]
        assert not os.path.exists(path + ".part")
        assert [r["record"] for r in read_records(path)] == \
            ["header"] + ["metrics"] * 6 + ["final"]


    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()],
                             ids=["exception", "interrupt"])
    def test_full_disk_does_not_replace_the_error(self, tmp_path, monkeypatch, error):
        # the disk fills up as the trial stops: writing the aborted record
        # and closing the file both fail, and the sweep must still see the
        # original error (an interrupt must stop it, not be caught as a
        # failed trial)
        self.stop_at_step(monkeypatch, error)
        handles = []
        write = MetricsWriter.write

        def write_to_full_disk(writer, record):
            if record["record"] == "aborted":
                handles.append(writer._fh)
                writer._fh = _FullDisk(writer._fh)
            write(writer, record)
        monkeypatch.setattr(MetricsWriter, "write", write_to_full_disk)
        spec = GridSpec.from_json(json.dumps({
            "base": tiny_config(tmp_path, model=self.FNN, max_steps=6, eval_every=1),
            "axes": {}, "trials_per_cell": 1}))
        if isinstance(error, Exception):
            (row,) = grid_search(spec)
            assert row["error"] == "RuntimeError: boom"
        else:
            with pytest.raises(KeyboardInterrupt):
                grid_search(spec)
        (handle,) = handles
        assert handle.closed
        cfg = ExperimentConfig.from_dict(spec.base)
        path = results_path(cfg.results_dir, "doubleadd", config_hash(cfg), 0)
        assert [r["record"] for r in read_records(path + ".part")] == \
            ["header", "metrics", "metrics"]
        monkeypatch.undo()
        (row,) = grid_search(spec)
        assert row["completed"] and not os.path.exists(path + ".part")


class _FullDisk:
    """A file handle on a full disk: writes fail, and closing fails after
    closing the file underneath."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        self._fh.close()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestGrid:
    def grid_data(self, tmp_path, **edits):
        data = {
            "base": tiny_config(tmp_path, model={"kind": "fnn",
                                                 "hidden_widths": [8]}),
            "axes": {},
            "trials_per_cell": 2,
        }
        data.update(edits)
        return data

    def test_cell_count(self):
        spec = GridSpec(base={}, axes={"model.stack_width": [1, 2, 3],
                                       "seed": [0, 10]})
        assert spec.cell_count() == 6

    def test_unknown_axis_key(self):
        with pytest.raises(ConfigError, match=r"axes\.model\.widht"):
            GridSpec(axes={"model.widht": [1]}).validate()

    def test_bad_axis_values(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            GridSpec(axes={"seed": []}).validate()

    def test_bad_trials_per_cell(self):
        with pytest.raises(ConfigError, match="trials_per_cell"):
            GridSpec(trials_per_cell=0).validate()

    @pytest.mark.parametrize("edits, message", [
        ({"trials_per_cell": "3"}, "trials_per_cell: expected integer"),
        ({"trials_per_cell": True}, "trials_per_cell: expected integer"),
        ({"seed_base": 1.5}, "seed_base: expected integer"),
        ({"base": []}, "base: must be an object"),
    ], ids=["string-trials", "bool-trials", "float-seed-base", "list-base"])
    def test_mistyped_fields(self, edits, message):
        with pytest.raises(ConfigError, match=message):
            GridSpec(**edits).validate()

    def test_every_cell_is_validated_before_any_trial(self):
        # the second cell is invalid; nothing may run for the first
        spec = GridSpec(base={"max_steps": 1}, axes={"batch_size": [8, -1]})
        with pytest.raises(ConfigError, match="batch_size: must be positive"):
            spec.validate()

    def test_a_cell_with_invalid_model_sizes_is_rejected_before_any_trial(self):
        spec = GridSpec(base={"max_steps": 1, "model": {"kind": "transformer"}},
                        axes={"model.num_heads": [4, 3]})
        with pytest.raises(ConfigError, match="not divisible by model.num_heads 3"):
            spec.validate()

    @pytest.mark.parametrize("base, axis", [
        ({"experiment": "doubleadd"}, {"variants.bias": [False, True]}),
        ({"experiment": "algo"}, {"variants.alternate_split": [False, True]}),
        ({"experiment": "doubleadd"}, {"loss_per_step": [False, True]}),
    ], ids=["bias", "alternate_split", "loss_per_step"])
    def test_a_cell_with_a_flag_that_does_nothing_is_rejected_before_any_trial(
            self, tmp_path, base, axis):
        results = tmp_path / "results"
        spec = GridSpec(base={**base, "max_steps": 1, "results_dir": str(results)},
                        axes=axis)
        with pytest.raises(ConfigError, match="only applies"):
            grid_search(spec)
        assert not results.exists()

    def test_from_json_rejects_unknown_grid_key(self):
        with pytest.raises(ConfigError, match="spam"):
            GridSpec.from_json('{"spam": 1}')

    def test_trial_seeds_count_up_from_cell_seed(self, tmp_path):
        data = self.grid_data(tmp_path)
        data["base"]["seed"] = 7
        rows = grid_search(GridSpec.from_json(json.dumps(data)))
        assert [row["seed"] for row in rows] == [7, 8]
        assert all(not row["skipped"] and row["error"] is None for row in rows)

    def test_rerun_skips_finished_trials(self, tmp_path):
        spec = GridSpec.from_json(json.dumps(self.grid_data(tmp_path)))
        first = grid_search(spec)
        assert [row["skipped"] for row in first] == [False, False]
        second = grid_search(spec)
        assert [row["skipped"] for row in second] == [True, True]
        assert [r["ood_accuracy"] for r in second] == \
            [r["ood_accuracy"] for r in first]
        # a trial finished by other code is trained again and replaced
        path = results_path(str(tmp_path / "results"), "doubleadd",
                            first[0]["config_hash"], first[0]["seed"])
        records = read_records(path)
        records[-1]["code_fingerprint"] = "0" * 16
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        third = grid_search(spec)
        assert [row["skipped"] for row in third] == [False, True]
        assert read_records(path)[-1]["code_fingerprint"] == first[0]["code_fingerprint"]
        assert third[0]["ood_accuracy"] == first[0]["ood_accuracy"]
        assert not os.path.exists(path + ".part")

    def test_axes_vary_the_config_hash(self, tmp_path):
        data = self.grid_data(tmp_path, trials_per_cell=1)
        data["axes"] = {"model.hidden_widths": [[4], [8]]}
        rows = grid_search(GridSpec.from_json(json.dumps(data)))
        assert len(rows) == 2
        assert rows[0]["config_hash"] != rows[1]["config_hash"]
        assert rows[0]["parameter_count"] != rows[1]["parameter_count"]

    def test_trial_failure_recorded_without_stopping(self, tmp_path):
        # an unloadable dataset fails each trial at runtime, not the sweep
        data = self.grid_data(tmp_path)
        data["base"]["experiment"] = "bpmnist"
        data["base"]["data_dir"] = str(tmp_path / "nodata")
        rows = grid_search(GridSpec.from_json(json.dumps(data)))
        assert len(rows) == 2
        assert all(row["error"] for row in rows)
        assert all("Mnist" in row["error"] for row in rows)
        # failed trials leave no finalized result behind, only partial files
        # that end in the error
        parts = [os.path.join(root, name)
                 for root, _, files in os.walk(tmp_path / "results") for name in files]
        assert len(parts) == 2 and all(name.endswith(".jsonl.part") for name in parts)
        for name, row in zip(sorted(parts), rows):
            aborted = read_records(name)[-1]
            assert aborted == {"record": "aborted", "reason": "exception",
                               "error": row["error"]}

    def test_size_buckets(self):
        assert size_bucket(49_999) == "LOW"
        assert size_bucket(50_000) == "MID"
        assert size_bucket(199_999) == "MID"
        assert size_bucket(200_000) == "HIGH"


class TestCodeFingerprint:
    def package_copy(self, tmp_path):
        package = tmp_path / "blockops"
        shutil.copytree(os.path.dirname(blockops.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return package

    def edit(self, path, old, new):
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))

    def test_names_the_code_not_its_location(self, tmp_path):
        package = self.package_copy(tmp_path)
        assert code_fingerprint(str(package)) == code_fingerprint()

    def test_comments_and_docstrings_do_not_count(self, tmp_path):
        package = self.package_copy(tmp_path)
        base = code_fingerprint(str(package))
        tensor_py = package / "tensor.py"
        self.edit(tensor_py, "# Iterative DFS;", "# An iterative DFS, as")
        assert code_fingerprint(str(package)) == base
        self.edit(tensor_py, '"""Dense tensors with', '"""Dense, CPU-only tensors with')
        self.edit(tensor_py, "Mean softmax cross-entropy", "Average softmax cross-entropy")
        self.edit(package / "nn.py", '"""Affine layers with',
                  '"""A stack of affine layers with')
        assert code_fingerprint(str(package)) == base
        os.remove(package / "__pycache__" / "code_fingerprint")
        assert code_fingerprint(str(package)) == base

    def test_code_edit_and_file_move_change_it(self, tmp_path):
        package = self.package_copy(tmp_path)
        base = code_fingerprint(str(package))
        optim_py = package / "optim.py"
        original = optim_py.read_text()
        self.edit(optim_py, "def adam_step(", "def  adam_step(")
        assert code_fingerprint(str(package)) == base
        self.edit(package / "tensor.py", "eps = 1e-20", "eps = 1e-21")
        edited = code_fingerprint(str(package))
        assert edited != base
        optim_py.write_text(original)
        os.rename(package / "harness" / "report.py", package / "harness" / "reports.py")
        assert code_fingerprint(str(package)) not in (base, edited)


class TestReport:
    def test_doubleadd_table_and_files(self, tmp_path):
        results = str(tmp_path / "results")
        for kind, seed in (("fnn", 0), ("fnn", 1), ("smfr", 0)):
            data = tiny_config(tmp_path, seed=seed, results_dir=results)
            if kind == "fnn":
                data["model"] = {"kind": "fnn", "hidden_widths": [8]}
            run_trial(ExperimentConfig.from_dict(data))
        report = report_mod.build_report(results)
        assert set(report) == {"doubleadd"}
        by_model = {row["model"]: row for row in report["doubleadd"]}
        assert by_model["fnn"]["n"] == 2
        assert by_model["smfr_softmax"]["n"] == 1
        assert 0.0 <= by_model["fnn"]["ood_mean"] <= 1.0

        out = tmp_path / "report"
        written = report_mod.write_report(results, str(out))
        assert set(written) == {"doubleadd"}
        assert (out / "summary.txt").read_text().startswith("== doubleadd ==")
        header = (out / "doubleadd.csv").read_text().splitlines()[0]
        assert "ood_mean" in header

    def test_incomplete_trials_are_counted_per_cell(self):
        def row(kind, completed, **fields):
            config = ExperimentConfig.from_dict({"model": {"kind": kind}}).to_dict()
            return {"config": config, "completed": completed, **fields}
        addmul = report_mod._addmul_report([
            row("fnn", True, preparation_data_accuracy=0.5), row("fnn", False),
            row("smfr", False)])
        assert addmul == [{"threshold": 0.7, "fnn": 0.5, "fnn_stderr": 0.0, "fnn_n": 1,
                           "fnn_n_incomplete": 1, "smfr_softmax_n": 0,
                           "smfr_softmax_n_incomplete": 1}]
        algo = report_mod._algo_report([row("smfr", False)])
        assert algo == [{"model": "smfr_softmax", "n": 0, "n_incomplete": 1, "top_n": 0}]

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report_mod.build_report(str(tmp_path))

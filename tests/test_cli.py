"""Command-line interface: exit codes, headline JSON, file side effects."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from blockops import inspection, tensor as T
from blockops.cli import main
from blockops.harness.config import ExperimentConfig, config_hash
from blockops.harness.metrics import read_records, results_path
from blockops.harness.training import build_model
from blockops.checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from blockops.tasks import algo, bpmnist
from blockops.tasks.mnist_io import load_mnist
from test_mnist import write_synthetic_cache


def write_config(tmp_path, **edits):
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
    data.update(edits)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path), data


def headlines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestRunCommand:
    def test_trial_runs_and_prints_summary(self, tmp_path, capsys):
        config, data = write_config(tmp_path)
        assert main(["run", "--config", config]) == 0
        (summary,) = headlines(capsys)
        assert summary["completed"] is True
        assert summary["seed"] == 0
        cfg = ExperimentConfig.from_dict(data)
        assert os.path.exists(results_path(cfg.results_dir, "doubleadd",
                                           config_hash(cfg), 0))

    def test_set_overrides_reach_the_trial(self, tmp_path, capsys):
        config, data = write_config(tmp_path)
        assert main(["run", "--config", config, "--set", "seed=5",
                     "--set", "max_steps=2"]) == 0
        (summary,) = headlines(capsys)
        assert summary["seed"] == 5
        assert summary["steps"] == 2

    def test_unknown_override_key_is_a_usage_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["run", "--config", config, "--set", "sed=5"]) == 2
        assert "valid keys" in capsys.readouterr().err

    def test_invalid_config_value_is_a_usage_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, experiment="nonesuch")
        assert main(["run", "--config", config]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_invalid_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "algo",')
        assert main(["run", "--config", str(path)]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["run", "--config", config, "--set", "seed=-1"]) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "results")

    @pytest.mark.parametrize("override, message", [
        ("model.num_heads=3", "model.model_width: 64 is not divisible by model.num_heads 3"),
        ("model.model_width=0", "model.model_width: must be positive"),
        ("model.num_heads=0", "model.num_heads: must be positive"),
        ("model.ffn_width=0", "model.ffn_width: must be positive"),
        ("model.encoder_layers=0", "model.encoder_layers: must be positive"),
        ("model.decoder_layers=0", "model.decoder_layers: must be positive"),
        ("model.stack_width=0", "model.stack_width: must be positive"),
    ], ids=["indivisible-heads", "width", "heads", "ffn", "encoder", "decoder", "stack"])
    def test_bad_model_size_is_a_usage_error(self, tmp_path, capsys, override, message):
        # caught before the trial starts, so no aborted .part is left behind
        kind = "smfr" if override.startswith("model.stack") else "transformer"
        config, _ = write_config(tmp_path, model={"kind": kind})
        assert main(["run", "--config", config, "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "results")

    @pytest.mark.parametrize("override, message", [
        ("optimizer.beta1=1.5", "optimizer.beta1: must be in [0, 1)"),
        ("optimizer.learning_rate=-0.1", "optimizer.learning_rate: must be positive"),
        ("clip_norm=NaN", "clip_norm: must be finite"),
        ("model.gumbel_temperature=0.0", "model.gumbel_temperature: must be positive"),
    ], ids=["beta1", "learning-rate", "nan-clip-norm", "zero-temperature"])
    def test_bad_number_is_a_usage_error(self, tmp_path, capsys, override, message):
        config, _ = write_config(tmp_path, model={"kind": "smfr", "stack_width": 2,
                                                  "stack_depth": 0, "fnn_hidden": [8],
                                                  "attention": "gumbel_st"})
        assert main(["run", "--config", config, "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "results")

    def test_algo_full_eval_off_the_eval_cadence_is_a_usage_error(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, experiment="algo", eval_every=300)
        assert main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "full_eval_every" in err and "eval_every" in err and "1000 and 300" in err
        assert not os.path.exists(tmp_path / "results")

    def test_incomplete_trial_exits_nonzero(self, tmp_path, capsys):
        # addmul that never clears its switch threshold
        config, _ = write_config(tmp_path, experiment="addmul", threshold=1.0,
                                 max_steps=4)
        assert main(["run", "--config", config]) == 1
        (summary,) = headlines(capsys)
        assert summary["reason"] == "threshold_not_reached"


class TestGridCommand:
    def write_spec(self, tmp_path):
        _, base = write_config(tmp_path)
        base["model"] = {"kind": "fnn", "hidden_widths": [8]}
        spec = {"base": base, "axes": {"seed": [0, 1]}, "trials_per_cell": 1}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_sweep_then_resume(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(["grid", "--spec", spec]) == 0
        (first,) = headlines(capsys)
        assert first == {"cells": 2, "trials": 2, "skipped": 0, "failed": 0}
        assert main(["grid", "--spec", spec]) == 0
        (second,) = headlines(capsys)
        assert second["skipped"] == 2

    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": {}, "axes": {"bogus.key": [1]}}))
        assert main(["grid", "--spec", str(path)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[]", "grid spec root must be a JSON object"),
        ('{"base": {}, "trials_per_cell": "3"}', "trials_per_cell: expected integer"),
        ('{"base": {}, "seed_base": "0"}', "seed_base: expected integer"),
        ('{"base": {}', "grid spec is not valid JSON"),
        ('{"base": {"seed": "3"}}', "seed: expected integer"),
        ('{"base": {}, "axes": {"seed": [1.5]}}', "seed: expected integer"),
        ('{"base": {}, "seed_base": -1}', "seed_base: must be >= 0"),
        ('{"base": {}, "axes": {"seed": [0, -1]}}', "seed: must be >= 0"),
        ('{"base": {"optimizer": {"beta2": 1.0}}}', "optimizer.beta2: must be in [0, 1)"),
        ('{"base": {}, "axes": {"clip_norm": [0.1, NaN]}}', "clip_norm: must be finite"),
        ('{"base": {}, "axes": {"optimizer.epsilon": [0]}}',
         "optimizer.epsilon: must be positive"),
    ], ids=["list-root", "string-trials", "string-seed-base", "invalid-json",
            "string-base-seed", "float-axis-seed", "negative-seed-base",
            "negative-axis-seed", "beta2-one", "nan-axis-clip-norm", "zero-epsilon"])
    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["grid", "--spec", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_failed_trials_flagged(self, tmp_path, capsys):
        _, base = write_config(tmp_path)
        base["experiment"] = "bpmnist"
        base["data_dir"] = str(tmp_path / "nodata")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": base, "axes": {},
                                    "trials_per_cell": 1}))
        assert main(["grid", "--spec", str(path)]) == 1
        assert "failed" in capsys.readouterr().err


class TestInspectCommand:
    def checkpoint_from_trial(self, tmp_path, capsys, kind="smfr"):
        edits = {}
        if kind == "fnn":
            edits["model"] = {"kind": "fnn", "hidden_widths": [8]}
        elif kind == "transformer":
            edits["model"] = {"kind": "transformer", "model_width": 8, "num_heads": 2,
                              "encoder_layers": 1, "decoder_layers": 1, "ffn_width": 8}
        config, data = write_config(tmp_path, **edits)
        assert main(["run", "--config", config]) == 0
        capsys.readouterr()
        cfg = ExperimentConfig.from_dict(data)
        return os.path.join(cfg.results_dir, "doubleadd", config_hash(cfg),
                            "0_final.ckpt")

    def test_headline_indicators(self, tmp_path, capsys):
        ckpt = self.checkpoint_from_trial(tmp_path, capsys)
        assert main(["inspect", "--checkpoint", ckpt]) == 0
        (row,) = headlines(capsys)
        assert row["step"] == 4
        assert 0.0 < row["sharpness"] <= 1.0
        assert 0.0 <= row["fairness"] <= 1.0
        assert "gate_mean_layer0" in row

    def test_probe_seed_changes_inputs_not_shape(self, tmp_path, capsys):
        ckpt = self.checkpoint_from_trial(tmp_path, capsys)
        assert main(["inspect", "--checkpoint", ckpt, "--probe-seed", "1"]) == 0
        (row,) = headlines(capsys)
        assert set(row) >= {"step", "sharpness", "fairness"}

    def test_csv_output(self, tmp_path, capsys):
        ckpt = self.checkpoint_from_trial(tmp_path, capsys)
        out = str(tmp_path / "indicators.csv")
        assert main(["inspect", "--checkpoint", ckpt, "--out", out]) == 0
        text = open(out).read()
        assert "sharpness" in text.splitlines()[0]
        assert len(text.splitlines()) == 2

    def test_transformer_attention_indicators(self, tmp_path, capsys):
        ckpt = self.checkpoint_from_trial(tmp_path, capsys, kind="transformer")
        assert main(["inspect", "--checkpoint", ckpt]) == 0
        (row,) = headlines(capsys)
        assert 0.0 < row["sharpness"] <= 1.0
        assert 0.0 <= row["fairness"] <= 1.0
        assert not any(key.startswith("gate_") for key in row)

    def test_noisy_permutation_probe_is_scrambled(self, tmp_path, capsys):
        config, data = write_config(tmp_path, experiment="algo",
                                    variants={"noisy_permutation": True})
        assert main(["run", "--config", config]) == 0
        capsys.readouterr()
        cfg = ExperimentConfig.from_dict(data)
        ckpt = os.path.join(cfg.results_dir, "algo", config_hash(cfg), "0_final.ckpt")
        assert main(["inspect", "--checkpoint", ckpt, "--probe-seed", "3"]) == 0
        (row,) = headlines(capsys)

        # the trial's init stream: the network's parameters, then the permutation
        init = np.random.default_rng(np.random.SeedSequence(0).spawn(5)[0])
        plain = ExperimentConfig.from_dict(dict(data, variants={}))
        bundle = build_model(plain, init)
        perm = init.permutation(60)
        restore_parameters(bundle.params, load_checkpoint(ckpt)[0])
        probe = algo.gen_algo_episode(512, 1, np.random.default_rng(3)).batch().inputs
        scrambled = probe.reshape(512, 60)[:, perm].reshape(512, 6, 10)
        trace = inspection.extract_routing_trace(bundle.net, scrambled)
        assert row["sharpness"] == inspection.attention_sharpness(trace)
        assert row["fairness"] == inspection.attention_fairness(trace)
        for key, value in inspection.gate_summary(trace).items():
            assert row[key] == value

    def test_bpmnist_probe_uses_the_trial_permutation_set(self, tmp_path, capsys,
                                                          monkeypatch):
        cache = tmp_path / "mnist"
        cache.mkdir()
        write_synthetic_cache(cache)
        config, data = write_config(
            tmp_path, experiment="bpmnist", seed=2, max_steps=2, eval_every=2,
            data_dir=str(cache),
            model={"kind": "smfr", "stack_width": 4, "stack_depth": 0, "fnn_hidden": [8]},
            bpmnist={"scale": 1e-4, "eval_subset": 8, "probe_size": 8})
        assert main(["run", "--config", config]) == 0
        capsys.readouterr()
        cfg = ExperimentConfig.from_dict(data)
        ckpt = os.path.join(cfg.results_dir, "bpmnist", config_hash(cfg), "2_final.ckpt")

        probes = []
        trace = inspection.extract_routing_trace

        def spy(model, inputs):
            probes.append(inputs)
            return trace(model, inputs)

        monkeypatch.setattr(inspection, "extract_routing_trace", spy)
        assert main(["inspect", "--checkpoint", ckpt]) == 0
        (inputs,) = probes

        # the set the trial drew first from its init stream
        pset = bpmnist.build_permutation_set(
            np.random.default_rng(np.random.SeedSequence(2).spawn(5)[0]))
        mnist = load_mnist(str(cache))
        images = bpmnist.image_to_bands(mnist["train_images"])
        for row in inputs:
            pid = int(np.argmax(row[4]))
            bands = row[:4][np.argsort(pset.perms[pid])]
            (match,) = np.flatnonzero((images == bands).all(axis=(1, 2)))
            assert mnist["train_labels"][match] != pset.holdout.get(pid)

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["inspect", "--checkpoint",
                     str(tmp_path / "nope.ckpt")]) == 1

    def test_checkpoint_without_a_run_config(self, tmp_path, capsys):
        ckpt = str(tmp_path / "bare.ckpt")
        save_checkpoint(ckpt, {"w": T.parameter(np.zeros(2))}, {"step": 3})
        assert main(["inspect", "--checkpoint", ckpt]) == 1
        assert ckpt in capsys.readouterr().err

    def test_checkpoint_whose_config_is_not_an_object(self, tmp_path, capsys):
        ckpt = str(tmp_path / "number.ckpt")
        with open(ckpt, "wb") as fh:
            np.savez(fh, w=np.zeros(2), __config__=np.array("3"))
        assert main(["inspect", "--checkpoint", ckpt]) == 1
        assert ckpt in capsys.readouterr().err

    def test_model_without_routing(self, tmp_path, capsys):
        ckpt = self.checkpoint_from_trial(tmp_path, capsys, kind="fnn")
        assert main(["inspect", "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert "inspect" in err
        # the model kind, not the harness class, and the file
        assert "model.kind fnn" in err and ckpt in err
        assert "ModelBundle" not in err


class TestReportCommand:
    def test_tables_written(self, tmp_path, capsys):
        config, data = write_config(tmp_path)
        assert main(["run", "--config", config]) == 0
        capsys.readouterr()
        out = str(tmp_path / "report")
        results = data["results_dir"]
        assert main(["report", "--results", results, "--out", out]) == 0
        (line,) = headlines(capsys)
        assert line["experiment"] == "doubleadd"
        assert os.path.exists(os.path.join(out, "doubleadd.csv"))
        assert os.path.exists(os.path.join(out, "summary.txt"))

    def test_cell_without_a_completed_trial_gets_a_row(self, tmp_path, capsys):
        config, data = write_config(tmp_path, experiment="addmul", threshold=1.0,
                                    max_steps=4)
        assert main(["run", "--config", config]) == 1
        capsys.readouterr()
        out = str(tmp_path / "report")
        assert main(["report", "--results", data["results_dir"], "--out", out]) == 0
        (line,) = headlines(capsys)
        csv_path = os.path.join(out, "addmul.csv")
        assert line == {"experiment": "addmul", "out": csv_path, "rows": 1}
        with open(csv_path) as fh:
            assert fh.read().splitlines() == [
                "threshold,smfr_softmax_n,smfr_softmax_n_incomplete", "1.0,0,1"]

    def test_no_results(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "report")]) == 1


class TestParser:
    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point(self, tmp_path):
        config, _ = write_config(tmp_path, max_steps=2, eval_every=2)
        proc = subprocess.run(
            [sys.executable, "-m", "blockops.cli", "run", "--config", config],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["completed"] is True

"""The benchmark's own output check (``perfbench/workloads.py``
``check_trial``) on tiny finished trials, so that a change which breaks the
check, or the task encoding it re-derives, fails here and not only in a
benchmark run."""

import importlib.util
import os

import numpy as np
import pytest

from blockops.harness import training
from blockops.harness.config import ExperimentConfig, config_hash
from blockops.harness.metrics import results_path

WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def finished_trial(tmp_path, **data) -> str:
    """Run a two-step trial whose one evaluation is at its last step."""
    cfg = ExperimentConfig.from_dict({
        "seed": 3, "batch_size": 8, "max_steps": 2, "eval_every": 2,
        "early_stop_evals": 0, "results_dir": str(tmp_path / "results"), **data})
    training.run_trial(cfg)
    return results_path(cfg.results_dir, cfg.experiment, config_hash(cfg), cfg.seed)


def test_doubleadd_smfr_trial_passes_the_check(tmp_path, workloads):
    path = finished_trial(tmp_path, experiment="doubleadd",
                          model={"kind": "smfr", "stack_width": 2, "stack_depth": 1,
                                 "fnn_hidden": [8], "attention": "softmax"})
    final, problems = workloads.check_trial(path)
    assert problems == []
    assert final["completed"]


def test_algo_transformer_trial_passes_the_check(tmp_path, workloads, monkeypatch):
    # an untrained model scores 0 however its inputs are encoded, so the
    # check's own unroll must also reproduce the trial's eval outputs bitwise
    trial_outputs = []
    unroll = training._algo_unroll

    def spy_unroll(bundle, inputs, rng=None, eval_mode=False):
        outputs, traces = unroll(bundle, inputs, rng=rng, eval_mode=eval_mode)
        if eval_mode and len(outputs) == 2:
            trial_outputs.append(outputs[-1].data)
        return outputs, traces

    check_outputs = []
    accuracy = workloads._algo_accuracy

    def spy_accuracy(seed, forward, iterations):
        def recording(inputs):
            check_outputs.append(forward(inputs))
            return check_outputs[-1]
        return accuracy(seed, recording, iterations)

    monkeypatch.setattr(training, "_algo_unroll", spy_unroll)
    monkeypatch.setattr(workloads, "_algo_accuracy", spy_accuracy)
    path = finished_trial(tmp_path, experiment="algo", full_eval_every=1000,
                          model={"kind": "transformer", "model_width": 8, "num_heads": 2,
                                 "encoder_layers": 1, "decoder_layers": 1, "ffn_width": 8})
    final, problems = workloads.check_trial(path)
    assert problems == []
    assert final["completed"]
    # the trial unrolls its 500 two-iteration episodes in 128-row chunks, the
    # check in one pass; the Transformer's outputs do not depend on the chunk
    assert [len(x) for x in trial_outputs] == [128, 128, 128, 116]
    assert len(check_outputs) == 2
    assert np.array_equal(np.concatenate(trial_outputs), check_outputs[-1])

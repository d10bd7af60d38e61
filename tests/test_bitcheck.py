"""The bit-identity check (``tools/bitcheck.py``): its ``compare`` on the
output of a tiny ``run``, and the validity of every trial it trains."""

import importlib.util
import json
import os
import shutil

import numpy as np
import pytest

from blockops.harness.config import ExperimentConfig

BITCHECK_PY = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bitcheck.py")

TINY = {"tiny-algo": {"experiment": "algo", "batch_size": 8, "max_steps": 2, "eval_every": 2,
                      "full_eval_every": 2, "early_stop_evals": 0,
                      "model": {"kind": "smfr", "stack_width": 2, "stack_depth": 0,
                                "fnn_hidden": [8]}}}


@pytest.fixture(scope="module")
def bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", BITCHECK_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_run(bitcheck, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bitcheck") / "a")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert bitcheck.run(out, TINY, seeds=(0,)) == 0
    return out


@pytest.fixture
def pair(tiny_run, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    shutil.copytree(tiny_run, a)
    shutil.copytree(tiny_run, b)
    return a, b


def find(root, suffix):
    (path,) = [os.path.join(d, n) for d, _, names in os.walk(root) for n in names
               if n.endswith(suffix)]
    return path


def edit_records(path, edit):
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    for record in records:
        edit(record)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def edit_arrays(path, name):
    with np.load(path, allow_pickle=False) as archive:
        arrays = {n: archive[n] for n in archive.files}
    flat = arrays[name].reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_every_case_validates(bitcheck):
    for name in bitcheck.CASES:
        for seed in bitcheck.SEEDS:
            assert isinstance(bitcheck.trial_config(name, seed), ExperimentConfig)


def test_run_writes_records_checkpoints_and_eval_outputs(tiny_run):
    with np.load(find(tiny_run, ".npz")) as evals:
        assert sorted(evals.files) == sorted(f"iter_{n}" for n in range(1, 10))
        assert evals["iter_3"].shape == (500, 5, 10)
    assert find(tiny_run, "0.jsonl") and find(tiny_run, "0_final.ckpt")


def test_run_refuses_other_blas_thread_counts(bitcheck, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert bitcheck.main(["run", str(tmp_path / "out")]) == 2
    assert not os.path.exists(tmp_path / "out")


def test_identical_runs_compare_equal(bitcheck, pair, capsys):
    assert bitcheck.main(["compare", *pair]) == 0
    assert "0 differences" in capsys.readouterr().out


def test_a_changed_loss_is_named(bitcheck, pair, capsys):
    def edit(record):
        if record["record"] == "metrics":
            record["loss"] = np.nextafter(record["loss"], np.inf)
    edit_records(find(pair[1], ".jsonl"), edit)
    assert bitcheck.compare(*pair) == 1
    assert " loss: " in capsys.readouterr().out


@pytest.mark.parametrize("suffix", ["_final.ckpt", ".npz"], ids=["checkpoint", "eval"])
def test_a_changed_tensor_is_named(bitcheck, pair, capsys, suffix):
    path = find(pair[1], suffix)
    with np.load(path) as archive:
        member = [n for n in sorted(archive.files) if n != "__config__"][-1]
    edit_arrays(path, member)
    assert bitcheck.compare(*pair) == 1
    assert f"member {member}: bytes differ" in capsys.readouterr().out


def test_a_missing_trial_fails(bitcheck, pair, capsys):
    shutil.rmtree(os.path.join(pair[1], "trials", "tiny-algo"))
    assert bitcheck.compare(*pair) == 1
    assert f"only in {pair[0]}" in capsys.readouterr().out
    assert bitcheck.compare(*pair[::-1]) == 1


def test_timing_and_identity_fields_are_left_out(bitcheck, pair):
    changed = set()

    def edit(record):
        for fields in (record, record.get("config", {})):
            for key in bitcheck.IGNORED & set(fields):
                fields[key] = "changed"
                changed.add(key)
    edit_records(find(pair[1], ".jsonl"), edit)
    assert changed == bitcheck.IGNORED
    assert bitcheck.compare(*pair) == 0


def test_drift_of_identical_runs_marks_nothing(bitcheck, pair, capsys):
    assert bitcheck.main(["drift", *pair]) == 0
    out = capsys.readouterr().out
    assert "MOVED" not in out
    assert " loss " in out and " accuracy_iter_9 " in out
    assert out.splitlines()[-1].startswith("0 of ")


def test_drift_names_a_changed_loss(bitcheck, pair, capsys):
    def edit(record):
        if record["record"] == "metrics":
            record["loss"] = np.nextafter(record["loss"], np.inf)
    edit_records(find(pair[1], ".jsonl"), edit)
    assert bitcheck.drift(*pair) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines if line.endswith("MOVED")] == ["loss"]
    assert lines[-1].startswith("1 of ")


def test_drift_fails_on_a_missing_trial(bitcheck, pair, capsys):
    shutil.rmtree(os.path.join(pair[1], "trials", "tiny-algo"))
    assert bitcheck.drift(*pair) == 1
    assert f"tiny-algo seed 0: only in {pair[0]}" in capsys.readouterr().out

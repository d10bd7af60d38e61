"""The benchmark's three workloads and the checks on their outputs.

Each workload is fixed work: ``early_stop_evals`` is 0 and ``max_steps`` is
fixed, so a faster program runs the same steps.  The workload seed goes only
into the generated configs.  ``run`` drives only public entry points
(``run_trial``, or ``blockops.cli.main`` with ``grid`` and ``inspect``) and
returns what the checks need; ``check_trial`` re-reads a finished trial from
its files.

``max_steps`` is a multiple of ``eval_every`` everywhere, so the last
in-loop evaluation sees the parameters the final checkpoint holds and the
re-evaluation must reproduce it exactly.

``blockops`` is imported inside the functions: ``run.py`` imports this
module without the package on its path, and only ``worker.py`` runs them.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import math
import os
import time

import numpy as np

DOUBLEADD_SMFR = {
    "experiment": "doubleadd",
    "model": {"kind": "smfr", "stack_width": 8, "stack_depth": 1, "fnn_hidden": [100],
              "attention": "softmax"},
    "batch_size": 64, "max_steps": 250, "eval_every": 250, "early_stop_evals": 0,
}

# the Transformer arm of the algo acceptance gate at its width-64 point; one
# window (iterations 2 and 4), then the trial's final full 1..9 iteration eval
ALGO_TRANSFORMER = {
    "experiment": "algo",
    "model": {"kind": "transformer", "model_width": 64, "num_heads": 4,
              "encoder_layers": 1, "decoder_layers": 1, "ffn_width": 128},
    "batch_size": 64, "max_steps": 40, "eval_every": 40, "full_eval_every": 1000,
    "early_stop_evals": 0,
}

SWEEP_BASE = {
    "experiment": "doubleadd",
    "model": {"stack_width": 5, "stack_depth": 1, "attention": "gumbel_st"},
    "batch_size": 64, "max_steps": 150, "eval_every": 150, "early_stop_evals": 0,
}
SWEEP_AXES = {"model.kind": ["fnn", "smfr"]}
SWEEP_SEEDS = 2


def _run_single(base: dict, seed: int, results_dir: str) -> dict:
    from blockops.harness import config, training

    cfg = config.ExperimentConfig.from_dict(dict(base, seed=seed, results_dir=results_dir))
    training.run_trial(cfg)
    return {"grid.trials_run": 1, "grid.trials_skipped": 0, "grid.resume_ms_per_trial": 0.0}


def _cli(argv) -> tuple[int, list[dict]]:
    """Run ``blockops.cli.main`` and parse the JSON lines it prints."""
    from blockops import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]


def _run_sweep(seed: int, results_dir: str) -> dict:
    """Cold grid, the same grid again as a resume, then ``inspect`` on each
    routing checkpoint."""
    spec_path = os.path.join(results_dir, "sweep.json")
    with open(spec_path, "w") as fh:
        json.dump({"base": dict(SWEEP_BASE, results_dir=results_dir), "axes": SWEEP_AXES,
                   "trials_per_cell": SWEEP_SEEDS, "seed_base": seed}, fh)
    expected = SWEEP_SEEDS * math.prod(len(v) for v in SWEEP_AXES.values())
    code, lines = _cli(["grid", "--spec", spec_path])
    cold = lines[-1]
    if code != 0 or cold["trials"] != expected or cold["skipped"] != 0:
        raise RuntimeError(f"cold grid pass ran {cold} (exit {code}), wanted {expected} new trials")
    started = time.perf_counter()
    code, lines = _cli(["grid", "--spec", spec_path])
    resume_s = time.perf_counter() - started
    warm = lines[-1]
    if code != 0 or warm["skipped"] != expected:
        raise RuntimeError(f"resume pass skipped {warm} (exit {code}), wanted all {expected}")
    for path in trial_files(results_dir):
        if _header(path)["config"]["model"]["kind"] != "smfr":
            continue
        code, lines = _cli(["inspect", "--checkpoint", checkpoint_of(path)])
        if code != 0 or not 0.0 < lines[-1]["sharpness"] <= 1.0:
            raise RuntimeError(f"inspect of {path} gave {lines} (exit {code})")
    return {"grid.trials_run": cold["trials"] - cold["skipped"],
            "grid.trials_skipped": warm["skipped"],
            "grid.resume_ms_per_trial": 1e3 * resume_s / expected}


def _prepare_trial():
    import blockops.harness.training  # noqa: F401


def _prepare_cli():
    import blockops.cli  # noqa: F401


class Workload:
    def __init__(self, name, prepare, run, trials):
        self.name = name
        self.prepare = prepare  # imports the entry points, before hooks go in
        self.run = run          # (seed, results_dir) -> grid counts
        self.trials = trials    # trials one run finishes


WORKLOADS = {w.name: w for w in (
    Workload("doubleadd-smfr", _prepare_trial,
             lambda seed, d: _run_single(DOUBLEADD_SMFR, seed, d), 1),
    Workload("algo-transformer", _prepare_trial,
             lambda seed, d: _run_single(ALGO_TRANSFORMER, seed, d), 1),
    Workload("sweep-doubleadd", _prepare_cli, _run_sweep,
             SWEEP_SEEDS * math.prod(len(v) for v in SWEEP_AXES.values())),
)}


# -- output checks

def trial_files(results_dir: str) -> list[str]:
    """Finalized trial files, ``<results>/<experiment>/<hash>/<seed>.jsonl``."""
    return sorted(glob.glob(os.path.join(results_dir, "*", "*", "*.jsonl")))


def checkpoint_of(trial_path: str) -> str:
    return trial_path[:-len(".jsonl")] + "_final.ckpt"


def _records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _header(path: str) -> dict:
    with open(path) as fh:
        return json.loads(fh.readline())


def check_trial(path: str) -> tuple[dict, list[str]]:
    """The trial's final record and what is wrong with it.

    The final record must say completed, every logged loss must be finite,
    and re-evaluating the final checkpoint must reproduce the summary's
    ``train_accuracy`` exactly."""
    records = _records(path)
    final = records[-1]
    problems = []
    if final.get("record") != "final" or final.get("completed") is not True:
        problems.append(f"{path}: final record not completed: {final.get('reason')}")
    losses = [r.get("loss") for r in records if r.get("record") == "metrics"]
    if not losses or not all(isinstance(x, float) and math.isfinite(x) for x in losses):
        problems.append(f"{path}: logged losses missing or not finite: {losses}")
    accuracy = reevaluate(checkpoint_of(path))
    if accuracy != final.get("train_accuracy"):
        problems.append(f"{path}: checkpoint re-evaluates to train_accuracy {accuracy}, "
                        f"summary says {final.get('train_accuracy')}")
    return final, problems


def reevaluate(checkpoint: str) -> float:
    """Training-set accuracy of a reloaded checkpoint, computed the way the
    trial's summary computes ``train_accuracy``."""
    from blockops.checkpoint import load_checkpoint, restore_parameters
    from blockops.harness.config import ExperimentConfig
    from blockops.harness.training import build_model, evaluate_accuracy

    tensors, header = load_checkpoint(checkpoint)
    cfg = ExperimentConfig.from_dict(header["config"]).validate()
    bundle = build_model(cfg, np.random.default_rng(0))
    restore_parameters(bundle.params, tensors)

    def forward(inputs):
        out, _ = bundle.forward(inputs, eval_mode=True)
        return bundle.logits(out).data

    if cfg.experiment == "doubleadd":
        from blockops.tasks.doubleadd import doubleadd_train_set

        return evaluate_accuracy(lambda x: np.argmax(forward(x), axis=2),
                                 doubleadd_train_set(cfg.variants.alternate_split))
    if cfg.experiment == "algo":
        return _algo_accuracy(cfg.seed, forward, iterations=2)
    raise ValueError(f"no re-evaluation for experiment {cfg.experiment}")


def _algo_accuracy(seed: int, forward, iterations: int) -> float:
    """Unroll the model over the trial's eval episodes of ``iterations``
    steps, feeding raw output blocks back as the next state.

    The eval episodes come from the fourth of the five random streams the
    trial spawns from its seed (init, data, routing, eval, probe), drawn for
    1..9 iterations in order."""
    from blockops.tasks import algo
    from blockops.tasks.batches import indicator_block, one_hot

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[3])
    episodes = {n: algo.gen_algo_episode(500, n, rng) for n in range(1, 10)}
    ep = episodes[iterations]
    state = np.stack([one_hot(ep.initial[:, i], algo.BLOCK_SIZE)
                      for i in range(algo.NUM_VARS)], axis=1)
    for t in range(ep.num_iterations):
        rule = indicator_block(ep.rule_ids[:, t], algo.NUM_RULES, algo.BLOCK_SIZE)
        state = forward(np.concatenate([state, rule[:, None, :]], axis=1))
    return float(np.all(np.argmax(state, axis=2) == ep.final, axis=1).mean())

#!/usr/bin/env python3
"""Check that two versions of blockops train bit for bit the same.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=OLD/src python tools/bitcheck.py run OUT_OLD
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=NEW/src python tools/bitcheck.py run OUT_NEW
    PYTHONPATH=src python tools/bitcheck.py compare OUT_OLD OUT_NEW
    PYTHONPATH=src python tools/bitcheck.py drift OUT_OLD OUT_NEW

``run`` trains a fixed list of fixed-seed trials (``CASES`` at ``SEEDS``)
with whatever ``blockops`` is importable.  Each trial writes its records,
checkpoints and indicator CSVs under ``OUT/trials/<case>``, with paths
relative to ``OUT``, so the config echoes of two runs agree.  For the algo
cases it also saves the 1..9 iteration eval outputs at the final parameters
as ``OUT/evals/<case>_<seed>.npz``.  The image trials run on synthetic
in-memory images, so no MNIST files are needed.  ``run`` refuses to start
unless ``OPENBLAS_NUM_THREADS=1``, because the BLAS thread count changes the
order of float reductions.

``compare`` diffs two such directories: every record with the timing and
identity fields of ``IGNORED`` left out, every checkpoint member and eval
array bitwise, and every other file byte for byte.  It names each
difference and exits 1 if there is any or a file is missing on either side,
0 otherwise.

``drift`` says how far the results moved when the bits did.  For each case
and seed it prints the last metrics record's loss and the final record's
accuracies (nested ones by dotted name) on both sides, marks each value
that differs with ``MOVED``, and counts them.  It exits 1 if a trial is
missing on either side, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import blockops
from blockops.checkpoint import load_checkpoint, restore_parameters
from blockops.harness.config import ExperimentConfig, config_hash
from blockops.harness.metrics import results_path
from blockops.harness.training import replay_init, run_trial
from blockops.tasks import algo

SEEDS = (0, 1)

SMFR = {"kind": "smfr", "stack_width": 8, "stack_depth": 1, "fnn_hidden": [100]}
FNN = {"kind": "fnn", "hidden_widths": [100, 100]}
TRANSFORMER = {"kind": "transformer", "model_width": 64, "num_heads": 4,
               "encoder_layers": 1, "decoder_layers": 1, "ffn_width": 128}

BASE = {"batch_size": 64, "early_stop_evals": 0}
DOUBLEADD = {**BASE, "experiment": "doubleadd", "max_steps": 300, "eval_every": 100}
# a low stage-switch threshold, so both stages run
ADDMUL = {**BASE, "experiment": "addmul", "max_steps": 300, "eval_every": 50,
          "threshold": 0.05, "interference_steps": 100}
ALGO = {**BASE, "experiment": "algo", "max_steps": 200, "eval_every": 100,
        "full_eval_every": 200}
# checkpoint marks at steps 100 and 200
BPMNIST = {**BASE, "experiment": "bpmnist", "max_steps": 200, "eval_every": 100,
           "bpmnist": {"scale": 0.004, "eval_subset": 128, "probe_size": 64}}

CASES = {
    "doubleadd-smfr": {**DOUBLEADD, "model": SMFR},
    "doubleadd-smfr-gumbel": {**DOUBLEADD, "model": {**SMFR, "attention": "gumbel_st"}},
    "doubleadd-smfr-no-penalty": {**DOUBLEADD, "model": SMFR,
                                  "regularization": {"enabled": False}},
    "doubleadd-smfr-threshold": {**DOUBLEADD, "model": SMFR,
                                 "regularization": {"threshold": 0.5}},
    "doubleadd-smfr-no-context": {**DOUBLEADD, "model": SMFR,
                                  "variants": {"no_context": True}},
    "doubleadd-fnn": {**DOUBLEADD, "model": FNN},
    "doubleadd-transformer": {**DOUBLEADD, "model": TRANSFORMER},
    "addmul-smfr": {**ADDMUL, "model": SMFR},
    "addmul-smfr-gumbel": {**ADDMUL, "model": {**SMFR, "attention": "gumbel_st"}},
    "algo-smfr-depth3": {**ALGO, "model": {**SMFR, "stack_width": 6, "stack_depth": 3}},
    "algo-smfr-depth2-per-step": {**ALGO, "loss_per_step": True,
                                  "model": {**SMFR, "stack_width": 6, "stack_depth": 2}},
    "algo-smfr-gumbel-scrambled": {**ALGO, "loss_per_step": True,
                                   "variants": {"noisy_permutation": True},
                                   "model": {**SMFR, "stack_width": 6,
                                             "attention": "gumbel_st"}},
    "algo-fnn-scrambled": {**ALGO, "model": FNN, "variants": {"noisy_permutation": True}},
    "algo-transformer": {**ALGO, "model": TRANSFORMER},
    "algo-transformer-2-3-per-step": {**ALGO, "loss_per_step": True,
                                      "model": {**TRANSFORMER, "encoder_layers": 2,
                                                "decoder_layers": 3}},
    "bpmnist-smfr-bias": {**BPMNIST, "model": {**SMFR, "stack_width": 4},
                          "variants": {"bias": True}},
    "bpmnist-smfr": {**BPMNIST, "model": {**SMFR, "stack_width": 4}},
    "bpmnist-fnn": {**BPMNIST, "model": FNN},
    "bpmnist-transformer": {**BPMNIST, "model": TRANSFORMER},
}

# fields that measure time or name the code and the place of a run
IGNORED = frozenset({"eval_ms", "train_ms_per_step", "wall_time_s", "code_fingerprint",
                     "results_dir"})


def trial_config(name: str, seed: int, cases=None) -> ExperimentConfig:
    data = {**(cases or CASES)[name], "seed": seed,
            "results_dir": os.path.join("trials", name)}
    return ExperimentConfig.from_dict(data).validate()


def synthetic_images() -> dict:
    """MNIST-shaped images on the 1/255 grid of real ones, with labels.

    1100 test images, so each validation and test set evaluates in chunks
    of 512, 512 and 76 rows."""
    rng = np.random.default_rng(0)

    def images(n):
        return rng.integers(0, 256, size=(n, 28, 28)).astype(np.float32) / 255.0
    return {"train_images": images(2000), "train_labels": rng.integers(0, 10, 2000),
            "test_images": images(1100), "test_labels": rng.integers(0, 10, 1100)}


def algo_eval_outputs(cfg: ExperimentConfig) -> dict:
    """The final state blocks of the trial's 1..9 iteration eval episodes,
    unrolled at the parameters of its final checkpoint."""
    rngs, _, bundle = replay_init(cfg)
    trial_dir = os.path.dirname(results_path(cfg.results_dir, cfg.experiment,
                                             config_hash(cfg), cfg.seed))
    tensors, _ = load_checkpoint(os.path.join(trial_dir, f"{cfg.seed}_final.ckpt"))
    restore_parameters(bundle.params, tensors)
    outputs = {}
    for n in range(1, 10):
        inputs = algo.gen_algo_episode(500, n, rngs["eval"]).batch().inputs
        state = inputs[:, :algo.NUM_VARS]
        for t in range(algo.NUM_VARS, inputs.shape[1]):
            out, _ = bundle.forward(np.concatenate([state, inputs[:, t:t + 1]], axis=1),
                                    eval_mode=True)
            state = out.data
        outputs[f"iter_{n}"] = state
    return outputs


def run(out_dir: str, cases=None, seeds=SEEDS) -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("bitcheck: set OPENBLAS_NUM_THREADS=1; the BLAS thread count changes the "
              "order of float reductions", file=sys.stderr)
        return 2
    if os.path.exists(out_dir) and os.listdir(out_dir):
        print(f"bitcheck: {out_dir} is not empty", file=sys.stderr)
        return 2
    print(f"bitcheck: training with {os.path.dirname(blockops.__file__)}", file=sys.stderr)
    cases = cases or CASES
    images = synthetic_images()
    os.makedirs(os.path.join(out_dir, "evals"))
    home = os.getcwd()
    os.chdir(out_dir)
    try:
        for name in cases:
            for seed in seeds:
                cfg = trial_config(name, seed, cases)
                start = time.perf_counter()
                summary = run_trial(cfg, mnist=images if cfg.experiment == "bpmnist" else None)
                if cfg.experiment == "algo":
                    np.savez(os.path.join("evals", f"{name}_{seed}.npz"),
                             **algo_eval_outputs(cfg))
                print(f"{name} seed {seed}: {summary['steps']} steps in "
                      f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        os.chdir(home)
    return 0


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(dirpath, name), root)
            for dirpath, _, names in os.walk(root) for name in names}


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in IGNORED}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _record_diffs(a: str, b: str):
    records = []
    for path in (a, b):
        with open(path) as fh:
            records.append([_strip(json.loads(line)) for line in fh if line.strip()])
    ra, rb = records
    if len(ra) != len(rb):
        yield f"{len(ra)} records vs {len(rb)}"
    for i, (x, y) in enumerate(zip(ra, rb)):
        for key in sorted(set(x) | set(y)):
            # NaN compares unequal to itself; its JSON text does not
            vx, vy = (json.dumps(r.get(key, "<absent>"), sort_keys=True) for r in (x, y))
            if vx != vy:
                yield f"record {i} ({x.get('record')}, step {x.get('step')}) {key}: {vx} vs {vy}"


def _array_diffs(a: str, b: str):
    with np.load(a, allow_pickle=False) as za, np.load(b, allow_pickle=False) as zb:
        for name in sorted(set(za.files) ^ set(zb.files)):
            yield f"member {name} on one side only"
        for name in sorted(set(za.files) & set(zb.files)):
            x, y = za[name], zb[name]
            if x.dtype != y.dtype or x.shape != y.shape:
                yield f"member {name}: {x.dtype}{x.shape} vs {y.dtype}{y.shape}"
            elif x.tobytes() != y.tobytes():
                bx, by = (np.frombuffer(v.tobytes(), dtype=np.uint8) for v in (x, y))
                yield (f"member {name}: bytes differ, first at byte "
                       f"{np.flatnonzero(bx != by)[0]} of {x.nbytes}")


def _byte_diffs(a: str, b: str):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() != fb.read():
            yield "bytes differ"


def compare(dir_a: str, dir_b: str) -> int:
    files_a, files_b = _files(dir_a), _files(dir_b)
    problems = [f"{path}: only in {dir_a if path in files_a else dir_b}"
                for path in sorted(files_a ^ files_b)]
    common = sorted(files_a & files_b)
    for path in common:
        if path.endswith(".jsonl"):
            diffs = _record_diffs
        elif path.endswith((".ckpt", ".npz")):
            diffs = _array_diffs
        else:
            diffs = _byte_diffs
        problems += [f"{path}: {d}" for d in diffs(os.path.join(dir_a, path),
                                                   os.path.join(dir_b, path))]
    if not common:
        problems.append("no files to compare")
    for line in problems:
        print(line)
    kinds = {ext: sum(p.endswith(ext) for p in common)
             for ext in (".jsonl", ".ckpt", ".npz", ".csv")}
    print(f"compared {len(common)} files ({kinds['.jsonl']} record files, "
          f"{kinds['.ckpt']} checkpoints, {kinds['.npz']} eval files, "
          f"{kinds['.csv']} CSVs): {len(problems)} differences")
    return 1 if problems else 0


def _final_values(path: str) -> dict:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    losses = [r["loss"] for r in records if "loss" in r]
    values = {"loss": losses[-1]} if losses else {}

    def walk(fields, prefix):
        for key, value in fields.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")
            elif "accuracy" in key:
                values[prefix + key] = value
    walk(records[-1], "")
    return values


def _trials(root: str) -> dict:
    """Record files under ``root/trials/<case>``, by (case, seed)."""
    trials = os.path.join(root, "trials")
    return {(path.split(os.sep)[0], int(os.path.splitext(os.path.basename(path))[0])):
            os.path.join(trials, path)
            for path in _files(trials) if path.endswith(".jsonl")}


def drift(dir_a: str, dir_b: str) -> int:
    trials_a, trials_b = _trials(dir_a), _trials(dir_b)
    both, missing, moved, total = trials_a.keys() & trials_b.keys(), 0, 0, 0
    for case, seed in sorted(trials_a.keys() | trials_b.keys()):
        if (case, seed) not in both:
            side = dir_a if (case, seed) in trials_a else dir_b
            print(f"{case} seed {seed}: only in {side}")
            missing += 1
            continue
        a, b = _final_values(trials_a[case, seed]), _final_values(trials_b[case, seed])
        for field in {**a, **b}:
            va, vb = a.get(field, "<absent>"), b.get(field, "<absent>")
            # NaN compares unequal to itself; its JSON text does not
            changed = json.dumps(va) != json.dumps(vb)
            moved += changed
            total += 1
            va, vb = (f"{v:.9g}" if isinstance(v, float) else str(v) for v in (va, vb))
            print(f"{case:<30} {seed:>2}  {field:<28} {va:>12} {vb:>12}"
                  f"{'  MOVED' if changed else ''}")
    print(f"{moved} of {total} values moved")
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bitcheck", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="train the fixed trials into an empty directory")
    p.add_argument("out_dir")
    for name, help_text in (("compare", "diff two run directories"),
                            ("drift", "print each trial's final loss and accuracies "
                                      "on both sides")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dir_a")
        p.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out_dir)
    return (compare if args.command == "compare" else drift)(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())

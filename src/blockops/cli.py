"""Command-line entry point: run one trial, sweep a grid, inspect routing in
a checkpoint, or summarize results.

Headline results go to stdout as one JSON object per line; progress and
errors go to stderr.  Exit codes: 0 success, 1 runtime failure, 2 invalid
config or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness.config import (ExperimentConfig, ConfigError, apply_overrides,
                             json_object, parse_override)
from .harness.grid import GridSpec, grid_search
from .harness.training import replay_init, run_trial
from .harness import report as report_mod
from .checkpoint import load_checkpoint, restore_parameters, CheckpointError
from .tasks.mnist_io import load_mnist, MnistUnavailableError
from . import inspection

__all__ = ["main"]


def _headline(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _load_config(path: str, overrides) -> ExperimentConfig:
    with open(path) as fh:
        data = json_object(fh.read(), "config")
    parsed = [parse_override(item) for item in overrides]
    apply_overrides(data, parsed)
    return ExperimentConfig.from_dict(data).validate()


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    mnist = None
    if cfg.experiment == "bpmnist":
        mnist = load_mnist(cfg.data_dir or None, allow_download=args.allow_download)
    summary = run_trial(cfg, mnist=mnist)
    _headline(summary)
    return 0 if summary.get("completed") else 1


def cmd_grid(args) -> int:
    with open(args.spec) as fh:
        spec = GridSpec.from_json(fh.read())
    mnist = None
    if spec.base.get("experiment") == "bpmnist":
        mnist = load_mnist(spec.base.get("data_dir") or None,
                           allow_download=args.allow_download)

    def progress(done, total, message):
        sys.stderr.write(f"{message}\n")
        sys.stderr.flush()

    sys.stderr.write(f"grid: {spec.cell_count()} cells x {spec.trials_per_cell} trials\n")
    rows = grid_search(spec, mnist=mnist, progress=progress)
    failures = [r for r in rows if r.get("error")]
    _headline({"cells": spec.cell_count(), "trials": len(rows),
               "skipped": sum(1 for r in rows if r.get("skipped")),
               "failed": len(failures)})
    for row in failures:
        sys.stderr.write(f"failed: seed {row['seed']} {row['overrides']}: {row['error']}\n")
    return 1 if failures else 0


def _probe_inputs(cfg: ExperimentConfig, pset, seed: int, allow_download: bool) -> np.ndarray:
    from .tasks import addmul, doubleadd, algo, bpmnist

    rng = np.random.default_rng(seed)
    if cfg.experiment == "addmul":
        return addmul.gen_addmul_batch("preparation", 512, rng,
                                       cfg.variants.alternate_split).inputs
    if cfg.experiment == "doubleadd":
        return doubleadd.gen_doubleadd_batch(512, rng, cfg.variants.alternate_split).inputs
    if cfg.experiment == "algo":
        return algo.gen_algo_episode(512, 1, rng).batch().inputs
    mnist = load_mnist(cfg.data_dir or None, allow_download=allow_download)
    return bpmnist.gen_bpmnist_train_batch(pset, mnist["train_images"],
                                           mnist["train_labels"], 512, rng,
                                           cfg.bpmnist.indicator).inputs


def cmd_inspect(args) -> int:
    tensors, header = load_checkpoint(args.checkpoint)
    if "config" not in header:
        raise CheckpointError(f"{args.checkpoint}: holds no run config")
    cfg = ExperimentConfig.from_dict(header["config"]).validate()
    if cfg.model.kind == "fnn":
        raise CheckpointError(f"{args.checkpoint}: model.kind fnn has no routing "
                              f"decisions to inspect")
    # a checkpoint holds neither permutation; the replayed init stream does
    _, pset, bundle = replay_init(cfg)
    restore_parameters(bundle.params, tensors)
    inputs = _probe_inputs(cfg, pset, args.probe_seed, args.allow_download)
    trace = inspection.extract_routing_trace(bundle, inputs)
    row = {"step": header.get("step"),
           "sharpness": inspection.attention_sharpness(trace),
           "fairness": inspection.attention_fairness(trace)}
    row.update(inspection.gate_summary(trace))
    if args.out:
        inspection.write_indicator_csv(args.out, [row])
    _headline(row)
    return 0


def cmd_report(args) -> int:
    report = report_mod.write_report(args.results, args.out)
    for experiment, table in report.items():
        _headline({"experiment": experiment, "rows": len(table),
                   "out": f"{args.out}/{experiment}.csv"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockops",
        description="Train and analyze block-routing networks on the four benchmark tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a single trial from a JSON config")
    p.add_argument("--config", required=True, help="path to the experiment config")
    p.add_argument("--set", action="append", default=[], dest="overrides",
                   metavar="KEY=VALUE", help="override a config field (dotted path)")
    p.add_argument("--allow-download", action="store_true",
                   help="permit fetching MNIST if it is not cached")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="run or resume a sweep from a grid spec")
    p.add_argument("--spec", required=True, help="path to the grid spec JSON")
    p.add_argument("--allow-download", action="store_true")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("inspect", help="routing indicators for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="optional indicator CSV path")
    p.add_argument("--probe-seed", type=int, default=0)
    p.add_argument("--allow-download", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("report", help="summary tables from collected results")
    p.add_argument("--results", required=True, help="results directory")
    p.add_argument("--out", default="report", help="output directory for tables")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except (FileNotFoundError, CheckpointError, MnistUnavailableError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

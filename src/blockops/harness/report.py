"""Summary tables over collected trial results.

Reads every finalized trial under a results directory and renders per-
experiment summaries as aligned text plus CSV rows: interference means with
standard errors and the softmax/baseline ratio, OOD means of the top five
models by validation accuracy, and early/late checkpoint accuracies.
"""

from __future__ import annotations

import csv
import glob
import os

import numpy as np

from .metrics import read_records

__all__ = ["load_results", "build_report", "write_report"]


def load_results(results_dir: str) -> list[dict]:
    """Final records of all finished trials, each with its config attached."""
    rows = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*", "*", "*.jsonl"))):
        records = read_records(path)
        header = next((r for r in records if r.get("record") == "header"), None)
        final = next((r for r in reversed(records) if r.get("record") == "final"), None)
        if header is None or final is None:
            continue
        row = dict(final)
        row["config"] = header["config"]
        row["path"] = path
        rows.append(row)
    return rows


def _model_label(config: dict) -> str:
    kind = config["model"]["kind"]
    if kind == "smfr":
        label = "smfr_" + config["model"]["attention"]
        if config["variants"]["bias"]:
            label += "_bias"
        if config["variants"]["no_context"]:
            label += "_no_context"
        return label
    return kind


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(len(arr)))


def _groups(rows, key):
    """Rows grouped by ``key(config)`` in key order, as (the group's completed
    rows, its count of trials that did not complete)."""
    groups = {}
    for row in rows:
        done, incomplete = groups.setdefault(key(row["config"]), ([], []))
        (done if row.get("completed") else incomplete).append(row)
    return {k: (done, len(incomplete)) for k, (done, incomplete) in sorted(groups.items())}


def _addmul_report(rows):
    """threshold x architecture means with the softmax/fnn ratio column."""
    table = {}
    for (thr, label), (items, incomplete) in _groups(
            rows, lambda c: (c["threshold"], _model_label(c))).items():
        entry = table.setdefault(thr, {"threshold": thr})
        entry[label + "_n"] = len(items)
        entry[label + "_n_incomplete"] = incomplete
        if items:
            entry[label], entry[label + "_stderr"] = _mean_stderr(
                [r["preparation_data_accuracy"] for r in items])
    for entry in table.values():
        if "smfr_softmax" in entry and entry.get("fnn"):
            entry["ratio_smfr_softmax_fnn"] = entry["smfr_softmax"] / entry["fnn"]
    return list(table.values())


def _doubleadd_report(rows):
    table = []
    for label, (items, incomplete) in _groups(rows, _model_label).items():
        entry = {"model": label, "n": len(items), "n_incomplete": incomplete}
        if items:
            oods = [r["ood_accuracy"] for r in items]
            entry["ood_mean"], entry["ood_stderr"] = _mean_stderr(oods)
            entry["fraction_at_one"] = float(np.mean([v >= 1.0 for v in oods]))
            entry["never_dropped"] = all(r.get("ood_never_dropped", True) for r in items)
        table.append(entry)
    return table


def _top5(items, key):
    """Top five by the validation criterion, ties to fewer parameters."""
    ranked = sorted(items, key=lambda r: (-r[key], r.get("parameter_count", 0)))
    return ranked[:5]


def _algo_report(rows):
    table = []
    for label, (items, incomplete) in _groups(rows, _model_label).items():
        best = _top5(items, "validation_accuracy")
        entry = {"model": label, "n": len(items), "n_incomplete": incomplete,
                 "top_n": len(best)}
        if best:
            for metric in ("ood_even", "ood_odd", "train_accuracy"):
                entry[metric], entry[metric + "_stderr"] = _mean_stderr(
                    [r[metric] for r in best])
        table.append(entry)
    return table


def _bpmnist_report(rows):
    table = []
    for label, (items, incomplete) in _groups(rows, _model_label).items():
        entry = {"model": label, "n": len(items), "n_incomplete": incomplete}
        for mark in ("early", "late"):
            for metric in ("validation_accuracy", "test_accuracy", "holdout_accuracy"):
                values = [r[mark][metric] for r in items if r.get(mark, {}).get(metric) is not None]
                if values:
                    mean, err = _mean_stderr(values)
                    entry[f"{mark}_{metric}"] = mean
                    entry[f"{mark}_{metric}_stderr"] = err
        table.append(entry)
    return table


_BUILDERS = {"addmul": _addmul_report, "doubleadd": _doubleadd_report,
             "algo": _algo_report, "bpmnist": _bpmnist_report}


def build_report(results_dir: str) -> dict:
    """Per-experiment summary tables from everything under results_dir."""
    rows = load_results(results_dir)
    if not rows:
        raise FileNotFoundError(f"no finished trials under {results_dir}")
    by_experiment = {}
    for row in rows:
        by_experiment.setdefault(row["config"]["experiment"], []).append(row)
    return {exp: _BUILDERS[exp](items) for exp, items in sorted(by_experiment.items())}


def _format_value(v):
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def render_text(report: dict) -> str:
    lines = []
    for experiment, table in report.items():
        lines.append(f"== {experiment} ==")
        columns = sorted({k for row in table for k in row},
                         key=lambda c: (c not in ("threshold", "model"), c))
        widths = {c: max(len(c), *(len(_format_value(r.get(c, ""))) for r in table))
                  for c in columns}
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        for row in table:
            lines.append("  ".join(_format_value(row.get(c, "")).ljust(widths[c])
                                   for c in columns))
        lines.append("")
    return "\n".join(lines)


def write_report(results_dir: str, out_dir: str) -> dict:
    """Build, print-ready text and per-experiment CSVs under out_dir."""
    report = build_report(results_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(render_text(report))
    for experiment, table in report.items():
        columns = sorted({k for row in table for k in row},
                         key=lambda c: (c not in ("threshold", "model"), c))
        with open(os.path.join(out_dir, f"{experiment}.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for row in table:
                writer.writerow(row)
    return report

"""Resumable Cartesian grid sweeps over experiment configs.

A grid spec is a base config plus named axes of dotted override paths; every
cell runs trials_per_cell seeds.  A trial is skipped when its finalized
result file was written by the current code (same code fingerprint), so an
interrupted sweep can simply be rerun; a trial finished by other code is run
again and its file replaced.  Individual trial failures are recorded and do
not stop the sweep.
"""

from __future__ import annotations

import itertools
import json
import os
import traceback
from dataclasses import dataclass, field

from .config import (ExperimentConfig, ConfigError, apply_overrides,
                     config_hash, json_object, valid_override_keys)
from .metrics import read_records, results_path
from .training import code_fingerprint, run_trial

__all__ = ["GridSpec", "grid_search", "size_bucket"]


@dataclass
class GridSpec:
    base: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)   # dotted path -> list of values
    trials_per_cell: int = 3
    seed_base: int = 0

    def validate(self) -> "GridSpec":
        for name in ("trials_per_cell", "seed_base"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name}: expected integer, got {type(value).__name__}")
        if self.trials_per_cell <= 0:
            raise ConfigError("trials_per_cell: must be positive")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base: must be >= 0, got {self.seed_base}")
        if not isinstance(self.base, dict):
            raise ConfigError("base: must be an object")
        if not isinstance(self.axes, dict):
            raise ConfigError("axes: must be an object of key -> list of values")
        valid = set(valid_override_keys())
        for key, values in self.axes.items():
            if key not in valid:
                raise ConfigError(f"axes.{key}: unknown config key; valid keys: "
                                  + ", ".join(sorted(valid)))
            if not isinstance(values, list) or not values:
                raise ConfigError(f"axes.{key}: must be a non-empty list")
        # every cell's config, its seed included, before trial seeds count up
        for _, data in self.cells():
            ExperimentConfig.from_dict(data).validate()
        return self

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        data = json_object(text, "grid spec")
        known = {"base", "axes", "trials_per_cell", "seed_base"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown grid key; valid keys: "
                              + ", ".join(sorted(known)))
        return cls(**data).validate()

    def cell_count(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def cells(self):
        """Yield (cell overrides dict, ExperimentConfig) per grid point."""
        keys = sorted(self.axes)
        for combo in itertools.product(*(self.axes[k] for k in keys)):
            overrides = dict(zip(keys, combo))
            data = json.loads(json.dumps(self.base))
            apply_overrides(data, overrides.items())
            yield overrides, data


def size_bucket(parameter_count: int) -> str:
    if parameter_count >= 200_000:
        return "HIGH"
    if parameter_count < 50_000:
        return "LOW"
    return "MID"


def grid_search(spec: GridSpec, mnist=None, progress=None) -> list[dict]:
    """Run (or resume) the sweep; one result row per trial.

    progress: optional callable(done_cells, total_cells, message).
    """
    spec.validate()
    fingerprint = code_fingerprint()
    rows = []
    total = spec.cell_count()
    for done, (overrides, data) in enumerate(spec.cells()):
        for trial in range(spec.trials_per_cell):
            # trial seeds count up from the cell's own seed (axis or base
            # config), falling back to seed_base
            seed = data.get("seed", spec.seed_base) + trial
            trial_data = json.loads(json.dumps(data))
            trial_data["seed"] = seed
            cfg = ExperimentConfig.from_dict(trial_data).validate()
            path = results_path(cfg.results_dir, cfg.experiment, config_hash(cfg), seed)
            row = {"overrides": overrides, "seed": seed, "config_hash": config_hash(cfg)}
            if os.path.exists(path):
                final = _final_record(path)
                if final is not None and final.get("code_fingerprint") == fingerprint:
                    row.update(skipped=True, error=None, **_strip(final))
                    rows.append(row)
                    continue
            try:
                summary = run_trial(cfg, mnist=mnist)
                row.update(skipped=False, error=None, **_strip(summary))
            except Exception as e:  # keep sweeping past individual failures
                row.update(skipped=False, error=f"{type(e).__name__}: {e}",
                           traceback=traceback.format_exc())
            rows.append(row)
        if progress:
            progress(done + 1, total, f"cell {done + 1}/{total}")
    for row in rows:
        if row.get("parameter_count") is not None:
            row["size_bucket"] = size_bucket(row["parameter_count"])
    return rows


def _final_record(path: str):
    try:
        records = read_records(path)
    except (OSError, json.JSONDecodeError):
        return None
    for record in reversed(records):
        if record.get("record") == "final":
            return record
    return None


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in ("record", "config")}

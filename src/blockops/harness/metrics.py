"""JSON-lines metrics output with atomic finalization.

A trial streams records into ``<seed>.jsonl.part`` and renames it to
``<seed>.jsonl`` on completion, so the presence of the final name marks a
finished trial for resumable sweeps.
"""

from __future__ import annotations

import json
import os

__all__ = ["MetricsWriter", "read_records", "results_path"]


def results_path(results_dir: str, experiment: str, cfg_hash: str, seed: int) -> str:
    return os.path.join(results_dir, experiment, cfg_hash, f"{seed}.jsonl")


class MetricsWriter:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._part = path + ".part"
        self._fh = open(self._part, "w")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def finalize(self) -> None:
        self._fh.close()
        os.replace(self._part, self.path)

    def abort(self) -> None:
        self._fh.close()
        if os.path.exists(self._part):
            os.unlink(self._part)


def read_records(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

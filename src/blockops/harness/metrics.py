"""JSON-lines metrics output with atomic finalization.

A trial streams records into ``<seed>.jsonl.part`` and renames it to
``<seed>.jsonl`` on completion, so the presence of the final name marks a
finished trial for resumable sweeps.  A trial that crashes or is
interrupted keeps its ``.part``, ending in an ``aborted`` record; a resumed
sweep runs it again, and reopening the ``.part`` truncates it.
"""

from __future__ import annotations

import contextlib
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

    def abort(self, error: BaseException) -> None:
        """Close the ``.part`` with a record of what stopped the trial: reason
        ``exception`` for an ``Exception``, ``interrupted`` for anything else
        (``KeyboardInterrupt``, ``SystemExit``).  The record is best effort:
        a failure to write or close it (a full disk, say) is dropped, so the
        caller re-raises the error that stopped the trial, not this one."""
        reason = "exception" if isinstance(error, Exception) else "interrupted"
        with contextlib.suppress(OSError):
            self.write({"record": "aborted", "reason": reason,
                        "error": f"{type(error).__name__}: {error}"})
        with contextlib.suppress(OSError):
            self._fh.close()

def read_records(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

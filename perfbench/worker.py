"""One fresh process running one unit of a workload; started by ``run.py``.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the keys
``workload``, ``seed``, ``mode`` (``full``, or ``setup`` to stop at the first
training step), ``trace``, ``cpu`` (the one CPU it runs on), ``spawned`` (the
parent's ``time.monotonic()`` just before it started this process),
``results_dir`` and ``result_path``,
plus ``trace_path`` when tracing.  The result is written as JSON to
``result_path``; on Linux ``time.monotonic`` is one clock for all processes,
so set-up time counts from the parent's spawn.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import tracer
import workloads


def run(spec: dict) -> dict:
    os.sched_setaffinity(0, {spec["cpu"]})
    workload = workloads.WORKLOADS[spec["workload"]]
    workload.prepare()
    hooks = tracer.Tracer() if spec["trace"] else tracer.FirstStep(stop=spec["mode"] == "setup")
    hooks.install()
    try:
        counts = workload.run(spec["seed"], spec["results_dir"])
    except tracer.SetupReached:
        return {"setup_s": hooks.first_step - spec["spawned"]}
    finally:
        end = time.monotonic()
        hooks.patcher.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hooks.first_step is None:
        raise RuntimeError("the workload never reached a training step")
    result = {"setup_s": hooks.first_step - spec["spawned"], "wall_s": end - hooks.first_step,
              "peak_rss_mb": peak_rss_mb, "counts": counts, "absent": hooks.patcher.absent}
    if spec["trace"]:
        result["layers"] = dict(hooks.summarize(result["wall_s"]), **counts)
        hooks.dump(spec["trace_path"])
    finals, problems = [], []
    paths = workloads.trial_files(spec["results_dir"])
    failed = max(workload.trials - len(paths), 0)
    if failed:
        problems.append(f"found {len(paths)} finished trials, wanted {workload.trials}")
    for path in paths:
        final, wrong = workloads.check_trial(path)
        finals.append(final)
        problems += wrong
        failed += bool(wrong)
    result.update(finals=finals, problems=problems, failed=failed)
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = run(spec)
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

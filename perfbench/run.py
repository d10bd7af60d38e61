"""Benchmark of blockops training: one workload, one seed, a fixed time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload doubleadd-smfr --seed 0 --seconds 40 --trace 0

Each unit of work runs in a fresh process (``worker.py``) until
``--seconds`` is spent.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones; the last line of
standard output is the result.  ``perfbench/README.md`` defines the
workloads, the metrics and the output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("doubleadd-smfr", "algo-transformer", "sweep-doubleadd")
# one BLAS thread: never more than nproc, and the same on every host
BLAS_THREADS = 1
MIN_UNITS = 2
SETUP_SAMPLES = 9
# a run must end within 180 s; no unit may run past this
HARD_LIMIT_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit, "seed": seed}


def loop_time_on(cpu: int) -> float:
    """The calibration loop's time on ``cpu``, run from this process."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return calibrate.loop_time()
    finally:
        os.sched_setaffinity(0, allowed)


def run_unit(workload: str, seed: int, mode: str, trace: bool, index: int, cpu: int,
             deadline: float) -> dict:
    """Run one unit in a fresh process pinned to ``cpu`` and return its result.

    A full unit is bracketed by two runs of the calibration loop on the same
    CPU; their mean is its ``loop_s``."""
    loops = [loop_time_on(cpu)] if mode == "full" else []
    os.makedirs(OUT, exist_ok=True)
    results_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    spec = {"workload": workload, "seed": seed, "mode": mode, "trace": trace, "cpu": cpu,
            "results_dir": results_dir,
            "result_path": os.path.join(results_dir, "result.json"),
            "trace_path": os.path.join(OUT, f"trace-{workload}-{index}.jsonl.gz")}
    started = time.monotonic()
    try:
        spec["spawned"] = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                 json.dumps(spec)], cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timed out", "duration_s": time.monotonic() - started}
        try:
            with open(spec["result_path"]) as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            result = {"error": f"no result (exit {proc.returncode}): {stderr[-2000:]}"}
    finally:
        shutil.rmtree(results_dir, ignore_errors=True)
    result["duration_s"] = time.monotonic() - started
    if loops:
        loops.append(loop_time_on(cpu))
        result["loop_s"] = statistics.mean(loops)
    result["traced"] = trace
    result["cpu"] = cpu
    return result


def compare_finals(units: list[dict]) -> None:
    """Mark as failed every trial whose final record differs from the first
    unit's, ignoring ``wall_time_s``."""
    def key(unit):
        return [{k: v for k, v in f.items() if k != "wall_time_s"} for f in unit["finals"]]

    complete = [u for u in units if "finals" in u]
    for unit in complete[1:]:
        mine, first = key(unit), key(complete[0])
        differ = (sum(a != b for a, b in zip(mine, first))
                  + abs(len(mine) - len(first)))
        if differ:
            unit["problems"].append(f"{differ} final records differ from the first run's")
            unit["failed"] = max(unit["failed"], min(differ, len(mine)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "blockops", "__init__.py")):
        sys.stderr.write(f"error: no blockops source under {ROOT}/src\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    env = environment(args.seed)

    sys.path.insert(0, HERE)
    import workloads
    trials = workloads.WORKLOADS[args.workload].trials

    def wall_ref(unit):
        return calibrate.at_reference(unit["wall_s"], unit["loop_s"])

    begin = time.monotonic()
    stop_by = begin + args.seconds
    deadline = begin + HARD_LIMIT_S
    # a round is one unit, or with tracing an untraced and a traced unit
    modes = [False, True] if args.trace else [False]
    min_rounds = 1 if args.trace else MIN_UNITS
    # rounds alternate over the CPUs this process may use: on a shared host
    # each CPU is slowed by other tenants at its own times
    cpus = sorted(os.sched_getaffinity(0))
    units = []
    rounds = 0
    while not any("error" in u for u in units):
        for traced in modes:
            units.append(run_unit(args.workload, args.seed, "full", traced, len(units),
                                  cpus[rounds % len(cpus)], deadline))
        rounds += 1
        now = time.monotonic()
        per_round = (now - begin) / rounds
        if now + per_round > deadline or (rounds >= min_rounds and now + per_round > stop_by):
            break
    probes = []
    while (not args.trace and len(units) + len(probes) < SETUP_SAMPLES
           and time.monotonic() + 10 < deadline):
        probes.append(run_unit(args.workload, args.seed, "setup", False, 0,
                               cpus[len(probes) % len(cpus)], deadline))

    compare_finals(units)
    attempted = trials * len(units)
    failed = sum(u.get("failed", trials) if "error" not in u else trials for u in units)
    errors = [u["error"] for u in units + probes if "error" in u]
    problems = [p for u in units for p in u.get("problems", [])]
    correct = not errors and not problems and failed == 0

    plain = [u for u in units if not u["traced"] and "wall_s" in u]
    traced = [u for u in units if u["traced"] and "wall_s" in u]
    values = {}
    if plain:
        values = {"setup_s": statistics.median([u["setup_s"] for u in plain + probes
                                                if "setup_s" in u]),
                  "wall_ref_s": statistics.median([wall_ref(u) for u in plain]),
                  "wall_s": statistics.median([u["wall_s"] for u in plain]),
                  "host.loop_s": statistics.median([u["loop_s"] for u in plain]),
                  "peak_rss_mb": statistics.median([u["peak_rss_mb"] for u in plain]),
                  "ok_ratio": 1.0 - failed / attempted}
    if traced and plain:
        layers = [u["layers"] for u in traced]
        values.update({name: statistics.median([layer[name] for layer in layers])
                       for name in layers[0]})
        values["train.step.samples"] = sum(layer["train.step.samples"] for layer in layers)
        values["trace.overhead_s"] = (statistics.median([wall_ref(u) for u in traced])
                                      - values["wall_ref_s"])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if len(metrics) != len(wanted):
        correct = False

    details = {"workload": args.workload, "environment": env, "seconds": args.seconds,
               "trace": args.trace, "units": len(units), "setup_probes": len(probes),
               "fail_ratio": failed / attempted, "errors": errors, "problems": problems,
               "absent_hooks": sorted({a for u in units for a in u.get("absent", [])}),
               "values": values}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(details, unit_results=[{k: v for k, v in u.items() if k != "finals"}
                                              for u in units + probes]), fh, indent=1)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

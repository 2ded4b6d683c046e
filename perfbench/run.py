"""Benchmark entry point for the ``varns`` laboratory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times set-up in fresh processes (``setup_s``, median
of several), then starts one workload process (``worker.py``) that runs the
workload's ops in a closed loop and reports the end-to-end metrics. With
``--trace 1`` the workload process runs half the time untraced, replays the
same ops with span tracing and reports the per-layer metrics and the tracing
overhead. Notes (machine, load average, failed ops with their inputs) are
printed first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
SETUP_RUNS = 3
THREAD_CAP = 1                          # BLAS/OpenMP threads; see NOTES.md
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def steal_ticks() -> int | None:
    """Cumulative CPU time stolen by the hypervisor (clock ticks), if reported."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def child_env() -> dict:
    cap = str(min(THREAD_CAP, os.cpu_count() or 1))
    return {**os.environ, **{k: cap for k in THREAD_VARS}}


def worker(args, extra: list, timeout: float) -> None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    subprocess.run(cmd, env=child_env(), check=True, timeout=timeout,
                   stdout=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "varns", "cli.py")):
        print("perfbench: run from the root of a varns checkout (src/varns missing)",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    load_start, steal_start = loadavg(), steal_ticks()
    os.makedirs(WORK, exist_ok=True)

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                t0 = time.perf_counter()
                worker(args, ["--setup-only"], timeout=60)
                setup.append(time.perf_counter() - t0)
        result_path = os.path.join(WORK, f"result-{os.getpid()}.json")
        remaining = DEADLINE_S - (time.monotonic() - started)
        worker(args, ["--result", result_path], timeout=remaining)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    notes = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "loadavg_start": load_start, "loadavg_end": loadavg(),
             "cpu_steal_ticks": None if steal_start is None else steal_ticks() - steal_start,
             "setup_runs_s": setup, **result["notes"]}
    print(json.dumps({"notes": notes}, sort_keys=True))
    for f in result["failures"]:
        print(json.dumps({"failed_op": f}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

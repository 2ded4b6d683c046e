"""The workload process: one client running ``varns.cli.main`` ops in a closed loop.

Started by ``run.py`` from the root of a checkout, with BLAS/OpenMP thread
caps already in its environment. Imports ``varns`` from the checkout's
``src/``, generates the workload inputs, runs a discarded warm-up pass, then
measures whole rounds of ops. With ``--setup-only`` it stops after the
inputs are written (``run.py`` times that in fresh processes as ``setup_s``).
Writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import workloads as W
from run import THREAD_VARS
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_HASHES = os.path.join(HERE, "seed_hashes.json")


def import_varns(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import varns.cli
    if not os.path.abspath(varns.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"varns imported from {varns.__file__}, not from {src}")
    return varns.cli


def prepare_inputs(workload: W.Workload):
    os.makedirs(W.INPUTS, exist_ok=True)
    for op in workload.domain() + workload.warmup():
        op.prepare()


def hash_reports(out: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return digests


@dataclass
class Record:
    op: W.Op
    wall: float
    code: int | None
    reason: str | None               # None when the op passed its check
    hashes: dict | None

    @property
    def known_defect(self) -> bool:
        """A known defect fails its op cleanly with exit code 2; any other
        failure (another code, a wrong value, an exception, changed bytes)
        is an incorrect output."""
        return self.op.known_defect is not None and self.code == 2


class Runner:
    def __init__(self, cli):
        self.cli = cli
        self.tracer: Tracer | None = None

    def run(self, op: W.Op, hash_outputs: bool = False) -> Record:
        out = op.out or os.path.join(W.WORK, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        span = self.tracer.span(f"op:{op.kind}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(op.argv(out))
        except SystemExit as exc:
            error = f"SystemExit({exc.code}): {stderr.getvalue().strip()[-200:]}"
        except Exception as exc:                      # counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        lines = stdout.getvalue().strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            summary = None
        res = W.Result(code, summary if isinstance(summary, dict) else None, out, error)
        try:
            reason = op.verdict(res)
        except Exception as exc:                      # a malformed report fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
        return Record(op, wall, code, reason, hash_reports(out) if hash_outputs else None)


def measure(runner, rounds, seconds, min_rounds, repeat_index):
    """Whole rounds until ``seconds`` of op time and ``min_rounds`` rounds are done."""
    done, recs, busy = [], [], 0.0
    while busy < seconds or len(done) < min_rounds:
        rnd = next(rounds)
        for i, op in enumerate(rnd):
            rec = runner.run(op, hash_outputs=not done and i == repeat_index)
            recs.append(rec)
            busy += rec.wall
        done.append(rnd)
    return done, recs, busy


def check_determinism(first: Record, again: Record) -> str | None:
    if again.reason is not None:
        return f"repeat failed: {again.reason}"
    if first.hashes != again.hashes:
        diff = sorted(k for k in set(first.hashes) | set(again.hashes)
                      if first.hashes.get(k) != again.hashes.get(k))
        return f"non-deterministic report bytes on repeat: {diff}"
    return None


def tail(walls: list) -> tuple[float, float]:
    """Wall time at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(walls)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(recs, busy) -> tuple[dict, dict]:
    walls = [r.wall for r in recs]
    n = len(walls)
    p50 = statistics.median(walls)
    tail_s, pct = tail(walls)
    failed = sum(r.reason is not None for r in recs)
    metrics = {
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((n - failed) / n, "ratio"),
    }
    kinds: dict[str, list] = {}
    for r in recs:
        kinds.setdefault(r.op.kind, []).append(r.wall)
    notes = {"ops": n, "op_busy_s": busy, "op_tail_percentile": pct,
             "op_tail_ops_beyond": 10, "fail_frac": failed / n,
             "op_kind_p50_s": {k: statistics.median(v) for k, v in sorted(kinds.items())}}
    return metrics, notes


def bytes_changed(recs) -> tuple[int, int]:
    """Report files whose hash differs from the one recorded at the seed commit."""
    try:
        with open(SEED_HASHES) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    changed = unknown = 0
    for r in recs:
        want = ref.get(r.op.key)
        if want is None:
            unknown += 1
            continue
        changed += sum(want.get(name) != digest for name, digest in r.hashes.items())
        changed += sum(name not in r.hashes for name in want)
    return changed, unknown


def traced_run(runner, workload, seed, seconds):
    rounds, recs_u, busy_u = measure(runner, workload.rounds(seed), seconds / 2,
                                     max(1, workload.min_rounds // 2), workload.repeat_index)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    recs_t = []
    try:
        for rnd in rounds:
            for op in rnd:
                tracer.op = len(recs_t)
                recs_t.append(runner.run(op, hash_outputs=True))
    finally:
        tracer.uninstall()
        runner.tracer = None
    busy_t = sum(r.wall for r in recs_t)
    tracer.dump(os.path.join(W.WORK, f"spans-{workload.name}-{seed}.json"))
    metrics = layer_metrics(tracer.spans, len(recs_t))
    changed, unknown = bytes_changed(recs_t)
    metrics["reports.bytes_changed"] = (float(changed), "count")
    ops_u, ops_t = len(recs_u) / busy_u, len(recs_t) / busy_t
    metrics["trace.untraced_ops_per_s"] = (ops_u, "1/s")
    metrics["trace.ops_per_s"] = (ops_t, "1/s")
    metrics["trace.overhead_frac"] = ((ops_u - ops_t) / ops_u, "ratio")
    first = recs_u[workload.repeat_index]
    det = check_determinism(first, recs_t[workload.repeat_index])
    if det:
        first.reason = det
    notes = {"ops": len(recs_u) + len(recs_t), "spans": len(tracer.spans),
             "ops_without_seed_hash": unknown}
    return recs_u + recs_t, metrics, notes


def plain_run(runner, workload, seed, seconds):
    rounds, recs, busy = measure(runner, workload.rounds(seed), seconds,
                                 workload.min_rounds, workload.repeat_index)
    first = recs[workload.repeat_index]
    det = check_determinism(first, runner.run(first.op, hash_outputs=True))
    if det:
        first.reason = det
    metrics, notes = end_to_end(recs, busy)
    return recs, metrics, notes


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "thread_caps": {k: os.environ.get(k) for k in THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    cli = import_varns(os.getcwd())
    workload = W.WORKLOADS[args.workload]
    prepare_inputs(workload)
    if args.setup_only:
        return 0

    runner = Runner(cli)
    warm = [runner.run(op) for op in workload.warmup()]
    run = traced_run if args.trace else plain_run
    recs, metrics, notes = run(runner, workload, args.seed, args.seconds)

    failed = [r for r in recs if r.reason is not None]
    failures = [{"kind": r.op.kind, "argv": r.op.argv("<out>"), "config": r.op.config,
                 "reason": r.reason, "known_defect": r.op.known_defect if r.known_defect else None}
                for r in failed]
    result = {
        "correct": all(r.known_defect for r in failed),
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {**notes, **workload.notes, "environment": environment(),
                  "warmup_ops": len(warm),
                  "warmup_failures": [r.reason for r in warm if r.reason]},
        "failures": failures,
    }
    for d in (os.path.join(W.WORK, "out"), W.SNAP):
        shutil.rmtree(d, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

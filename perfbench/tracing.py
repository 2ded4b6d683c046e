"""Span tracing of the ``varns`` layers, installed from outside the package.

``Tracer.install`` wraps every public function of every ``varns`` module
(only ``main`` of ``varns.cli``, so that argument parsing, configuration and
output-directory handling count as the CLI's own time), the two Newton
methods ``_DualNewtonSystem.jacobian`` and ``.residual``, and
``scipy.sparse.linalg.splu``. Each call becomes a span ``[op, name, start,
end, parent, attrs]`` kept in memory; ``uninstall`` restores the originals.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("grids", "oscillator", "lagrangian", "steady", "boundary", "solver",
           "reports", "scenarios", "cli")
STENCILS = ("grids.gradient", "grids.divergence", "grids.laplacian", "grids.time_derivative")


def _nbytes(obj) -> int:
    vals = getattr(obj, "values", None)
    if vals is not None:
        return vals.nbytes
    return sum(c.values.nbytes for c in getattr(obj, "components", ()))


def _stencil_bytes(args, kwargs, result):
    return {"bytes": _nbytes(args[0]) + _nbytes(result)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _lu_nnz(args, kwargs, result):
    return {"nnz": int(result.L.nnz + result.U.nnz)}


def _unknowns(args, kwargs, result):
    return {"unknowns": int(args[1].size)}


def _iterations(args, kwargs, result):
    return {"iterations": len(result.residuals) - 1}


def _levels(args, kwargs, result):
    return {"levels": args[2].time_nodes - 1}


def _steady_kind(args, kwargs, result):
    return {"walls": args[0] is not None}


ATTRS = {name: _stencil_bytes for name in STENCILS}
ATTRS.update({
    "reports.write_field_csv": _file_bytes,
    "reports.read_field_csv": _file_bytes,
    "solver.newton.splu": _lu_nnz,
    "solver.newton.jacobian": _unknowns,
    "solver.newton_dual": _iterations,
    "solver.march_reduced": _levels,
    "solver.steady_solve": _steady_kind,
})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- spans ---------------------------------------------------------------
    def wrap(self, name: str, fn):
        spans, stack, attrs = self.spans, self._stack, ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            raised = True
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if raised:
                    span[5] = {"raised": True}
                elif attrs is not None:
                    span[5] = attrs(args, kwargs, result)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        index = len(self.spans)
        self.spans.append([self.op, name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        pkg = importlib.import_module("varns")
        mods = {m: importlib.import_module(f"varns.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and (short != "cli" or attr == "main")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        # replace every binding of a wrapped function, including names
        # imported into other modules and into the package namespace
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        system = mods["solver"]._DualNewtonSystem
        self._set(system, "jacobian", self.wrap("solver.newton.jacobian", system.jacobian))
        self._set(system, "residual", self.wrap("solver.newton.residual", system.residual))
        spla = mods["solver"].spla
        self._set(spla, "splu", self.wrap("solver.newton.splu", spla.splu))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from spans; times and counts are per traced op.

    ``.s`` is inclusive wall time of the calls not nested in a call of the
    same function; ``.self_s`` subtracts the time of child spans.
    """
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    name = [s[1] for s in spans]

    def outer(i, family):
        p = spans[i][4]
        while p >= 0:
            if name[p] in family:
                return False
            p = spans[p][4]
        return True

    def select(fam, parent=None):
        fam = (fam,) if isinstance(fam, str) else fam
        return [i for i, n in enumerate(name) if n in fam and outer(i, fam)
                and (parent is None or (spans[i][4] >= 0 and name[spans[i][4]] == parent))]

    def attr(i, key, default=0):
        a = spans[i][5]
        return a.get(key, default) if a else default

    m: dict[str, tuple[float, str]] = {}

    def per_op(metric, value, unit):
        m[metric] = (value / ops, unit)

    def timed(fn, calls=False, self_s=False):
        idx = select(fn)
        per_op(f"{fn}.s", sum(dur[i] for i in idx), "s/op")
        if calls:
            per_op(f"{fn}.calls", len(idx), "calls/op")
        if self_s:
            per_op(f"{fn}.self_s", sum(dur[i] - child[i] for i in idx), "s/op")

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    per_op("cli.main.self_s", sum(dur[i] - child[i] for i in select("cli.main")), "s/op")
    timed("scenarios.build_scenario")
    st = select(STENCILS)
    per_op("grids.stencil.calls", len(st), "calls/op")
    per_op("grids.stencil.s", sum(dur[i] for i in st), "s/op")
    per_op("grids.stencil.bytes_computed", sum(attr(i, "bytes") for i in st), "B/op")
    timed("lagrangian.evaluate_lagrangian", calls=True)
    for fn in ("lagrangian.el_residuals", "lagrangian.first_variation",
               "lagrangian.energy_series", "lagrangian.gronwall_audit",
               "steady.uniqueness_certificate", "steady.inequality_chain_audit",
               "boundary.extended_functional", "boundary.boundary_recovery_audit"):
        timed(fn)
    timed("oscillator.solve_oscillator_vp", calls=True)
    timed("oscillator.galerkin_identity_residual")

    nd = select("solver.newton_dual")
    timed("solver.newton_dual", self_s=True)
    m["solver.newton.iterations"] = (mean([attr(i, "iterations") for i in nd]), "count")
    jac = select("solver.newton.jacobian")
    m["solver.newton.unknowns"] = (mean([attr(i, "unknowns") for i in jac]), "count")
    timed("solver.newton.splu", calls=True)
    m["solver.newton.lu_nnz"] = (
        mean([attr(i, "nnz") for i in select("solver.newton.splu")]), "count")
    timed("solver.newton.jacobian")
    timed("solver.newton.residual")
    log = (select("lagrangian.evaluate_lagrangian", parent="solver.newton_dual")
           + select("solver.u_w_gap", parent="solver.newton_dual"))
    per_op("solver.newton.log.s", sum(dur[i] for i in log), "s/op")

    mr = select("solver.march_reduced")
    timed("solver.march_reduced")
    m["solver.march_reduced.levels_per_s"] = (
        rate(sum(attr(i, "levels") for i in mr), sum(dur[i] for i in mr)), "1/s")
    ss = select("solver.steady_solve")
    per_op("solver.steady_solve.wall.s", sum(dur[i] for i in ss if attr(i, "walls", False)), "s/op")
    per_op("solver.steady_solve.periodic.s",
           sum(dur[i] for i in ss if not attr(i, "walls", True)), "s/op")
    m["solver.steady_solve.failures"] = (float(sum(attr(i, "raised", False) for i in ss)), "count")

    for fn, calls in (("reports.write_field_csv", True), ("reports.read_field_csv", False)):
        idx = select(fn)
        secs, nbytes = sum(dur[i] for i in idx), sum(attr(i, "bytes") for i in idx)
        timed(fn, calls=calls)
        per_op(f"{fn}.bytes", nbytes, "B/op")
        m[f"{fn}.mb_per_s"] = (rate(nbytes / 1e6, secs), "MB/s")
    timed("reports.write_json")

    for mod in MODULES:
        if mod != "cli":
            per_op(f"{mod}.self_s", sum(dur[i] - child[i] for i, n in enumerate(name)
                                        if n.startswith(mod + ".")), "s/op")
    return m

"""CSV and JSON report writers, plus the field snapshot reader.

Snapshot format: one row per node with header ``axis0,axis1[,axis2],t,value``
in time-major, then axis0-major order. Floats are written with shortest
round-trip formatting, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .grids import FieldQuartet, Grid, ScalarField, VectorField


def _fmt(x: float) -> str:
    return repr(float(x))


def write_field_csv(path, f: ScalarField):
    g = f.grid
    axes = [g.axis_coords(a) for a in range(g.dim)]
    times = g.time_coords()
    header = ",".join(f"axis{a}" for a in range(g.dim)) + ",t,value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(g.time_nodes):
            slab = f.values[..., k]
            for idx in np.ndindex(*g.nodes):
                coords = [_fmt(axes[a][idx[a]]) for a in range(g.dim)]
                fh.write(",".join(coords + [_fmt(times[k]), _fmt(slab[idx])]) + "\n")


def read_field_csv(path, grid: Grid) -> ScalarField:
    values = np.empty(grid.shape)
    expected = int(np.prod(grid.nodes)) * grid.time_nodes
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != grid.dim + 2:
            raise ValueError(f"snapshot {path} has {len(header)} columns, "
                             f"expected {grid.dim + 2}")
        count = 0
        for k in range(grid.time_nodes):
            for idx in np.ndindex(*grid.nodes):
                line = fh.readline()
                if not line:
                    raise ValueError(f"snapshot {path} is truncated")
                values[idx + (k,)] = float(line.rsplit(",", 1)[1])
                count += 1
        if fh.readline():
            raise ValueError(f"snapshot {path} has extra rows")
    if count != expected:
        raise ValueError(f"snapshot {path} has {count} rows, expected {expected}")
    return ScalarField(grid, values)


def write_quartet_csv(outdir, quartet: FieldQuartet):
    g = quartet.grid
    os.makedirs(outdir, exist_ok=True)
    for name in ("u", "w", "p", "r"):
        fld = getattr(quartet, name)
        if isinstance(fld, VectorField):
            for i in range(g.dim):
                write_field_csv(os.path.join(outdir, f"{name}_{i}.csv"), fld[i])
        else:
            write_field_csv(os.path.join(outdir, f"{name}.csv"), fld)


def read_quartet_csv(indir, grid: Grid) -> FieldQuartet:
    vec = lambda name: VectorField(grid, tuple(
        read_field_csv(os.path.join(indir, f"{name}_{i}.csv"), grid)
        for i in range(grid.dim)))
    return FieldQuartet(vec("u"),
                        read_field_csv(os.path.join(indir, "p.csv"), grid),
                        vec("w"),
                        read_field_csv(os.path.join(indir, "r.csv"), grid))


def write_energy_csv(path, series):
    with open(path, "w") as fh:
        fh.write("t,E,rhs,mismatch\n")
        n = len(series.times)
        for k in range(n):
            mism = ""
            if 1 <= k <= n - 2 and series.identity_mismatch.size:
                mism = _fmt(series.identity_mismatch[k - 1])
            fh.write(f"{_fmt(series.times[k])},{_fmt(series.E[k])},"
                     f"{_fmt(series.rhs[k])},{mism}\n")


def write_convergence_csv(path, trajectory):
    with open(path, "w") as fh:
        fh.write("iter,residual,u_w_gap,J\n")
        for i, (res, gap, jv) in enumerate(zip(
                trajectory.residuals, trajectory.u_w_gap, trajectory.J_values)):
            fh.write(f"{i},{_fmt(res)},{_fmt(gap)},{_fmt(jv)}\n")


def write_inequality_csv(path, report):
    with open(path, "w") as fh:
        fh.write("name,lhs,rhs,margin,asserted\n")
        for row in report.rows:
            fh.write(f"{row.name},{_fmt(row.lhs)},{_fmt(row.rhs)},"
                     f"{_fmt(row.margin)},{str(row.asserted).lower()}\n")


def write_boundary_audit_csv(path, report):
    with open(path, "w") as fh:
        fh.write("face,node,check_a,check_b,check_c,check_d\n")
        for row in report.rows:
            node = ";".join(str(i) for i in row.node)
            fh.write(f"{row.face},{node},{_fmt(row.check_a)},{_fmt(row.check_b)},"
                     f"{_fmt(row.check_c)},{_fmt(row.check_d)}\n")


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        fh.write(json_line(payload) + "\n")


def _coerce(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=_coerce)

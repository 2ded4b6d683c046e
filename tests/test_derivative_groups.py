"""The functional layer forms its derivatives group by group: the same bits as the
all-at-once evaluation, in a smaller working set.

``evaluate_lagrangian``, ``el_residuals``, ``first_variation`` and
``energy_series`` form each derivative group (scalar gradients, velocity time
derivatives, velocity gradient tensors) just before the terms that read it and
drop it after, and sum in place. The reference below is the all-at-once form
they replaced: every derivative of both families first, every term array kept
until the end. Each entry point must give its bits on 1D-3D periodic, wall and
mixed boxes, steady and unsteady, for one family and for two; and its
``tracemalloc`` peak, counted in field-sized arrays, must stay under a bound.
"""

import functools
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from varns import scenarios
from varns.grids import (
    PERIODIC,
    FieldQuartet,
    Grid,
    ScalarField,
    _d1,
    _gradients,
    _laplacian,
    integrate_spacetime,
    slice_integrals,
)
from varns.lagrangian import (
    _difference_and_sum,
    _one_family,
    _require_wall_vanishing,
    check_admissible_direction,
    deformation_eigenvalue,
    el_residuals,
    energy_series,
    evaluate_lagrangian,
    first_variation,
)


# ---------------------------------------------------------------------------
# the all-at-once reference
# ---------------------------------------------------------------------------

class _Derivatives(NamedTuple):
    u: list
    w: list
    Du: list
    Dw: list
    Dp: list
    Dr: list
    dtu: list | None
    dtw: list | None

    @property
    def one_family(self):
        return self.w is self.u

    def swapped(self):
        return _Derivatives(self.w, self.u, self.Dw, self.Du, self.Dr, self.Dp,
                            self.dtw, self.dtu)


def _derivatives(state):
    g, d = state.grid, state.grid.dim
    families = [(state.u, state.p)] if _one_family(state) else [(state.u, state.p),
                                                                  (state.w, state.r)]
    velocities = np.stack([c.values for v, _ in families for c in v.components])
    Dv = _gradients(g, velocities)
    dt = None if g.steady else _d1(velocities, d + 1, g.dt, periodic=False)
    del velocities
    Ds = _gradients(g, np.stack([s.values for _, s in families]))
    parts = [([c.values for c in v.components], [[Dj[f * d + i] for Dj in Dv] for i in range(d)],
              [Dj[f] for Dj in Ds], None if dt is None else list(dt[f * d:(f + 1) * d]))
             for f, (v, _) in enumerate(families)]
    (u, Du, Dp, dtu), (w, Dw, Dr, dtw) = parts[0], parts[-1]
    return _Derivatives(u, w, Du, Dw, Dp, Dr, dtu, dtw)


def _half_terms(k, nu):
    d = len(k.u)
    uv, wv = k.u, k.w
    viscous = (nu / 2) * sum(k.Du[i][j] ** 2 for i in range(d) for j in range(d))
    advective = 0.5 * sum((wv[i] + uv[i]) * uv[j] * k.Dw[i][j]
                          for i in range(d) for j in range(d))
    pressure = sum(uv[i] * k.Dp[i] for i in range(d))
    if k.dtw is None:
        temporal = np.zeros(uv[0].shape)
    else:
        temporal = 0.5 * sum(uv[i] * k.dtw[i] for i in range(d))
    return viscous, advective, pressure, temporal


def reference_evaluate(state, nu):
    g = state.grid
    k = _derivatives(state)
    pos = _half_terms(k, nu)
    neg = pos if k.one_family else _half_terms(k.swapped(), nu)
    net = tuple(a - b for a, b in zip(pos, neg))
    density = ScalarField(g, net[0] + net[1] + net[2] + net[3])
    slices = slice_integrals(density)
    J = float(np.dot(g.time_weights(), slices))
    parts = [integrate_spacetime(ScalarField(g, t)) for t in net]
    magnitudes = lambda terms: [integrate_spacetime(ScalarField(g, np.abs(t))) for t in terms]
    pos_mag = magnitudes(pos)
    scale = sum(pos_mag + (pos_mag if neg is pos else magnitudes(neg)))
    return J, slices, parts, max(scale, 1e-300)


def _momentum_rows(grid, k, nu):
    d = len(k.u)
    rows = []
    for i in range(d):
        adv = sum(0.5 * (k.u[j] + k.w[j]) * (k.Dw[i][j] + k.Dw[j][i]) for j in range(d))
        rows.append(nu * _laplacian(grid, k.u[i]) - k.Dp[i] - k.dtw[i] - adv)
    return rows


def reference_el_residuals(state, nu):
    g = state.grid
    k = _derivatives(state)
    if g.steady:
        zeros = [np.zeros(g.shape)] * g.dim
        k = k._replace(dtu=zeros, dtw=zeros)

    def rows(k):
        div = functools.reduce(np.add, (k.Du[a][a] for a in range(g.dim)))
        return div, _momentum_rows(g, k, nu)
    div_u, mom_u = rows(k)
    div_w, mom_w = (div_u, mom_u) if k.one_family else rows(k.swapped())
    return [div_u, div_w, *mom_u, *mom_w]


def _half_linearized(k, dk, nu):
    d = len(k.u)
    uv, wv, duv, dwv = k.u, k.w, dk.u, dk.w
    out = nu * sum(k.Du[i][j] * dk.Du[i][j] for i in range(d) for j in range(d))
    out = out + 0.5 * sum((dwv[i] + duv[i]) * uv[j] * k.Dw[i][j]
                          + (wv[i] + uv[i]) * duv[j] * k.Dw[i][j]
                          + (wv[i] + uv[i]) * uv[j] * dk.Dw[i][j]
                          for i in range(d) for j in range(d))
    out = out + sum(duv[i] * k.Dp[i] + uv[i] * dk.Dp[i] for i in range(d))
    out = out + 0.5 * sum(duv[i] * k.dtw[i] + uv[i] * dk.dtw[i] for i in range(d))
    return out


def reference_first_variation(state, direction, nu):
    check_admissible_direction(direction)
    k = _derivatives(state)
    dk = _derivatives(direction)
    pos = _half_linearized(k, dk, nu)
    neg = pos if k.one_family and dk.one_family else _half_linearized(
        k.swapped(), dk.swapped(), nu)
    return integrate_spacetime(ScalarField(state.grid, pos - neg))


def reference_deformation_eigenvalue(G):
    dim = len(G)
    D = [[0.5 * (G[i][j] + G[j][i]) for j in range(dim)] for i in range(dim)]
    if dim == 1:
        return float(np.max(D[0][0]))
    if dim == 2:
        a, b, c = D[0][0], D[1][1], D[0][1]
        lam = (a + b) / 2 + np.sqrt(((a - b) / 2) ** 2 + c ** 2)
        return float(np.max(lam))
    a, b, c = D[0][0], D[1][1], D[2][2]
    d, e, f = D[0][1], D[0][2], D[1][2]
    p1 = d ** 2 + e ** 2 + f ** 2
    q = (a + b + c) / 3
    p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2 * p1
    p = np.sqrt(np.maximum(p2, 0.0) / 6)
    safe = np.where(p > 0, p, 1.0)
    B11, B22, B33 = (a - q) / safe, (b - q) / safe, (c - q) / safe
    B12, B13, B23 = d / safe, e / safe, f / safe
    detB = (B11 * (B22 * B33 - B23 ** 2) - B12 * (B12 * B33 - B23 * B13)
            + B13 * (B12 * B23 - B22 * B13))
    rr = np.clip(detB / 2, -1.0, 1.0)
    lam = q + 2 * p * np.cos(np.arccos(rr) / 3)
    lam = np.where(p > 0, lam, np.maximum(np.maximum(a, b), c))
    return float(np.max(lam))


def reference_difference_and_sum(state):
    grid, d = state.grid, state.grid.dim
    pairs = list(zip(state.u.components, state.w.components))
    fields = np.stack([(cu.values - cw.values) / 2 for cu, cw in pairs]
                      + [cu.values + cw.values for cu, cw in pairs])
    D = _gradients(grid, fields)
    tensor = lambda f: [[Dj[f * d + i] for Dj in D] for i in range(d)]
    return list(fields[:d]), tensor(0), tensor(1)


def reference_energy_series(state, nu):
    g = state.grid
    d = g.dim
    vb, Dv, Dg = reference_difference_and_sum(state)
    _require_wall_vanishing(state, vb)
    E = slice_integrals(ScalarField(g, sum(c ** 2 for c in vb)))
    integrand = nu * sum(Dv[i][j] ** 2 for i in range(d) for j in range(d)) \
        - 0.5 * sum(vb[i] * vb[j] * Dg[j][i] for i in range(d) for j in range(d))
    rhs = 2 * slice_integrals(ScalarField(g, integrand))
    if g.time_nodes >= 3:
        mismatch = np.abs((E[2:] - E[:-2]) / (2 * g.dt) - rhs[1:-1])
    else:
        mismatch = np.zeros(0)
    return g.time_coords(), E, reference_deformation_eigenvalue(Dg), rhs, mismatch


def _reference_smooth_scalar(rng, grid, wall_vanishing=False):
    *coords, t = grid.open_meshes()
    out = np.zeros(grid.shape)
    for _ in range(4):
        term = rng.normal()
        for a, x in enumerate(coords):
            scale = 2 * np.pi / grid.extents[a]
            k = int(rng.integers(0, 3))
            if grid.boundaries[a] == PERIODIC:
                term = term * np.sin(k * scale * x + rng.normal())
            elif wall_vanishing:
                term = term * np.sin((k + 1) * np.pi * x / grid.extents[a])
            else:
                term = term * np.cos(k * np.pi * x / grid.extents[a] + rng.normal())
        if not grid.steady:
            term = term * np.cos(0.7 * rng.normal() * t + rng.normal())
        out += term
    return out


def reference_random_quartet(grid, seed):
    rng = np.random.default_rng(seed)
    walls = any(b != PERIODIC for b in grid.boundaries)
    base = [_reference_smooth_scalar(rng, grid, wall_vanishing=walls) for _ in range(grid.dim)]
    diff = [_reference_smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    u = [base[i] + diff[i] for i in range(grid.dim)]
    w = [base[i] - diff[i] for i in range(grid.dim)]
    return [*u, _reference_smooth_scalar(rng, grid), *w, _reference_smooth_scalar(rng, grid)]


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------

def bits(x):
    """The bytes of a float or an array, so that -0.0 and 0.0 (and NaN payloads)
    tell apart."""
    return np.asarray(x, dtype=float).tobytes()


def arrays(q):
    return [c.values for c in q.u.components] + [q.p.values] \
        + [c.values for c in q.w.components] + [q.r.values]


BOXES = {
    "1d-periodic": ((2 * np.pi,), (12,), (PERIODIC,)),
    "1d-wall": ((1.0,), (11,), ("wall",)),
    "2d-periodic": ((2 * np.pi, 2 * np.pi), (10, 8), (PERIODIC, PERIODIC)),
    "2d-wall": ((1.0, 1.5), (9, 10), ("wall", "wall")),
    "2d-mixed": ((2 * np.pi, 1.0), (8, 9), (PERIODIC, "wall")),
    "3d-periodic": ((2 * np.pi,) * 3, (6, 5, 4), (PERIODIC,) * 3),
    "3d-mixed": ((1.0, 2 * np.pi, 1.0), (5, 6, 5), ("wall", PERIODIC, "wall")),
}


def box(name, time_nodes):
    extents, nodes, boundaries = BOXES[name]
    return Grid(extents, nodes, boundaries, time_nodes, 0.05 if time_nodes > 1 else 0.0)


def quartets(grid, seed):
    """Two families; one family by the same arrays and by bit-equal copies; and
    a state of signed zeros, where only the order of operations sets the sign
    of a zero result."""
    q = scenarios.random_quartet(grid, seed)
    u, p, w, r = [c.values for c in q.u.components], q.p.values, \
        [c.values for c in q.w.components], q.r.values
    zeros = lambda like: np.copysign(0.0, like)
    return {
        "two-families": q,
        "one-family": FieldQuartet(q.u, q.p, q.u, q.p),
        "one-family-copies": FieldQuartet.from_arrays(grid, u, p, [c.copy() for c in u],
                                                      p.copy()),
        "signed-zeros": FieldQuartet.from_arrays(grid, [zeros(c) for c in u], p,
                                                 [zeros(-c) for c in w], zeros(r)),
    }


CASES = [(name, T, kind) for name in BOXES for T in (1, 5)
         for kind in ("two-families", "one-family", "one-family-copies", "signed-zeros")]


@pytest.mark.parametrize("name, T, kind", CASES, ids=lambda x: str(x))
def test_evaluate_and_residuals_keep_the_reference_bits(name, T, kind):
    grid = box(name, T)
    state = quartets(grid, 3)[kind]
    nu = 0.37
    rep = evaluate_lagrangian(state, nu)
    J, slices, parts, scale = reference_evaluate(state, nu)
    assert bits(rep.J) == bits(J)
    assert bits(rep.slice_values) == bits(slices)
    assert bits(list(rep.breakdown().values())) == bits(parts)
    assert bits(rep.scale) == bits(scale)
    res = el_residuals(state, nu)
    got = [res.res_div_u.values, res.res_div_w.values,
           *(c.values for c in res.res_u.components), *(c.values for c in res.res_w.components)]
    want = reference_el_residuals(state, nu)
    assert [bits(a) for a in got] == [bits(a) for a in want]
    if _one_family(state):
        assert res.res_u is res.res_w and res.res_div_u is res.res_div_w


@pytest.mark.parametrize("name, T, kind", [c for c in CASES if c[2] != "signed-zeros"],
                         ids=lambda x: str(x))
def test_energy_series_keeps_the_reference_bits(name, T, kind):
    grid = box(name, T)
    state = quartets(grid, 4)[kind]
    series = energy_series(state, 0.21)
    want = reference_energy_series(state, 0.21)
    got = (series.times, series.E, series.m, series.rhs, series.identity_mismatch)
    assert [bits(a) for a in got] == [bits(a) for a in want]
    # the steady audits read the same difference field and gradient tensors
    flat = lambda parts: [parts[0], *(a for row in parts[1] for a in row),
                          *(a for row in parts[2] for a in row)]
    assert [bits(a) for a in flat(_difference_and_sum(state))] == \
        [bits(a) for a in flat(reference_difference_and_sum(state))]


@pytest.mark.parametrize("name", BOXES)
@pytest.mark.parametrize("state_kind", ["two-families", "one-family", "signed-zeros"])
@pytest.mark.parametrize("direction_kind", ["two-families", "one-family"])
def test_first_variation_keeps_the_reference_bits(name, state_kind, direction_kind):
    grid = box(name, 5)
    state = quartets(grid, 5)[state_kind]
    direction = scenarios.admissible_direction(grid, 6)
    if direction_kind == "one-family":
        direction = FieldQuartet(direction.u, direction.p, direction.u, direction.p)
    nu = 0.29
    assert bits(first_variation(state, direction, nu)) == bits(
        reference_first_variation(state, direction, nu))


@pytest.mark.parametrize("name", BOXES)
@pytest.mark.parametrize("T", [1, 5])
def test_random_quartet_keeps_the_reference_bits(name, T):
    grid = box(name, T)
    for seed in (1, 7):
        got = arrays(scenarios.random_quartet(grid, seed))
        assert [bits(a) for a in got] == [bits(a) for a in reference_random_quartet(grid, seed)]


@pytest.mark.parametrize("name", ["1d-wall", "2d-periodic", "3d-periodic", "3d-mixed"])
def test_deformation_eigenvalue_keeps_the_reference_bits_slab_by_slab(name):
    grid = box(name, 5)
    q = scenarios.random_quartet(grid, 8)
    Dg = _difference_and_sum(q)[2]
    assert bits(deformation_eigenvalue(Dg)) == bits(reference_deformation_eigenvalue(Dg))
    # a uniform strain: p = 0 at every node, the degenerate branch
    flat = [[np.full(grid.shape, 0.25) if i == j else np.zeros(grid.shape)
             for j in range(grid.dim)] for i in range(grid.dim)]
    assert bits(deformation_eigenvalue(flat)) == bits(reference_deformation_eigenvalue(flat))


# ---------------------------------------------------------------------------
# working set
# ---------------------------------------------------------------------------

def peak_in_fields(call, grid):
    """The tracemalloc peak of ``call()`` over what was allocated before it,
    counted in arrays of the grid's shape."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (np.prod(grid.shape) * 8)


# at 32^2 x 9 with two families, each peak in field arrays; the all-at-once
# evaluation peaked at 28.1, 26.8, 21.1 and 38.1, and random_quartet at 13.0. The
# last two bounds are the measured peaks of the grouped forms (23.07 and 8.97); at
# this size numpy's ufunc buffers (192 KiB) count as 2.7 fields, a constant
@pytest.mark.parametrize("entry, bound", [
    ("evaluate_lagrangian", 18), ("el_residuals", 20), ("energy_series", 17),
    ("first_variation", 23.1), ("random_quartet", 9.0)])
def test_working_set_in_field_arrays(entry, bound):
    grid = Grid((2 * np.pi, 2 * np.pi), (32, 32), (PERIODIC, PERIODIC), 9, 0.0125)
    state = scenarios.random_quartet(grid, 1)
    assert not _one_family(state)
    direction = scenarios.admissible_direction(grid, 2)
    calls = {"evaluate_lagrangian": lambda: evaluate_lagrangian(state, 0.1),
             "el_residuals": lambda: el_residuals(state, 0.1),
             "energy_series": lambda: energy_series(state, 0.1),
             "first_variation": lambda: first_variation(state, direction, 0.1),
             "random_quartet": lambda: scenarios.random_quartet(grid, 1)}
    assert peak_in_fields(calls[entry], grid) <= bound

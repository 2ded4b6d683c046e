"""Dual-field space-time functional: evaluation, variation, residuals, energy.

The functional pairs the physical fields (u, p) with adjoint partners (w, r)
through a node-wise antisymmetric Lagrangian density. Everything here is
organized around that antisymmetry: the density is coded as
``half(u,p,w,r) - half(w,r,u,p)``, so the interchange of the two field pairs
negates every value bit-for-bit and the u=w, p=r configuration gives exactly
zero.

The first variation is assembled as the exact linearization of the discrete
functional (the pre-integration-by-parts form), which makes it agree with
central finite differences of the evaluated functional to roundoff rather
than to discretization error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _d1,
    _gradients,
    _laplacian,
    _wall_boundary_mask,
    field_scale,
    integrate_spacetime,
    slice_integrals,
)


class AdmissibilityError(ValueError):
    """A variation direction violates the admissible-function conditions."""


@dataclass(frozen=True)
class LagrangianReport:
    J: float
    slice_values: np.ndarray = field(repr=False)
    viscous: float
    advective: float
    pressure: float
    temporal: float
    scale: float

    def breakdown(self) -> dict[str, float]:
        return {"viscous": self.viscous, "advective": self.advective,
                "pressure": self.pressure, "temporal": self.temporal}


@dataclass(frozen=True)
class ELResiduals:
    res_div_u: ScalarField
    res_div_w: ScalarField
    res_u: VectorField
    res_w: VectorField

    def max_norm(self) -> float:
        vals = [np.max(np.abs(self.res_div_u.values)), np.max(np.abs(self.res_div_w.values))]
        vals += [np.max(np.abs(c.values)) for c in self.res_u.components]
        vals += [np.max(np.abs(c.values)) for c in self.res_w.components]
        return float(max(vals))


@dataclass(frozen=True)
class EnergySeries:
    times: np.ndarray
    E: np.ndarray
    m: float
    rhs: np.ndarray
    identity_mismatch: np.ndarray  # interior time nodes only


@dataclass(frozen=True)
class GronwallReport:
    pointwise_ok: bool
    min_pointwise_margin: float
    tolerance: float
    min_forward_difference: float


# ---------------------------------------------------------------------------
# derivative groups and density terms
# ---------------------------------------------------------------------------

def _one_family(state: FieldQuartet) -> bool:
    """Whether w and r are u and p, the same arrays or bit-equal ones, as at a
    solution: then every derivative, density half and momentum row of the second
    family is a bit copy of the first's."""
    same = lambda a, b: a is b or np.array_equal(a.view(np.int64), b.view(np.int64))
    return same(state.r.values, state.p.values) and all(
        same(cw.values, cu.values) for cu, cw in zip(state.u.components, state.w.components))


def _families(state: FieldQuartet) -> list:
    """The velocity component arrays and the scalar array of (u, p) and of (w, r);
    one family (:func:`_one_family`) lists (u, p) alone. Either way index 0 is
    (u, p) and index -1 stands for (w, r)."""
    pairs = [(state.u, state.p)] if _one_family(state) else [(state.u, state.p),
                                                              (state.w, state.r)]
    return [([c.values for c in v.components], s.values) for v, s in pairs]


# The three derivative groups, listed per family, each one kernel call per axis on
# the stacked arrays of every family. A caller forms a group just before the terms
# that read it and drops it after their last use: one group is held at a time.

def _velocity_gradients(g: Grid, fams: list) -> list:
    """Each family's velocity gradient tensor ``D[i][j] = d_j v_i``."""
    d = g.dim
    Dv = _gradients(g, np.stack([c for v, _ in fams for c in v]))
    return [[[Dj[f * d + i] for Dj in Dv] for i in range(d)] for f in range(len(fams))]


def _scalar_gradients(g: Grid, fams: list) -> list:
    Ds = _gradients(g, np.stack([s for _, s in fams]))
    return [[Dj[f] for Dj in Ds] for f in range(len(fams))]


def _time_derivatives(g: Grid, fams: list) -> list:
    d = g.dim
    dt = _d1(np.stack([c for v, _ in fams for c in v]), d + 1, g.dt, periodic=False)
    return [list(dt[f * d:(f + 1) * d]) for f in range(len(fams))]


def _sum(terms, factor=None):
    """``factor * sum(terms)`` to the bit, summed in place in the first term's
    buffer: 0 + t0 + t1 + ... in order, then scaled. Every term is a fresh array,
    dropped once it is added."""
    terms = iter(terms)
    acc = next(terms)
    acc += 0.0                      # sum starts from 0, which turns -0.0 into 0.0
    for t in terms:
        acc += t
    if factor is not None:
        acc *= factor
    return acc


def _subtract(rows: list, terms) -> None:
    """``rows[f][i] -= terms[f][i]`` in place for every family f; ``terms`` is
    dropped on return."""
    for R, Tf in zip(rows, terms):
        for Ri, Ti in zip(R, Tf):
            Ri -= Ti


def _density_halves(state: FieldQuartet, nu: float):
    """Yield each density term (viscous, advective, pressure, temporal) as its
    positive half and its swapped half, the same array for one family. The
    velocity gradient tensors are formed for the first two terms, then the scalar
    gradients, then the velocity time derivatives; each is dropped after its terms.

    A half reads its own family ``f`` and the other ``o``: the positive half (u, p)
    with (w, r), the swapped half the reverse."""
    g, fams = state.grid, _families(state)
    d = g.dim
    v = [vel for vel, _ in fams]
    ij = [(i, j) for i in range(d) for j in range(d)]

    def halves(term):
        pos = term(0, -1)
        return pos, pos if len(fams) == 1 else term(-1, 0)

    D = _velocity_gradients(g, fams)
    yield halves(lambda f, o: _sum((D[f][i][j] ** 2 for i, j in ij), nu / 2))
    yield halves(lambda f, o: _sum(((v[o][i] + v[f][i]) * v[f][j] * D[o][i][j]
                                    for i, j in ij), 0.5))
    del D
    S = _scalar_gradients(g, fams)
    yield halves(lambda f, o: _sum(v[f][i] * S[f][i] for i in range(d)))
    del S
    if g.steady:
        yield halves(lambda f, o: np.zeros(g.shape))
        return
    T = _time_derivatives(g, fams)
    yield halves(lambda f, o: _sum((v[f][i] * T[o][i] for i in range(d)), 0.5))


def evaluate_lagrangian(state: FieldQuartet, nu: float) -> LagrangianReport:
    """Evaluate the space-time functional and its term breakdown.

    On a steady grid the time terms and the time quadrature drop out: J is the
    spatial quadrature of the density. Each term is integrated as it is formed,
    and its net (positive minus swapped half) is added to the density in place.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g = state.grid
    integral = lambda a: integrate_spacetime(ScalarField(g, a))
    density, parts, pos_mag, neg_mag = None, [], [], []
    for pos, neg in _density_halves(state, nu):
        pos_mag.append(integral(np.abs(pos)))
        neg_mag.append(pos_mag[-1] if neg is pos else integral(np.abs(neg)))
        net = np.subtract(pos, neg, out=pos)
        parts.append(integral(net))
        if density is None:
            density = net
        else:
            density += net
        del pos, neg, net           # before the next term is formed
    slices = slice_integrals(ScalarField(g, density))
    J = float(np.dot(g.time_weights(), slices))
    return LagrangianReport(J, slices, parts[0], parts[1], parts[2], parts[3],
                            max(sum(pos_mag + neg_mag), 1e-300))


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def el_residuals(state: FieldQuartet, nu: float) -> ELResiduals:
    """Node-wise residuals of the coupled stationarity system.

    Momentum rows use the symmetrized advection form (the one consistent with
    the functional's own linearization): nu Lap u_i - grad_i p - dt w_i - sym
    advection of w by (u + w), and the w rows with the pairs interchanged. On a
    steady grid the time-derivative terms are omitted. Each row starts from its
    Laplacian and takes one derivative group after another, in place.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g, fams = state.grid, _families(state)
    d = g.dim
    v = [vel for vel, _ in fams]
    rows = [[np.multiply(lap, nu, out=lap) for lap in (_laplacian(g, c) for c in vel)]
            for vel in v]
    _subtract(rows, _scalar_gradients(g, fams))
    if not g.steady:                # subtracting zeros would leave every bit
        _subtract(rows, _time_derivatives(g, fams)[::-1])
    D = _velocity_gradients(g, fams)
    adv = lambda Do, i: _sum(0.5 * (v[0][j] + v[-1][j]) * (Do[i][j] + Do[j][i])
                             for j in range(d))
    _subtract(rows, ((adv(Do, i) for i in range(d)) for Do in D[::-1]))
    # the divergence, summed over the axes in order
    out = [(ScalarField(g, functools.reduce(np.add, (Df[a][a] for a in range(d)))),
            VectorField(g, tuple(ScalarField(g, Ri) for Ri in R))) for Df, R in zip(D, rows)]
    (div_u, mom_u), (div_w, mom_w) = out[0], out[-1]
    return ELResiduals(div_u, div_w, mom_u, mom_w)


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------

def check_admissible_direction(direction: FieldQuartet) -> None:
    """Enforce the admissible-variation class for the unsteady functional.

    Wall boundaries: velocity directions vanish, pressure directions agree.
    Time ends: the u- and w-directions must coincide at both end slices.
    """
    g = direction.grid
    tol = 1e-12 * field_scale(direction.u, direction.w, direction.p, direction.r)
    mask = _wall_boundary_mask(g)
    if mask.any():
        for name, vec in (("u", direction.u), ("w", direction.w)):
            worst = max(float(np.max(np.abs(c.values[mask]))) for c in vec.components)
            if worst > tol:
                raise AdmissibilityError(
                    f"direction.{name} must vanish on wall boundaries "
                    f"(worst violation {worst:.3e})")
        gap = float(np.max(np.abs(direction.p.values[mask] - direction.r.values[mask])))
        if gap > tol:
            raise AdmissibilityError(
                f"direction.p and direction.r must agree on wall boundaries "
                f"(worst violation {gap:.3e})")
    if not g.steady:
        for k in (0, g.time_nodes - 1):
            gap = max(float(np.max(np.abs(cu.values[..., k] - cw.values[..., k])))
                      for cu, cw in zip(direction.u.components, direction.w.components))
            if gap > tol:
                raise AdmissibilityError(
                    f"direction.u and direction.w must coincide at time slice {k} "
                    f"(worst violation {gap:.3e})")


def first_variation(state: FieldQuartet, direction: FieldQuartet, nu: float) -> float:
    """Directional derivative of the functional at ``state`` along ``direction``.

    Assembled from the exact term-by-term linearization of the discrete
    density, using the same stencils and quadrature as the evaluation, so the
    value matches [J(s + eps d) - J(s - eps d)] / (2 eps) up to O(eps^2) with
    no discretization gap. The direction must be admissible. Each half sums its
    terms in place, one derivative group of both quartets after another.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g = state.grid
    if g.steady:
        raise ValueError("first_variation needs an unsteady grid")
    if direction.grid != g:
        raise ValueError("state and direction must share the grid")
    check_admissible_direction(direction)
    fams, dfams = _families(state), _families(direction)
    d = g.dim
    v, dv = [vel for vel, _ in fams], [vel for vel, _ in dfams]
    ij = [(i, j) for i in range(d) for j in range(d)]
    # the positive half reads its own family f = 0 and the other o = -1; the
    # swapped half the reverse, and it is the positive one when both are one family
    sides = [(0, -1)] if len(fams) == len(dfams) == 1 else [(0, -1), (-1, 0)]
    D, dD = _velocity_gradients(g, fams), _velocity_gradients(g, dfams)
    halves = [_sum((D[f][i][j] * dD[f][i][j] for i, j in ij), nu) for f, _ in sides]
    for out, (f, o) in zip(halves, sides):
        out += _sum(((dv[o][i] + dv[f][i]) * v[f][j] * D[o][i][j]
                     + (v[o][i] + v[f][i]) * dv[f][j] * D[o][i][j]
                     + (v[o][i] + v[f][i]) * v[f][j] * dD[o][i][j] for i, j in ij), 0.5)
    del D, dD
    S, dS = _scalar_gradients(g, fams), _scalar_gradients(g, dfams)
    for out, (f, _) in zip(halves, sides):
        out += _sum(dv[f][i] * S[f][i] + v[f][i] * dS[f][i] for i in range(d))
    del S, dS
    T, dT = _time_derivatives(g, fams), _time_derivatives(g, dfams)
    for out, (f, o) in zip(halves, sides):
        out += _sum((dv[f][i] * T[o][i] + v[f][i] * dT[o][i] for i in range(d)), 0.5)
    del T, dT
    return integrate_spacetime(ScalarField(g, np.subtract(halves[0], halves[-1],
                                                          out=halves[0])))


# ---------------------------------------------------------------------------
# difference fields and the energy series
# ---------------------------------------------------------------------------

def _sum_gradient(state: FieldQuartet) -> list:
    """The gradient tensor Dg[i][j] = d_j g_i of g = u + w."""
    g = [cu.values + cw.values for cu, cw in zip(state.u.components, state.w.components)]
    return _velocity_gradients(state.grid, [(g, None)])[0]


def _difference_and_sum(state: FieldQuartet):
    """The difference field vbar = (u - w)/2 as component arrays, and the gradient
    tensors Dv[i][j] = d_j vbar_i and Dg[i][j] = d_j g_i of vbar and g = u + w: one
    kernel call per axis on the stacked components of vbar, then on those of g."""
    vb = [(cu.values - cw.values) / 2 for cu, cw in zip(state.u.components, state.w.components)]
    return vb, _velocity_gradients(state.grid, [(vb, None)])[0], _sum_gradient(state)


def _require_wall_vanishing(state: FieldQuartet, vb: list[np.ndarray]):
    """Raise unless the difference field ``vb`` vanishes on every wall node."""
    grid = state.grid
    mask = _wall_boundary_mask(grid)
    if not mask.any():
        return
    worst = max(float(np.max(np.abs(c[mask]))) for c in vb)
    if worst > 1e-12 * field_scale(state.u, state.w):
        flat = int(np.argmax(sum(np.abs(c) * mask for c in vb)))
        where = np.unravel_index(flat, grid.shape)
        raise ValueError(
            "difference field must vanish on wall boundaries; worst node "
            f"{where} with |vbar| = {worst:.3e}")


def deformation_eigenvalue(G: list[list[np.ndarray]]) -> float:
    """Largest eigenvalue over all nodes of the symmetric part of the gradient
    tensor ``G[i][j] = d_j g_i`` of a forcing flow g, in closed form, taken one
    slab of the last axis (the time axis of a field) at a time."""
    return float(np.max([_slab_eigenvalue([[Gij[..., k] for Gij in row] for row in G])
                         for k in range(G[0][0].shape[-1])]))


def _slab_eigenvalue(G: list[list[np.ndarray]]) -> float:
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


def energy_series(state: FieldQuartet, nu: float) -> EnergySeries:
    """Difference-field energy, the energy-balance right side as printed, and
    the deformation-eigenvalue bound.

    ``rhs(t) = 2 int [ nu |grad vbar|^2 - (vbar_i vbar_j / 2) d_i (u_j+w_j) ]``
    and the mismatch compares it with central time differences of E(t) at
    interior time nodes. Wall boundaries require vbar = 0.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g = state.grid
    ij = [(i, j) for i in range(g.dim) for j in range(g.dim)]
    vb, Dv, Dg = _difference_and_sum(state)
    _require_wall_vanishing(state, vb)

    E = slice_integrals(ScalarField(g, _sum(c ** 2 for c in vb)))
    integrand = _sum((Dv[i][j] ** 2 for i, j in ij), nu)
    integrand -= _sum((vb[i] * vb[j] * Dg[j][i] for i, j in ij), 0.5)
    rhs = 2 * slice_integrals(ScalarField(g, integrand))

    if g.time_nodes >= 3:
        dEdt = (E[2:] - E[:-2]) / (2 * g.dt)
        mismatch = np.abs(dEdt - rhs[1:-1])
    else:
        mismatch = np.zeros(0)
    m = deformation_eigenvalue(Dg)
    return EnergySeries(g.time_coords(), E, m, rhs, mismatch)


def gronwall_audit(series: EnergySeries, tol: float = 1e-10) -> GronwallReport:
    """Check the pointwise inequality rhs(t) >= -2 m E(t) and report the
    monotonicity profile of E(t) exp(2 m t).

    The pointwise inequality is implied by the eigenvalue definition of m
    whenever the quadrature weights are nonnegative, so it is asserted; the
    profile is reported without a sign contract.
    """
    scale = max(1.0, float(np.max(np.abs(series.rhs), initial=0.0)),
                2 * abs(series.m) * float(np.max(series.E, initial=0.0)))
    margins = series.rhs + 2 * series.m * series.E
    min_margin = float(np.min(margins)) if margins.size else 0.0
    profile = series.E * np.exp(2 * series.m * series.times)
    min_fwd = float(np.min(np.diff(profile))) if profile.size > 1 else 0.0
    return GronwallReport(min_margin >= -tol * scale, min_margin, tol * scale, min_fwd)

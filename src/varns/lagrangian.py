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
from typing import NamedTuple

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
class DifferencePair:
    v_bar: VectorField
    q_bar: ScalarField


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
# density terms
# ---------------------------------------------------------------------------

def _grad_tensor(v: VectorField) -> list[list[np.ndarray]]:
    """G[i][j] = d v_i / d x_j as raw arrays."""
    D = _gradients(v.grid, np.stack([c.values for c in v.components]))
    return [[Dj[i] for Dj in D] for i in range(v.grid.dim)]


def _one_family(state: FieldQuartet) -> bool:
    """Whether w and r are u and p, the same arrays or bit-equal ones, as at a
    solution: then every derivative, density half and momentum row of the second
    family is a bit copy of the first's."""
    same = lambda a, b: a is b or np.array_equal(a.view(np.int64), b.view(np.int64))
    return same(state.r.values, state.p.values) and all(
        same(cw.values, cu.values) for cu, cw in zip(state.u.components, state.w.components))


class _Derivatives(NamedTuple):
    """Component arrays of a quartet and their derivatives, each computed
    once: velocity gradient tensors, scalar gradients and (None on request)
    velocity time derivatives. Both halves of the density read from it. For one
    family (:func:`_one_family`) the w fields are the u fields, the same lists."""

    u: list
    w: list
    Du: list
    Dw: list
    Dp: list
    Dr: list
    dtu: list | None
    dtw: list | None

    @property
    def one_family(self) -> bool:
        return self.w is self.u

    def swapped(self) -> "_Derivatives":
        """The same arrays relabelled for the interchanged pairs."""
        return _Derivatives(self.w, self.u, self.Dw, self.Du, self.Dr, self.Dp,
                            self.dtw, self.dtu)


def _derivatives(state: FieldQuartet, include_time: bool) -> _Derivatives:
    """The derivatives of the velocities of u and w and of p and r; w and r are
    skipped for one family. The velocities are stacked, and the scalars, so that
    the kernels run once per axis on each stack; the second stack is made after
    the first is freed, which keeps the peak that of the unstacked derivatives."""
    g, d = state.grid, state.grid.dim
    families = [(state.u, state.p)] if _one_family(state) else [(state.u, state.p),
                                                                  (state.w, state.r)]
    velocities = np.stack([c.values for v, _ in families for c in v.components])
    Dv = _gradients(g, velocities)
    dt = _d1(velocities, d + 1, g.dt, periodic=False) if include_time else None
    del velocities
    Ds = _gradients(g, np.stack([s.values for _, s in families]))
    parts = [([c.values for c in v.components], [[Dj[f * d + i] for Dj in Dv] for i in range(d)],
              [Dj[f] for Dj in Ds], None if dt is None else list(dt[f * d:(f + 1) * d]))
             for f, (v, _) in enumerate(families)]
    (u, Du, Dp, dtu), (w, Dw, Dr, dtw) = parts[0], parts[-1]
    return _Derivatives(u, w, Du, Dw, Dp, Dr, dtu, dtw)


def _half_terms(k: _Derivatives, nu: float):
    """The four positive-half density terms, as node arrays.

    The negative half is this function applied to ``k.swapped()``.
    """
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


def lagrangian_terms(state: FieldQuartet, nu: float, include_time: bool = True):
    """Net per-term density arrays (positive half minus swapped half)."""
    k = _derivatives(state, include_time)
    pos = _half_terms(k, nu)
    neg = pos if k.one_family else _half_terms(k.swapped(), nu)
    return tuple(a - b for a, b in zip(pos, neg)), pos, neg


def evaluate_lagrangian(state: FieldQuartet, nu: float) -> LagrangianReport:
    """Evaluate the space-time functional and its term breakdown.

    Requires an unsteady grid; use :func:`varns.steady.steady_functional` for
    the time-independent variant.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g = state.grid
    if g.steady:
        raise ValueError("evaluate_lagrangian needs an unsteady grid; "
                         "see steady_functional for steady problems")
    net, pos, neg = lagrangian_terms(state, nu, include_time=True)
    density = ScalarField(g, net[0] + net[1] + net[2] + net[3])
    slices = slice_integrals(density)
    J = float(np.dot(g.time_weights(), slices))
    parts = [integrate_spacetime(ScalarField(g, t)) for t in net]
    magnitudes = lambda terms: [integrate_spacetime(ScalarField(g, np.abs(t))) for t in terms]
    pos_mag = magnitudes(pos)
    scale = sum(pos_mag + (pos_mag if neg is pos else magnitudes(neg)))
    return LagrangianReport(J, slices, parts[0], parts[1], parts[2], parts[3],
                            max(scale, 1e-300))


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def _momentum_rows(grid: Grid, k: _Derivatives, nu: float) -> list[np.ndarray]:
    """nu Lap u_i - grad_i p - dt w_i - sym advection of w by (u + w); the w rows
    use ``k.swapped()``."""
    d = len(k.u)
    rows = []
    for i in range(d):
        adv = sum(0.5 * (k.u[j] + k.w[j]) * (k.Dw[i][j] + k.Dw[j][i]) for j in range(d))
        rows.append(nu * _laplacian(grid, k.u[i]) - k.Dp[i] - k.dtw[i] - adv)
    return rows


def el_residuals(state: FieldQuartet, nu: float) -> ELResiduals:
    """Node-wise residuals of the coupled stationarity system.

    Momentum rows use the symmetrized advection form (the one consistent with
    the functional's own linearization). On a steady grid the time-derivative
    terms are omitted.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g = state.grid
    k = _derivatives(state, include_time=not g.steady)
    if g.steady:
        zeros = [np.zeros(g.shape)] * g.dim
        k = k._replace(dtu=zeros, dtw=zeros)

    def rows(k):        # the divergence, summed over the axes in order, and momentum
        div = functools.reduce(np.add, (k.Du[a][a] for a in range(g.dim)))
        return ScalarField(g, div), VectorField(g, tuple(
            ScalarField(g, a) for a in _momentum_rows(g, k, nu)))
    (div_u, mom_u) = rows(k)
    (div_w, mom_w) = (div_u, mom_u) if k.one_family else rows(k.swapped())
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


def _half_linearized(k: _Derivatives, dk: _Derivatives, nu: float):
    """Exact linearization of the positive-half density in the direction
    whose derivatives are ``dk``."""
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


def first_variation(state: FieldQuartet, direction: FieldQuartet, nu: float) -> float:
    """Directional derivative of the functional at ``state`` along ``direction``.

    Assembled from the exact term-by-term linearization of the discrete
    density, using the same stencils and quadrature as the evaluation, so the
    value matches [J(s + eps d) - J(s - eps d)] / (2 eps) up to O(eps^2) with
    no discretization gap. The direction must be admissible.
    """
    if nu < 0:
        raise ValueError(f"viscosity must be nonnegative, got {nu}")
    g = state.grid
    if g.steady:
        raise ValueError("first_variation needs an unsteady grid")
    if direction.grid != g:
        raise ValueError("state and direction must share the grid")
    check_admissible_direction(direction)
    k = _derivatives(state, include_time=True)
    dk = _derivatives(direction, include_time=True)
    pos = _half_linearized(k, dk, nu)
    neg = pos if k.one_family and dk.one_family else _half_linearized(
        k.swapped(), dk.swapped(), nu)
    return integrate_spacetime(ScalarField(g, pos - neg))


# ---------------------------------------------------------------------------
# difference fields and the energy series
# ---------------------------------------------------------------------------

def difference_fields(state: FieldQuartet) -> DifferencePair:
    g = state.grid
    vbar = VectorField(g, tuple(
        ScalarField(g, (cu.values - cw.values) / 2)
        for cu, cw in zip(state.u.components, state.w.components)))
    qbar = ScalarField(g, (state.p.values - state.r.values) / 2)
    return DifferencePair(vbar, qbar)


def _combined_field(state: FieldQuartet) -> VectorField:
    """The combined velocity u + w."""
    g = state.grid
    return VectorField(g, tuple(
        ScalarField(g, cu.values + cw.values)
        for cu, cw in zip(state.u.components, state.w.components)))


def _require_wall_vanishing(state: FieldQuartet, vb: list[np.ndarray], grid: Grid):
    """Raise unless the difference field ``vb`` vanishes on every wall node."""
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


def _sym_eig_max(D: list[list[np.ndarray]], dim: int) -> float:
    """Max eigenvalue over all nodes of a symmetric tensor field, closed form."""
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


def deformation_eigenvalue(forcing: VectorField) -> float:
    """Largest eigenvalue of sym-grad of the forcing flow over all nodes."""
    d = forcing.grid.dim
    G = _grad_tensor(forcing)
    D = [[0.5 * (G[i][j] + G[j][i]) for j in range(d)] for i in range(d)]
    return _sym_eig_max(D, d)


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
    d = g.dim
    pair = difference_fields(state)
    vb = [c.values for c in pair.v_bar.components]

    _require_wall_vanishing(state, vb, g)

    forcing = _combined_field(state)
    Dv = _grad_tensor(pair.v_bar)
    Dg = _grad_tensor(forcing)

    E = slice_integrals(ScalarField(g, sum(c ** 2 for c in vb)))
    integrand = nu * sum(Dv[i][j] ** 2 for i in range(d) for j in range(d)) \
        - 0.5 * sum(vb[i] * vb[j] * Dg[j][i] for i in range(d) for j in range(d))
    rhs = 2 * slice_integrals(ScalarField(g, integrand))

    if g.time_nodes >= 3:
        dEdt = (E[2:] - E[:-2]) / (2 * g.dt)
        mismatch = np.abs(dEdt - rhs[1:-1])
    else:
        mismatch = np.zeros(0)
    m = deformation_eigenvalue(forcing)
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

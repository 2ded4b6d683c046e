"""Extended functional with a wall-surface density, and boundary recovery audits.

Adding a surface integral to the space-time functional relaxes the admissible
class; at stationary configurations the boundary conditions are recovered:
the normal trace of u matches the prescribed surface velocity for any
viscosity, and for nonzero viscosity the full trace matches while the adjoint
velocity vanishes on the wall. The audits here evaluate those conclusions on
candidate fields; they do not re-derive them.

Surface values are stored as full-grid fields: only wall-node values enter
the surface quadrature and the audits, but the near-wall extension supplies
the off-boundary values needed by the one-sided gradient of the magnitude
term. At nodes where that magnitude vanishes its gradient is undefined; the
term is set to zero there (subgradient choice) and the nodes are counted in
the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _face_index,
    _gradients,
    boundary_integral,
    field_scale,
    wall_faces,
)
from .lagrangian import evaluate_lagrangian

# nonzero entries of the permutation tensor: (i, j, k) -> sign
_LEVI = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
         (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


@dataclass(frozen=True)
class SurfaceData:
    """Prescribed surface velocities for both field families.

    ``u_s`` and ``w_s`` live on the full grid; wall-node values are the data,
    interior values are the smooth extension used by magnitude gradients.
    """

    u_s: VectorField
    w_s: VectorField

    def __post_init__(self):
        if self.w_s.grid != self.grid:
            raise ValueError("u_s and w_s must share the grid")
        self._check_mass_compatibility()

    @property
    def grid(self) -> Grid:
        return self.u_s.grid

    def _check_mass_compatibility(self):
        g = self.grid
        if not any(True for _ in wall_faces(g)):
            return
        tol = 1e-10 * max(1.0, field_scale(self.u_s))
        for k in range(g.time_nodes):
            net = boundary_integral(self.u_s, k)
            if abs(net) > tol:
                raise ValueError(
                    f"surface velocity violates mass compatibility at time "
                    f"slice {k}: net outflow {net:.3e} exceeds {tol:.3e}")


def _zero_padded(vec: VectorField) -> list[np.ndarray]:
    """Components as arrays, padded with zeros up to three entries."""
    return [c.values for c in vec.components] + [np.zeros(vec.grid.shape)] * (3 - vec.grid.dim)


def _surface_density_arrays(state: FieldQuartet, surface: SurfaceData, nu: float):
    """Node arrays of the surface density components and the count of wall
    nodes where the magnitude term degenerated."""
    g = state.grid
    if surface.grid != g:
        raise ValueError("surface data grid does not match the state grid")
    d = g.dim
    uv = _zero_padded(state.u)
    wv = _zero_padded(state.w)
    us = _zero_padded(surface.u_s)
    ws = _zero_padded(surface.w_s)
    p, r = state.p.values, state.r.values
    u2 = sum(c * c for c in uv)
    w2 = sum(c * c for c in wv)

    # grouped as (u - u_s) + (w - w_s): bitwise invariant under the pair swap
    mag = np.sqrt(sum(((uv[i] - us[i]) + (wv[i] - ws[i])) ** 2 for i in range(3)))
    # grad u, grad w and grad mag: one kernel call per axis on the stacked arrays
    D = _gradients(g, np.stack([*uv[:d], *wv[:d], mag]))
    Du, Dw = ([[Dj[f * d + i] for Dj in D] for i in range(d)] for f in (0, 1))
    dmag = [Dj[2 * d] for Dj in D]
    degenerate = mag <= 0.0

    def half(av, a2, bv, bscal, bs, Db, j):
        """One orientation of the density; the full density is the difference
        of the two orientations, which makes the pair swap an exact negation."""
        term = bs[j] * bscal + a2 * (av[j] + bv[j]) / 4
        visc = sum((bv[i] - bs[i]) * Db[i][j] for i in range(d))
        eps_term = np.zeros(g.shape)
        for (i, jj, k), sign in _LEVI.items():
            if jj != j or i >= d:
                continue
            eps_term = eps_term + sign * np.where(
                degenerate, 0.0, (bv[k] - bs[k]) * dmag[i])
        return term + nu * (visc + eps_term)

    out = []
    for j in range(d):
        pos = half(uv, u2, wv, r, ws, Dw, j)
        neg = half(wv, w2, uv, p, us, Du, j)
        out.append(pos - neg)

    wall_degenerate = 0
    for axis, side, _ in wall_faces(g):
        wall_degenerate += int(np.count_nonzero(degenerate[_face_index(axis, side, d + 1)]))
    return out, wall_degenerate


@dataclass(frozen=True)
class ExtendedReport:
    J: float
    surface_term: float
    I: float
    degenerate_wall_nodes: int
    scale: float


def extended_functional(state: FieldQuartet, surface: SurfaceData,
                        nu: float) -> ExtendedReport:
    """I = J plus the time quadrature of the surface density flux."""
    g = state.grid
    base = evaluate_lagrangian(state, nu)
    arrays, degenerate = _surface_density_arrays(state, surface, nu)
    flux = VectorField(g, tuple(ScalarField(g, a) for a in arrays))
    tw = g.time_weights()
    surf = float(sum(tw[k] * boundary_integral(flux, k)
                     for k in range(g.time_nodes)))
    return ExtendedReport(base.J, surf, base.J + surf, degenerate, base.scale)


@dataclass(frozen=True)
class BoundaryAuditReport:
    max_normal_trace: float      # (a) max |n.(u - u_s)|
    max_stationarity: float      # (b) max |Eq (6.1) left side|
    max_normal_adjoint: float    # (c) max |n.w|
    max_adjoint: float           # (d) max |w|
    scale: float
    #: one entry per wall node, face by face: ``face`` (e.g. "axis0_low"), ``node``
    #: (its index tuple on the face, time last) and the checks ``check_a``-``check_d``
    columns: dict

    def tolerance(self) -> float:
        return 1e-8 * self.scale

    def passes(self, nu: float) -> bool:
        """Stationary-field contract: (a)-(c) always, (d) only when nu != 0."""
        tol = self.tolerance()
        ok = (self.max_normal_trace <= tol and self.max_stationarity <= tol
              and self.max_normal_adjoint <= tol)
        if nu != 0:
            ok = ok and self.max_adjoint <= tol
        return ok


def boundary_recovery_audit(state: FieldQuartet, surface: SurfaceData,
                            nu: float) -> BoundaryAuditReport:
    """Evaluate the recovered-boundary-condition checks on every wall node.

    Per node: (a) normal trace mismatch n.(u - u_s); (b) the stationarity
    combination (n.(u-u_s))(u_j - u_s_j) + nu n_i eps_ijk d_k |u - u_s|;
    (c) normal adjoint trace n.w; (d) adjoint magnitude |w|.
    """
    g = state.grid
    if surface.grid != g:
        raise ValueError("surface data grid does not match the state grid")
    d = g.dim
    uv = _zero_padded(state.u)
    us = _zero_padded(surface.u_s)
    wv = _zero_padded(state.w)

    mag_u = np.sqrt(sum((uv[i] - us[i]) ** 2 for i in range(3)))
    dmag = [Dj[0] for Dj in _gradients(g, mag_u[None])]
    degenerate = mag_u <= 0.0

    columns = {name: [] for name in ("face", "node", "check_a", "check_b", "check_c",
                                     "check_d")}
    maxima = [0.0] * 4
    for axis, side, sign in wall_faces(g):
        idx = _face_index(axis, side, d + 1)
        take = lambda arr: arr[idx]
        n_dot_du = sign * (take(uv[axis]) - take(us[axis]))
        n_dot_w = sign * take(wv[axis])
        w_mag = np.sqrt(sum(take(wv[i]) ** 2 for i in range(3)))

        b_sq = np.zeros(n_dot_du.shape)
        for j in range(d):
            comp = n_dot_du * (take(uv[j]) - take(us[j]))
            for (i, jj, k), lsign in _LEVI.items():
                if jj != j or i != axis or k >= d:
                    continue
                comp = comp + nu * sign * lsign * np.where(
                    take(degenerate), 0.0, take(dmag[k]))
            b_sq = b_sq + comp ** 2

        checks = [np.abs(n_dot_du), np.sqrt(b_sq), np.abs(n_dot_w), w_mag]
        columns["face"] += [f"axis{axis}_{'low' if side == 0 else 'high'}"] * w_mag.size
        columns["node"] += np.ndindex(w_mag.shape)
        for name, check in zip(("check_a", "check_b", "check_c", "check_d"), checks):
            columns[name] += check.ravel().tolist()
        # np.max of each face, joined by np.maximum: a NaN on any face is the maximum
        maxima = [float(np.maximum(m, np.max(c))) for m, c in zip(maxima, checks)]

    scale = max(1.0, field_scale(state.u, state.w, surface.u_s))
    return BoundaryAuditReport(*maxima, scale, columns)

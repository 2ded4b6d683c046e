"""The quantitative uniqueness certificate of a steady state, and the
inequality-chain audits behind it.

The certificate compares a scaled Dirichlet norm of the combined field u+w
against a pure-number threshold; the threshold is evaluated exactly as
written (R^{1/2} lambda^{1/4} 3^{3/4} with lambda pinned to 20/R^2), which
collapses to 20^{1/4} 3^{3/4} = 4.8205... independent of the domain radius.
The bound is traditionally quoted with this constant rounded to 3; the
certificate record carries both numbers and asserts nothing about the gap.

Only the Cauchy-Schwarz step of the inequality chain is asserted (it is
exact at the discrete-quadrature level); the interpolation and embedding
steps use continuum constants and are reported as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    integrate_space,
)
from .lagrangian import _difference_and_sum, _require_wall_vanishing

#: exact value of the certificate threshold R^{1/2} (20/R^2)^{1/4} 3^{3/4}
THRESHOLD_CONSTANT = 20.0 ** 0.25 * 3.0 ** 0.75

#: the rounding the bound is traditionally quoted with
QUOTED_THRESHOLD_APPROX = 3.0


def _require_steady(grid: Grid):
    if not grid.steady:
        raise ValueError("this operation needs a steady grid (time_nodes == 1)")


def enclosing_radius(grid: Grid) -> float:
    """Radius of the smallest sphere enclosing the box: half its diagonal."""
    return 0.5 * math.sqrt(sum(e * e for e in grid.extents))


def _pinned_lambda(grid: Grid) -> float:
    """The eigenvalue lambda, pinned to 20 / R^2 with R the enclosing radius."""
    return 20.0 / enclosing_radius(grid) ** 2


@dataclass(frozen=True)
class UniquenessCertificate:
    lhs: float
    threshold: float
    R: float
    lam: float
    nu: float
    satisfied: bool
    threshold_quoted_approx: float = QUOTED_THRESHOLD_APPROX

    def to_record(self) -> dict:
        return {"lhs": self.lhs, "threshold": self.threshold, "R": self.R,
                "lambda": self.lam, "nu": self.nu, "satisfied": self.satisfied,
                "threshold_quoted_approx": self.threshold_quoted_approx}


def uniqueness_certificate(state: FieldQuartet, nu: float) -> UniquenessCertificate:
    """Evaluate both sides of the steady uniqueness condition.

    lhs = (R^{1/2}/nu) { (1/4) int (d_i (u_j+w_j))^2 }^{1/2};
    the condition holds when lhs <= R^{1/2} lambda^{1/4} 3^{3/4}.
    """
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    grid = state.grid
    _require_steady(grid)
    R = enclosing_radius(grid)
    lam = _pinned_lambda(grid)
    G = _difference_and_sum(state)[2]
    d = grid.dim
    dir_sum = 0.25 * integrate_space(
        ScalarField(grid, sum(G[j][i] ** 2 for i in range(d) for j in range(d))), 0)
    lhs = math.sqrt(R) / nu * math.sqrt(dir_sum)
    threshold = math.sqrt(R) * lam ** 0.25 * 3.0 ** 0.75
    return UniquenessCertificate(lhs, threshold, R, lam, nu, lhs <= threshold)


@dataclass(frozen=True)
class InequalityRow:
    name: str
    lhs: float
    rhs: float
    asserted: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ChainAuditReport:
    rows: tuple[InequalityRow, ...]
    scale: float
    tolerance: float

    @property
    def asserted_ok(self) -> bool:
        return all(r.margin >= -self.tolerance for r in self.rows if r.asserted)


def inequality_chain_audit(state: FieldQuartet, nu: float,
                           tol: float = 1e-10) -> ChainAuditReport:
    """Evaluate both sides of the three displayed chain inequalities.

    Schwarz row: |int (vbar_i vbar_j / 2) d_i g_j| against the product of the
    two quadrature norms; exact discrete Cauchy-Schwarz, so it is asserted.
    The interpolation (Serrin) and embedding (Payne-Weinberger) rows carry
    continuum constants and are diagnostics. g denotes u + w.
    """
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    grid = state.grid
    _require_steady(grid)
    d = grid.dim
    vb, Dv, Dg = _difference_and_sum(state)
    _require_wall_vanishing(state, vb)
    sq = lambda arr: integrate_space(ScalarField(grid, arr), 0)

    Dv2 = sq(sum(Dv[i][j] ** 2 for i in range(d) for j in range(d)))
    Dg2q = 0.25 * sq(sum(Dg[j][i] ** 2 for i in range(d) for j in range(d)))
    prod = sq(sum(vb[i] * vb[j] * Dg[j][i] for i in range(d) for j in range(d)) / 2)
    T4 = sq(sum((vb[i] * vb[j]) ** 2 for i in range(d) for j in range(d)))
    E2 = sq(sum(c ** 2 for c in vb))

    lam = _pinned_lambda(grid)
    c34 = 3.0 ** -0.75

    rows = (
        InequalityRow("schwarz", abs(prod), math.sqrt(T4) * math.sqrt(Dg2q), True),
        InequalityRow("serrin", nu * Dv2,
                      c34 * E2 ** 0.25 * Dv2 ** 0.75 * math.sqrt(Dg2q), False),
        InequalityRow("payne-weinberger", nu * Dv2,
                      c34 / lam ** 0.25 * Dv2 * math.sqrt(Dg2q), False),
    )
    scale = max(1.0, *(abs(r.rhs) for r in rows))
    return ChainAuditReport(rows, scale, tol * scale)

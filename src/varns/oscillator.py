"""Two-field variational treatment of the damped oscillator boundary problem.

The boundary value problem y'' + 2a y' + b y = 0 on (0,1) with y(0)=alpha,
y(1)=beta is not variational in y alone, but it is the stationarity system of
an antisymmetric functional of two independent copies y1, y2 sharing the end
values. Solving the coupled Euler-Lagrange system recovers y as the mean
(y1+y2)/2 while the half-difference collapses to zero away from resonance.
It is built from the stencil matrices of ``grids`` and solved by one sparse
LU, which also gives the condition estimate; no bit depends on BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import WALL, Grid, _d1, _d2, _stencil_matrices


def __getattr__(name: str):
    """``spla``: scipy.sparse.linalg, imported on first use, not with the module."""
    if name == "spla":
        import scipy.sparse.linalg as spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ResonanceError(ValueError):
    """Raised when b - a^2 hits m^2 pi^2 for an integer m >= 1."""

    def __init__(self, m: int):
        self.m = m
        super().__init__(
            f"ill-posed problem: b - a^2 = (m*pi)^2 with m = {m}; "
            "the homogeneous difference problem has a nontrivial kernel")


def resonance_integer(a: float, b: float, tol: float = 1e-9) -> int | None:
    """Return the resonant integer m if b - a^2 is within tol of (m pi)^2."""
    if b <= a * a:
        return None
    ratio = np.sqrt(b - a * a) / np.pi
    m = int(round(ratio))
    if m >= 1 and abs(ratio - m) < tol:
        return m
    return None


@dataclass(frozen=True)
class OscillatorProblem:
    a: float
    b: float
    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"need n >= 4 nodes, got {self.n}")

    @property
    def well_posed(self) -> bool:
        return resonance_integer(self.a, self.b) is None

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    def analytic_solution(self, x: np.ndarray) -> np.ndarray:
        """Closed-form solution of the original boundary value problem."""
        a, b, alpha, beta = self.a, self.b, self.alpha, self.beta
        disc = a * a - b
        ea = np.exp(a)
        if disc < 0:
            om = np.sqrt(-disc)
            if abs(np.sin(om)) < 1e-14:
                raise ResonanceError(int(round(om / np.pi)))
            A = alpha
            B = (beta * ea - alpha * np.cos(om)) / np.sin(om)
            return np.exp(-a * x) * (A * np.cos(om * x) + B * np.sin(om * x))
        if disc > 0:
            k = np.sqrt(disc)
            A = alpha
            B = (beta * ea - alpha * np.cosh(k)) / np.sinh(k)
            return np.exp(-a * x) * (A * np.cosh(k * x) + B * np.sinh(k * x))
        return np.exp(-a * x) * (alpha + (beta * ea - alpha) * x)


@dataclass(frozen=True)
class OscillatorSolution:
    problem: OscillatorProblem
    y1: np.ndarray = field(repr=False)
    y2: np.ndarray = field(repr=False)
    functional_value: float
    condition_estimate: float

    @property
    def y_mean(self) -> np.ndarray:
        return (self.y1 + self.y2) / 2

    @property
    def y_diff(self) -> np.ndarray:
        return (self.y1 - self.y2) / 2


def _check_lengths(y1: np.ndarray, y2: np.ndarray, problem: OscillatorProblem):
    if len(y1) != problem.n or len(y2) != problem.n:
        raise ValueError(
            f"node arrays must have length {problem.n}, got {len(y1)}, {len(y2)}")


def oscillator_functional(y1, y2, problem: OscillatorProblem) -> float:
    """Trapezoid quadrature of the antisymmetric two-field integrand.

    The integrand is coded as (g1 - g2)/2 with g1, g2 the two single-field
    groups, so swapping the arguments negates the value bit-for-bit.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    _check_lengths(y1, y2, problem)
    a, b, h = problem.a, problem.b, problem.h
    d1 = _d1(y1, 0, h, periodic=False)
    d2 = _d1(y2, 0, h, periodic=False)
    g1 = d1 * d1 - 2 * a * d2 * y1 - b * y1 * y1
    g2 = d2 * d2 - 2 * a * d1 * y2 - b * y2 * y2
    return float(np.trapezoid(0.5 * (g1 - g2), dx=h))


def solve_oscillator_vp(problem: OscillatorProblem) -> OscillatorSolution:
    """Assemble and solve the coupled discrete Euler-Lagrange system.

    Interior rows: y1'' + 2a y2' + b y1 = 0 and y2'' + 2a y1' + b y2 = 0 with
    central stencils; Dirichlet rows pin both fields at both ends; one sparse LU.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    m = resonance_integer(problem.a, problem.b)
    if m is not None:
        raise ResonanceError(m)
    n, a, b = problem.n, problem.a, problem.b
    (D1,), D2 = _stencil_matrices(Grid((1.0,), (n,), (WALL,)))
    own, cross = D2 + b * sp.identity(n), 2 * a * D1
    pin = sp.diags(np.tile(np.r_[1.0, np.zeros(n - 2), 1.0], 2))      # the end rows
    M = ((sp.identity(2 * n) - pin) @ sp.bmat([[own, cross], [cross, own]]) + pin).tocsc()
    data = np.r_[problem.alpha, np.zeros(n - 2), problem.beta]
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(f"singular discrete system: {exc}") from exc
    y1, y2 = np.split(lu.solve(np.tile(data, 2)), 2)
    # |M|_1 |M^-1|_1; one probe column (t=1) draws nothing from numpy's RNG
    inverse = spla.LinearOperator(M.shape, lu.solve, lambda r: lu.solve(r, "T"), dtype=float)
    cond = float(abs(M).sum(axis=0).max() * spla.onenormest(inverse, t=1))
    # end values are prescribed data: pin them exactly against solver roundoff
    y1[0] = y2[0] = problem.alpha
    y1[-1] = y2[-1] = problem.beta
    J = oscillator_functional(y1, y2, problem)
    return OscillatorSolution(problem, y1, y2, J, cond)


def galerkin_identity_residual(y1, y2, problem: OscillatorProblem) -> float:
    """|J(y1,y2) + 2 int ybar (y'' + 2a y' + b y) dx| with discrete operators.

    Requires the half-difference ybar to vanish at both end nodes (the
    weighting-function condition); decays at second order for smooth pairs.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    _check_lengths(y1, y2, problem)
    ybar = (y1 - y2) / 2
    scale = max(np.max(np.abs(y1)), np.max(np.abs(y2)), 1e-300)
    if abs(ybar[0]) > 1e-12 * scale or abs(ybar[-1]) > 1e-12 * scale:
        raise ValueError("ybar = (y1-y2)/2 must vanish at both end nodes")
    a, b, h = problem.a, problem.b, problem.h
    y = (y1 + y2) / 2
    ode = _d2(y, 0, h, periodic=False) + 2 * a * _d1(y, 0, h, periodic=False) + b * y
    J = oscillator_functional(y1, y2, problem)
    return abs(J + 2 * float(np.trapezoid(ybar * ode, dx=h)))

"""Two-field variational treatment of the damped oscillator boundary problem.

The boundary value problem y'' + 2a y' + b y = 0 on (0,1) with y(0)=alpha,
y(1)=beta is not variational in y alone, but it is the stationarity system of
an antisymmetric functional of two independent copies y1, y2 sharing the end
values. Solving the coupled Euler-Lagrange system recovers y as the mean
(y1+y2)/2 while the half-difference collapses to zero away from resonance.
In y1 + y2 and y1 - y2 the discrete system splits into two tridiagonal ones,
solved by Gaussian elimination in plain Python floats: no bit depends on BLAS
threads, and the half-difference is exactly zero, so y1 = y2 to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import _d1, _d2


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
    return m if m >= 1 and abs(ratio - m) < tol else None


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
            B = (beta * ea - alpha * np.cos(om)) / np.sin(om)
            return np.exp(-a * x) * (alpha * np.cos(om * x) + B * np.sin(om * x))
        if disc > 0:
            k = np.sqrt(disc)
            B = (beta * ea - alpha * np.cosh(k)) / np.sinh(k)
            return np.exp(-a * x) * (alpha * np.cosh(k * x) + B * np.sinh(k * x))
        return np.exp(-a * x) * (alpha + (beta * ea - alpha) * x)


@dataclass(frozen=True)
class OscillatorSolution:
    problem: OscillatorProblem
    y1: np.ndarray = field(repr=False)
    y2: np.ndarray = field(repr=False)
    functional_value: float

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


def _solve_tridiagonal(lower, diag, upper, rhs) -> list:
    """x with A x = rhs, A's entries (i + 1, i), (i, i), (i, i + 1) being ``lower[i]``,
    ``diag[i]``, ``upper[i]``: Gaussian elimination with partial pivoting (LAPACK
    dgtsv's scheme), as A may be indefinite. Raises ``LinAlgError`` at a zero pivot."""
    n = len(diag)
    low, d, u, u2, x = list(lower), list(diag), [*upper, 0.0], [0.0] * n, [*rhs, 0.0, 0.0]
    try:
        for i in range(n - 1):
            if abs(low[i]) > abs(d[i]):     # swap rows i, i + 1: U gets a 2nd superdiagonal
                f = d[i] / low[i]
                d[i], u[i], d[i + 1] = low[i], d[i + 1], u[i] - f * d[i + 1]
                u2[i], u[i + 1] = u[i + 1], -f * u[i + 1]
                x[i], x[i + 1] = x[i + 1], x[i] - f * x[i + 1]
            else:
                f = low[i] / d[i]
                d[i + 1] -= f * u[i]
                x[i + 1] -= f * x[i]
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - u[i] * x[i + 1] - u2[i] * x[i + 2]) / d[i]
    except ZeroDivisionError:       # a Python float division raises only at a zero pivot
        raise np.linalg.LinAlgError("singular discrete system: zero pivot") from None
    return x[:n]


def solve_oscillator_vp(problem: OscillatorProblem) -> OscillatorSolution:
    """Solve the coupled discrete Euler-Lagrange system M (y1, y2) = (data, data):
    central interior rows y1'' + 2a y2' + b y1 = 0 and y2'' + 2a y1' + b y2 = 0, both
    fields pinned at both ends. M = P diag(A+, A-) P with P = [[I, I], [I, -I]] / sqrt 2
    and A+- = D2 + b I +- 2a D1 with pinned end rows, so s = y1 + y2 solves A+ s = 2 data
    and d = y1 - y2 solves A- d = 0: d is exactly zero."""
    m = resonance_integer(problem.a, problem.b)
    if m is not None:
        raise ResonanceError(m)
    n, a, b, h = problem.n, problem.a, problem.b, problem.h
    k2, k1 = 1 / h**2, a / h        # D2's off-diagonal entry and 2a D1's upper one
    plus, minus = (([k2 - sign * k1] * (n - 2) + [0.0], [1.0, *[b - 2 * k2] * (n - 2), 1.0],
                    [0.0] + [k2 + sign * k1] * (n - 2)) for sign in (1, -1))   # 3 bands each
    data = [problem.alpha, *[0.0] * (n - 2), problem.beta]
    s = np.array(_solve_tridiagonal(*plus, [2 * v for v in data]))
    d = np.array(_solve_tridiagonal(*minus, [0.0] * n))
    y1, y2 = (s + d) / 2, (s - d) / 2
    # end values are prescribed data: pin them exactly against solver roundoff
    y1[0] = y2[0] = problem.alpha
    y1[-1] = y2[-1] = problem.beta
    J = oscillator_functional(y1, y2, problem)
    return OscillatorSolution(problem, y1, y2, J)


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

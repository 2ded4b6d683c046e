import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varns.grids import _d1, _d2
from varns.oscillator import (
    OscillatorProblem,
    ResonanceError,
    _solve_tridiagonal,
    galerkin_identity_residual,
    oscillator_functional,
    resonance_integer,
    solve_oscillator_vp,
)


def reference_solution(a, b, alpha, beta, x):
    """Independent closed form of y'' + 2a y' + b y = 0, y(0)=alpha, y(1)=beta."""
    disc = a * a - b
    if disc < 0:
        om = np.sqrt(-disc)
        A = alpha
        B = (beta * np.exp(a) - alpha * np.cos(om)) / np.sin(om)
        return np.exp(-a * x) * (A * np.cos(om * x) + B * np.sin(om * x))
    if disc > 0:
        k = np.sqrt(disc)
        A = alpha
        B = (beta * np.exp(a) - alpha * np.cosh(k)) / np.sinh(k)
        return np.exp(-a * x) * (A * np.cosh(k * x) + B * np.sinh(k * x))
    return np.exp(-a * x) * (alpha + (beta * np.exp(a) - alpha) * x)


# ---------------------------------------------------------------------------
# functional
# ---------------------------------------------------------------------------

def test_functional_identical_fields_zero():
    pr = OscillatorProblem(1.3, 5.0, 0.0, 1.0, 101)
    y = np.sin(3 * pr.x()) + pr.x()
    assert oscillator_functional(y, y, pr) == 0.0


def test_functional_swap_negates_exactly():
    pr = OscillatorProblem(0.7, 11.0, 0.0, 1.0, 151)
    x = pr.x()
    y1 = x + 0.3 * np.sin(np.pi * x)
    y2 = x - 0.2 * np.sin(2 * np.pi * x)
    assert oscillator_functional(y1, y2, pr) == -oscillator_functional(y2, y1, pr)


def test_functional_closed_form_value():
    # a = b = 0: J = (1/2) int (1 - 4 x^2) dx = -1/6
    pr = OscillatorProblem(0.0, 0.0, 0.0, 1.0, 201)
    x = pr.x()
    J = oscillator_functional(x, x ** 2, pr)
    assert abs(J - (-1.0 / 6.0)) < 1e-4


def test_functional_length_mismatch():
    pr = OscillatorProblem(0.0, 0.0, 0.0, 1.0, 50)
    with pytest.raises(ValueError):
        oscillator_functional(np.zeros(50), np.zeros(49), pr)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_linear_is_node_exact():
    pr = OscillatorProblem(0.0, 0.0, 0.0, 1.0, 33)
    sol = solve_oscillator_vp(pr)
    assert np.max(np.abs(sol.y_mean - pr.x())) < 1e-12
    assert np.max(np.abs(sol.y_diff)) < 1e-12


def test_solve_against_closed_form():
    a, b, alpha, beta = 1.0, 20.0, 0.0, 1.0
    errs = []
    for n in (64, 128, 256):
        pr = OscillatorProblem(a, b, alpha, beta, n)
        sol = solve_oscillator_vp(pr)
        exact = reference_solution(a, b, alpha, beta, pr.x())
        err = np.max(np.abs(sol.y_mean - exact))
        errs.append(err)
        assert err <= 8.0 * pr.h ** 2      # C pinned by this sweep
        assert np.max(np.abs(sol.y_diff)) <= 1e-8 * np.max(np.abs(sol.y_mean))
    assert 3.3 <= errs[0] / errs[1] <= 4.7
    assert 3.3 <= errs[1] / errs[2] <= 4.7


def test_solve_overdamped_branch():
    a, b = 2.0, 1.0   # b < a^2
    pr = OscillatorProblem(a, b, 1.0, 0.5, 200)
    sol = solve_oscillator_vp(pr)
    exact = reference_solution(a, b, 1.0, 0.5, pr.x())
    assert np.max(np.abs(sol.y_mean - exact)) < 1e-3


def test_boundary_values_exact():
    pr = OscillatorProblem(1.0, 20.0, 0.3, -0.7, 80)
    sol = solve_oscillator_vp(pr)
    assert sol.y1[0] == 0.3 and sol.y2[0] == 0.3
    assert sol.y1[-1] == -0.7 and sol.y2[-1] == -0.7


def test_resonance_detected_with_integer():
    with pytest.raises(ResonanceError) as exc:
        solve_oscillator_vp(OscillatorProblem(0.0, np.pi ** 2, 0.0, 1.0, 60))
    assert exc.value.m == 1
    with pytest.raises(ResonanceError) as exc:
        solve_oscillator_vp(OscillatorProblem(1.0, 1.0 + 4 * np.pi ** 2, 0.0, 1.0, 60))
    assert exc.value.m == 2


def test_well_posed_flag():
    assert resonance_integer(1.0, 20.0) is None
    assert resonance_integer(0.0, np.pi ** 2) == 1
    # b = a^2 (double root) is uniquely solvable, not a resonance
    assert resonance_integer(2.0, 4.0) is None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-20.0, 120.0), n=st.integers(8, 300),
       alpha=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0))
def test_solution_satisfies_the_interior_rows(a, b, n, alpha, beta):
    # away from resonance: sqrt(b - a^2) / pi at least 0.05 from every m >= 1
    if b > a * a:
        ratio = np.sqrt(b - a * a) / np.pi
        assume(round(ratio) < 1 or abs(ratio - round(ratio)) >= 0.05)
    pr = OscillatorProblem(a, b, alpha, beta, n)
    sol = solve_oscillator_vp(pr)
    y1, y2, h = sol.y1, sol.y2, pr.h
    # the Euler-Lagrange rows, evaluated with the array stencils
    rows = [_d2(y, 0, h, periodic=False) + 2 * a * _d1(z, 0, h, periodic=False) + b * y
            for y, z in ((y1, y2), (y2, y1))]
    scale = max(np.abs(y1).max(), np.abs(y2).max()) * (4 / h ** 2 + 2 * abs(a) / h + abs(b))
    assert max(np.abs(r[1:-1]).max() for r in rows) <= 1e-10 * scale
    assert y1[0] == y2[0] == alpha and y1[-1] == y2[-1] == beta


def test_singular_factor_reported():
    # a = 1/h and b = 2/h^2 zero the entries (i, i-1) and (i, i) of every interior
    # row of D2 + bI + 2a D1, so its column 1 is zero: a zero pivot, exactly. The
    # continuum problem is not resonant: b - a^2 = 16 is not (m pi)^2.
    pr = OscillatorProblem(4.0, 32.0, 0.0, 1.0, 5)
    assert resonance_integer(pr.a, pr.b) is None
    with pytest.raises(np.linalg.LinAlgError, match="singular discrete system"):
        solve_oscillator_vp(pr)


@pytest.mark.parametrize("diagonal_scale", [1e-3, 1e3])   # swap rows at almost every step, or never
def test_tridiagonal_elimination_matches_a_dense_solve(diagonal_scale):
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 7, 16, 33):
        lower, upper, rhs = rng.normal(size=n - 1), rng.normal(size=n - 1), rng.normal(size=n)
        diag = diagonal_scale * rng.normal(size=n)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        # the transpose is the same elimination with the bands reversed
        for bands, M in (((lower, diag, upper), A), ((upper, diag, lower), A.T)):
            got = np.array(_solve_tridiagonal(*(band.tolist() for band in bands), rhs.tolist()))
            want = np.linalg.solve(M, rhs)
            tol = 16 * np.finfo(float).eps * np.linalg.cond(M, 1) * np.abs(want).max()
            assert np.abs(got - want).max() <= tol


def dense_coupled_system(pr):
    """The coupled 2n x 2n system M, assembled densely from the array stencils of
    the identity: D2 + bI on the diagonal blocks, 2a D1 off them, the rows of the
    four end nodes replaced by identity rows. Returns M and its right-hand side."""
    n, a, b, h = pr.n, pr.a, pr.b, pr.h
    eye = np.eye(n)
    own = _d2(eye, 0, h, periodic=False) + b * eye
    cross = 2 * a * _d1(eye, 0, h, periodic=False)
    M = np.block([[own, cross], [cross, own]])
    for row in (0, n - 1, n, 2 * n - 1):
        M[row] = 0.0
        M[row, row] = 1.0
    data = np.r_[pr.alpha, np.zeros(n - 2), pr.beta]
    return M, np.r_[data, data]


@pytest.mark.parametrize("a, b, n", [
    (1.0, 20.0, 33), (0.5, 30.0, 64), (2.0, 60.0, 17), (-3.0, 120.0, 40),
    (2.0, 1.0, 8), (1.3, -10.0, 4),
    (0.0, np.pi ** 2 + 1e-3, 64),        # within 1e-3 of the first resonance
    (1.0, 50.0, 6),                      # b = 2/h^2: zero interior diagonal, so it must pivot
])
def test_solution_and_condition_estimate_match_the_dense_coupled_system(a, b, n):
    pr = OscillatorProblem(a, b, 0.3, -1.1, n)
    sol = solve_oscillator_vp(pr)
    M, rhs = dense_coupled_system(pr)
    want = np.linalg.solve(M, rhs)
    cond = np.linalg.cond(M, 1)
    got = np.r_[sol.y1, sol.y2]
    scale = np.abs(want).max()
    # both solves are backward stable, so they agree to within the forward error
    # bound eps * cond(M), which exceeds 1e-12 near resonance
    tol = max(1e-12, 16 * np.finfo(float).eps * cond) * scale
    assert np.abs(got - want).max() <= tol
    assert np.abs(M @ got - rhs).max() <= 1e-13 * np.abs(M).sum(axis=1).max() * scale


# ---------------------------------------------------------------------------
# Galerkin identity
# ---------------------------------------------------------------------------

def test_galerkin_identical_fields_zero():
    pr = OscillatorProblem(1.0, 3.0, 0.0, 1.0, 64)
    y = pr.x() ** 2
    assert galerkin_identity_residual(y, y, pr) == 0.0


def test_galerkin_spec_pair_small_residual():
    pr = OscillatorProblem(1.0, 3.0, 0.0, 1.0, 512)
    x = pr.x()
    ym = x * (1 - x) + x
    yb = np.sin(np.pi * x)
    assert galerkin_identity_residual(ym + yb, ym - yb, pr) <= 1e-4


def test_galerkin_second_order_decay():
    errs = []
    for n in (64, 128, 256):
        pr = OscillatorProblem(1.0, 3.0, 0.0, 1.0, n)
        x = pr.x()
        ym = np.exp(x) * np.cos(2 * x)
        yb = x * (1 - x) * (1 + 2 * x)
        errs.append(galerkin_identity_residual(ym + yb, ym - yb, pr))
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_galerkin_endpoint_precondition():
    pr = OscillatorProblem(1.0, 3.0, 0.0, 1.0, 64)
    x = pr.x()
    with pytest.raises(ValueError):
        galerkin_identity_residual(x + 1.0, x, pr)

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varns import oscillator
from varns.grids import _d1, _d2
from varns.oscillator import (
    OscillatorProblem,
    ResonanceError,
    galerkin_identity_residual,
    oscillator_functional,
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
    assert OscillatorProblem(1.0, 20.0, 0.0, 1.0, 10).well_posed
    assert not OscillatorProblem(0.0, np.pi ** 2, 0.0, 1.0, 10).well_posed
    # b = a^2 (double root) is uniquely solvable, not a resonance
    assert OscillatorProblem(2.0, 4.0, 0.0, 1.0, 10).well_posed


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


def test_condition_estimate_is_deterministic_and_draws_no_random_numbers():
    pr = OscillatorProblem(1.0, 20.0, 0.0, 1.0, 257)
    np.random.seed(7)
    before = np.random.get_state()
    first = solve_oscillator_vp(pr).condition_estimate
    second = solve_oscillator_vp(pr).condition_estimate
    after = np.random.get_state()
    assert first == second
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_singular_factor_reported(monkeypatch):
    def singular(_):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(oscillator.spla, "splu", singular)
    with pytest.raises(np.linalg.LinAlgError, match="singular discrete system"):
        solve_oscillator_vp(OscillatorProblem(1.0, 20.0, 0.0, 1.0, 16))


def test_near_resonance_condition_estimate_blows_up():
    healthy = solve_oscillator_vp(OscillatorProblem(1.0, 20.0, 0.0, 1.0, 64))
    near = solve_oscillator_vp(
        OscillatorProblem(0.0, np.pi ** 2 + 1e-5, 0.0, 1.0, 64))
    assert near.condition_estimate > 50 * healthy.condition_estimate


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

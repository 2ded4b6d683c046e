"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Every tolerance is the one stated by the criterion; nothing is
deferred to later calibration.
"""

import math

import numpy as np
import pytest

from varns.boundary import SurfaceData, boundary_recovery_audit, extended_functional
from varns.grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    periodic_square,
)
from varns.lagrangian import (
    el_residuals,
    energy_series,
    evaluate_lagrangian,
    first_variation,
    gronwall_audit,
)
from varns.oscillator import (
    OscillatorProblem,
    ResonanceError,
    galerkin_identity_residual,
    solve_oscillator_vp,
)
from varns.scenarios import taylor_green
from varns.solver import (
    SolveConfig,
    kinetic_energy_series,
    march_reduced,
    newton_dual,
    u_w_gap,
)
from varns.steady import inequality_chain_audit, uniqueness_certificate

from conftest import (
    admissible_direction,
    boundary_rich_quartet,
    random_quartet,
    shift_state,
)

from test_oscillator import reference_solution


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def mkv(grid, arrs):
    return VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))


# ---------------------------------------------------------------------------
# 1. oscillator recovery
# ---------------------------------------------------------------------------

def test_criterion_1_oscillator_recovery():
    a, b, alpha, beta = 1.0, 20.0, 0.0, 1.0
    errs = []
    for n in (64, 128, 256, 512):
        pr = OscillatorProblem(a, b, alpha, beta, n)
        sol = solve_oscillator_vp(pr)
        exact = reference_solution(a, b, alpha, beta, pr.x())
        errs.append(np.max(np.abs(sol.y_mean - exact)))
        assert np.max(np.abs(sol.y_diff)) <= 1e-8 * np.max(np.abs(sol.y_mean))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    for o in orders:
        assert 1.8 <= o <= 2.2
    for m, (aa, bb) in ((1, (0.0, np.pi ** 2)),
                        (2, (1.0, 1.0 + 4 * np.pi ** 2))):
        with pytest.raises(ResonanceError) as exc:
            solve_oscillator_vp(OscillatorProblem(aa, bb, alpha, beta, 64))
        assert exc.value.m == m
    report(1, f"oscillator orders {[f'{o:.3f}' for o in orders]}, "
              "difference collapse and resonance rejection (m=1,2)")


# ---------------------------------------------------------------------------
# 2. Galerkin identity decay
# ---------------------------------------------------------------------------

def test_criterion_2_galerkin_identity():
    pairs = [
        (lambda x: np.exp(x) * np.cos(2 * x), lambda x: x * (1 - x) * (1 + 2 * x), 1.0, 3.0),
        (lambda x: np.cos(3 * x) + x ** 3, lambda x: x * (1 - x) * np.exp(x), 2.0, 7.0),
    ]
    all_ratios = []
    for ymf, ybf, a, b in pairs:
        errs = []
        for n in (64, 128, 256, 512):
            pr = OscillatorProblem(a, b, 0.0, 1.0, n)
            x = pr.x()
            ym, yb = ymf(x), ybf(x)
            errs.append(galerkin_identity_residual(ym + yb, ym - yb, pr))
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for r in ratios:
            assert 3.2 <= r <= 4.8          # 4 +- 20%
        all_ratios.append([f"{r:.2f}" for r in ratios])
    report(2, f"galerkin residual ratios per doubling {all_ratios}")


# ---------------------------------------------------------------------------
# 3. antisymmetry and fixed point for J, J^s and I
# ---------------------------------------------------------------------------

def test_criterion_3_antisymmetry_and_fixed_point():
    nu = 0.23
    gu = periodic_square(10, time_nodes=5, dt=0.03)
    gw = Grid((1.0, 1.4), (9, 11), ("wall", "periodic"), 5, 0.02)
    checked = 0
    for seed in range(10):
        g = gu if seed % 2 == 0 else gw
        state = random_quartet(g, 900 + seed)
        rep = evaluate_lagrangian(state, nu)
        swap = evaluate_lagrangian(state.swapped(), nu)
        assert abs(rep.J + swap.J) <= 1e-12 * max(abs(rep.J), 1e-30)
        fixed = FieldQuartet(state.u, state.p, state.u, state.p)
        frep = evaluate_lagrangian(fixed, nu)
        assert abs(frep.J) <= 1e-13 * frep.scale
        checked += 1

    gs = periodic_square(12)
    for seed in range(10):
        state = random_quartet(gs, 950 + seed)
        J = evaluate_lagrangian(state, nu).J
        Js = evaluate_lagrangian(state.swapped(), nu).J
        assert abs(J + Js) <= 1e-12 * max(abs(J), 1e-30)
        frep = evaluate_lagrangian(FieldQuartet(state.u, state.p, state.u, state.p), nu)
        assert abs(frep.J) <= 1e-13 * frep.scale

    gb = Grid((1.0, 1.0), (9, 9), ("wall", "wall"), 5, 0.02)
    for seed in range(10):
        state = boundary_rich_quartet(gb, 970 + seed)
        surface = SurfaceData(state.u, state.w)
        swapped = SurfaceData(state.w, state.u)
        I1 = extended_functional(state, surface, nu).I
        I2 = extended_functional(state.swapped(), swapped, nu).I
        assert abs(I1 + I2) <= 1e-12 * max(abs(I1), 1e-30)
        fixed = FieldQuartet(state.u, state.p, state.u, state.p)
        fsurf = SurfaceData(state.u, state.u)
        frep = extended_functional(fixed, fsurf, nu)
        assert abs(frep.I) <= 1e-13 * max(frep.scale, 1e-30)
    report(3, f"swap antisymmetry and fixed-point zero over {checked} quartets "
              "for the space-time, steady and extended functionals")


# ---------------------------------------------------------------------------
# 4. gradient check
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_check():
    nu = 0.13
    g = periodic_square(12, time_nodes=5, dt=0.03)
    worst = 0.0
    for seed in range(5):
        state = random_quartet(g, 1100 + seed)
        direction = admissible_direction(g, 1200 + seed)
        dJ = first_variation(state, direction, nu)
        scale = max(1.0, max(np.max(np.abs(c.values)) for c in state.u.components))
        eps = 1e-5 * scale
        fd = (evaluate_lagrangian(shift_state(state, direction, eps), nu).J
              - evaluate_lagrangian(shift_state(state, direction, -eps), nu).J) / (2 * eps)
        rel = abs(dJ - fd) / max(abs(fd), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(4, f"first variation vs central differences, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. manufactured stationarity residual
# ---------------------------------------------------------------------------

def test_criterion_5_manufactured_residual():
    nu = 0.1
    norms = []
    for n, dt in ((16, 0.02), (32, 0.01), (64, 0.005)):
        g = periodic_square(n, time_nodes=round(0.1 / dt) + 1, dt=dt)
        norms.append(el_residuals(taylor_green(nu, g), nu).max_norm())
    ratios = [norms[i] / norms[i + 1] for i in range(2)]
    for r in ratios:
        assert 3.2 <= r <= 4.8
    report(5, f"decaying-vortex residual ratios {[f'{r:.2f}' for r in ratios]} "
              f"from norms {[f'{v:.2e}' for v in norms]}")


# ---------------------------------------------------------------------------
# 6. energy identity and pointwise bound
# ---------------------------------------------------------------------------

def _manufactured_energy_state(g, sigma, kappa):
    X, Y, T = g.meshes()
    e = np.exp(sigma * T)
    vb = [(np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * X + Y)) * e,
          -(np.cos(X) * np.sin(Y) + 0.6 * np.cos(2 * X + Y)) * e]
    gg = [(2 * np.cos(X) * np.cos(2 * Y) + 0.4 * np.cos(X + 2 * Y)) * kappa + 0 * T,
          (np.sin(X) * np.sin(2 * Y) - 0.2 * np.cos(X + 2 * Y)) * kappa + 0 * T]
    u = [gg[i] / 2 + vb[i] for i in range(2)]
    w = [gg[i] / 2 - vb[i] for i in range(2)]
    return FieldQuartet(mkv(g, u), ScalarField.zeros(g),
                        mkv(g, w), ScalarField.zeros(g))


def test_criterion_6_energy_identity_and_bound():
    from test_lagrangian import manufactured_kappa

    sigma, nu = 0.3, 0.2
    kappa = manufactured_kappa(sigma, nu)
    errs = []
    for n, dt in ((16, 0.02), (32, 0.01), (64, 0.005)):
        g = periodic_square(n, time_nodes=round(0.08 / dt) + 1, dt=dt)
        series = energy_series(_manufactured_energy_state(g, sigma, kappa), nu)
        errs.append(np.max(series.identity_mismatch))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for r in ratios:
        assert 3.2 <= r <= 4.8

    for seed in range(10):
        g = periodic_square(10, time_nodes=5, dt=0.03)
        state = random_quartet(g, 1500 + seed)
        audit = gronwall_audit(energy_series(state, 0.15))
        assert audit.pointwise_ok
    report(6, f"energy identity mismatch ratios {[f'{r:.2f}' for r in ratios]}; "
              "pointwise bound held on 10 randomized trials")


# ---------------------------------------------------------------------------
# 7. dual Newton uniqueness test
# ---------------------------------------------------------------------------

def test_criterion_7_newton_uniqueness():
    nu = 0.5
    g = periodic_square(8, time_nodes=6, dt=0.02)
    tg = taylor_green(nu, g)
    X, Y, T = g.meshes()
    pert = 1 + 0.1 * np.cos(X) * np.cos(Y)
    seed = FieldQuartet(tg.u, tg.p,
                        mkv(g, [c.values * pert for c in tg.u.components]), tg.r)
    traj = newton_dual(seed, tg.u, SolveConfig(nu=nu, max_newton=25), g)
    assert traj.converged
    iters = len(traj.residuals) - 1
    assert iters <= 25
    gap = u_w_gap(traj.state)
    rep = evaluate_lagrangian(traj.state, nu)
    assert gap <= 1e-8
    assert abs(rep.J) <= 1e-10 * rep.scale
    report(7, f"monolithic Newton converged in {iters} iterations, "
              f"u-w gap {gap:.2e}, |J| = {abs(rep.J):.2e} (scale {rep.scale:.2f})")


# ---------------------------------------------------------------------------
# 8. steady certificate
# ---------------------------------------------------------------------------

def test_criterion_8_steady_certificate():
    g = Grid((1.0, 1.0), (10, 10), ("wall", "wall"))
    zero = uniqueness_certificate(FieldQuartet.zeros(g), 0.7)
    assert zero.lhs == 0.0 and zero.satisfied

    gs = periodic_square(12)
    state = random_quartet(gs, 1600)
    base = uniqueness_certificate(state, 1.0)

    def scaled(c):
        vec = lambda v: VectorField(gs, tuple(ScalarField(gs, c * s.values)
                                              for s in v.components))
        return FieldQuartet(vec(state.u), state.p, vec(state.w), state.r)

    assert uniqueness_certificate(scaled(2.0), 1.0).lhs == 2.0 * base.lhs
    assert uniqueness_certificate(state, 2.0).lhs == base.lhs / 2.0

    for seed in range(10):
        trial = random_quartet(gs, 1700 + seed)
        audit = inequality_chain_audit(trial, 0.4)
        row = {r.name: r for r in audit.rows}["schwarz"]
        assert row.margin >= -audit.tolerance

    exact_constant = 20.0 ** 0.25 * 3.0 ** 0.75
    assert abs(base.threshold - exact_constant) < 1e-12
    assert base.threshold_quoted_approx == 3.0
    report(8, f"certificate: zero-field pass, exact amplitude and 1/viscosity "
              f"scaling, Schwarz margins on 10 trials; threshold "
              f"{base.threshold:.12f} (traditionally rounded to 3)")


# ---------------------------------------------------------------------------
# 9. boundary recovery
# ---------------------------------------------------------------------------

def _recovery_case(eps):
    g = Grid((1.0, 1.0, 1.0), (7, 7, 7), ("wall",) * 3)
    X, Y, Z, T = g.meshes()
    base = [np.sin(X + 0.3) * np.cos(Y) + 1.5, np.cos(Z + 0.1) + 0.5,
            np.sin(Y + Z) + 2.0]
    eta = [1.0 + 0.3 * np.sin(X + Y), 0.5 + 0.2 * np.cos(Z),
           0.8 + 0.1 * np.sin(X + Z)]
    u = [base[i] + eps * eta[i] for i in range(3)]
    w = [eps * eta[i] for i in range(3)]
    state = FieldQuartet(mkv(g, u), ScalarField.zeros(g), mkv(g, w),
                         ScalarField.zeros(g))
    surface = SurfaceData.__new__(SurfaceData)
    object.__setattr__(surface, "u_s", mkv(g, base))
    object.__setattr__(surface, "w_s", VectorField.zeros(g))
    return boundary_recovery_audit(state, surface, 0.7)


def test_criterion_9_boundary_recovery():
    exact = _recovery_case(0.0)
    for val in (exact.max_normal_trace, exact.max_stationarity,
                exact.max_normal_adjoint, exact.max_adjoint):
        assert val <= 1e-12

    eps_values = [1e-3, 1e-4, 1e-5]
    audits = [_recovery_case(e) for e in eps_values]
    for attr in ("max_normal_trace", "max_stationarity",
                 "max_normal_adjoint", "max_adjoint"):
        scaled = [getattr(a, attr) / e for a, e in zip(audits, eps_values)]
        assert scaled[0] > 0
        for s in scaled[1:]:
            assert abs(s - scaled[0]) <= 0.05 * abs(scaled[0])
    report(9, "exact stationary boundary data audits to <= 1e-12; audit "
              "response linear in the perturbation within 5% over three decades")


# ---------------------------------------------------------------------------
# 10. solver verification
# ---------------------------------------------------------------------------

def test_criterion_10_march_verification():
    nu = 0.1
    errs = []
    for n, dt in ((16, 0.04), (32, 0.02), (64, 0.01)):
        tn = round(0.4 / dt) + 1
        g = periodic_square(n, time_nodes=tn, dt=dt)
        exact = taylor_green(nu, g)
        traj = march_reduced(exact.u, SolveConfig(nu=nu), g)
        num = math.sqrt(sum(np.sum((traj.state.u[i].values[..., -1]
                                    - exact.u[i].values[..., -1]) ** 2)
                            for i in range(2)))
        den = math.sqrt(sum(np.sum(exact.u[i].values[..., -1] ** 2)
                            for i in range(2)))
        errs.append(num / den)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3

    g = periodic_square(32, time_nodes=26, dt=0.02)
    traj = march_reduced(taylor_green(nu, g).u, SolveConfig(nu=nu), g)
    ke = kinetic_energy_series(traj)
    rate = math.log(ke[0] / ke[-1]) / (4 * nu * g.tau)
    assert abs(rate - 1.0) <= 0.15
    report(10, f"marcher joint orders {[f'{o:.3f}' for o in orders]}, "
               f"energy decay rate / (4 nu) = {rate:.4f}")

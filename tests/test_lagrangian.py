import numpy as np
import pytest

from varns.grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _gradients,
    periodic_square,
)
from varns.lagrangian import (
    AdmissibilityError,
    _difference_and_sum,
    deformation_eigenvalue,
    el_residuals,
    energy_series,
    evaluate_lagrangian,
    first_variation,
    gronwall_audit,
)

from conftest import (
    admissible_direction,
    random_quartet,
    shift_state,
    smooth_scalar,
    vector_from_functions,
)


# ---------------------------------------------------------------------------
# independent straight-line oracle for the functional on 2D periodic grids
# ---------------------------------------------------------------------------

def oracle_functional_2d_periodic(grid, u, p, w, r, nu):
    """Brute-force J: own stencils and quadrature on raw value arrays."""
    h0 = grid.extents[0] / grid.nodes[0]
    h1 = grid.extents[1] / grid.nodes[1]
    dt = grid.dt
    T = grid.time_nodes

    def dx(f):
        return (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * h0)

    def dy(f):
        return (np.roll(f, -1, 1) - np.roll(f, 1, 1)) / (2 * h1)

    def dtime(f):
        out = np.empty_like(f)
        out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * dt)
        out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * dt)
        out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * dt)
        return out

    def half(u, p, w, r):
        du = [[dx(u[0]), dy(u[0])], [dx(u[1]), dy(u[1])]]
        dw = [[dx(w[0]), dy(w[0])], [dx(w[1]), dy(w[1])]]
        dens = nu / 2 * sum(du[i][j] ** 2 for i in range(2) for j in range(2))
        dens = dens + 0.5 * sum((w[i] + u[i]) * u[j] * dw[i][j]
                                for i in range(2) for j in range(2))
        dens = dens + u[0] * dx(p) + u[1] * dy(p)
        dens = dens + 0.5 * (u[0] * dtime(w[0]) + u[1] * dtime(w[1]))
        return dens

    dens = half(u, p, w, r) - half(w, r, u, p)
    tw = np.full(T, dt)
    tw[0] = tw[-1] = dt / 2
    return float(np.sum(dens * tw) * h0 * h1)


def taylor_green_arrays(grid, nu):
    X, Y, T = grid.meshes()
    e = np.exp(-2 * nu * T)
    u = [-np.cos(X) * np.sin(Y) * e, np.sin(X) * np.cos(Y) * e]
    P = -0.25 * (np.cos(2 * X) + np.cos(2 * Y)) * e ** 2
    q = P - 0.5 * (u[0] ** 2 + u[1] ** 2)
    return u, q


def quartet_from_arrays(grid, u, p, w, r):
    mkv = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(mkv(u), ScalarField(grid, p), mkv(w), ScalarField(grid, r))


# ---------------------------------------------------------------------------
# functional evaluation
# ---------------------------------------------------------------------------

def test_zero_quartet_gives_zero():
    g = periodic_square(8, time_nodes=3, dt=0.1)
    rep = evaluate_lagrangian(FieldQuartet.zeros(g), 0.3)
    assert rep.J == 0.0


def test_swap_fixed_point_zero():
    g = periodic_square(10, time_nodes=5, dt=0.05)
    for seed in range(3):
        q = random_quartet(g, seed)
        state = FieldQuartet(q.u, q.p, q.u, q.p)
        rep = evaluate_lagrangian(state, 0.2)
        assert abs(rep.J) <= 1e-13 * rep.scale


def test_swap_antisymmetry_randomized():
    grids = [periodic_square(10, time_nodes=5, dt=0.05),
             Grid((1.0, 1.5), (9, 11), ("wall", "periodic"), 5, 0.04)]
    for g in grids:
        for seed in range(5):
            state = random_quartet(g, 10 + seed)
            J = evaluate_lagrangian(state, 0.15).J
            Js = evaluate_lagrangian(state.swapped(), 0.15).J
            assert abs(J + Js) <= 1e-12 * max(abs(J), 1e-30)


def test_breakdown_sums_to_J():
    g = periodic_square(12, time_nodes=5, dt=0.03)
    state = random_quartet(g, 3)
    rep = evaluate_lagrangian(state, 0.4)
    total = rep.viscous + rep.advective + rep.pressure + rep.temporal
    assert abs(total - rep.J) <= 1e-12 * max(1.0, rep.scale)
    tw = g.time_weights()
    assert abs(float(np.dot(tw, rep.slice_values)) - rep.J) <= 1e-13 * max(1.0, rep.scale)


def test_dual_implementation_oracle_taylor_green():
    nu = 0.1
    g = periodic_square(32, time_nodes=9, dt=0.01)
    u, q = taylor_green_arrays(g, nu)
    state = quartet_from_arrays(g, u, q, [np.zeros(g.shape)] * 2, np.zeros(g.shape))
    J_lib = evaluate_lagrangian(state, nu).J
    J_ref = oracle_functional_2d_periodic(g, u, q, [np.zeros(g.shape)] * 2,
                                          np.zeros(g.shape), nu)
    assert abs(J_lib - J_ref) <= 1e-12 * max(abs(J_ref), 1.0)


def test_dual_implementation_oracle_random():
    nu = 0.27
    g = periodic_square(12, time_nodes=5, dt=0.02)
    state = random_quartet(g, 42)
    take = lambda v: [c.values for c in v.components]
    J_ref = oracle_functional_2d_periodic(
        g, take(state.u), state.p.values, take(state.w), state.r.values, nu)
    J_lib = evaluate_lagrangian(state, nu).J
    assert abs(J_lib - J_ref) <= 1e-12 * max(abs(J_ref), 1.0)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def test_residuals_zero_state():
    g = periodic_square(8, time_nodes=3, dt=0.1)
    res = el_residuals(FieldQuartet.zeros(g), 0.5)
    assert res.max_norm() == 0.0


def test_residuals_constant_state():
    g = Grid((1.0, 1.0), (8, 8), ("wall", "wall"), 5, 0.1)
    ones = lambda c: ScalarField(g, np.full(g.shape, c))
    vec = lambda c0, c1: VectorField(g, (ones(c0), ones(c1)))
    state = FieldQuartet(vec(1.0, -2.0), ones(0.7), vec(0.4, 0.9), ones(-1.1))
    res = el_residuals(state, 0.3)
    assert res.max_norm() < 1e-12


def test_residuals_taylor_green_second_order():
    nu = 0.1
    norms = []
    for n, dt in ((16, 0.02), (32, 0.01), (64, 0.005)):
        tn = round(0.1 / dt) + 1
        g = periodic_square(n, time_nodes=tn, dt=dt)
        u, q = taylor_green_arrays(g, nu)
        state = quartet_from_arrays(g, u, q, u, q)
        norms.append(el_residuals(state, nu).max_norm())
    assert 3.2 <= norms[0] / norms[1] <= 4.8
    assert 3.2 <= norms[1] / norms[2] <= 4.8


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------

def test_variation_zero_direction():
    g = periodic_square(10, time_nodes=5, dt=0.02)
    state = random_quartet(g, 5)
    assert first_variation(state, FieldQuartet.zeros(g), 0.2) == 0.0


def test_variation_matches_central_difference():
    nu = 0.13
    g = periodic_square(12, time_nodes=5, dt=0.03)
    for seed in range(5):
        state = random_quartet(g, 100 + seed)
        direction = admissible_direction(g, 200 + seed)
        dJ = first_variation(state, direction, nu)
        scale = max(1.0, max(np.max(np.abs(c.values)) for c in state.u.components))
        eps = 1e-5 * scale
        fd = (evaluate_lagrangian(shift_state(state, direction, eps), nu).J
              - evaluate_lagrangian(shift_state(state, direction, -eps), nu).J) / (2 * eps)
        assert abs(dJ - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_variation_wall_grid_matches_central_difference():
    nu = 0.21
    g = Grid((1.0, 1.0), (9, 9), ("wall", "wall"), 5, 0.02)
    state = random_quartet(g, 7)
    direction = admissible_direction(g, 8)
    dJ = first_variation(state, direction, nu)
    eps = 1e-5
    fd = (evaluate_lagrangian(shift_state(state, direction, eps), nu).J
          - evaluate_lagrangian(shift_state(state, direction, -eps), nu).J) / (2 * eps)
    assert abs(dJ - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_variation_vanishes_where_residuals_vanish():
    # constant admissible state: every stationarity residual is identically
    # zero, so the variation must vanish to quadrature precision; the only
    # surviving piece is the O(dt^2) time-quadrature error, so it decays at
    # second order under time refinement
    tau = 0.4
    vals = []
    for tn in (5, 9, 17):
        g = periodic_square(10, time_nodes=tn, dt=tau / (tn - 1))
        ones = lambda c: ScalarField(g, np.full(g.shape, c))
        vec = lambda c0, c1: VectorField(g, (ones(c0), ones(c1)))
        state = FieldQuartet(vec(0.8, -0.3), ones(0.5), vec(0.8, -0.3), ones(-0.2))
        assert el_residuals(state, 0.3).max_norm() < 1e-13
        X, Y, T = g.meshes()
        # asymmetric end-vanishing envelope so the end-point quadrature
        # corrections do not cancel by symmetry
        env = np.sin(np.pi * T / g.tau) * np.exp(T / g.tau)
        du = [np.sin(X + Y) * np.cos(2 * np.pi * T / tau),
              np.cos(X) * np.sin(2 * np.pi * T / tau)]
        dw = [du[0] + env * (0.8 + 0.3 * np.sin(X) * np.sin(Y)),
              du[1] + env * (0.5 + 0.2 * np.cos(Y))]
        mkv = lambda arrs: VectorField(g, tuple(ScalarField(g, a) for a in arrs))
        direction = FieldQuartet(
            mkv(du), ScalarField(g, np.sin(X) * np.cos(T)),
            mkv(dw), ScalarField(g, np.cos(Y) * np.sin(T)))
        vals.append(abs(first_variation(state, direction, 0.3)))
    assert vals[2] < vals[0]
    assert 3.0 <= vals[0] / vals[1] <= 5.5
    assert 3.0 <= vals[1] / vals[2] <= 5.5


def test_variation_small_at_solution_state():
    # a state that satisfies the stationarity system up to discretization
    # gives a variation at the discretization level; a far-from-solution
    # state gives an order-one variation for the same direction
    nu = 0.1
    vals = []
    for n, dt in ((16, 0.02), (32, 0.01)):
        g = periodic_square(n, time_nodes=round(0.08 / dt) + 1, dt=dt)
        u, q = taylor_green_arrays(g, nu)
        state = quartet_from_arrays(g, u, q, u, q)
        direction = admissible_direction(g, 404)
        vals.append(abs(first_variation(state, direction, nu)))
    assert 3.0 <= vals[0] / vals[1] <= 6.0   # shrinks at discretization order

    g = periodic_square(16, time_nodes=5, dt=0.02)
    far = random_quartet(g, 405)
    direction = admissible_direction(g, 404)
    assert abs(first_variation(far, direction, nu)) > 10 * vals[0]


def test_variation_admissibility_enforced():
    g = Grid((1.0, 1.0), (8, 8), ("wall", "wall"), 5, 0.05)
    state = random_quartet(g, 1)
    bad = random_quartet(g, 2, wall_safe=False)  # u directions nonzero on walls
    with pytest.raises(AdmissibilityError):
        first_variation(state, bad, 0.1)
    # time-end mismatch
    gp = periodic_square(8, time_nodes=5, dt=0.05)
    state = random_quartet(gp, 3)
    rng = np.random.default_rng(4)
    du = [smooth_scalar(rng, gp) for _ in range(2)]
    dw = [du[i] + 1.0 for i in range(2)]
    mkv = lambda arrs: VectorField(gp, tuple(ScalarField(gp, a) for a in arrs))
    bad = FieldQuartet(mkv(du), ScalarField.zeros(gp), mkv(dw), ScalarField.zeros(gp))
    with pytest.raises(AdmissibilityError):
        first_variation(state, bad, 0.1)


# ---------------------------------------------------------------------------
# difference fields
# ---------------------------------------------------------------------------

def test_difference_fields_trivials():
    g = periodic_square(8, time_nodes=3, dt=0.1)
    q = random_quartet(g, 9)
    same = FieldQuartet(q.u, q.p, q.u, q.p)
    vb, Dv, _ = _difference_and_sum(same)
    assert all(np.max(np.abs(c)) == 0.0 for c in vb)
    assert all(np.max(np.abs(c)) == 0.0 for row in Dv for c in row)

    z = FieldQuartet(q.u, q.p, VectorField.zeros(g), ScalarField.zeros(g))
    vb, Dv, Dg = _difference_and_sum(z)
    for i in range(2):
        assert np.allclose(vb[i], q.u[i].values / 2, atol=0)
        # the gradients of u/2 and of u + 0 = u: a power-of-two scaling
        assert all(np.array_equal(2 * Dv[i][j], Dg[i][j]) for j in range(2))

    vb = _difference_and_sum(q)[0]
    for i in range(2):
        recon = (q.u[i].values + q.w[i].values) / 2 + vb[i]
        assert np.max(np.abs(recon - q.u[i].values)) < 1e-14


# ---------------------------------------------------------------------------
# deformation eigenvalue
# ---------------------------------------------------------------------------

def gradient_tensor(v):
    """G[i][j] = d_j v_i by the stencil kernels."""
    D = _gradients(v.grid, np.stack([c.values for c in v.components]))
    return [[Dj[i] for Dj in D] for i in range(v.grid.dim)]


def test_deformation_eigenvalue_linear_2d():
    # field (a x + b y, c x + d y): sym-grad = [[a, (b+c)/2], [(b+c)/2, d]]
    a, b, c, d = 0.4, -1.2, 0.6, -0.1
    g = Grid((1.0, 1.0), (9, 9), ("wall", "wall"))
    v = vector_from_functions(
        g, [lambda x, y, t: a * x + b * y, lambda x, y, t: c * x + d * y])
    lam = deformation_eigenvalue(gradient_tensor(v))
    M = np.array([[a, (b + c) / 2], [(b + c) / 2, d]])
    assert lam == pytest.approx(np.linalg.eigvalsh(M)[-1], abs=1e-10)


def test_deformation_eigenvalue_linear_3d():
    coeffs = np.array([[0.3, -0.5, 0.2], [0.1, -0.4, 0.7], [-0.2, 0.6, 0.1]])
    g = Grid((1.0, 1.0, 1.0), (5, 6, 7), ("wall",) * 3)
    fns = [lambda x, y, z, t, r=row: r[0] * x + r[1] * y + r[2] * z
           for row in coeffs]
    v = vector_from_functions(g, fns)
    lam = deformation_eigenvalue(gradient_tensor(v))
    M = (coeffs + coeffs.T) / 2
    assert lam == pytest.approx(np.linalg.eigvalsh(M)[-1], abs=1e-9)


# ---------------------------------------------------------------------------
# energy series
# ---------------------------------------------------------------------------

def test_energy_zero_for_matched_fields():
    g = periodic_square(10, time_nodes=5, dt=0.05)
    q = random_quartet(g, 11)
    state = FieldQuartet(q.u, q.p, q.u, q.r)
    series = energy_series(state, 0.2)
    assert np.max(series.E) == 0.0
    assert np.max(np.abs(series.rhs)) == 0.0
    assert np.isfinite(series.m)


def test_energy_constant_forcing_reduces_to_viscous_term():
    # u + w constant: the production term vanishes node-wise, so rhs is the
    # pure viscous integral; compare against a straight-line quadrature
    nu = 0.35
    g = periodic_square(16, time_nodes=5, dt=0.02)
    rng = np.random.default_rng(12)
    vb = [smooth_scalar(rng, g) for _ in range(2)]
    cvec = [0.7, -0.4]
    u = [cvec[i] / 2 + vb[i] for i in range(2)]
    w = [cvec[i] / 2 - vb[i] for i in range(2)]
    state = quartet_from_arrays(g, u, np.zeros(g.shape), w, np.zeros(g.shape))
    series = energy_series(state, nu)

    h = g.spacing(0)
    ref = np.zeros(g.time_nodes)
    for comp in vb:
        for ax in (0, 1):
            d = (np.roll(comp, -1, ax) - np.roll(comp, 1, ax)) / (2 * h)
            ref += 2 * nu * np.sum(d ** 2, axis=(0, 1)) * h * h
    assert np.max(np.abs(series.rhs - ref)) <= 1e-12 * max(1.0, np.max(ref))
    assert series.m == pytest.approx(0.0, abs=1e-12)


def _compatible_manufactured_state(g, sigma, nu, kappa):
    X, Y, T = g.meshes()
    e = np.exp(sigma * T)
    # vbar = e^{sigma t} curl(sin x sin y + 0.3 sin(2x + y))
    vb = [(np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * X + Y)) * e,
          -(np.cos(X) * np.sin(Y) + 0.6 * np.cos(2 * X + Y)) * e]
    # forcing = kappa curl(cos x sin 2y + 0.2 sin(x + 2y))
    gg = [(2 * np.cos(X) * np.cos(2 * Y) + 0.4 * np.cos(X + 2 * Y)) * kappa + 0 * T,
          (np.sin(X) * np.sin(2 * Y) - 0.2 * np.cos(X + 2 * Y)) * kappa + 0 * T]
    u = [gg[i] / 2 + vb[i] for i in range(2)]
    w = [gg[i] / 2 - vb[i] for i in range(2)]
    return quartet_from_arrays(g, u, np.zeros(g.shape), w, np.zeros(g.shape))


def manufactured_kappa(sigma, nu):
    """Spectral-exact oracle for the compatibility amplitude."""
    N = 128
    h = 2 * np.pi / N
    x = np.arange(N) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    k = np.fft.fftfreq(N, d=h) * 2 * np.pi
    ddx = lambda f: np.real(np.fft.ifft(1j * k[:, None] * np.fft.fft(f, axis=0), axis=0))
    ddy = lambda f: np.real(np.fft.ifft(1j * k[None, :] * np.fft.fft(f, axis=1), axis=1))
    phi = [np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * X + Y),
           -(np.cos(X) * np.sin(Y) + 0.6 * np.cos(2 * X + Y))]
    psi = [2 * np.cos(X) * np.cos(2 * Y) + 0.4 * np.cos(X + 2 * Y),
           np.sin(X) * np.sin(2 * Y) - 0.2 * np.cos(X + 2 * Y)]
    W = h * h
    nphi2 = sum(np.sum(c * c) for c in phi) * W
    ngphi2 = sum(np.sum(ddx(c) ** 2) + np.sum(ddy(c) ** 2) for c in phi) * W
    dpsi = [[ddx(psi[0]), ddx(psi[1])], [ddy(psi[0]), ddy(psi[1])]]
    c = sum(np.sum(phi[i] * phi[j] * dpsi[i][j])
            for i in range(2) for j in range(2)) * W
    return (2 * nu * ngphi2 - 2 * sigma * nphi2) / c


def test_energy_identity_second_order():
    sigma, nu = 0.3, 0.2
    kappa = manufactured_kappa(sigma, nu)
    errs = []
    for n, dt in ((16, 0.02), (32, 0.01), (64, 0.005)):
        tn = round(0.08 / dt) + 1
        g = periodic_square(n, time_nodes=tn, dt=dt)
        state = _compatible_manufactured_state(g, sigma, nu, kappa)
        series = energy_series(state, nu)
        errs.append(np.max(series.identity_mismatch))
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_energy_wall_precondition():
    g = Grid((1.0, 1.0), (8, 8), ("wall", "wall"), 5, 0.02)
    state = random_quartet(g, 13, wall_safe=False)
    with pytest.raises(ValueError, match="wall"):
        energy_series(state, 0.1)


# ---------------------------------------------------------------------------
# Gronwall audit
# ---------------------------------------------------------------------------

def test_gronwall_zero_energy():
    g = periodic_square(8, time_nodes=5, dt=0.05)
    q = random_quartet(g, 14)
    state = FieldQuartet(q.u, q.p, q.u, q.r)
    audit = gronwall_audit(energy_series(state, 0.2))
    assert audit.pointwise_ok
    assert audit.min_forward_difference == 0.0


def test_gronwall_constant_forcing_nonnegative_rhs():
    nu = 0.4
    g = periodic_square(12, time_nodes=5, dt=0.02)
    rng = np.random.default_rng(15)
    vb = [smooth_scalar(rng, g) for _ in range(2)]
    u = [vb[i] for i in range(2)]
    w = [-vb[i] for i in range(2)]
    state = quartet_from_arrays(g, u, np.zeros(g.shape), w, np.zeros(g.shape))
    series = energy_series(state, nu)
    assert np.min(series.rhs) >= 0.0
    assert gronwall_audit(series).pointwise_ok


def test_gronwall_randomized_pointwise_inequality():
    for seed in range(10):
        g = periodic_square(10, time_nodes=5, dt=0.03)
        state = random_quartet(g, 500 + seed)
        audit = gronwall_audit(energy_series(state, 0.15))
        assert audit.pointwise_ok


# ---------------------------------------------------------------------------
# dimension coverage: the density machinery is dimension-generic
# ---------------------------------------------------------------------------

def test_functional_1d_and_3d_antisymmetry():
    g1 = Grid((1.0,), (12,), ("wall",), 5, 0.02)
    g3 = Grid((1.0, 1.0, 1.0), (5, 6, 7), ("wall", "periodic", "wall"), 3, 0.05)
    for g in (g1, g3):
        for seed in range(2):
            state = random_quartet(g, 700 + seed)
            rep = evaluate_lagrangian(state, 0.2)
            swap = evaluate_lagrangian(state.swapped(), 0.2)
            assert abs(rep.J + swap.J) <= 1e-12 * max(abs(rep.J), 1e-30)
            fixed = FieldQuartet(state.u, state.p, state.u, state.p)
            assert abs(evaluate_lagrangian(fixed, 0.2).J) == 0.0
            res = el_residuals(state, 0.2)
            assert np.isfinite(res.max_norm())

import numpy as np
import pytest

from varns.grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _laplacian,
    periodic_square,
)
from varns.lagrangian import el_residuals, evaluate_lagrangian
from varns.scenarios import random_quartet
from varns import solver
from varns.solver import (
    ConvergenceError,
    SolveConfig,
    StagnationError,
    kinetic_energy_series,
    march_reduced,
    newton_dual,
    steady_solve,
    taylor_green,
    u_w_gap,
)
from varns.steady import uniqueness_certificate

from conftest import (
    abc_flow,
    divergence,
    gradient,
    lu_step,
    operator_matrix,
    periodic_box,
    steady_jacobian,
)


def tg_velocity(grid, nu):
    """Independent sampling of the decaying-vortex velocity."""
    X, Y, T = grid.meshes()
    e = np.exp(-2 * nu * T)
    return [-np.cos(X) * np.sin(Y) * e, np.sin(X) * np.cos(Y) * e]


def mkv(grid, arrs):
    return VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))


# ---------------------------------------------------------------------------
# decaying-vortex oracle
# ---------------------------------------------------------------------------

def test_taylor_green_values_and_structure():
    g = periodic_square(16, time_nodes=5, dt=0.02)
    q = taylor_green(0.3, g)
    assert q.u[0].values[0, 0, 0] == 0.0
    assert q.u[1].values[0, 0, 0] == 0.0
    ref = tg_velocity(g, 0.3)
    for i in range(2):
        assert np.max(np.abs(q.u[i].values - ref[i])) < 1e-14
        assert np.array_equal(q.u[i].values, q.w[i].values)
    assert np.array_equal(q.p.values, q.r.values)


def test_taylor_green_discretely_solenoidal():
    g = periodic_square(24, time_nodes=3, dt=0.05)
    q = taylor_green(0.1, g)
    assert np.max(np.abs(divergence(q.u).values)) < 1e-12


def test_taylor_green_el_residual_second_order():
    errs = []
    for n, dt in ((16, 0.02), (32, 0.01)):
        g = periodic_square(n, time_nodes=round(0.08 / dt) + 1, dt=dt)
        errs.append(el_residuals(taylor_green(0.2, g), 0.2).max_norm())
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_taylor_green_needs_periodic_2pi():
    with pytest.raises(ValueError):
        taylor_green(0.1, Grid((1.0, 1.0), (8, 8), ("periodic", "periodic")))
    with pytest.raises(ValueError):
        taylor_green(0.1, Grid((2 * np.pi, 2 * np.pi), (8, 8), ("wall", "wall")))


# ---------------------------------------------------------------------------
# reduced marcher
# ---------------------------------------------------------------------------

def test_march_zero_initial_stays_zero():
    g = periodic_square(8, time_nodes=5, dt=0.02)
    traj = march_reduced(VectorField.zeros(g), SolveConfig(nu=0.5), g)
    assert traj.converged
    for c in traj.state.u.components:
        assert np.max(np.abs(c.values)) == 0.0


def test_march_requires_divergence_free_initial():
    g = periodic_square(8, time_nodes=5, dt=0.02)
    X, Y, T = g.meshes()
    bad = mkv(g, [np.sin(X), 0 * X])
    with pytest.raises(ValueError, match="divergence"):
        march_reduced(bad, SolveConfig(nu=0.5), g)


def test_march_taylor_green_accuracy_and_order():
    nu = 0.1
    errs = []
    for n, dt in ((16, 0.04), (32, 0.02), (64, 0.01)):
        tn = round(0.4 / dt) + 1
        g = periodic_square(n, time_nodes=tn, dt=dt)
        exact = tg_velocity(g, nu)
        traj = march_reduced(mkv(g, exact), SolveConfig(nu=nu), g)
        num = np.sqrt(sum(np.sum((traj.state.u[i].values[..., -1]
                                  - exact[i][..., -1]) ** 2) for i in range(2)))
        den = np.sqrt(sum(np.sum(exact[i][..., -1] ** 2) for i in range(2)))
        errs.append(num / den)
        # incompressibility held at every level
        assert np.max(np.abs(divergence(traj.state.u).values)) < 1e-11
        # stationary structure: w = u and r = p
        for i in range(2):
            assert np.array_equal(traj.state.u[i].values, traj.state.w[i].values)
        assert np.array_equal(traj.state.p.values, traj.state.r.values)
    # error constant pinned by this sweep: rel err <= 0.01 (h^2 + dt^2)
    for (n, dt), e in zip(((16, 0.04), (32, 0.02), (64, 0.01)), errs):
        h = 2 * np.pi / n
        assert e <= 0.01 * (h ** 2 + dt ** 2)
    ratio0, ratio1 = errs[0] / errs[1], errs[1] / errs[2]
    band = (2 ** 1.7, 2 ** 2.3)
    assert band[0] <= ratio0 <= band[1]
    assert band[0] <= ratio1 <= band[1]


def test_march_kinetic_energy_decay():
    nu = 0.1
    g = periodic_square(32, time_nodes=26, dt=0.02)
    exact = tg_velocity(g, nu)
    traj = march_reduced(mkv(g, exact), SolveConfig(nu=nu), g)
    ke = kinetic_energy_series(traj)
    rate = np.log(ke[0] / ke[-1]) / (4 * nu * g.tau)
    assert abs(rate - 1.0) <= 0.15


# ---------------------------------------------------------------------------
# monolithic Newton solve
# ---------------------------------------------------------------------------

def acceptance_grid():
    return periodic_square(8, time_nodes=6, dt=0.02)


def test_newton_oracle_seed_converges_fast():
    g = acceptance_grid()
    nu = 0.5
    seed = taylor_green(nu, g)
    traj = newton_dual(seed, seed.u, SolveConfig(nu=nu), g)
    assert traj.converged
    assert len(traj.residuals) - 1 <= 2
    assert u_w_gap(traj.state) <= 1e-8


def test_newton_perturbed_seed_uniqueness_contract():
    g = acceptance_grid()
    nu = 0.5
    tg = taylor_green(nu, g)
    X, Y, T = g.meshes()
    pert = 1 + 0.1 * np.cos(X) * np.cos(Y)
    w = mkv(g, [c.values * pert for c in tg.u.components])
    seed = FieldQuartet(tg.u, tg.p, w, tg.r)
    traj = newton_dual(seed, tg.u, SolveConfig(nu=nu, max_newton=25), g)
    assert traj.converged
    assert len(traj.residuals) - 1 <= 25
    gap = u_w_gap(traj.state)
    rep = evaluate_lagrangian(traj.state, nu)
    assert gap <= 1e-8
    assert abs(rep.J) <= 1e-10 * rep.scale
    # accepted damped steps strictly decrease the residual norm
    assert np.all(np.diff(traj.residuals) < 0)


def test_newton_zero_data_zero_solution():
    g = acceptance_grid()
    seed = FieldQuartet.zeros(g)
    traj = newton_dual(seed, None, SolveConfig(nu=0.5), g)
    assert traj.converged
    for c in (*traj.state.u.components, *traj.state.w.components):
        assert np.max(np.abs(c.values)) < 1e-12


def test_newton_residuals_match_library_stencils():
    # the imposed rows of the converged state vanish when recomputed with the
    # library operators (same stencils, same advection form)
    g = acceptance_grid()
    nu = 0.5
    seed = taylor_green(nu, g)
    traj = newton_dual(seed, seed.u, SolveConfig(nu=nu), g)
    res = el_residuals(traj.state, nu)
    T = g.time_nodes
    tol = 1e-7
    for i in range(2):
        assert np.max(np.abs(res.res_u[i].values[..., 1:T])) < tol
        assert np.max(np.abs(res.res_w[i].values[..., 1:T - 1])) < tol
    assert np.max(np.abs(res.res_div_u.values[..., 1:T])) < tol
    assert np.max(np.abs(res.res_div_w.values[..., 1:T - 1])) < tol


def test_newton_continuation_ladder_runs():
    g = acceptance_grid()
    nu = 0.5
    tg = taylor_green(nu, g)
    traj = newton_dual(tg, tg.u, SolveConfig(nu=nu, continuation_steps=3), g)
    assert traj.converged
    assert u_w_gap(traj.state) <= 1e-8


# the memory estimate: 64^2 x 33 needs 0.91 GB, 128^2 x 17 1.49 GB; whole runs with
# the guard lifted peaked at 0.89 GB (64^2 x 33, --perturb-w 0.3 --nu 0.05) and 0.67
# GB (128^2 x 17). The guard must fire before any assembly
@pytest.mark.parametrize("n, time_nodes", [(64, 33), (128, 17)])
def test_newton_rejects_oversized_problem(n, time_nodes):
    g = periodic_square(n, time_nodes=time_nodes, dt=0.01)
    with pytest.raises(ValueError, match="too large"):
        newton_dual(FieldQuartet.zeros(g), None, SolveConfig(nu=0.5), g)


class _Assembled(Exception):
    pass


# 16^2 x 9 (about 10 MB), the CLI default 32^2 x 9 (about 43 MB), 64^2 x 17 (about
# 0.38 GB) and 64^2 x 24 (about 0.59 GB) pass the guard; the assembly is replaced,
# so no system is built or solved
@pytest.mark.parametrize("n, time_nodes", [(16, 9), (32, 9), (64, 17), (64, 24)])
def test_newton_guard_accepts_desk_scale_grids(n, time_nodes, monkeypatch):
    def assembled(*args):
        raise _Assembled
    monkeypatch.setattr(solver, "_DualNewtonSystem", assembled)
    g = periodic_square(n, time_nodes=time_nodes, dt=0.01)
    with pytest.raises(_Assembled):
        newton_dual(FieldQuartet.zeros(g), None, SolveConfig(nu=0.5), g)


# the estimate counts the inverted blocks of the rfft half and a per-unknown
# term fitted to measured peaks; computed here, no system is built or solved
@pytest.mark.parametrize("nodes, time_nodes, admitted", [
    ((16, 16, 16), 8, True), ((64, 64), 16, True), ((64, 64), 33, False)])
def test_newton_memory_estimate(nodes, time_nodes, admitted):
    need = solver._newton_dual_bytes(periodic_box(nodes, time_nodes, 0.01))
    assert (need <= solver._MAX_NEWTON_BYTES) == admitted


def test_newton_returns_the_quartet_of_its_final_iterate(monkeypatch):
    # newton_dual returns the quartet its log built of the last iterate; it must
    # be the system's to_quartet of the iterate the Newton loop returned
    finals = []

    def loop(system, *args):
        z, ok = newton_loop(system, *args)
        finals.append((system, z))
        return z, ok
    newton_loop = solver._newton_loop
    monkeypatch.setattr(solver, "_newton_loop", loop)
    g = acceptance_grid()
    traj = newton_dual(perturbed_taylor_green(g, 0.5), None, SolveConfig(nu=0.5), g)
    system, z = finals[-1]
    want = system.to_quartet(z)
    for got, ref in ((traj.state.u, want.u), (traj.state.w, want.w)):
        for a, b in zip(got.components, ref.components):
            assert a.values.tobytes() == b.values.tobytes()
    for a, b in ((traj.state.p, want.p), (traj.state.r, want.r)):
        assert a.values.tobytes() == b.values.tobytes()


def test_newton_to_quartet_reuses_the_residuals_of_the_last_iterate(monkeypatch):
    # the Newton loop evaluates each accepted iterate once: to_quartet of the array
    # the last residual call saw reuses its Euler-Lagrange residuals, with the bits
    # of a fresh evaluation; any other array is evaluated anew
    g = acceptance_grid()
    seed = perturbed_taylor_green(g, 0.5)
    data = [c.values[..., 0] for c in seed.u.components]
    z = solver._DualNewtonSystem(g, 0.5, *data).pack(seed)
    want = solver._DualNewtonSystem(g, 0.5, *data).to_quartet(z)
    calls = []
    monkeypatch.setattr(solver, "el_residuals",
                        lambda *args: calls.append(1) or el_residuals(*args))
    system = solver._DualNewtonSystem(g, 0.5, *data)
    system.residual(z)
    got = system.to_quartet(z)
    assert len(calls) == 1
    for a, b in zip((*got.u.components, *got.w.components, got.p, got.r),
                    (*want.u.components, *want.w.components, want.p, want.r)):
        assert a.values.tobytes() == b.values.tobytes()
    system.to_quartet(z.copy())
    assert len(calls) == 2


def test_newton_returns_the_functional_of_its_final_iterate(monkeypatch):
    # the report of the last logged iterate, at the target viscosity, has the bits
    # of a fresh evaluation of the returned quartet; a solve that stops on a
    # looser rung of the viscosity ladder returns none
    g, nu = acceptance_grid(), 0.5
    traj = newton_dual(perturbed_taylor_green(g, nu), None, SolveConfig(nu=nu), g)
    want = evaluate_lagrangian(traj.state, nu)
    got = traj.report
    assert [got.J, got.scale, *got.breakdown().values()] == \
        [want.J, want.scale, *want.breakdown().values()]
    assert got.slice_values.tobytes() == want.slice_values.tobytes()

    newton_loop = solver._newton_loop
    monkeypatch.setattr(solver, "_newton_loop", lambda *args: (newton_loop(*args)[0], False))
    stopped = newton_dual(perturbed_taylor_green(g, nu), None,
                          SolveConfig(nu=nu, continuation_steps=2), g)
    assert not stopped.converged and stopped.report is None


def perturbed_taylor_green(grid, nu, amp=0.1):
    """The decaying vortex with w scaled by 1 + amp cos x cos y, the seed of
    ``newton-dual --perturb-w``."""
    tg = taylor_green(nu, grid)
    X, Y, _ = grid.meshes()
    w = mkv(grid, [c.values * (1 + amp * np.cos(X) * np.cos(Y)) for c in tg.u.components])
    return FieldQuartet(tg.u, tg.p, w, tg.r)


@pytest.mark.parametrize("n, time_nodes", [(8, 6), (10, 8)])
def test_newton_krylov_step_matches_the_direct_solve(n, time_nodes):
    # sparse LU of the whole Jacobian, the operator applied to the identity, is the
    # oracle of the preconditioned GMRES step
    g = periodic_square(n, time_nodes=time_nodes, dt=0.02)
    seed = perturbed_taylor_green(g, 0.5)
    system = solver._DualNewtonSystem(g, 0.5, *(c.values[..., 0] for c in seed.u.components))
    z = system.pack(seed)
    for _ in range(2):
        F = system.residual(z)
        direct = lu_step(operator_matrix(system.jacobian(z), system.n_dof), F)
        step, _, met = system.newton_step(z, F, 1e-12)
        assert met
        assert np.linalg.norm(step - direct) <= 1e-9 * np.linalg.norm(direct)
        z = z + step


@pytest.mark.parametrize("amp, gmres", [(0.0, ((2, True), (1, True))),
                                        (0.1, ((25, True), (24, True), (10, True)))])
def test_newton_dual_records_gmres_per_step_on_the_default_grid(amp, gmres):
    # the CLI's default grid (32^2 x 9, odd T, nu 0.1), with and without --perturb-w:
    # each step asks GMRES for half the Newton stop, so no step runs GMRES to its
    # limit (asked for 1e-12 of |F| on every step, the last took 327 and 388
    # iterations, without meeting it)
    g = periodic_square(32, time_nodes=9, dt=0.0125)
    seed = perturbed_taylor_green(g, 0.1, amp)
    traj = newton_dual(seed, seed.u, SolveConfig(nu=0.1), g)
    assert traj.converged
    assert traj.gmres == gmres
    assert len(traj.residuals) == len(gmres) + 1


def _dense_system(n, seed):
    """A nonsymmetric n x n system, its right-hand side and a rough inverse of it
    (the inverse of its diagonal part plus a tenth of the rest)."""
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(1.0, 4.0, n)) + rng.normal(size=(n, n)) / np.sqrt(n)
    rough = np.linalg.inv(np.diag(np.diag(A)) + 0.1 * (A - np.diag(np.diag(A))))
    return A, rng.normal(size=n), rough


@pytest.mark.parametrize("n, restart", [(30, 60), (50, 4)], ids=["one-cycle", "restarted"])
def test_gmres_matches_a_dense_solve(n, restart):
    A, b, rough = _dense_system(n, n)
    want = np.linalg.solve(A, b)
    x, iterations, met = solver._gmres(lambda v: A @ v, b, lambda v: rough @ v, 1e-12,
                                       restart=restart, cycles=30)
    assert met
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    # restarted: more than one cycle of restart iterations
    assert (iterations > restart) == (restart < n)


def test_gmres_zero_right_hand_side_and_unmet_targets():
    A, b, rough = _dense_system(20, 7)
    x, iterations, met = solver._gmres(lambda v: A @ v, np.zeros(20), lambda v: rough @ v,
                                       1e-12)
    assert not x.any() and iterations == 0 and met
    # one cycle of two iterations cannot reach 1e-12; the partial solve is returned
    x, iterations, met = solver._gmres(lambda v: A @ v, b, lambda v: rough @ v, 1e-12,
                                       restart=2, cycles=1)
    assert iterations == 2 and not met
    assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)
    # an operator applied with errors of 1e-9 of its input cannot be solved to 1e-12,
    # whatever the Arnoldi estimate says: the target is judged on the true residual
    rng = np.random.default_rng(0)
    noisy = lambda v: A @ v + 1e-9 * np.linalg.norm(v) * rng.normal(size=len(v))
    x, iterations, met = solver._gmres(noisy, b, lambda v: rough @ v, 1e-12, cycles=2)
    assert not met


@pytest.mark.parametrize("n", [6, 8])
def test_newton_converges_at_odd_time_nodes(n):
    # at odd T the constant part is singular (the leapfrog mode of the central
    # time difference); the least-squares zero-mode block still reaches u = w
    g = periodic_square(n, time_nodes=5, dt=0.02)
    nu = 0.5
    seed = perturbed_taylor_green(g, nu)
    traj = newton_dual(seed, seed.u, SolveConfig(nu=nu), g)
    rep = evaluate_lagrangian(traj.state, nu)
    assert traj.converged
    assert u_w_gap(traj.state) <= 1e-8
    assert abs(rep.J) <= 1e-10 * rep.scale


# ---------------------------------------------------------------------------
# steady Newton solve
# ---------------------------------------------------------------------------

def steady_residuals(q, data, nu):
    """Independent recomputation of the steady discrete residual of ``q`` with
    the ``grids`` operators, P = q + |u|^2 / 2: the largest interior momentum
    residual, the largest divergence over every node that some interior
    central stencil reaches (all but the nodes on two or more wall faces) and
    the largest departure from ``data`` on wall nodes."""
    g, u = q.grid, q.u
    P = ScalarField(g, q.p.values + 0.5 * sum(c.values ** 2 for c in u.components))
    faces = np.zeros(g.shape, dtype=int)
    for a, (n, kind) in enumerate(zip(g.nodes, g.boundaries)):
        if kind == "wall":
            on_face = np.isin(np.arange(n), (0, n - 1))
            faces += on_face.reshape([n if b == a else 1 for b in range(g.dim + 1)])
    mom = max(np.abs(nu * _laplacian(g, u[i].values)
                     - sum(u[j].values * gradient(u[i], j).values for j in range(g.dim))
                     - gradient(P, i).values)[faces == 0].max() for i in range(g.dim))
    div = np.abs(divergence(u).values)[faces <= 1].max()
    wall = max(np.abs(u[i].values - data[i].values)[faces > 0].max(initial=0.0)
               for i in range(g.dim))
    return mom, div, wall


def test_steady_zero_data_zero_solution():
    g = Grid((1.0, 1.0), (12, 12), ("wall", "wall"))
    q = steady_solve(VectorField.zeros(g), SolveConfig(nu=1.0, newton_tol=1e-9), g)
    for c in q.u.components:
        assert np.max(np.abs(c.values)) < 1e-8


def test_steady_periodic_decay_to_zero():
    g = Grid((2 * np.pi, 2 * np.pi), (16, 16), ("periodic", "periodic"))
    gu = periodic_square(16, time_nodes=3, dt=0.01)
    tg = taylor_green(0.5, gu)
    init = mkv(g, [c.values[..., :1].copy() for c in tg.u.components])
    q = steady_solve(None, SolveConfig(nu=0.5, newton_tol=1e-9), g, initial=init)
    assert max(np.max(np.abs(c.values)) for c in q.u.components) < 1e-6
    for i in range(2):
        assert np.array_equal(q.u[i].values, q.w[i].values)


def test_steady_cavity_low_reynolds_certificate():
    g = Grid((1.0, 1.0), (16, 16), ("wall", "wall"))
    X, Y, _ = g.meshes()
    lid = np.where(Y >= 1.0 - 1e-12, 1.0, 0.0)
    bdata = mkv(g, [lid, 0 * lid])
    q = steady_solve(bdata, SolveConfig(nu=1.0, newton_tol=1e-8), g)
    # regression snapshot from the first verified run
    assert q.u[0].values[8, 8, 0] == pytest.approx(-0.176365, abs=2e-4)
    cert = uniqueness_certificate(q, 1.0)
    assert cert.satisfied
    assert cert.lhs == pytest.approx(2.7798, abs=2e-3)


def test_steady_stagnation_reported():
    # the cavity needs three Newton steps; a budget of one is exhausted
    g = Grid((1.0, 1.0), (12, 12), ("wall", "wall"))
    X, Y, _ = g.meshes()
    lid = np.where(Y >= 1.0 - 1e-12, 1.0, 0.0)
    bdata = mkv(g, [lid, 0 * lid])
    with pytest.raises(StagnationError) as info:
        steady_solve(bdata, SolveConfig(nu=1.0, max_newton=1), g)
    # the history keeps both residuals and the step's GMRES record
    assert len(info.value.history) == 2
    (iterations, met), = info.value.gmres
    assert iterations > 0 and met


def test_steady_mass_incompatible_data_reported():
    # inflow through the left wall and no outflow: no discretely
    # divergence-free field takes these wall values
    g = Grid((1.0, 1.0), (12, 12), ("wall", "wall"))
    inflow = np.zeros(g.shape)
    inflow[0, 1:-1] = 1.0
    bdata = mkv(g, [inflow, 0 * inflow])
    with pytest.raises(StagnationError, match="mass-compatible") as info:
        steady_solve(bdata, SolveConfig(nu=1.0), g)
    assert len(info.value.history) >= 2


#: grids with a wall axis: a cavity, a Couette channel (periodic along the wall)
#: and a 3D box
LID_GRIDS = pytest.mark.parametrize("grid", [
    Grid((1.0, 1.0), (16, 16), ("wall", "wall")),
    Grid((2 * np.pi, 1.0), (8, 9), ("periodic", "wall")),
    Grid((1.0, 1.0, 1.0), (6, 6, 6), ("wall", "wall", "wall")),
], ids=["cavity-16x16", "couette-8x9", "box-6x6x6"])


def lid_data(grid):
    """Unit velocity along the first axis on the top wall of the last axis."""
    top = np.where(grid.meshes()[grid.dim - 1] >= 1.0 - 1e-12, 1.0, 0.0)
    return mkv(grid, [top] + [0 * top] * (grid.dim - 1))


@LID_GRIDS
def test_steady_krylov_step_matches_the_direct_solve(grid):
    # sparse LU of the assembled J - shift V is the oracle of the GMRES step,
    # preconditioned by the LU of the linear part at the first step's shift
    data = np.array([c.values[..., 0].ravel() for c in lid_data(grid).components])
    system = solver._SteadyNewtonSystem(grid, 1.0, data, 0 * data)
    z, norm0 = system.z0, None
    for _ in range(2):
        F = system.residual(z)
        norm0 = norm0 or np.abs(F).max()
        shift = np.abs(F).max() / (solver._DTAU0 * norm0)
        direct = lu_step(steady_jacobian(system, z, shift), F)
        step, _, met = system.newton_step(z, F, 1e-12)
        assert met
        assert np.linalg.norm(step - direct) <= 1e-9 * np.linalg.norm(direct)
        z = z + step


@LID_GRIDS
def test_steady_solution_satisfies_the_discrete_system(grid):
    meshes, data = grid.meshes(), lid_data(grid)
    q = steady_solve(data, SolveConfig(nu=1.0, newton_tol=1e-12), grid)
    assert max(steady_residuals(q, data, 1.0)) <= 1e-8
    if grid.boundaries[0] == "periodic":
        # Couette flow: the exact discrete solution is the linear profile
        assert np.abs(q.u[0].values - meshes[1]).max() <= 1e-12
        assert np.abs(q.u[1].values).max() <= 1e-12


def test_steady_fine_cavity_meets_an_absolute_residual_bound():
    # the stopping rule is absolute: at 96^2 the lid jump makes the initial
    # residual large, and a rule relative to it would stop short of newton_tol
    g = Grid((1.0, 1.0), (96, 96), ("wall", "wall"))
    X, Y, _ = g.meshes()
    lid = np.where(Y >= 1.0 - 1e-12, 1.0, 0.0)
    data = mkv(g, [lid, 0 * lid])
    q = steady_solve(data, SolveConfig(nu=1.0, newton_tol=1e-8), g)
    assert max(steady_residuals(q, data, 1.0)) <= 1e-8


@pytest.mark.parametrize("n", [128, 256])
def test_steady_periodic_grids_beyond_a_direct_factorization(n):
    # all-periodic grids take no sparse LU, so they have no size limit
    g = Grid((2 * np.pi, 2 * np.pi), (n, n), ("periodic", "periodic"))
    X, Y, _ = g.meshes()
    init = mkv(g, [-np.cos(X) * np.sin(Y), np.sin(X) * np.cos(Y)])
    q = steady_solve(None, SolveConfig(nu=0.2), g, initial=init)
    assert max(np.abs(c.values).max() for c in q.u.components) <= 1e-10
    assert max(steady_residuals(q, VectorField.zeros(g), 0.2)) <= 1e-10


def test_steady_pseudo_time_reaches_the_rest_state_newton_misses():
    # at nu = 0.05 plain Newton from this field wanders for 25 steps; the
    # pseudo-time steps lead it to the state a time march decays to: the
    # uniform flow at the initial mean velocity
    g = Grid((2 * np.pi, 2 * np.pi), (32, 32), ("periodic", "periodic"))
    init = random_quartet(g, 2).u
    q = steady_solve(None, SolveConfig(nu=0.05), g, initial=init)
    for c, c0 in zip(q.u.components, init.components):
        assert np.abs(c.values - c0.values.mean()).max() <= 1e-8
    assert max(steady_residuals(q, VectorField.zeros(g), 0.05)) <= 1e-9


@pytest.mark.parametrize("dim, n, nu", [(2, 32, 0.01), (3, 8, 0.1)],
                         ids=["32x32-nu0.01", "8x8x8-nu0.1"])
def test_steady_continuation_converges_where_a_direct_solve_stalls(dim, n, nu):
    # from random:2 a direct solve runs out of its 25 steps on both grids
    # (residual 2.5 on 32^2, 0.33 on 8^3); the viscosity ladder converges
    g = Grid((2 * np.pi,) * dim, (n,) * dim, ("periodic",) * dim)
    init = random_quartet(g, 2).u
    q = steady_solve(None, SolveConfig(nu=nu, continuation_steps=3), g, initial=init)
    assert max(steady_residuals(q, VectorField.zeros(g), nu)) <= 1e-9


@pytest.mark.parametrize("case", ["periodic-32x32-nu0.05", "cavity-16x16-nu0.01"])
def test_steady_continuation_matches_the_direct_solve(case):
    if case.startswith("periodic"):
        g = Grid((2 * np.pi, 2 * np.pi), (32, 32), ("periodic", "periodic"))
        data, init, nu = None, random_quartet(g, 2).u, 0.05
    else:
        g = Grid((1.0, 1.0), (16, 16), ("wall", "wall"))
        lid = np.where(g.meshes()[1] >= 1.0 - 1e-12, 1.0, 0.0)
        data, init, nu = mkv(g, [lid, 0 * lid]), None, 0.01
    direct = steady_solve(data, SolveConfig(nu=nu), g, initial=init)
    ladder = steady_solve(data, SolveConfig(nu=nu, continuation_steps=3), g, initial=init)
    for a, b in zip(direct.u.components, ladder.u.components):
        assert np.abs(a.values - b.values).max() <= 1e-9


def test_viscosity_ladder_rungs():
    rungs = solver._viscosity_ladder(SolveConfig(nu=0.1, newton_tol=1e-10,
                                                 continuation_steps=5))
    # 10 nu halved: 1.0, 0.5, 0.25, 0.125; 0.0625 is below the target
    assert rungs == [(1.0, 1e-6), (0.5, 1e-6), (0.25, 1e-6), (0.125, 1e-6), (0.1, 1e-10)]
    assert solver._viscosity_ladder(SolveConfig(nu=0.1)) == [(0.1, 1e-10)]


@pytest.mark.parametrize("nodes", [(164, 164), (16, 16, 16)])
def test_steady_wall_grid_above_the_direct_solve_limit_rejected(nodes):
    g = Grid((1.0,) * len(nodes), nodes, ("wall",) * len(nodes))
    with pytest.raises(ValueError, match="too large"):
        steady_solve(VectorField.zeros(g), SolveConfig(nu=1.0), g)


def test_singular_newton_jacobian_reported(monkeypatch):
    def singular(_):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(solver.spla, "splu", singular)
    g = Grid((1.0, 1.0), (8, 8), ("wall", "wall"))
    X, Y, _ = g.meshes()
    lid = np.where(Y >= 1.0 - 1e-12, 1.0, 0.0)
    # a solver breakdown of the steady solve, not a usage error
    with pytest.raises(ConvergenceError, match="singular steady Newton Jacobian"):
        steady_solve(mkv(g, [lid, 0 * lid]), SolveConfig(nu=1.0), g)
    # newton-dual keeps its own advice when a block of its preconditioner is singular
    def singular_block(_):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "inv", singular_block)
    gu = periodic_square(6, time_nodes=4, dt=0.02)
    with pytest.raises(ConvergenceError, match="continuation_steps"):
        newton_dual(FieldQuartet.zeros(gu), taylor_green(0.5, gu).u, SolveConfig(nu=0.5), gu)


def test_steady_argument_validation():
    gp = Grid((2 * np.pi, 2 * np.pi), (8, 8), ("periodic", "periodic"))
    gw = Grid((1.0, 1.0), (8, 8), ("wall", "wall"))
    with pytest.raises(ValueError):
        steady_solve(VectorField.zeros(gp), SolveConfig(nu=1.0), gp)
    with pytest.raises(ValueError):
        steady_solve(None, SolveConfig(nu=1.0), gw)
    gu = periodic_square(8, time_nodes=3, dt=0.01)
    with pytest.raises(ValueError):
        steady_solve(None, SolveConfig(nu=1.0), gu)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(nu=0.0)
    with pytest.raises(ValueError):
        SolveConfig(nu=1.0, max_newton=0)


def test_newton_odd_resolution_single_gauge_mode():
    # odd spatial resolution: the central gradient links every node, so each
    # pressure slice has a single component and a single pin
    g = Grid((2 * np.pi, 2 * np.pi), (7, 7), ("periodic", "periodic"),
             time_nodes=4, dt=0.02)
    nu = 0.5
    tg = taylor_green(nu, g)
    traj = newton_dual(tg, tg.u, SolveConfig(nu=nu), g)
    assert traj.converged
    assert u_w_gap(traj.state) <= 1e-8


def projected_taylor_green(grid, nu):
    """The decaying vortex projected to discretely divergence-free on every slice
    (on a non-square grid the sampled vortex is not)."""
    tg = taylor_green(nu, grid)
    spec = solver._Spectral(grid)
    vel = [np.empty(grid.shape), np.empty(grid.shape)]
    for k in range(grid.time_nodes):
        vel[0][..., k], vel[1][..., k] = spec.project(
            *(c.values[..., k] for c in tg.u.components))
    vel = mkv(grid, vel)
    return FieldQuartet(vel, tg.p, vel, tg.r)


@pytest.mark.parametrize("nodes", [(8, 7), (7, 8)])
def test_newton_gauges_every_pressure_component(nodes):
    # with an even and an odd axis the pressure has two components; both need
    # a pin, or the Jacobian is singular and the solve stalls far from u = w
    g = Grid((2 * np.pi, 2 * np.pi), nodes, ("periodic", "periodic"),
             time_nodes=6, dt=0.02)
    nu = 0.5
    seed = projected_taylor_green(g, nu)
    traj = newton_dual(seed, seed.u, SolveConfig(nu=nu), g)
    rep = evaluate_lagrangian(traj.state, nu)
    assert traj.converged
    assert u_w_gap(traj.state) <= 1e-8
    assert abs(rep.J) <= 1e-10 * rep.scale


@pytest.mark.parametrize("nodes", [(8, 8), (8, 7), (7, 8), (7, 7)])
def test_newton_pressures_have_zero_mean_on_each_component(nodes):
    # the central gradient links x - e_a to x + e_a, so along an even axis the
    # node parity splits the pressure into components; along an odd one it does not
    g = Grid((2 * np.pi, 2 * np.pi), nodes, ("periodic", "periodic"),
             time_nodes=5, dt=0.02)
    rng = np.random.default_rng(3)
    system = solver._DualNewtonSystem(g, 0.5, *rng.normal(size=(2, *nodes)))
    q = system.to_quartet(rng.normal(size=system.n_dof))
    i, j = np.indices(nodes)
    even = [n % 2 == 0 for n in nodes]
    component = (2 * even[0] * (i % 2) + even[1] * (j % 2)).ravel()
    for scal in (q.p, q.r):
        for k in range(g.time_nodes):
            sums = np.bincount(component, scal.values[..., k].ravel())
            assert np.abs(sums).max() <= 1e-12 * np.abs(scal.values).sum()


@pytest.mark.parametrize("nodes", [(8, 7), (5, 4, 6)])
def test_spectral_projection_leaves_a_central_divergence_at_roundoff(nodes):
    g = periodic_box(nodes)
    v = np.random.default_rng(5).normal(size=(len(nodes), *nodes))
    projected = solver._Spectral(g).project(*v)
    div = divergence(mkv(g, [c[..., None] for c in projected])).values
    assert np.abs(div).max() <= 1e-13 * np.abs(v).max()


# ---------------------------------------------------------------------------
# 3D: the decaying ABC flow, an exact solution (tests/conftest.py)
# ---------------------------------------------------------------------------

def test_abc_el_residual_second_order():
    nu, norms = 0.1, []
    for n in (8, 16):
        exact = abc_flow(periodic_box((n,) * 3, 5, 0.4 / n), nu)
        norms.append(el_residuals(exact, nu).max_norm())
    assert norms[0] <= 1e-2
    assert 3.2 <= norms[0] / norms[1] <= 4.8


def velocity_error(state, exact):
    return max(np.abs(a.values - b.values).max()
               for a, b in zip(state.u.components, exact.u.components))


def test_march_abc_error_falls_at_second_order():
    nu, errs = 0.1, []
    for n in (8, 16):
        g = periodic_box((n,) * 3, 5, 0.4 / n)
        exact = abc_flow(g, nu)
        traj = march_reduced(exact.u, SolveConfig(nu=nu), g)
        errs.append(velocity_error(traj.state, exact))
        assert np.max(np.abs(divergence(traj.state.u).values)) < 1e-11
    # 1.8e-3 at 8^3, 2.3e-4 at 16^3
    assert errs[0] <= 5e-3
    assert errs[0] / errs[1] >= 4


def test_newton_abc_meets_the_uniqueness_contract_at_second_order():
    # even T only: at odd T the leapfrog mode of the central time difference
    # stalls GMRES (8^3 x 5 takes ten times as long as 8^3 x 4)
    nu, errs = 0.1, []
    for n in (8, 12):
        g = periodic_box((n,) * 3, 4, 0.05)
        exact = abc_flow(g, nu)
        x, y = g.open_meshes()[:2]
        w = mkv(g, [c.values * (1 + 0.1 * np.cos(x) * np.cos(y)) for c in exact.u.components])
        traj = newton_dual(FieldQuartet(exact.u, exact.p, w, exact.r), exact.u,
                           SolveConfig(nu=nu), g)
        rep = evaluate_lagrangian(traj.state, nu)
        assert traj.converged
        assert u_w_gap(traj.state) <= 1e-8
        assert abs(rep.J) <= 1e-10 * rep.scale
        errs.append(velocity_error(traj.state, exact))
    # 1.34e-3 at 8^3, 6.0e-4 at 12^3: (12 / 8)^2 = 2.25
    assert errs[0] / errs[1] >= 1.8

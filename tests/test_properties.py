"""Property tests: the structural identities of the dual functional hold to
the bit, not merely to a tolerance, on random fields over 1D-3D grids with
periodic, wall and mixed axes.

The density is coded as the difference of two halves evaluated on swapped
arguments, so interchanging (u, p) with (w, r) negates every node value
exactly and the u = w, p = r configuration gives exactly zero.
"""

import copy
import functools
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varns import cli, lagrangian, reports, scenarios, solver
from varns.grids import (PERIODIC, WALL, FieldQuartet, Grid, ScalarField, VectorField,
                         _d1, _d2, _stencil_matrices, _stencil_matrix, _wall_boundary_mask)
from varns.lagrangian import el_residuals, evaluate_lagrangian, first_variation
from varns.scenarios import taylor_green
from varns.solver import _DualNewtonSystem, _SteadyNewtonSystem

from conftest import (block_linear_part, complex_block_preconditioner, full_time_matrices,
                      operator_matrix, periodic_box, roll_d1, roll_d2, steady_jacobian)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


@st.composite
def grids(draw, steady=False):
    dim = draw(st.integers(1, 3))
    top = 6 if dim < 3 else 4
    nodes = tuple(draw(st.integers(3, top)) for _ in range(dim))
    kinds = tuple(draw(st.sampled_from((PERIODIC, WALL))) for _ in range(dim))
    extents = tuple(draw(st.sampled_from((1.0, 2.5, 2 * np.pi))) for _ in range(dim))
    if steady:
        return Grid(extents, nodes, kinds)
    return Grid(extents, nodes, kinds, draw(st.integers(3, 5)), 0.03)


def _quartet(grid, arrays):
    d = grid.dim
    vec = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(vec(arrays[:d]), ScalarField(grid, arrays[d]),
                        vec(arrays[d + 1:2 * d + 1]), ScalarField(grid, arrays[2 * d + 1]))


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    return _quartet(grid, [rng.normal(size=grid.shape) for _ in range(2 * grid.dim + 2)])


def admissible_direction(grid, seed):
    """Random direction: velocity parts vanish on walls, dp = dr on walls, and
    du = dw at both end time slices."""
    rng = np.random.default_rng(seed)
    wall = _wall_boundary_mask(grid)
    d = grid.dim
    du = [np.where(wall, 0.0, rng.normal(size=grid.shape)) for _ in range(d)]
    dw = [np.where(wall, 0.0, rng.normal(size=grid.shape)) for _ in range(d)]
    for a, b in zip(du, dw):
        b[..., 0], b[..., -1] = a[..., 0], a[..., -1]
    dp = rng.normal(size=grid.shape)
    dr = np.where(wall, dp, rng.normal(size=grid.shape))
    return _quartet(grid, [*du, dp, *dw, dr])


seeds = st.integers(0, 2 ** 32 - 1)


@PROPERTY_SETTINGS
@given(grid=grids(), seed=seeds, nu=st.sampled_from((0.0, 0.1, 1.3)))
def test_swap_negates_functional_exactly(grid, seed, nu):
    s = random_state(grid, seed)
    assert evaluate_lagrangian(s.swapped(), nu).J == -evaluate_lagrangian(s, nu).J


@PROPERTY_SETTINGS
@given(grid=grids(), seed=seeds, nu=st.sampled_from((0.0, 0.1, 1.3)))
def test_functional_is_exactly_zero_on_the_diagonal(grid, seed, nu):
    s = random_state(grid, seed)
    assert evaluate_lagrangian(FieldQuartet(s.u, s.p, s.u, s.p), nu).J == 0.0


@PROPERTY_SETTINGS
@given(grid=grids(), seed=seeds, nu=st.sampled_from((0.0, 0.1, 1.3)))
def test_swap_negates_first_variation_exactly(grid, seed, nu):
    s = random_state(grid, seed)
    d = admissible_direction(grid, seed + 1)
    assert first_variation(s.swapped(), d.swapped(), nu) == -first_variation(s, d, nu)


@PROPERTY_SETTINGS
@given(grid=grids(steady=True), seed=seeds, nu=st.sampled_from((0.0, 0.1, 1.3)))
def test_steady_functional_swap_sums_to_zero(grid, seed, nu):
    s = random_state(grid, seed)
    assert evaluate_lagrangian(s, nu).J + evaluate_lagrangian(s.swapped(), nu).J == 0.0


@st.composite
def newton_boxes(draw):
    """2D boxes of 5-9 nodes per axis at T = 4, 5 or 6, 3D boxes of 4-5 at T = 4 or 6."""
    if draw(st.booleans()):
        return periodic_box(tuple(draw(st.integers(4, 5)) for _ in range(3)),
                            draw(st.sampled_from((4, 6))), 0.02)
    return periodic_box((draw(st.integers(5, 9)), draw(st.integers(5, 9))),
                        draw(st.sampled_from((4, 5, 6))), 0.02)


@PROPERTY_SETTINGS
@given(grid=newton_boxes(), seed=seeds)
def test_newton_jacobian_is_the_exact_derivative_of_the_residual(grid, seed):
    """The stationarity residual is quadratic in the unknowns, so the central
    difference has no truncation error and equals J(z) v up to roundoff."""
    rng = np.random.default_rng(seed)
    system = _DualNewtonSystem(grid, 0.3, *rng.normal(size=(grid.dim, *grid.nodes)))
    z, v = rng.normal(size=(2, system.n_dof))
    eps = 0.5
    fd = (system.residual(z + eps * v) - system.residual(z - eps * v)) / (2 * eps)
    jv = system.jacobian(z)(v)
    assert np.linalg.norm(fd - jv) <= 1e-9 * np.linalg.norm(jv)


@PROPERTY_SETTINGS
@given(grid=grids(steady=True))
@example(grid=Grid((1.0,), (3,), (WALL,)))
@example(grid=Grid((1.0, 1.0), (3, 4), (PERIODIC, WALL)))
@example(grid=Grid((1.0, 1.0), (6, 7), (PERIODIC, PERIODIC)))
@example(grid=Grid((1.0, 1.0, 1.0), (4, 3, 5), (WALL, PERIODIC, PERIODIC)))
def test_pressure_components_match_scipy_connected_components(grid):
    """The components of the interior central-gradient graph are csgraph's: the
    same labels, first nodes and counts, so that the pin rows and the order of the
    multipliers stay."""
    from scipy.sparse.csgraph import connected_components
    interior = ~_wall_boundary_mask(grid)[..., 0].ravel()
    stencils = sp.vstack([abs(D[interior]) for D in _stencil_matrices(grid)[0]])
    _, labels = connected_components(stencils.T @ stencils, directed=False)
    got = solver._Components(grid.nodes, interior)
    assert np.array_equal(got.labels, labels)
    assert np.array_equal(got.first, np.unique(labels, return_index=True)[1])
    assert np.array_equal(got.counts, np.bincount(labels))


# ---------------------------------------------------------------------------
# the matrix-free Newton operator against its sparse Kronecker assembly: the
# space-time matrices L = sum_k A_k (x) B_k and J(z) = L + N(z), built from the
# same time matrices, stencil matrices and gauge as the operator
# ---------------------------------------------------------------------------

def _linear_part(system):
    """L, the Jacobian at z = 0, where the advection linearization vanishes."""
    return system.jacobian(np.zeros(system.n_dof))


def _kron_linear_part(system):
    S = system.S
    DX, LAP = _stencil_matrices(system.grid)
    A = full_time_matrices(system)
    L0 = sum(sp.kron(a, b, format="csr") for a, b in zip(A, (sp.identity(S), LAP, *DX)))
    pinned = np.zeros((len(A[0]), S))
    pinned[system.velocities:, system.gauge.first] = 1.0
    return (sp.diags(1.0 - pinned.ravel()) @ L0 + sp.diags(pinned.ravel())).tocsr()


def _kron_advection(DX, a, b, m):
    """Advection linearization of the momentum rows of ``a`` (masked by ``m``):
    per component row, blocks on the columns of a, then of b."""
    d = len(a)
    s = [sp.diags(m * (-0.5 * (a[j] + b[j]))) for j in range(d)]
    both = sum(s[j] @ DX[j] for j in range(d))
    rows = []
    for i in range(d):
        dia = [sp.diags(m * (-0.5 * (DX[j] @ b[i] + DX[i] @ b[j]))) for j in range(d)]
        partner = [dia[j] + s[j] @ DX[i] for j in range(d)]
        partner[i] = partner[i] + both
        rows.append(dia + partner)
    return rows


def _kron_jacobian(system, z):
    d, S, T = system.grid.dim, system.S, system.T
    DX = [sp.kron(sp.identity(T), D, format="csr") for D in _stencil_matrices(system.grid)[0]]
    first, last = np.eye(T)[[0, -1]]
    u, w, _, _ = system.unpack(z)
    rows_u = _kron_advection(DX, u, w, np.repeat(1 - first, S))
    rows_w = _kron_advection(DX, w, u, np.repeat(1 - first - last, S))
    N = sp.bmat(rows_u + [row[d:] + row[:d] for row in rows_w], format="csr")
    L = _kron_linear_part(system)
    N.resize(L.shape)
    return L + N


@PROPERTY_SETTINGS
@given(grid=newton_boxes(), seed=seeds)
def test_newton_operator_matches_the_kronecker_assembly(grid, seed):
    """L v and J(z) v from the factors equal the assembled products up to the
    order of the sums."""
    rng = np.random.default_rng(seed)
    system = _DualNewtonSystem(grid, 0.3, *rng.normal(size=(grid.dim, *grid.nodes)))
    z, v = rng.normal(size=(2, system.n_dof))
    for got, want in ((_linear_part(system)(v), _kron_linear_part(system) @ v),
                      (system.jacobian(z)(v), _kron_jacobian(system, z) @ v)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("time_nodes", [4, 6])
@pytest.mark.parametrize("n0, n1", [(a, b) for a in range(5, 9) for b in range(5, 9)])
def test_newton_linear_part_is_nonsingular(n0, n1, time_nodes):
    """Every pressure component is pinned on every slice, so the constant part
    of the Jacobian has no null vector; with one component left ungauged (even
    n0, odd n1) it had one per pressure slice."""
    grid = Grid((2 * np.pi, 2 * np.pi), (n0, n1), (PERIODIC, PERIODIC), time_nodes, 0.02)
    zero = np.zeros((n0, n1))
    system = _DualNewtonSystem(grid, 0.5, zero, zero)
    sigma = scipy.linalg.svdvals(operator_matrix(_linear_part(system),
                                                 system.n_dof).toarray())
    assert sigma.min() > 1e-8 * sigma.max()


@pytest.mark.parametrize("time_nodes", [4, 6])
@pytest.mark.parametrize("nodes", [(a, b) for a in range(5, 10) for b in range(5, 10)]
                         + [(a, b, c) for a in (4, 5) for b in (4, 5) for c in (4, 5)],
                         ids=lambda nodes: "-".join(map(str, nodes)))
def test_newton_preconditioner_inverts_the_linear_part(nodes, time_nodes):
    """The Fourier-block preconditioner of the Newton steps is the exact inverse
    of the constant part, pins included: odd and even axes give 1, 2 and 4
    pressure components per slice in 2D, up to 8 in 3D."""
    grid = periodic_box(nodes, time_nodes, 0.02)
    rng = np.random.default_rng(int("".join(map(str, nodes))))   # 10 n0 + n1 in 2D
    system = _DualNewtonSystem(grid, 0.5, *rng.normal(size=(len(nodes), *nodes)))
    x = rng.normal(size=system.n_dof)
    y = system._solve_linear_part(_linear_part(system)(x))
    assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("nodes, time_nodes", [((5, 9), 5), ((8, 7), 4), ((8, 8), 6),
                                               ((4, 5, 4), 5), ((4, 4, 4), 4)])
def test_newton_block_inverses_equal_the_per_mode_inverses_to_the_bit(nodes, time_nodes):
    """Inverting each distinct block once and handing it to every mode that has it
    gives, bit for bit, what inverting the block of every mode of the rfft half
    gives: odd and even axes, odd T, the null modes' stand-ins and 3D."""
    system = _DualNewtonSystem(periodic_box(nodes, time_nodes, 0.02), 0.5,
                               *np.zeros((len(nodes), *nodes)))
    T, spec = time_nodes, system.spec
    half = (..., slice(nodes[-1] // 2 + 1))
    lap, null, *s = (a.ravel() for a in np.broadcast_arrays(
        spec.lap[half], spec.null[half], *(s[half] for s in spec.s)))
    norm = np.where(null, 1.0, np.sqrt((np.stack(s, -1) ** 2).sum(-1)))
    A0, A1, grad = system.A.copy()
    grad[:2 * T] *= -1
    saddle = A0 + lap[:, None, None] * A1 + norm[:, None, None] * grad
    velocity = saddle[:, :2 * T, :2 * T].copy()
    least_squares = np.linalg.pinv(velocity[null], rtol=1e-10)
    velocity[null], saddle[null] = np.eye(2 * T), np.eye(len(A0))
    velocity, saddle = np.linalg.inv(velocity), np.linalg.inv(saddle)
    velocity[null], saddle[null] = least_squares, 0.0

    _, got_velocity, got_saddle = system._block_inverses
    assert null.any() and len(np.unique(lap)) < len(lap)
    assert np.array_equal(got_velocity, velocity) and np.array_equal(got_saddle, saddle)


@PROPERTY_SETTINGS
@given(nodes=st.one_of(st.tuples(st.integers(4, 9), st.integers(4, 9)),
                       st.tuples(st.integers(4, 5), st.integers(4, 5), st.integers(4, 5))),
       time_nodes=st.integers(3, 6), seed=seeds)
@example(nodes=(7, 5), time_nodes=5, seed=0).via("odd axes, odd T")
@example(nodes=(5, 4, 5), time_nodes=5, seed=1).via("3D, odd T")
@example(nodes=(4, 4, 4), time_nodes=4, seed=2).via("3D, even T")
def test_newton_preconditioner_matches_the_complex_block_inverse(nodes, time_nodes, seed):
    """Two real blocks per Fourier mode (the velocities across the gradient symbol,
    and the saddle block of the velocities along it with the pressures) give the
    complex m x m block inverse of each mode, the least-squares inverse of the
    null modes and the singular odd-T zero mode included."""
    rng = np.random.default_rng(seed)
    system = _DualNewtonSystem(periodic_box(nodes, time_nodes, 0.02), 0.5,
                               *rng.normal(size=(len(nodes), *nodes)))
    b = rng.normal(size=system.n_dof)
    want = complex_block_preconditioner(system, b)
    assert np.linalg.norm(system._solve_linear_part(b) - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# the steady Newton system: its linear part, built by index on grids with a
# wall axis, its Jacobian, applied as an operator, and its Fourier inverse on
# all-periodic grids
# ---------------------------------------------------------------------------

def _steady_system(grid, seed, nu=0.3):
    """Steady system with random wall data and start; a random state and direction."""
    rng = np.random.default_rng(seed)
    data, start = rng.normal(size=(2, grid.dim, int(np.prod(grid.nodes))))
    walls = _wall_boundary_mask(grid)[..., 0].ravel()
    system = _SteadyNewtonSystem(grid, nu, np.where(walls, data, 0.0), start)
    return system, *rng.normal(size=(2, len(system.z0)))


#: an all-periodic grid with one axis whose stencils the steady operator applies
#: by the kernels and one by its dense 1D matrices
KERNEL_AND_DENSE = Grid((2 * np.pi, 2.5), (solver._DENSE_STENCIL_NODES + 1, 4),
                        (PERIODIC, PERIODIC))


@PROPERTY_SETTINGS
@given(grid=grids(steady=True), seed=seeds)
@example(grid=KERNEL_AND_DENSE, seed=0).via("a kernel axis and a dense axis")
def test_steady_jacobian_is_the_exact_derivative_of_the_residual(grid, seed):
    """The steady residual is quadratic in the unknowns, so the central
    difference has no truncation error and equals J(z) v up to roundoff."""
    system, z, v = _steady_system(grid, seed)
    eps = 0.5
    fd = (system.residual(z + eps * v) - system.residual(z - eps * v)) / (2 * eps)
    jv = system.jacobian_operator(z, 0.0)(v)
    assert np.linalg.norm(fd - jv) <= 1e-9 * np.linalg.norm(jv)


@PROPERTY_SETTINGS
@given(grid=grids(steady=True), seed=seeds, shift=st.sampled_from((0.0, 0.37, 1.0)))
@example(grid=KERNEL_AND_DENSE, seed=0, shift=0.37).via("a kernel axis and a dense axis")
def test_steady_operator_matches_the_assembled_jacobian(grid, seed, shift):
    """x -> L x - shift V x - A(z) x from the per-step coefficients equals the
    assembled J(z) - shift V up to the order of the sums: L by CSR on grids with a
    wall axis, from the 1D stencils on all-periodic ones."""
    system, z, x = _steady_system(grid, seed)
    got = system.jacobian_operator(z, shift)(x)
    want = steady_jacobian(system, z, shift) @ x
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("nodes", [(5,), (8,), (5, 7), (6, 8), (7, 4, 5), (4, 6, 4)],
                         ids=lambda nodes: "-".join(map(str, nodes)))
def test_steady_preconditioner_inverts_the_linear_part(nodes):
    """On all-periodic grids the Fourier solve on the rfft half is the exact
    inverse of L - shift V at each shift in turn, pins, multipliers, forces and
    mean rows included: odd and even axes give 1, 2, 4 and 8 pressure components."""
    system, _, x = _steady_system(periodic_box(nodes), int("".join(map(str, nodes))))
    V = np.zeros(len(x))
    V[:system.d * system.S] = 1.0
    for shift in (0.0, 0.37, 1.0):
        A = block_linear_part(system) - shift * sp.diags(V)
        y = system._solve_linear_part(A @ x, shift)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(grid=grids(steady=True).filter(lambda grid: WALL in grid.boundaries), seed=seeds)
def test_steady_linear_part_matches_the_block_assembly(grid, seed):
    """On a grid with a wall axis, L built by index is the block assembly's CSR
    matrix to the bit. Where the momentum block is at least half full (1D, 3 x 3),
    ``sp.kron`` stores it dense, zeros included; those entries add nothing and are
    dropped first."""
    system = _steady_system(grid, seed, nu=np.random.default_rng(seed).uniform(0.01, 2))[0]
    want = block_linear_part(system)
    want.eliminate_zeros()
    got = system.L
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


# ---------------------------------------------------------------------------
# the synthetic-field builders against their dense references: the builders
# evaluate each one-axis factor on the open mesh, the references on the dense
# meshes; both take the same draws and multiply in the same order, so the
# fields must agree to the bit
# ---------------------------------------------------------------------------

def _dense_smooth_scalar(rng, grid, wall_vanishing=False):
    meshes = grid.meshes()
    coords, t = meshes[:-1], meshes[-1]
    out = np.zeros(grid.shape)
    for _ in range(4):
        term = np.ones(grid.shape) * rng.normal()
        for a, x in enumerate(coords):
            scale = 2 * np.pi / grid.extents[a]
            k = int(rng.integers(0, 3))
            if grid.boundaries[a] == PERIODIC:
                term = term * np.sin(k * scale * x + rng.normal())
            elif wall_vanishing:
                term = term * np.sin((k + 1) * np.pi * x / grid.extents[a])
            else:
                term = term * np.cos(k * np.pi * x / grid.extents[a] + rng.normal())
        if not grid.steady:
            term = term * np.cos(0.7 * rng.normal() * t + rng.normal())
        out += term
    return out


def _dense_random_quartet(grid, seed):
    rng = np.random.default_rng(seed)
    walls = any(b != PERIODIC for b in grid.boundaries)
    base = [_dense_smooth_scalar(rng, grid, wall_vanishing=walls) for _ in range(grid.dim)]
    diff = [_dense_smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    u = [base[i] + diff[i] for i in range(grid.dim)]
    w = [base[i] - diff[i] for i in range(grid.dim)]
    return [*u, _dense_smooth_scalar(rng, grid), *w, _dense_smooth_scalar(rng, grid)]


def _dense_admissible_direction(grid, seed):
    rng = np.random.default_rng(seed)
    t = grid.meshes()[-1]
    env = np.sin(np.pi * t / grid.tau) if grid.tau > 0 else np.zeros(grid.shape)
    du = [_dense_smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    dw = [du[i] + env * _dense_smooth_scalar(rng, grid, wall_vanishing=True)
          for i in range(grid.dim)]
    dp = _dense_smooth_scalar(rng, grid)
    dr = dp + _dense_smooth_scalar(rng, grid, wall_vanishing=True)
    return [*du, dp, *dw, dr]


def _dense_taylor_green(nu, grid):
    X, Y, T = grid.meshes()
    decay = np.exp(-2 * nu * T)
    u0 = -np.cos(X) * np.sin(Y) * decay
    u1 = np.sin(X) * np.cos(Y) * decay
    P = -0.25 * (np.cos(2 * X) + np.cos(2 * Y)) * decay ** 2
    q = P - 0.5 * (u0 ** 2 + u1 ** 2)
    return [u0, u1, q, u0, u1, q]


def _arrays(q: FieldQuartet):
    return [c.values for c in (*q.u.components, q.p, *q.w.components, q.r)]


def _assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def field_grids(draw):
    dim = draw(st.integers(1, 3))
    nodes = tuple(draw(st.integers(3, 17)) for _ in range(dim))
    kinds = tuple(draw(st.sampled_from((PERIODIC, WALL))) for _ in range(dim))
    extents = tuple(draw(st.sampled_from((1.0, 2.5, 2 * np.pi))) for _ in range(dim))
    time_nodes = draw(st.sampled_from((1, 3, 4, 5, 6, 7, 8, 9)))
    return Grid(extents, nodes, kinds, time_nodes, draw(st.sampled_from((0.01, 0.0125, 0.3))))


FIELD_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=200)


@FIELD_SETTINGS
@given(grid=field_grids(), seed=seeds, wall_vanishing=st.booleans())
def test_smooth_scalar_matches_the_dense_builder_to_the_bit(grid, seed, wall_vanishing):
    got = scenarios._smooth_scalar(np.random.default_rng(seed), grid, wall_vanishing)
    want = _dense_smooth_scalar(np.random.default_rng(seed), grid, wall_vanishing)
    _assert_bits_equal([got], [want])


@FIELD_SETTINGS
@given(grid=field_grids(), seed=seeds)
def test_random_quartet_matches_the_dense_builder_to_the_bit(grid, seed):
    _assert_bits_equal(_arrays(scenarios.random_quartet(grid, seed)),
                       _dense_random_quartet(grid, seed))


@FIELD_SETTINGS
@given(grid=field_grids(), seed=seeds)
def test_admissible_direction_matches_the_dense_builder_to_the_bit(grid, seed):
    _assert_bits_equal(_arrays(scenarios.admissible_direction(grid, seed)),
                       _dense_admissible_direction(grid, seed))


@FIELD_SETTINGS
@given(n0=st.integers(3, 17), n1=st.integers(3, 17),
       time_nodes=st.sampled_from((1, 3, 4, 5, 6, 7, 8, 9)),
       dt=st.sampled_from((0.01, 0.0125, 0.3)), nu=st.sampled_from((0.0, 0.01, 0.1, 1.3)))
def test_taylor_green_matches_the_dense_builder_to_the_bit(n0, n1, time_nodes, dt, nu):
    grid = Grid((2 * np.pi, 2 * np.pi), (n0, n1), (PERIODIC, PERIODIC), time_nodes, dt)
    _assert_bits_equal(_arrays(taylor_green(nu, grid)), _dense_taylor_green(nu, grid))


class _Seeded(Exception):
    """Stops ``cmd_newton_dual`` at the solver call, carrying its seed state."""


def _newton_seed_state(seed_state, *args):
    raise _Seeded(seed_state)


@FIELD_SETTINGS
@given(grid=field_grids(), seed=seeds, amp=st.sampled_from((0.1, -0.37, 2.0)))
def test_perturb_w_factor_matches_the_dense_builder_to_the_bit(grid, seed, amp):
    state = scenarios.random_quartet(grid, seed)
    with mock.patch.object(solver, "newton_dual", _newton_seed_state), \
            pytest.raises(_Seeded) as seeded:
        cli.cmd_newton_dual(SimpleNamespace(perturb_w=amp), cli.DEFAULT_CONFIG, grid, state)
    meshes = grid.meshes()
    pert = 1 + amp * np.cos(meshes[0]) * np.cos(meshes[1])
    _assert_bits_equal([c.values for c in seeded.value.args[0].w.components],
                       [c.values * pert for c in state.u.components])


# ---------------------------------------------------------------------------
# the stencil matrices lifted by index against the Kronecker products with
# identities they replace: the same CSR arrays, to the bit
# ---------------------------------------------------------------------------

def _kron_stencil_matrices(grid):
    def lift(op, axis):
        factors = [sp.identity(n) for n in grid.nodes]
        factors[axis] = _stencil_matrix(op, grid.nodes[axis], grid.spacing(axis),
                                        grid.boundaries[axis] == PERIODIC)
        return functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
    axes = range(grid.dim)
    return [lift(_d1, a) for a in axes], sum(lift(_d2, a) for a in axes)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(grid=field_grids())
def test_stencil_matrices_equal_the_kronecker_lift_to_the_bit(grid):
    (DX, LAP), (want_DX, want_LAP) = _stencil_matrices(grid), _kron_stencil_matrices(grid)
    assert len(DX) == len(want_DX) == grid.dim
    for got, want in zip([*DX, LAP], [*want_DX, want_LAP]):
        assert got.format == "csr" and got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


# ---------------------------------------------------------------------------
# the stencil kernels against the np.roll kernels they replace: the same bits,
# and the same floating-point warnings, so that no pair of nodes the old stencil
# does not pair is ever computed with
# ---------------------------------------------------------------------------

KERNELS = {"d1": (_d1, roll_d1), "d2": (_d2, roll_d2)}


@st.composite
def stencil_inputs(draw):
    """An array of 1-3 grid axes, maybe a time axis after them and a batch axis
    before, in C order, Fortran order or strided; its values may be huge,
    infinite or NaN. Returns the array, an axis that is not the batch axis, and
    h and periodic (never on the time axis)."""
    grid_axes = draw(st.integers(1, 3)) + draw(st.integers(0, 1))
    batch = draw(st.sampled_from(((), (0,), (1,), (3,))))
    shape = (*batch, *(draw(st.integers(3, 6)) for _ in range(grid_axes)))
    elements = st.one_of(st.floats(-1e3, 1e3),
                         st.sampled_from((1e308, -1e308, np.inf, -np.inf, np.nan, -0.0)))
    arr = draw(arrays(np.float64, shape, elements=elements))
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "F":
        arr = np.asfortranarray(arr)
    elif layout == "strided":
        arr = np.repeat(arr, 2, axis=-1)[..., ::2]
    axis = draw(st.integers(len(batch), len(shape) - 1))
    return arr, axis, draw(st.sampled_from((0.3, 2.0, 1e-3))), draw(st.booleans())


def _flagged(kernel, *args):
    """The kernel's result and the floating-point conditions numpy warned of."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = kernel(*args)
    return out, {str(w.message).split(" encountered")[0] for w in caught}


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(case=stencil_inputs(), kernel=st.sampled_from(sorted(KERNELS)))
@example(case=(np.array([1e308, -1e308, 1.0, 2.0]), 0, 1e-3, False), kernel="d2")
@example(case=(np.array([np.nan, np.inf, np.inf]), 0, 0.3, False), kernel="d2").via(
    "one interior node: the NaN of (hi - 2 mid), not lo's, as the oracle's x + y keeps")
@example(case=(np.array([[1.0, 2.0, 3.0], [1e308, 0.0, -1e308]]), 1, 0.3, False),
         kernel="d2").via("3-node wall axis: the interior stencil at both ends")
@example(case=(np.array([[1e308, 0.0, 0.0, -1e308], [-1e308, 0.0, 0.0, 1e308]]), 1, 0.3,
               False), kernel="d1").via("wall ends of adjacent lines: never paired")
@example(case=(np.array([np.inf, np.nan, np.inf]), 0, 0.3, True), kernel="d2").via(
    "NaN + NaN: numpy's loops pick which NaN a sum keeps, so the np.roll calls run")
def test_stencil_kernels_match_the_roll_oracle_to_the_bit(case, kernel):
    arr, axis, h, periodic = case
    new, old = KERNELS[kernel]
    (got, got_flags), (want, want_flags) = (_flagged(k, arr, axis, h, periodic)
                                            for k in (new, old))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got_flags == want_flags


@pytest.mark.parametrize("n", [3, 4, 8, 9, 10, 11, 257, 1000])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stencil_matrix_keeps_the_bits_of_the_roll_oracle(kernel, periodic, n):
    new, old = KERNELS[kernel]
    got = _stencil_matrix(new, n, 0.3, periodic)
    want = sp.csr_matrix(old(np.eye(n), 0, 0.3, periodic))
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


# ---------------------------------------------------------------------------
# one family: when w and r are u and p, the functional, the residuals and the
# first variation reuse the first family's arrays; the bits are those of the
# general path, which computes both families
# ---------------------------------------------------------------------------

def _general(fn, *args):
    """``fn`` with both families computed, as for any quartet."""
    with mock.patch.object(lagrangian, "_one_family", lambda state: False):
        return fn(*args)


def _bits(*values):
    return [np.asarray(v, dtype=float).view(np.int64) for v in values]


def _same(got, want):
    return all(np.array_equal(a, b) for a, b in zip(_bits(*got), _bits(*want), strict=True))


def _residual_arrays(res):
    return [res.res_div_u.values, res.res_div_w.values,
            *(c.values for c in (*res.res_u.components, *res.res_w.components))]


@PROPERTY_SETTINGS
@given(grid=grids(), seed=seeds, nu=st.sampled_from((0.0, 0.1, 1.3)),
       shared=st.booleans())
def test_one_family_has_the_bits_of_the_general_path(grid, seed, nu, shared):
    s = random_state(grid, seed)
    w, r = (s.u, s.p) if shared else (copy.deepcopy(s.u), copy.deepcopy(s.p))
    state = FieldQuartet(s.u, s.p, w, r)
    assert lagrangian._one_family(state)
    got, want = evaluate_lagrangian(state, nu), _general(evaluate_lagrangian, state, nu)
    assert _same([got.J, got.scale, *got.breakdown().values(), got.slice_values],
                 [want.J, want.scale, *want.breakdown().values(), want.slice_values])
    assert _same(_residual_arrays(el_residuals(state, nu)),
                 _residual_arrays(_general(el_residuals, state, nu)))
    d = admissible_direction(grid, seed)
    for direction in (d, FieldQuartet(d.u, d.p, d.u, d.p)):
        assert _same([first_variation(state, direction, nu)],
                     [_general(first_variation, state, direction, nu)])


def test_one_family_means_equal_bits_not_equal_values():
    # -0.0 and 0.0 are equal values whose derivatives and products can differ in
    # sign; such a w is a second family
    grid = periodic_box((4, 4), 3, 0.1)
    s = random_state(grid, 0)
    u0 = s.u[0].values.copy()
    u0[0, 0, 0] = 0.0
    w0 = u0.copy()
    w0[0, 0, 0] = -0.0
    vec = lambda c: VectorField(grid, (ScalarField(grid, c), s.u[1]))
    assert lagrangian._one_family(FieldQuartet(vec(u0), s.p, vec(u0.copy()), s.p))
    assert not lagrangian._one_family(FieldQuartet(vec(u0), s.p, vec(w0), s.p))


def test_consumers_of_one_family_residuals_write_no_shared_array(tmp_path, monkeypatch):
    # at u = w, r = p the residuals of both families are the same arrays: the
    # newton-dual residual packing, to_quartet and the field writer must read them
    # and never write into them, and give the bits of the general path
    grid, nu = periodic_box((6, 5), 5, 0.05), 0.5
    data = [np.zeros(grid.nodes)] * 2
    system = _DualNewtonSystem(grid, nu, *data)
    z = np.random.default_rng(3).normal(size=system.n_dof)
    u, w, p, r = system.unpack(z)
    w[:], p[-1], r[:] = u, 0.0, p[:-1]   # p and r padded alike: one family

    def frozen(state, nu):
        res = el_residuals(state, nu)
        assert res.res_w is res.res_u and res.res_div_w is res.res_div_u
        for a in _residual_arrays(res):
            a.setflags(write=False)
        frozen.res = res
        return res
    monkeypatch.setattr(solver, "el_residuals", frozen)
    F, q = system.residual(z), system.to_quartet(z)
    reports.write_fields_csv(tmp_path, [(f"{i}.csv", ScalarField(grid, a))
                                        for i, a in enumerate(_residual_arrays(frozen.res))])
    monkeypatch.setattr(solver, "el_residuals", el_residuals)
    general = _DualNewtonSystem(grid, nu, *data)
    F_want, q_want = _general(general.residual, z), _general(general.to_quartet, z)
    assert _same([F], [F_want])
    assert _same([c.values for c in (*q.u.components, q.p, *q.w.components, q.r)],
                 [c.values for c in (*q_want.u.components, q_want.p, *q_want.w.components,
                                     q_want.r)])

"""Shared builders for the test suite.

The random-field helpers here generate inputs; independent oracles live in
the test modules that use them, except the 3D flow that the solver and the
command-line tests share, the direct Newton steps (the assembled steady
Jacobian and a sparse LU solve) that the solver and property tests share, the
space-time Newton system's time matrices on every field, and
the stencil kernels built from ``np.roll`` that ``grids._d1``/``_d2`` must
match to the bit. The field builders, the gradient and divergence of a field
by the kernels and the quartet writer at the end serve tests only.
"""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from varns.grids import (
    PERIODIC,
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _d1,
    _gradients,
    _stencil_matrices,
)
from varns.reports import quartet_files, write_fields_csv


def smooth_scalar(rng, grid, wall_vanishing=False):
    """Low-wavenumber random field; optionally zero on wall boundaries."""
    meshes = grid.meshes()
    coords, t = meshes[:-1], meshes[-1]
    out = np.zeros(grid.shape)
    for _ in range(4):
        term = np.ones(grid.shape) * rng.normal()
        for a, x in enumerate(coords):
            if grid.boundaries[a] == PERIODIC:
                k = int(rng.integers(0, 3))
                term = term * np.sin(k * 2 * np.pi / grid.extents[a] * x + rng.normal())
            elif wall_vanishing:
                k = int(rng.integers(1, 3))
                term = term * np.sin(k * np.pi * x / grid.extents[a])
            else:
                k = int(rng.integers(0, 3))
                term = term * np.cos(k * np.pi * x / grid.extents[a] + rng.normal())
        if not grid.steady:
            term = term * np.cos(0.7 * rng.normal() * t + rng.normal())
        out += term
    return out


def smooth_vector(rng, grid, wall_vanishing=False):
    return VectorField(grid, tuple(
        ScalarField(grid, smooth_scalar(rng, grid, wall_vanishing))
        for _ in range(grid.dim)))


def random_quartet(grid, seed, wall_safe=True):
    """Random quartet; with wall_safe the u-w difference vanishes on walls."""
    rng = np.random.default_rng(seed)
    base = [smooth_scalar(rng, grid) for _ in range(grid.dim)]
    diff = [smooth_scalar(rng, grid, wall_vanishing=wall_safe)
            for _ in range(grid.dim)]
    u = [base[i] + diff[i] for i in range(grid.dim)]
    w = [base[i] - diff[i] for i in range(grid.dim)]
    mkv = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(mkv(u), ScalarField(grid, smooth_scalar(rng, grid)),
                        mkv(w), ScalarField(grid, smooth_scalar(rng, grid)))


def boundary_rich_quartet(grid, seed):
    """Quartet with mass-compatible but nonzero wall traces: each velocity
    component vanishes on the walls it is normal to (zero through-flow),
    while tangential traces stay rich."""
    rng = np.random.default_rng(seed)

    def tangential(rng):
        comps = []
        for i in range(grid.dim):
            f = smooth_scalar(rng, grid)
            if grid.boundaries[i] != PERIODIC:
                x = grid.meshes()[i]
                f = f * np.sin(np.pi * x / grid.extents[i])
            comps.append(f)
        return comps

    u = tangential(rng)
    w = tangential(rng)
    mkv = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(mkv(u), ScalarField(grid, smooth_scalar(rng, grid)),
                        mkv(w), ScalarField(grid, smooth_scalar(rng, grid)))


def admissible_direction(grid, seed):
    """Direction in the admissible class: velocity directions vanish on
    walls, du = dw at both end time slices, dp = dr on walls."""
    rng = np.random.default_rng(seed)
    t = grid.meshes()[-1]
    env = np.sin(np.pi * t / grid.tau) if grid.tau > 0 else np.zeros(grid.shape)
    du = [smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    dw = [du[i] + env * smooth_scalar(rng, grid, wall_vanishing=True)
          for i in range(grid.dim)]
    dp = smooth_scalar(rng, grid)
    dr = dp + smooth_scalar(rng, grid, wall_vanishing=True)
    mkv = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(mkv(du), ScalarField(grid, dp), mkv(dw), ScalarField(grid, dr))


def shift_state(state, direction, eps):
    g = state.grid
    vec = lambda a, b: VectorField(g, tuple(
        ScalarField(g, ca.values + eps * cb.values)
        for ca, cb in zip(a.components, b.components)))
    return FieldQuartet(vec(state.u, direction.u),
                        ScalarField(g, state.p.values + eps * direction.p.values),
                        vec(state.w, direction.w),
                        ScalarField(g, state.r.values + eps * direction.r.values))


def _face(axis, side, ndim):
    idx = [slice(None)] * ndim
    idx[axis] = side
    return tuple(idx)


def roll_d1(arr, axis, h, periodic):
    """Second-order first derivative along one axis, periodic by two ``np.roll``
    copies; one-sided second-order closures at walls."""
    if arr.shape[axis] < 3:
        raise ValueError("first-derivative stencil needs at least 3 nodes")
    if periodic:
        return (np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2 * h)
    out = np.empty_like(arr)
    sl = lambda i: _face(axis, i, arr.ndim)
    out[sl(slice(1, -1))] = (arr[sl(slice(2, None))] - arr[sl(slice(None, -2))]) / (2 * h)
    out[sl(0)] = (-3 * arr[sl(0)] + 4 * arr[sl(1)] - arr[sl(2)]) / (2 * h)
    out[sl(-1)] = (3 * arr[sl(-1)] - 4 * arr[sl(-2)] + arr[sl(-3)]) / (2 * h)
    return out


def roll_d2(arr, axis, h, periodic):
    """Second derivative along one axis, periodic by two ``np.roll`` copies;
    one-sided 4-point closure at walls, the interior stencil on 3 nodes."""
    if arr.shape[axis] < 3:
        raise ValueError("second-derivative stencil needs at least 3 nodes")
    if periodic:
        return (np.roll(arr, -1, axis) - 2 * arr + np.roll(arr, 1, axis)) / h**2
    out = np.empty_like(arr)
    sl = lambda i: _face(axis, i, arr.ndim)
    out[sl(slice(1, -1))] = (arr[sl(slice(2, None))] - 2 * arr[sl(slice(1, -1))]
                             + arr[sl(slice(None, -2))]) / h**2
    if arr.shape[axis] >= 4:
        out[sl(0)] = (2 * arr[sl(0)] - 5 * arr[sl(1)] + 4 * arr[sl(2)] - arr[sl(3)]) / h**2
        out[sl(-1)] = (2 * arr[sl(-1)] - 5 * arr[sl(-2)] + 4 * arr[sl(-3)] - arr[sl(-4)]) / h**2
    else:
        out[sl(0)] = (arr[sl(0)] - 2 * arr[sl(1)] + arr[sl(2)]) / h**2
        out[sl(-1)] = out[sl(0)]
    return out


def periodic_box(nodes, time_nodes=1, dt=0.0):
    """The 2-pi periodic box with ``nodes`` nodes along its axes."""
    return Grid((2 * np.pi,) * len(nodes), nodes, (PERIODIC,) * len(nodes), time_nodes, dt)


def operator_matrix(apply, n):
    """Sparse matrix of the linear map ``apply`` on vectors of length ``n``: its
    image of each unit vector is a column."""
    rows, cols, vals = [], [], []
    unit = np.zeros(n)
    for j in range(n):
        unit[j] = 1.0
        col = apply(unit)
        unit[j] = 0.0
        nz = np.flatnonzero(col)
        rows.append(nz)
        cols.append(np.full(nz.size, j))
        vals.append(col[nz])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def lu_step(J, F):
    """-J^{-1} F by sparse LU of the matrix ``J``: the direct Newton step."""
    return spla.splu(sp.csc_matrix(J)).solve(-F)


def steady_jacobian(system, z, shift=0.0):
    """J(z) - shift V = L - A(z) - shift V of a steady Newton system, assembled from
    the advection coefficients (A x)_i = sum_j G_ij x_j + W_j D_j x_i of its velocity
    rows, G_ij = m D_j v_i and W_j = m v_j with the interior mask m, and V the
    identity on the interior momentum rows."""
    DX, m = _stencil_matrices(system.grid)[0], system.interior
    v = system.unpack(z)[0]
    conv = sum(sp.diags(m * vj) @ D for vj, D in zip(v, DX))
    rows = [[sp.diags(m * (D @ vi) + shift * m * (i == j)) for j, D in enumerate(DX)]
            for i, vi in enumerate(v)]
    for i in range(system.d):
        rows[i][i] = rows[i][i] + conv
    A = sp.bmat(rows, format="csr")
    A.resize(system.L.shape)
    return system.L - A


def full_time_matrices(system):
    """The m x m time matrices A_0, ..., A_{d+1} of I, Lap, D_0, ..., D_{d-1} on every
    field of a space-time Newton system, from its (u_0, w_0, p, r) matrices of I,
    Lap and D_0: A_0 and A_1 act alike on each (u_i, w_i), and A_{2+i} couples
    (u_i, w_i) to (p, r) as A_2 couples (u_0, w_0)."""
    d, T, v = system.grid.dim, system.T, system.velocities
    m = v + 2 * T - 3
    A = np.zeros((2 + d, m, m))
    for i in range(d):
        fields = np.r_[i * T:(i + 1) * T, (d + i) * T:(d + i + 1) * T, v:m]
        for k, a in zip((0, 1, 2 + i), system.A):
            A[k][np.ix_(fields, fields)] = a
    return A


def complex_block_preconditioner(system, b):
    """L^{-1} b of a space-time Newton system by one complex m x m block inverse
    per Fourier mode of the rfft half, A_0 + lap A_1 + i s_0 A_2 + ... + i s_{d-1}
    A_{d+1}; on the null modes of the central gradient the whole velocity block is
    inverted in the least-squares sense and the pressures are zero. Each pin row's
    right-hand side is replaced by minus the sum of the rest of its component, and
    the pressures are shifted onto the pins after the solve."""
    spec, v, S = system.spec, system.velocities, system.S
    labels, first = system.gauge.labels, system.gauge.first
    half = (..., slice(system.grid.nodes[-1] // 2 + 1))
    symbols = np.broadcast_arrays(1.0, spec.lap[half], *(1j * s[half] for s in spec.s))
    A = full_time_matrices(system)
    blocks = np.tensordot(np.stack(symbols, -1), A, 1).reshape(-1, *A.shape[1:])
    null = np.flatnonzero(spec.null[half])
    velocity = np.linalg.pinv(blocks[null, :v, :v], rtol=1e-10)
    blocks[null] = np.eye(len(A[0]))
    inverses = np.linalg.inv(blocks)
    inverses[null] = 0.0
    inverses[null, :v, :v] = velocity

    B = b.reshape(-1, S).copy()
    pins = B[v:, first].copy()
    B[v:, first] = 0.0
    B[v:, first] = -np.array([np.bincount(labels, row, len(first)) for row in B[v:]])
    nodes, space = system.grid.nodes, range(1, system.grid.dim + 1)
    modes = np.fft.rfftn(B.reshape(-1, *nodes), axes=space)
    X = (inverses @ modes.reshape(len(B), -1).T[..., None])[..., 0]
    X = np.fft.irfftn(X.T.reshape(modes.shape), s=nodes, axes=space).reshape(-1, S)
    X[v:] += (pins - X[v:, first])[:, labels]
    return X.ravel()


def abc_flow(grid, nu, A=1.0, B=0.8, C=0.6):
    """Decaying ABC (Arnold-Beltrami-Childress) flow on the 2-pi periodic cube
    (Dombre et al., J. Fluid Mech. 167, 1986), an exact Navier-Stokes solution:
    u = e^{-nu t} (A sin z + C cos y, B sin x + A cos z, C sin y + B cos x) is
    its own curl, so (u . grad) u = grad |u|^2 / 2 and the physical pressure is
    -|u|^2 / 2; the stored scalar is the variational pressure q = -|u|^2."""
    X, Y, Z, t = grid.meshes()
    decay = np.exp(-nu * t)
    u = [(A * np.sin(Z) + C * np.cos(Y)) * decay, (B * np.sin(X) + A * np.cos(Z)) * decay,
         (C * np.sin(Y) + B * np.cos(X)) * decay]
    vel = VectorField(grid, tuple(ScalarField(grid, c) for c in u))
    q = ScalarField(grid, -(u[0] ** 2 + u[1] ** 2 + u[2] ** 2))
    return FieldQuartet(vel, q, vel, q)


def field_from_function(grid, fn):
    """The scalar field ``fn(x0[, x1[, x2]], t)`` sampled on every node."""
    return ScalarField(grid, np.asarray(fn(*grid.meshes()), dtype=float) + np.zeros(grid.shape))


def vector_from_functions(grid, fns):
    """The vector field whose components are ``fns`` evaluated on the grid."""
    return VectorField(grid, tuple(field_from_function(grid, f) for f in fns))


def write_quartet_csv(outdir, quartet):
    """A quartet as snapshot CSVs, one file per field (``u_0.csv`` ... ``r.csv``)."""
    write_fields_csv(outdir, list(quartet_files(quartet).items()))


def gradient(f, axis):
    """The spatial derivative of the scalar field ``f`` along ``axis`` by ``_d1``."""
    g = f.grid
    return ScalarField(g, _d1(f.values, axis, g.spacing(axis), g.boundaries[axis] == PERIODIC))


def divergence(v):
    """The divergence of the vector field ``v``: its gradients from one
    ``_gradients`` call, summed over the axes in order."""
    D = _gradients(v.grid, np.stack([c.values for c in v.components]))
    return ScalarField(v.grid, functools.reduce(np.add, (D[a][a] for a in range(v.grid.dim))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Solvers that produce fields at or near the stationary configuration.

Three routes to the stationary point, beside the exact decaying-vortex oracle
of ``scenarios.taylor_green``:

* a Crank-Nicolson / Picard / projection time-marcher for the reduced system
  on periodic grids (the w=u, r=p trajectory),
* a monolithic Newton solve of the full discrete stationarity system over
  space-time, the direct computational test that the stationary point has
  u = w and functional value zero; its residual is ``el_residuals``,
* a Newton solve of the steady discrete Navier-Stokes system on periodic and
  wall-bounded boxes (w = u, r = p); both Newton solves share one damped
  loop, one viscosity-continuation ladder and one pressure gauge
  (``_Components``): a pin at one node of each component of the
  central-gradient graph, and a reported pressure of zero mean on each. Their
  linear systems are solved by GMRES (:func:`_gmres`, restarted and
  right-preconditioned, in numpy) with a Jacobian that is never assembled. In
  space-time it is an operator applied from its Kronecker factors with numpy
  alone: the 1D stencil matrices (the kernels ``_d1``/``_d2`` of an identity),
  one matrix product per axis, and the nonzero blocks of the time matrices; in
  the steady case from the sparse stencil matrices that
  ``grids._stencil_matrices`` builds and advection coefficients computed once
  per Newton step. GMRES is preconditioned by the Fourier inverse of the linear
  part (in space-time, two real blocks per spatial mode of the rfft half,
  inverted once per distinct symbol); steady systems on grids with a wall axis
  take instead one sparse LU of their linear part per solve. Newton is inexact:
  each step asks GMRES only for the linear residual that would take the Newton
  residual to half the stop (:func:`_newton_loop`), so the last steps take a few
  iterations where a fixed relative target of 1e-12 ran GMRES to its iteration
  limit. Only the steady solve imports scipy (``scipy.sparse``, and
  ``scipy.sparse.linalg`` on a wall grid), on first use.

The marcher and the space-time Newton solve run on all-periodic 2D and 3D
boxes, over a list of ``grid.dim`` velocity components; the steady solve also
on boxes with wall axes, in 1D to 3D. Periodic stencil systems (viscous solve,
projection, pressure recovery) are solved exactly in Fourier space: the FFT
diagonalizes every circulant stencil, so these are direct solves of the
discrete operators, not spectral approximations. The composite
divergence-of-gradient symbol vanishes on the constant and Nyquist modes;
those pressure modes are pinned to zero (the mean-zero gauge extended to the
checkerboard modes of the collocated layout).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (
    _MAX_NEWTON_BYTES,
    PERIODIC,
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _d1,
    _d2,
    _stencil_matrices,
    _wall_boundary_mask,
    integrate_spacetime,
    slice_integrals,
)
from .lagrangian import LagrangianReport, el_residuals, evaluate_lagrangian

def __getattr__(name: str):
    """``spla``: scipy.sparse.linalg, imported on first use, not with the module."""
    if name == "spla":
        import scipy.sparse.linalg as spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: memory per space-time unknown beside the preconditioner's blocks: the GMRES
#: basis (61 vectors, 488 B when all are used), the iterates and the temporaries of
#: the operator and the preconditioner. Peak RSS growth of whole newton-dual runs
#: over the imports, less the blocks, single-thread BLAS on a 2-vCPU Xeon: 194-257 B
#: at the CLI defaults (64^2 x 17, 64^2 x 24, 64^2 x 33, 128^2 x 9, 16^3 x 19), where
#: GMRES takes 2 + 1 iterations, and 552-686 B with --perturb-w 0.3 --nu 0.05 (64^2 x
#: 17, 64^2 x 24, 128^2 x 9, 64^2 x 33), where it fills most of its basis; the last
#: peaked at 0.89 GB, 0.91 GB estimated
_BYTES_PER_UNKNOWN = 700

#: the marcher's Picard increment tolerance, relative to the larger of 1 and the
#: initial field's peak
_PICARD_TOL = 1e-11


class ConvergenceError(RuntimeError):
    """Iteration failed to reach its tolerance; carries the history and, from a
    steady Newton solve, the (iterations, met) of each step's GMRES."""

    def __init__(self, message, history=None, gmres=None):
        super().__init__(message)
        self.history, self.gmres = history, gmres


class StagnationError(ConvergenceError):
    """The steady Newton solve ran out of steps or met mass-incompatible wall data."""


@dataclass(frozen=True)
class SolveConfig:
    nu: float
    newton_tol: float = 1e-10
    max_newton: int = 25
    continuation_steps: int = 0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.newton_tol <= 0 or self.max_newton < 1:
            raise ValueError("newton_tol must be positive and max_newton >= 1")


@dataclass(frozen=True)
class Trajectory:
    state: FieldQuartet
    residuals: np.ndarray = field(repr=False)
    u_w_gap: np.ndarray = field(repr=False)
    J_values: np.ndarray = field(repr=False)
    converged: bool
    #: the functional of ``state`` at the config's viscosity, when the solve has it
    report: LagrangianReport | None = None
    #: per Newton step: GMRES iterations and whether GMRES met the forcing term
    gmres: tuple[tuple[int, bool], ...] = ()


def _require_periodic(grid: Grid):
    if grid.dim not in (2, 3) or any(b != PERIODIC for b in grid.boundaries):
        raise ValueError("this solver needs an all-periodic 2D or 3D grid")
    if grid.steady:
        raise ValueError("this solver needs an unsteady grid")


def _require_divergence_free(v, grid: Grid, what: str):
    div = np.abs(functools.reduce(np.add, (
        _d1(c, a, grid.spacing(a), periodic=True) for a, c in enumerate(v)))).max()
    if div > 1e-8:
        raise ValueError(
            f"initial {what} is not discretely divergence-free (|div| = {div:.3e})")


# ---------------------------------------------------------------------------
# periodic stencil solves in Fourier space
# ---------------------------------------------------------------------------

class _Spectral:
    """Fourier symbols of the periodic central-difference stencils (the central
    gradient is i s_a per axis) and exact solves with them."""

    def __init__(self, grid: Grid):
        along = lambda a, x: x.reshape([-1 if b == a else 1 for b in range(grid.dim)])
        theta = [2 * np.pi * np.fft.fftfreq(n) for n in grid.nodes]
        self.s = [along(a, np.sin(t) / grid.spacing(a)) for a, t in enumerate(theta)]
        self.lap = sum(along(a, (2 * np.cos(t) - 2) / grid.spacing(a) ** 2)
                       for a, t in enumerate(theta))
        self.div_grad = -sum(s ** 2 for s in self.s)
        self.null = np.abs(self.div_grad) < 1e-14

    def helmholtz(self, rhs: np.ndarray, coef: float) -> np.ndarray:
        """Solve (I - coef * Lap_stencil) x = rhs."""
        return np.real(np.fft.ifftn(np.fft.fftn(rhs) / (1 - coef * self.lap)))

    def _potential(self, *f: np.ndarray) -> np.ndarray:
        """Fourier coefficients of the solution of DivGrad phi = Div f (f given
        as coefficients, one array per axis), null modes pinned to zero."""
        div = 1j * functools.reduce(np.add, (s * fa for s, fa in zip(self.s, f)))
        return np.where(self.null, 0.0, div / np.where(self.null, 1.0, self.div_grad))

    def project(self, *v: np.ndarray) -> tuple[np.ndarray, ...]:
        """Remove the stencil-gradient part so the central divergence is zero."""
        f = [np.fft.fftn(c) for c in v]
        phi = self._potential(*f)
        return tuple(np.real(np.fft.ifftn(fa - 1j * s * phi)) for s, fa in zip(self.s, f))

    def poisson_div(self, *r: np.ndarray) -> np.ndarray:
        """Solve DivGrad p = Div r with the null modes pinned to zero."""
        return np.real(np.fft.ifftn(self._potential(*(np.fft.fftn(c) for c in r))))


def _along(M: np.ndarray, X: np.ndarray, axis: int, out: np.ndarray | None = None):
    """The 1D matrix M applied along ``axis`` of X (into ``out``, contiguous, when
    given): one matrix product, batched over the axes before ``axis`` unless it is
    the last."""
    n = X.shape[axis]
    shape = (-1, n) if axis == X.ndim - 1 else (-1, n, int(np.prod(X.shape[axis + 1:])))
    into = None if out is None else out.reshape(shape)
    if axis == X.ndim - 1:
        return np.matmul(X.reshape(shape), M.T, out=into).reshape(X.shape)
    return np.matmul(M, X.reshape(shape), out=into).reshape(X.shape)


def _advect(v, h):
    """(v . grad) v with central differences, one array per component: D[j][i] is
    d v_i / d x_j, one kernel call per axis over the stacked components."""
    V = np.stack(v)
    D = [_d1(V, 1 + j, hj, periodic=True) for j, hj in enumerate(h)]
    return list(functools.reduce(np.add, (vj * Dj for vj, Dj in zip(v, D))))


# ---------------------------------------------------------------------------
# reduced time-marcher
# ---------------------------------------------------------------------------

def _cn_step(v, spec, dt, nu, h, tol, picard_max=40):
    """One Crank-Nicolson level with Picard-iterated advection and projection."""
    base = [vi + dt * (0.5 * nu * np.real(np.fft.ifftn(np.fft.fftn(vi) * spec.lap))
                       - 0.5 * ai) for vi, ai in zip(v, _advect(v, h))]
    wk, coef = v, nu * dt / 2
    for _ in range(picard_max):
        new = spec.project(*(spec.helmholtz(bi - 0.5 * dt * ai, coef)
                             for bi, ai in zip(base, _advect(wk, h))))
        inc = max(np.max(np.abs(ni - wi)) for ni, wi in zip(new, wk))
        wk = new
        if inc <= tol:
            return wk, inc
    raise ConvergenceError(
        f"Picard iteration stalled at increment {inc:.3e} (tolerance {tol:.3e})")


def march_reduced(initial: VectorField, config: SolveConfig, grid: Grid) -> Trajectory:
    """March the reduced system over the grid's time levels.

    Returns the stationary-structured quartet (w = u, r = p) sampled on the
    full space-time grid; the stored scalar is the variational pressure.
    The initial field must be divergence-free in the discrete sense.
    """
    _require_periodic(grid)
    if initial.grid.nodes != grid.nodes:
        raise ValueError("initial field resolution does not match the grid")
    v = [np.array(c.values[..., 0]) for c in initial.components]
    _require_divergence_free(v, grid, "field")
    h = [grid.spacing(a) for a in range(grid.dim)]
    spec = _Spectral(grid)
    vmax = max(1.0, *(np.max(np.abs(c)) for c in v))
    tol = _PICARD_TOL * vmax

    T = grid.time_nodes
    U, Q = np.empty((grid.dim, *grid.shape)), np.empty(grid.shape)
    increments = np.zeros(T)
    for k in range(T):
        if k > 0:
            v, increments[k] = _cn_step(v, spec, grid.dt, config.nu, h, tol)
        U[..., k] = v
        P = spec.poisson_div(*(-a for a in _advect(v, h)))
        Q[..., k] = P - 0.5 * functools.reduce(np.add, (vi ** 2 for vi in v))

    vel, zeros = list(U), np.zeros(T)      # one list: w holds u's very arrays
    return Trajectory(FieldQuartet.from_arrays(grid, vel, Q, vel, Q), increments, zeros, zeros,
                      True)


def kinetic_energy_series(traj: Trajectory) -> np.ndarray:
    """0.5 int |u|^2 dx per time level."""
    g = traj.state.grid
    u = traj.state.u
    dens = ScalarField(g, 0.5 * sum(c.values ** 2 for c in u.components))
    return slice_integrals(dens)


# ---------------------------------------------------------------------------
# monolithic space-time Newton solve of the stationarity system
# ---------------------------------------------------------------------------

class _Components:
    """Components of the graph linking P(x + e_a) to P(x - e_a) at each interior
    node x of a grid of ``nodes`` (links wrap only along periodic axes: a wall axis
    has no interior node on its ends): the central gradient's null space is the
    pressures constant on each. Both Newton systems pin P at the ``first`` node of
    each component and report it ``centred``, with zero mean on each component.
    Linked roots are hooked, the larger onto the smaller, and pointer jumping makes
    each root its component's smallest node: components are numbered in the order
    of their smallest node, as scipy's ``connected_components`` numbers them."""

    def __init__(self, nodes: tuple[int, ...], interior: np.ndarray):
        S = interior.size
        grid_index, inner = np.arange(S).reshape(nodes), interior.reshape(nodes)
        ends = [np.concatenate([np.roll(grid_index, shift, a)[inner] for a in range(len(nodes))])
                for shift in (1, -1)]
        root = np.arange(S)
        while not ((ra := root[ends[0]]) == (rb := root[ends[1]])).all():
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not ((jump := root[root]) == root).all():
                root = jump
        self.first = np.flatnonzero(root == np.arange(S))
        number = np.empty(S, dtype=np.intp)
        number[self.first] = np.arange(len(self.first))
        self.labels = number[root]
        self.counts = np.bincount(self.labels)

    def centred(self, P: np.ndarray) -> np.ndarray:
        return P - (np.bincount(self.labels, P) / self.counts)[self.labels]


class _DualNewtonSystem:
    """Residual and matrix-free Jacobian of the discrete system in space-time form.

    Unknowns, time-major per field: the d components of u and of w at every
    slice, p at slices 1..T-1, r at slices 1..T-2, so that unknown j S + x is
    time-field index j (of m = (2d + 2) T - 3) at node x. Rows share that
    layout: data constraints at t=0, the matching constraint u=w at t=tau in
    the final w-slot, momentum and divergence rows elsewhere, as
    :func:`el_residuals` evaluates them. On each pressure slice the divergence
    row at the first node of each pressure component (:class:`_Components`) is
    implied by the others and pins p there instead. The constant part of the
    Jacobian is L = sum_k A_k (x) B_k over the space stencils B = (I, Lap, D_0,
    ..., D_{d-1}) and m x m time matrices A_k, with the pin rows swapped in; the
    Jacobian adds the advection linearization, and both act from their factors,
    never assembled, in numpy alone: B_k as one product per axis with the 1D
    matrix of ``_d1``/``_d2`` (:func:`_along`), the A_k by the nonzero blocks of
    A_0, A_1 and A_2 between the field groups of one component (:attr:`A` holds
    those three on u_0, w_0, p, r; :attr:`time_blocks` their blocks). GMRES
    solves each Newton step, preconditioned with the exact inverse of L: the FFT
    over space splits it into one m x m block per mode, inverted as two real
    blocks once per distinct symbol (:attr:`_block_inverses`).
    """

    def __init__(self, grid: Grid, nu: float, *data):
        """``data``: the initial velocity, one array of the grid's nodes per axis."""
        _require_periodic(grid)
        d, S, T = grid.dim, int(np.prod(grid.nodes)), grid.time_nodes
        self.grid, self.nu, self.S, self.T = grid, nu, S, T
        m = (2 * d + 2) * T - 3
        # the 1D stencil matrices: the kernels applied to an identity
        one_d = lambda op, a: op(np.eye(grid.nodes[a]), 0, grid.spacing(a), periodic=True)
        self.d1, self.d2 = ([one_d(op, a) for a in range(d)] for op in (_d1, _d2))
        DT = _d1(np.eye(T), 0, grid.dt, periodic=False)
        self.g = np.array(data, dtype=float).reshape(d, S)
        self.gauge = _Components(grid.nodes, np.ones(S, dtype=bool))
        self.n_dof, self.spec = m * S, _Spectral(grid)

        # slice selectors: data (0), matching (T-1), momentum rows of u (1..T-1)
        # and of w (1..T-2); lift_p/lift_r place the p/r slices among all T
        first, last = np.eye(T)[[0, -1]]
        mom_u, mom_w = 1 - first, 1 - first - last
        self.momentum_mask = np.array([mom_u, mom_w])[:, None, None, :, None]  # [f, i, j, t, x]
        E0, ET, MU, MW = map(np.diag, (first, last, mom_u, mom_w))
        lift_p, lift_r = np.eye(T, T - 1, -1), np.eye(T, T - 2, -1)
        # time matrices of I, Lap and D_0 on one component's fields u_0, w_0, p, r: A_0
        # and A_1 act alike on the (u_i, w_i) of every component i, and A_{2+i} couples
        # them to (p, r) as A_2 does (u_0, w_0), so the nonzero blocks of these between
        # the field groups u, w, p, r act on all components at once
        groups = np.split(np.arange(4 * T - 3), np.cumsum([T, T, T - 1]))
        self.A = A = np.zeros((3, 4 * T - 3, 4 * T - 3))
        for k, row, col, block in (
                (0, 0, 0, E0), (1, 0, 0, nu * MU), (0, 0, 1, -MU @ DT),
                (0, 1, 0, ET - MW @ DT), (0, 1, 1, E0 - ET), (1, 1, 1, nu * MW),
                (2, 0, 2, -lift_p), (2, 1, 3, -lift_r),
                (2, 2, 0, lift_p.T), (2, 3, 1, lift_r.T)):
            A[k][np.ix_(groups[row], groups[col])] = block
        self.velocities = 2 * d * T   # time-field indices of u and w come first
        self.time_blocks = [(k, a, b, block) for k in range(3)
                            for a, rows in enumerate(groups) for b, cols in enumerate(groups)
                            if (block := A[k][np.ix_(rows, cols)]).any()]
        self._last_residuals = None, None

    def _stencils(self, V: np.ndarray) -> np.ndarray:
        """D_0 V, ..., D_{d-1} V of the (rows, S) array V, stacked: one 1D matrix
        product per axis of the slice."""
        X = V.reshape(-1, *self.grid.nodes)
        DV = np.empty((self.grid.dim, *X.shape))
        for a, D in enumerate(self.d1):
            _along(D, X, 1 + a, out=DV[a])
        return DV.reshape(self.grid.dim, len(V), self.S)

    # -- state packing -----------------------------------------------------
    def pack(self, quartet: FieldQuartet) -> np.ndarray:
        z = np.zeros(self.n_dof)
        u, w, p, r = self.unpack(z)         # views into z
        slabs = lambda f: np.moveaxis(f.values, -1, 0).reshape(self.T, self.S)
        u[:] = [slabs(c).ravel() for c in quartet.u.components]
        w[:] = [slabs(c).ravel() for c in quartet.w.components]
        p[:] = slabs(quartet.p)[1:]
        r[:] = slabs(quartet.r)[1:-1]
        return z

    def unpack(self, z: np.ndarray):
        """Views (u, w, p, r) of shapes (d, T S), (d, T S), (T-1, S), (T-2, S)."""
        dTS = self.grid.dim * self.T * self.S
        return (*z[:2 * dTS].reshape(2, self.grid.dim, -1),
                *np.split(z[2 * dTS:].reshape(-1, self.S), [self.T - 1]))

    def _field(self, slabs: np.ndarray) -> np.ndarray:
        """The field array, time last, of T slabs of S nodes, raveled or not."""
        return np.moveaxis(slabs.reshape(self.T, *self.grid.nodes), 0, -1).copy()

    def _el_residuals(self, z: np.ndarray):
        """:func:`el_residuals` of ``z`` with p_0, r_0 and r_{T-1} zero. The last
        result is kept and returned again for the same array, so that ``to_quartet``
        of an iterate the Newton loop took does not repeat the residual's work;
        ``z`` is never changed in place."""
        if self._last_residuals[0] is not z:
            (u, w, p, r), f = self.unpack(z), self._field
            state = FieldQuartet.from_arrays(self.grid, map(f, u), f(np.pad(p, ((1, 0), (0, 0)))),
                                             map(f, w), f(np.pad(r, ((1, 1), (0, 0)))))
            self._last_residuals = z, el_residuals(state, self.nu)
        return self._last_residuals[1]

    # -- residual ----------------------------------------------------------
    def residual(self, z: np.ndarray) -> np.ndarray:
        res = self._el_residuals(z)
        F = self.pack(FieldQuartet(res.res_u, res.res_div_u, res.res_w, res.res_div_w))
        u, w, p, r = self.unpack(z)
        Fu, Fw, Fp, Fr = self.unpack(F)     # row blocks share the unknowns' layout
        S, first = self.S, self.gauge.first
        Fu[:, :S] = u[:, :S] - self.g
        Fw[:, :S] = w[:, :S] - self.g
        Fw[:, -S:] = u[:, -S:] - w[:, -S:]
        Fp[:, first] = p[:, first]
        Fr[:, first] = r[:, first]
        return F

    # -- Jacobian ----------------------------------------------------------
    def jacobian(self, z: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """v -> J(z) v, J = L + N(z): L v = sum_k A_k V B_k^T (V the (m, S) array
        of v; v itself on the pin rows), and N, the advection linearization, adds
        sum_j c_ij (du_j + dw_j) + s_j (D_i db_j + D_j db_i) to momentum row i of each
        family (b the other one), c_ij = -(D_j b_i + D_i b_j) / 2 and s_j = -(u_j +
        w_j) / 2 computed once. N vanishes at z = 0, where J is L."""
        d, T, S, vel, first = self.grid.dim, self.T, self.S, self.velocities, self.gauge.first

        def partners(DV):      # [f, i, j]: D_i b_j + D_j b_i, b the partner of family f
            G = np.moveaxis(DV[:, :vel].reshape(d, 2, d, T, S), 0, 1)[::-1]
            return G + G.swapaxes(1, 2)
        uw = z[:vel * S].reshape(2, d, T, S)
        coef = -0.5 * self.momentum_mask * partners(self._stencils(uw.reshape(vel, S)))
        sweep = -0.5 * self.momentum_mask * (uw[0] + uw[1])

        def matvec(v):
            V = v.reshape(-1, S)
            DV = self._stencils(V)
            Y = V[:vel].reshape(-1, *self.grid.nodes)
            lap = functools.reduce(np.add, (_along(D, Y, 1 + a) for a, D in enumerate(self.d2)))
            # the inputs of A_0, A_1 and A_{2+i} per field group and component i: D_i
            # of (u_i, w_i), of p and of r; a pressure row sums the components'
            DY = np.moveaxis(np.diagonal(DV[:, :vel].reshape(d, 2, d, T, S), 0, 0, 2), -1, 1)
            X = (Y.reshape(2, d, T, S), lap.reshape(2, d, T, S),
                 (*DY, *np.split(DV[:, vel:], [T - 1], axis=1)))
            out = np.zeros_like(V)
            rows = [*out[:vel].reshape(2, d, T, S), *np.split(out[vel:], [T - 1])]
            for k, a, b, block in self.time_blocks:
                rows[a] += block @ (X[k][b] if a < 2 else X[k][b].sum(0))
            out[:vel] += (coef * V[:vel].reshape(2, d, T, S).sum(0)
                          + sweep * partners(DV)).sum(2).reshape(vel, S)
            out[vel:, first] = V[vel:, first]
            return out.ravel()
        return matvec

    def newton_step(self, z: np.ndarray, F: np.ndarray, eta: float):
        """:func:`_gmres`'s (s, iterations, met) for J(z) s = -F to the forcing term
        ``eta``."""
        return _gmres(self.jacobian(z), -F, self._solve_linear_part, eta)

    @functools.cached_property
    def _block_inverses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real inverses of the blocks of L without its pin rows, A_0 + lap A_1 + i s_0
        A_2 + ... + i s_{d-1} A_{d+1} with the stencils' Fourier symbols, at the S'
        modes of the rfft half: A_k is real, lap even and s_a odd, so the block at -k
        is the conjugate of the one at k. A block couples u_a and w_a to p and r only
        through i s_a, and every component has the same 2T x 2T velocity block Vel =
        A_0 + lap A_1 on (u_a, w_a); so with e = s / |s| the components across e see
        Vel alone, and (e . u, e . w, p, r) the (4T - 3) x (4T - 3) saddle block,
        which is real once p and r are scaled by i. Returns e (S', d), the inverses of
        Vel (S', 2T, 2T) and of the saddle block. On the null modes of the central
        gradient e and the saddle inverse are zero, and Vel is inverted in the
        least-squares sense: at odd T the zero mode's is singular (the leapfrog mode
        of the central time difference). A singular block elsewhere raises
        LinAlgError. Modes share symbols (the stencils' are even in each axis): each
        distinct saddle block, keyed on the bits of (lap, |s|), and each distinct
        velocity block, keyed on lap, is inverted once and handed to every mode that
        has it, bit for bit what inverting each mode's gives: 561 saddle blocks for
        the 2,112 modes of 64^2, 214 for the 2,304 of 16^3."""
        spec, T = self.spec, self.T
        half = (..., slice(self.grid.nodes[-1] // 2 + 1))
        lap, null, *s = (a.ravel() for a in np.broadcast_arrays(
            spec.lap[half], spec.null[half], *(s[half] for s in spec.s)))
        s = np.stack(s, -1)
        norm = np.sqrt((s ** 2).sum(-1))
        norm[null] = 1.0                 # their blocks are replaced below
        e = s / norm[:, None]
        e[null] = 0.0
        # (u_0, w_0, p, r): the gradient couples u_0 to p, w_0 to r; scaling p and r
        # by i turns i s_0 A_2 into |s| times A_2 negated on the velocity rows
        A0, A1, grad = self.A.copy()
        grad[:2 * T] *= -1

        def inverses(keys, size, stand_in):
            """Each mode's inverse of the leading size x size part of its saddle block,
            inverted once per distinct row of ``keys`` (compared by their bits), the
            null modes' replaced by ``stand_in`` of theirs."""
            _, first, index = np.unique(np.stack(keys, 1).view(np.uint64), axis=0,
                                        return_index=True, return_inverse=True)
            blocks = (A0 + lap[first, None, None] * A1
                      + norm[first, None, None] * grad)[:, :size, :size]
            singular = null[first]
            replaced = stand_in(blocks[singular])
            blocks[singular] = np.eye(size)
            blocks = np.linalg.inv(blocks)
            blocks[singular] = replaced
            return blocks[index.ravel()]
        # the velocity block does not see |s|; the null flag keeps the stand-ins apart
        velocity = inverses((lap, null), 2 * T, lambda b: np.linalg.pinv(b, rtol=1e-10))
        return e, velocity, inverses((lap, norm, null), 4 * T - 3, np.zeros_like)

    def _solve_linear_part(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b mode by mode in Fourier space, on the rfft half. The divergence
        rows of a component sum to zero, so the row each pin replaces is set to
        minus the sum of the rest of its component; the pressures, free by N (the
        component indicator) without the pins, are then shifted onto them. The real
        inverses act on float views of the complex modes (re, im side by side)."""
        d, T, v = self.grid.dim, self.T, self.velocities
        labels, first = self.gauge.labels, self.gauge.first
        B = b.reshape(-1, self.S).copy()
        pins = B[v:, first].copy()
        B[v:, first] = 0.0
        rows = np.arange(len(B) - v)[:, None] * len(first)       # one bin per row and component
        B[v:, first] = -np.bincount((labels + rows).ravel(), B[v:].ravel(),
                                    rows.size * len(first)).reshape(len(rows), -1)
        nodes, space = self.grid.nodes, range(1, self.grid.dim + 1)
        modes = np.fft.rfftn(B.reshape(-1, *nodes), axes=space)
        e, velocity, saddle = self._block_inverses
        M = modes.reshape(len(B), -1).T                             # [mode, time-field]
        uw = M[:, :v].reshape(-1, 2, d, T).swapaxes(2, 3)            # [mode, family, t, a]
        along = uw @ e[:, None, :, None]
        across = (uw - along * e[:, None, None]).reshape(-1, 2 * T, d)
        # the saddle block's real system: its p and r rows times -i, its p and r times i
        Y = np.concatenate([along.reshape(-1, 2 * T), -1j * M[:, v:]], axis=1)
        Y = (saddle @ Y.view(float).reshape(*Y.shape, 2)).reshape(len(Y), -1).view(complex)
        X = np.empty_like(M, order="C")
        np.add((velocity @ across.view(float)).view(complex).reshape(-1, 2, T, d),
               Y[:, :2 * T].reshape(-1, 2, T, 1) * e[:, None, None],
               out=X[:, :v].reshape(-1, 2, d, T).swapaxes(2, 3))
        np.multiply(Y[:, 2 * T:], 1j, out=X[:, v:])
        X = np.fft.irfftn(X.T.reshape(modes.shape), s=nodes, axes=space).reshape(-1, self.S)
        X[v:] += (pins - X[v:, first])[:, labels]
        return X.ravel()

    # -- pressure fill for the excluded slices ------------------------------
    def to_quartet(self, z: np.ndarray) -> FieldQuartet:
        """Quartet of ``z``; p at slice 0 and r at slices 0 and T-1 solve the
        divergence of their momentum rows, and every pressure slice is centred
        on each pressure component."""
        (u, w, p, r), f = self.unpack(z), self._field
        res = self._el_residuals(z)
        fill = lambda vec, k: self.spec.poisson_div(
            *(c.values[..., k] for c in vec.components)).ravel()
        centred = lambda slabs: np.array([self.gauge.centred(s) for s in slabs])
        P = centred([fill(res.res_u, 0), *p])
        R = centred([fill(res.res_w, 0), *r, fill(res.res_w, -1)])
        return FieldQuartet.from_arrays(self.grid, map(f, u), f(P), map(f, w), f(R))


def u_w_gap(state: FieldQuartet) -> float:
    """Relative space-time L2 gap between the two velocity families."""
    g = state.grid
    l2 = lambda arrs: float(np.sqrt(max(integrate_spacetime(
        ScalarField(g, sum(a ** 2 for a in arrs))), 0.0)))
    nrm = l2(c.values for c in state.u.components)
    gap = l2(cu.values - cw.values for cu, cw in zip(state.u.components, state.w.components))
    return gap / nrm if nrm > 0 else gap


def newton_dual(seed: FieldQuartet, data: VectorField | None,
                config: SolveConfig, grid: Grid) -> Trajectory:
    """Damped Newton iteration on the monolithic discrete stationarity system.

    ``data`` supplies the shared initial velocity (its t=0 slice); when None
    the seed's own u at t=0 is used. With ``continuation_steps`` > 0 the
    solve runs the viscosity ladder of :func:`_viscosity_ladder`.
    """
    _require_periodic(grid)
    if seed.grid != grid:
        raise ValueError("seed quartet grid does not match")
    if (need := _newton_dual_bytes(grid)) > _MAX_NEWTON_BYTES:
        raise ValueError(f"space-time system too large (about {need / 1e6:.0f} MB, limit "
                         f"{_MAX_NEWTON_BYTES / 1e6:.0f} MB); this solver is meant for "
                         "desk-scale grids")
    source = seed.u if data is None else data
    initial = [c.values[..., 0] for c in source.components]
    _require_divergence_free(initial, grid, "data")

    z = q = rep = None
    for nu, tol in _viscosity_ladder(config):
        system = _DualNewtonSystem(grid, nu, *initial)
        if z is None:
            z = system.pack(seed)
        record, steps = ([], [], []), []      # history of the stage that finishes last

        def log(zz, norm, gmres, system=system, record=record, steps=steps):
            nonlocal q, rep            # the quartet of the last iterate and its
            q = system.to_quartet(zz)  # functional, returned
            rep = evaluate_lagrangian(q, system.nu)
            for h, x in zip(record, (norm, u_w_gap(q), rep.J)):
                h.append(x)
            if gmres:
                steps.append(gmres)

        try:
            z, ok = _newton_loop(system, z, config, tol, log)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "singular stationarity Jacobian; increase continuation_steps "
                f"to approach the target viscosity gradually ({exc})") from exc
        if not ok:
            break
    return Trajectory(q, *(np.array(h) for h in record), ok,
                      rep if system.nu == config.nu else None, tuple(steps))


def _newton_dual_bytes(grid: Grid) -> float:
    """Estimated peak memory of :func:`newton_dual` beside the interpreter's: the
    preconditioner's two real inverted blocks per mode of the rfft half, of (2T)^2
    and (4T - 3)^2 floats, and ``_BYTES_PER_UNKNOWN`` per unknown."""
    n, T = grid.nodes, grid.time_nodes
    modes = np.prod(n[:-1]) * (n[-1] // 2 + 1)
    unknowns = ((2 * grid.dim + 2) * T - 3) * np.prod(n)
    return 8 * modes * ((2 * T) ** 2 + (4 * T - 3) ** 2) + _BYTES_PER_UNKNOWN * unknowns


def _viscosity_ladder(config: SolveConfig) -> list[tuple[float, float]]:
    """(viscosity, tolerance) of each rung of the continuation both Newton solves
    run. With ``continuation_steps`` > 0 the solve starts at ten times the target
    viscosity and halves toward it, each rung to a tolerance of at least 1e-6 and
    seeded with the last rung's result; the last rung is the target at
    ``newton_tol``."""
    rungs = [config.nu * 10.0 * 0.5 ** j for j in range(config.continuation_steps)]
    loose = max(config.newton_tol, 1e-6)
    return [(nu, loose) for nu in rungs if nu > config.nu] + [(config.nu, config.newton_tol)]


#: length of the pieces :func:`_dot` sums one by one: OpenBLAS splits a dot product
#: of more than 10,000 entries among its threads, which sum it in another order
_DOT_PIECE = 8192


def _dot(x: np.ndarray, y: np.ndarray):
    """x . y; longer than ``_DOT_PIECE``, summed over pieces of that length in turn,
    so that it has the same bits at any BLAS thread count."""
    if len(x) <= _DOT_PIECE:
        return x.dot(y)
    return sum(x[i:i + _DOT_PIECE].dot(y[i:i + _DOT_PIECE])
               for i in range(0, len(x), _DOT_PIECE))


def _norm(x: np.ndarray):
    """The 2-norm of x from :func:`_dot`: np.linalg.norm's bits up to one piece."""
    return np.sqrt(_dot(x, x))


def _newton_loop(system, z: np.ndarray, config: SolveConfig, tol: float, log,
                 measure=_norm):
    """At most ``config.max_newton`` inexact Newton steps ``system.newton_step`` on
    ``system``, each halved until the residual norm (``measure``) drops, to norm <=
    tol_eff = tol * max(1, initial norm); ``log(z, norm, gmres)`` sees every iterate,
    with the (iterations, converged) of the GMRES solve that reached it (None for
    the first). Returns (z, converged).

    Inexact Newton: each step asks GMRES for |F + J s| <= eta |F| (2-norms), with
    the forcing term eta = tol_eff / (2 norm), the relative reduction that would
    take the residual to half the stop: early steps are solved tightly, the last
    loosely, and none beyond what the stop needs, in either norm. Eisenstat and
    Walker's choice 2 loosens the next-to-last step too, and so costs a third
    Newton step where most of these solves take two. A norm that is not finite (one
    that overflows is inf, without a warning) never converges."""
    def size(F):
        with np.errstate(over="ignore"):
            return measure(F)
    F = system.residual(z)
    norm = size(F)
    tol_eff = tol * max(1.0, norm)
    log(z, norm, None)
    if not np.isfinite(norm):
        return z, False
    for _ in range(config.max_newton):
        if norm <= tol_eff:
            return z, True
        step, iterations, met = system.newton_step(z, F, 0.5 * tol_eff / norm)
        if not np.isfinite(step).all():
            raise ConvergenceError(f"non-finite Newton step at residual {norm:.3e}")
        alpha = 1.0
        while alpha >= 2 ** -30:
            z_try = z + alpha * step
            F_try = system.residual(z_try)
            n_try = size(F_try)
            if n_try < norm:
                break
            alpha /= 2
        else:
            return z, norm <= tol_eff
        z, F, norm = z_try, F_try, n_try
        log(z, norm, (iterations, met))
    return z, norm <= tol_eff


@np.errstate(over="ignore", invalid="ignore")
def _gmres(matvec, b: np.ndarray, precondition, rtol: float, restart: int = 60,
           cycles: int = 10):
    """x with |b - A x| <= rtol |b| by restarted GMRES, A applied by ``matvec`` and
    preconditioned on the right by ``precondition`` (an approximate A^{-1}), for at
    most ``cycles`` cycles of ``restart`` iterations. One Krylov basis of restart + 1
    vectors; Arnoldi by modified Gram-Schmidt, its least-squares problem by Givens
    rotations, and x += M^{-1} V y once per cycle. The target is checked on the true
    residual b - A x at the end of each cycle. Returns (x, iterations, whether x met
    the target); b = 0 returns x = 0. Krylov vectors that overflow leave inf and NaN
    in H and x without a floating-point warning; the Newton loop's checks of the step
    and of its residual norm see them."""
    x, r = np.zeros_like(b), b
    beta, target = _norm(b), rtol * _norm(b)
    V, iterations = np.empty((restart + 1, len(b))), 0
    for _ in range(cycles):
        if beta <= target:
            break
        H, g = np.zeros((restart + 1, restart)), np.zeros(restart + 1)
        c, s = np.zeros(restart), np.zeros(restart)
        np.divide(r, beta, out=V[0])
        g[0] = beta
        for k in range(restart):
            w = matvec(precondition(V[k]))
            size = _norm(w)
            for i in range(k + 1):
                H[i, k] = _dot(V[i], w)
                w -= H[i, k] * V[i]
            H[k + 1, k] = _norm(w)
            iterations += 1
            invariant = H[k + 1, k] <= np.finfo(float).eps * size
            if not invariant:
                np.divide(w, H[k + 1, k], out=V[k + 1])
            for i in range(k):
                H[i, k], H[i + 1, k] = (c[i] * H[i, k] + s[i] * H[i + 1, k],
                                        c[i] * H[i + 1, k] - s[i] * H[i, k])
            rho = np.hypot(H[k, k], H[k + 1, k])
            c[k], s[k] = (H[k, k] / rho, H[k + 1, k] / rho) if rho else (1.0, 0.0)
            H[k, k], g[k], g[k + 1] = rho, c[k] * g[k], -s[k] * g[k]
            if abs(g[k + 1]) <= target or invariant:
                break
        y = g[:k + 1].copy()
        for i in range(k, -1, -1):      # back substitution; a zero pivot leaves y_i 0
            y[i] = (y[i] - H[i, i + 1:k + 1] @ y[i + 1:]) / H[i, i] if H[i, i] else 0.0
        x += precondition(y @ V[:k + 1])
        r = b - matvec(x)
        beta = _norm(r)
        if invariant:
            break
    return x, iterations, bool(beta <= target)


# ---------------------------------------------------------------------------
# steady Newton solve
# ---------------------------------------------------------------------------

#: largest steady system with a wall axis ((dim + 1) S unknowns) in 2D and in 3D,
#: so that its sparse LU keeps the process under about 0.6 GB resident. Peak RSS
#: of a whole lid-cavity solve, single-thread BLAS on a 2-vCPU Xeon: 160^2 0.55 GB
#: (6.5 s), 15^3 0.37 GB (10 s); one LU at 16^3 alone took 0.75 GB
_MAX_STEADY_LU_UNKNOWNS = (80_000, 14_000)

#: first pseudo-time step of the steady Newton solve. From random:2 on a 32^2
#: periodic grid, Newton without pseudo-time steps exits 2 after 25 steps at
#: nu 0.05 and 0.02; with 1 it takes 10 and 22 steps. The price: Taylor-Green
#: takes 7 steps instead of 2, the lid cavities at most one more. 0.3 and 0.1
#: take up to three times as many steps.
_DTAU0 = 1.0


class _SteadyNewtonSystem:
    """Steady discrete Navier-Stokes system; its residual is L z - b less advection.

    Unknowns: velocity v, physical pressure P, a multiplier c_k per pressure
    component (:class:`_Components`; N is their indicator) and, all-periodic, a
    body force per axis.
    Rows: interior momentum nu Lap v - (v . grad) v - grad P (- force), v = data
    on walls, div v - N c at every node, P = 0 at one node per component and,
    all-periodic, the initial mean velocity.
    """

    def __init__(self, grid: Grid, nu: float, data: np.ndarray, start: np.ndarray):
        import scipy.sparse as sp
        d, S = grid.dim, int(np.prod(grid.nodes))
        self.grid, self.nu, self.d, self.S = grid, nu, d, S
        DX, LAP = _stencil_matrices(grid)
        self.DX_stacked = sp.vstack(DX, format="csr")     # row j S + x: D_j at x
        self.interior = m = ~_wall_boundary_mask(grid)[..., 0].ravel()
        self.periodic = m.all()
        self.gauge = gauge = _Components(grid.nodes, m)
        K, labels, nodes = len(gauge.first), gauge.labels, np.arange(S)
        # a multiplier on a component with an interior node is a mass defect
        self.watched = np.bincount(labels, m) > 0
        forces = d if self.periodic else 0     # all-periodic: a force and a mean row per axis
        P, C, R = d * S, (d + 1) * S, (d + 1) * S + K    # first P, c and force index
        n, E, comp = R + forces, np.arange(forces * S), S * np.arange(d)[:, None]
        lap, grad = LAP.tocoo(), self.DX_stacked.tocoo()
        inner, gi, walls = m[lap.row], m[grad.row % S], nodes[~m]
        # interior rows nu Lap, to the bit as M nu Lap + I - M summed them
        lap_vals = np.where(lap.row == lap.col, (nu * lap.data + 1.0) - 1.0, nu * lap.data)
        # a dense N^T P = 0 row would multiply the LU fill: pin P, shift it afterwards
        blocks = [  # (rows, columns, values) of each block of L; comp + x: v_i at x
            (comp + lap.row[inner], comp + lap.col[inner], lap_vals[inner]),
            (comp + walls, comp + walls, 1.0),                            # v = data
            (grad.row[gi], P + grad.col[gi], -grad.data[gi]),             # -M D_i
            (P + grad.row % S, grad.row // S * S + grad.col, grad.data),  # divergence
            (P + nodes, C + labels, -1.0),                                # -N
            (C + np.arange(K), P + gauge.first, 1.0),                     # pins
            (E, R + E // S, -1.0), (R + E // S, E, 1.0 / S)]              # force, means
        rows, cols, vals = (np.concatenate([np.broadcast_to(b[k], np.shape(b[0])).ravel()
                                            for b in blocks]) for k in range(3))
        self.L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        v0 = np.where(m, start, data)
        self.b = np.concatenate([np.where(m, 0.0, data).ravel(), np.zeros(S + K),
                                 v0.mean(axis=1)[:forces]])
        self.z0 = np.concatenate([v0.ravel(), np.zeros(n - v0.size)])
        self.norm0 = None                   # residual of the first step

    def unpack(self, z: np.ndarray):
        """Views (v, P, c) of shapes (d, S), (S,), (K,)."""
        v, P, c, _ = np.split(z, np.cumsum([self.d * self.S, self.S, len(self.watched)]))
        return v.reshape(self.d, self.S), P, c

    def residual(self, z: np.ndarray) -> np.ndarray:
        v = self.unpack(z)[0]
        grads = (self.DX_stacked @ v.T).reshape(self.d, self.S, self.d)   # [j, :, i]: D_j v_i
        adv = [sum(v[j] * grads[j, :, i] for j in range(self.d)) for i in range(self.d)]
        F = self.L @ z - self.b
        F[:v.size] -= (self.interior * np.array(adv)).ravel()
        return F

    def jacobian_operator(self, z: np.ndarray, shift: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> (J(z) - shift V) x = L x - shift V x - A(z) x, V the identity on the
        interior momentum rows. The advection linearization A(z), (A x)_i = sum_j
        G_ij x_j + W_j D_j x_i on the velocity rows, has G_ij = m D_j v_i and W_j = m
        v_j (m the interior mask), computed once; shift V joins G_ii as shift m."""
        d, S, m, DX = self.d, self.S, self.interior, self.DX_stacked
        v = self.unpack(z)[0]
        G = m * (DX @ v.T).reshape(d, S, d).transpose(2, 0, 1)     # (d, d, S)
        W = m * v                                                   # (d, S)
        G[range(d), range(d)] += shift * m

        def matvec(x):
            xv = x[:d * S].reshape(d, S)
            grads = (DX @ xv.T).reshape(d, S, d)      # [j, :, i]: D_j x_i
            out = self.L @ x
            out[:d * S] -= ((G * xv).sum(1) + (W[..., None] * grads).sum(0).T).ravel()
            return out
        return matvec

    def newton_step(self, z: np.ndarray, F: np.ndarray, eta: float):
        """-(J - V / dtau)^{-1} F with V the identity on the interior momentum rows:
        a backward-Euler pseudo-time step whose dtau grows as dtau0 |F_0| / |F|
        (switched evolution relaxation), so that the steps become Newton's as the
        residual falls; |F_0| is the first residual of the solve, of its first rung
        with a viscosity ladder. :func:`_gmres` to the forcing term ``eta`` on
        :meth:`jacobian_operator`, never assembled, preconditioned by an inverse of
        the linear part: exact in Fourier space on all-periodic grids; on grids with
        a wall axis the sparse LU of L - V / dtau0, the linear part at the first
        step, which does not depend on z and so is factored once. Returns
        :func:`_gmres`'s (step, iterations, met)."""
        norm = np.abs(F).max()
        if self.norm0 is None:
            self.norm0 = norm
        shift = norm / (_DTAU0 * self.norm0)
        precondition = (functools.partial(self._solve_linear_part, shift=shift)
                        if self.periodic else self._linear_lu.solve)
        return _gmres(self.jacobian_operator(z, shift), -F, precondition, eta)

    @functools.cached_property
    def _linear_lu(self):
        """Sparse LU of L - V / dtau0, V the identity on the interior momentum rows; a
        singular matrix raises ``LinAlgError`` carrying the SuperLU message."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        V = sp.diags(np.concatenate([np.tile(self.interior, self.d),
                                     np.zeros(self.L.shape[0] - self.d * self.S)]))
        try:
            return spla.splu((self.L - V / _DTAU0).tocsc())
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc

    @functools.cached_property
    def _spectral(self) -> _Spectral:
        return _Spectral(self.grid)

    def _solve_linear_part(self, r: np.ndarray, shift: float) -> np.ndarray:
        """(L - shift V)^{-1} r on an all-periodic grid, mode by mode in Fourier
        space: every stencil is circulant; the null modes of the central gradient
        (the span of N) carry c and the pins, the constant mode the mean rows and
        the force."""
        g, d, S, spec, gauge = self.grid, self.d, self.S, self._spectral, self.gauge
        rv, rc, rp, rm = np.split(r, np.cumsum([d * S, S, len(gauge.first)]))
        lap = self.nu * spec.lap - shift
        lap.flat[0] = 1.0                                    # the constant mode
        c = -np.bincount(gauge.labels, rc) / gauge.counts    # divergence rows: rc + N c
        div = np.fft.fftn((rc + c[gauge.labels]).reshape(g.nodes))
        R = [np.fft.fftn(ri.reshape(g.nodes)) for ri in rv.reshape(d, S)]
        P = np.where(spec.null, 0.0, (lap * div - 1j * sum(s * Ri for s, Ri in zip(spec.s, R)))
                     / np.where(spec.null, 1.0, spec.div_grad))
        V = [(Ri + 1j * s * P) / lap for s, Ri in zip(spec.s, R)]
        for Vi, mean in zip(V, rm):
            Vi.flat[0] = mean * S
        v = np.array([np.fft.ifftn(Vi).real.ravel() for Vi in V])
        P = np.fft.ifftn(P).real.ravel()
        P += (rp - P[gauge.first])[gauge.labels]             # pins, through N
        force = -rv.reshape(d, S).mean(axis=1) - shift * rm
        return np.concatenate([v.ravel(), P, c, force])

    def to_quartet(self, z: np.ndarray) -> FieldQuartet:
        """Quartet with w = u and r = p = P - |v|^2 / 2, P in the gauge N^T P = 0."""
        g, (v, P, _) = self.grid, self.unpack(z)
        P = self.gauge.centred(P)
        vel = [c.reshape(*g.nodes, 1) for c in v]
        q = (P - 0.5 * (v ** 2).sum(axis=0)).reshape(*g.nodes, 1)
        return FieldQuartet.from_arrays(g, vel, q, vel, q)


def steady_solve(boundary_data: VectorField | None, config: SolveConfig,
                 grid: Grid, initial: VectorField | None = None) -> FieldQuartet:
    """Damped Newton solve of :class:`_SteadyNewtonSystem` to a quartet with w = u, r = p;
    its first steps are pseudo-time steps that grow into Newton steps.

    ``boundary_data`` holds the wall velocities (None on all-periodic grids),
    ``initial`` the starting interior velocity (zero when None). The solve stops
    when the largest residual entry is at most ``newton_tol`` times the data scale
    max(1, |data|, |initial|); with ``continuation_steps`` > 0 it first runs the
    rungs of :func:`_viscosity_ladder`, each to its tolerance times that scale.
    Raises :class:`StagnationError` when ``config.max_newton`` steps do not get
    there or the wall data is not discretely mass-compatible (a multiplier c_k
    above that tolerance), and :class:`ConvergenceError` on a singular Jacobian."""
    if not grid.steady:
        raise ValueError("steady_solve needs a steady grid (time_nodes == 1)")
    walls = any(b != PERIODIC for b in grid.boundaries)
    if walls != (boundary_data is not None):
        raise ValueError("wall grids need boundary velocity data, all-periodic grids none")
    if walls and boundary_data.grid.nodes != grid.nodes:
        raise ValueError("boundary data resolution does not match the grid")
    S = int(np.prod(grid.nodes))
    unknowns, limit = (grid.dim + 1) * S, _MAX_STEADY_LU_UNKNOWNS[grid.dim > 2]
    if walls and unknowns > limit:
        raise ValueError(f"steady system too large for its sparse LU ({unknowns} "
                         f"unknowns, limit {limit} with a wall axis)")
    flat = lambda vec: (np.zeros((grid.dim, S)) if vec is None
                        else np.array([c.values[..., 0].ravel() for c in vec.components]))
    data, start = flat(boundary_data), flat(initial)
    largest = lambda F: np.abs(F).max()
    z = norm0 = None
    for nu, tol in _viscosity_ladder(config):
        system = _SteadyNewtonSystem(grid, nu, data, start)
        # pseudo-time runs on across the rungs: a rung that starts near its solution
        # takes Newton steps, not steps of dtau0 again
        system.norm0 = norm0
        if z is None:
            z = system.z0
        # the largest residual entry must reach tol times the data scale;
        # _newton_loop scales its tolerance by the initial norm, which is undone here
        tol = tol * max(1.0, np.abs(system.z0).max())
        history, gmres = [], []

        def log(z, norm, step):
            history.append(norm)
            if step:
                gmres.append(step)

        try:
            z, ok = _newton_loop(system, z, config, tol / max(1.0, largest(system.residual(z))),
                                 log, largest)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular steady Newton Jacobian ({exc})",
                                   history, gmres) from exc
        if not ok:
            raise StagnationError(
                f"steady Newton stopped at residual {history[-1]:.3e} (tolerance {tol:.3e}) "
                f"after {len(history) - 1} of at most {config.max_newton} steps "
                f"at viscosity {nu}", history, gmres)
        norm0 = system.norm0
    defect = np.abs(system.unpack(z)[2][system.watched]).max()
    if defect > tol:
        raise StagnationError("wall data is not discretely mass-compatible (divergence "
                              f"multiplier {defect:.3e})", history, gmres)
    return system.to_quartet(z)

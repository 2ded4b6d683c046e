"""Solvers that produce fields at or near the stationary configuration.

Three routes to the stationary point:

* an exact decaying-vortex oracle (closed-form solution of the reduced
  system, stored with the variational pressure scalar),
* a Crank-Nicolson / Picard / projection time-marcher for the reduced system
  on periodic grids (the w=u, r=p trajectory),
* a monolithic Newton solve of the full discrete stationarity system over
  space-time, the direct computational test that the stationary point has
  u = w and functional value zero.

Periodic stencil systems (viscous solve, projection, pressure recovery) are
solved exactly in Fourier space: the FFT diagonalizes every circulant
stencil, so these are direct solves of the discrete operators, not spectral
approximations. The composite divergence-of-gradient symbol vanishes on the
constant and Nyquist modes; those pressure modes are pinned to zero (the
mean-zero gauge extended to the checkerboard modes of the collocated layout).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import (
    PERIODIC,
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    _d1,
    _d2,
    _wall_boundary_mask,
    integrate_spacetime,
    slice_integrals,
)
from .lagrangian import evaluate_lagrangian

TWO_PI = 2 * np.pi

#: largest space-time Newton system (S (6T - 3) unknowns) whose direct sparse
#: LU stays at desk scale. One Jacobian plus splu with single-thread BLAS on a
#: 2-vCPU Xeon: 14^2 x 8 (8,820 unknowns) 9 s and 0.5 GB, 16^2 x 8 (11,520)
#: 21 s and 0.7 GB
_MAX_NEWTON_UNKNOWNS = 10_000


class ConvergenceError(RuntimeError):
    """Iteration failed to reach its tolerance; carries the history."""

    def __init__(self, message, trajectory=None, history=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.history = history


class StagnationError(ConvergenceError):
    """Pseudo-time residual stopped improving."""


@dataclass(frozen=True)
class SolveConfig:
    nu: float
    newton_tol: float = 1e-10
    max_newton: int = 25
    continuation_steps: int = 0
    time_scheme: str = "crank-nicolson"
    linear_tol: float = 1e-11

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.newton_tol <= 0 or self.max_newton < 1:
            raise ValueError("newton_tol must be positive and max_newton >= 1")
        if self.time_scheme != "crank-nicolson":
            raise ValueError("only the crank-nicolson scheme is supported")


@dataclass(frozen=True)
class Trajectory:
    state: FieldQuartet
    residuals: np.ndarray = field(repr=False)
    u_w_gap: np.ndarray = field(repr=False)
    J_values: np.ndarray = field(repr=False)
    converged: bool
    message: str = ""


def _require_periodic_2d(grid: Grid, unsteady: bool):
    if grid.dim != 2 or any(b != PERIODIC for b in grid.boundaries):
        raise ValueError("this solver needs a 2D all-periodic grid")
    if unsteady and grid.steady:
        raise ValueError("this solver needs an unsteady grid")


def _require_divergence_free(v0, v1, grid: Grid, what: str):
    h0, h1 = grid.spacing(0), grid.spacing(1)
    div0 = np.abs(_d1(v0, 0, h0, periodic=True) + _d1(v1, 1, h1, periodic=True)).max()
    if div0 > 1e-8:
        raise ValueError(
            f"initial {what} is not discretely divergence-free (|div| = {div0:.3e})")


# ---------------------------------------------------------------------------
# exact decaying-vortex oracle
# ---------------------------------------------------------------------------

def taylor_green(nu: float, grid: Grid) -> FieldQuartet:
    """Exact decaying-vortex quartet on the 2-pi periodic square.

    u = w = (-cos x sin y, sin x cos y) e^{-2 nu t}; the stored scalar is the
    variational pressure q = P - |u|^2 / 2 with P the physical pressure
    -(cos 2x + cos 2y) e^{-4 nu t} / 4, so the quartet satisfies the
    stationarity system exactly in the continuum.
    """
    _require_periodic_2d(grid, unsteady=False)
    for e in grid.extents:
        if abs(e - TWO_PI) > 1e-9:
            raise ValueError("the decaying-vortex oracle needs extents of 2*pi")
    X, Y, T = grid.meshes()
    decay = np.exp(-2 * nu * T)
    u0 = -np.cos(X) * np.sin(Y) * decay
    u1 = np.sin(X) * np.cos(Y) * decay
    P = -0.25 * (np.cos(2 * X) + np.cos(2 * Y)) * decay ** 2
    q = P - 0.5 * (u0 ** 2 + u1 ** 2)
    vel = VectorField(grid, (ScalarField(grid, u0), ScalarField(grid, u1)))
    scal = ScalarField(grid, q)
    return FieldQuartet(vel, scal, vel, scal)


# ---------------------------------------------------------------------------
# periodic stencil solves in Fourier space
# ---------------------------------------------------------------------------

class _Spectral2D:
    """Exact Fourier solves for the periodic central-difference stencils."""

    def __init__(self, grid: Grid):
        n0, n1 = grid.nodes
        h0, h1 = grid.spacing(0), grid.spacing(1)
        th0 = TWO_PI * np.fft.fftfreq(n0)
        th1 = TWO_PI * np.fft.fftfreq(n1)
        self.s0 = (np.sin(th0) / h0)[:, None]
        self.s1 = (np.sin(th1) / h1)[None, :]
        self.lap = ((2 * np.cos(th0) - 2) / h0 ** 2)[:, None] \
            + ((2 * np.cos(th1) - 2) / h1 ** 2)[None, :]
        self.div_grad = -(self.s0 ** 2 + self.s1 ** 2)
        self.null = np.abs(self.div_grad) < 1e-14

    def helmholtz(self, rhs: np.ndarray, coef: float) -> np.ndarray:
        """Solve (I - coef * Lap_stencil) x = rhs."""
        return np.real(np.fft.ifft2(np.fft.fft2(rhs) / (1 - coef * self.lap)))

    def _potential(self, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
        """Fourier coefficients of the solution of DivGrad phi = Div (f0, f1)
        (both given as coefficients), null modes pinned to zero."""
        div = 1j * (self.s0 * f0 + self.s1 * f1)
        return np.where(self.null, 0.0, div / np.where(self.null, 1.0, self.div_grad))

    def project(self, v0: np.ndarray, v1: np.ndarray):
        """Remove the stencil-gradient part so the central divergence is zero."""
        f0, f1 = np.fft.fft2(v0), np.fft.fft2(v1)
        phi = self._potential(f0, f1)
        return (np.real(np.fft.ifft2(f0 - 1j * self.s0 * phi)),
                np.real(np.fft.ifft2(f1 - 1j * self.s1 * phi)))

    def poisson_div(self, r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
        """Solve DivGrad p = Div (r0, r1) with the null modes pinned to zero."""
        return np.real(np.fft.ifft2(self._potential(np.fft.fft2(r0), np.fft.fft2(r1))))


def _advect(v0, v1, h0, h1):
    a0 = v0 * _d1(v0, 0, h0, periodic=True) + v1 * _d1(v0, 1, h1, periodic=True)
    a1 = v0 * _d1(v1, 0, h0, periodic=True) + v1 * _d1(v1, 1, h1, periodic=True)
    return a0, a1


# ---------------------------------------------------------------------------
# reduced time-marcher
# ---------------------------------------------------------------------------

def _cn_step(v0, v1, spec, dt, nu, h0, h1, tol, picard_max=40):
    """One Crank-Nicolson level with Picard-iterated advection and projection."""
    lap0 = np.real(np.fft.ifft2(np.fft.fft2(v0) * spec.lap))
    lap1 = np.real(np.fft.ifft2(np.fft.fft2(v1) * spec.lap))
    a0n, a1n = _advect(v0, v1, h0, h1)
    base0 = v0 + dt * (0.5 * nu * lap0 - 0.5 * a0n)
    base1 = v1 + dt * (0.5 * nu * lap1 - 0.5 * a1n)
    wk0, wk1 = v0, v1
    coef = nu * dt / 2
    for _ in range(picard_max):
        a0k, a1k = _advect(wk0, wk1, h0, h1)
        s0 = spec.helmholtz(base0 - 0.5 * dt * a0k, coef)
        s1 = spec.helmholtz(base1 - 0.5 * dt * a1k, coef)
        n0, n1 = spec.project(s0, s1)
        inc = max(np.max(np.abs(n0 - wk0)), np.max(np.abs(n1 - wk1)))
        wk0, wk1 = n0, n1
        if inc <= tol:
            return wk0, wk1, inc
    raise ConvergenceError(
        f"Picard iteration stalled at increment {inc:.3e} (tolerance {tol:.3e})")


def _recover_pressure(v0, v1, spec, h0, h1):
    a0, a1 = _advect(v0, v1, h0, h1)
    return spec.poisson_div(-a0, -a1)


def march_reduced(initial: VectorField, config: SolveConfig, grid: Grid) -> Trajectory:
    """March the reduced system over the grid's time levels.

    Returns the stationary-structured quartet (w = u, r = p) sampled on the
    full space-time grid; the stored scalar is the variational pressure.
    The initial field must be divergence-free in the discrete sense.
    """
    _require_periodic_2d(grid, unsteady=True)
    if initial.grid.nodes != grid.nodes:
        raise ValueError("initial field resolution does not match the grid")
    v0 = np.array(initial[0].values[..., 0])
    v1 = np.array(initial[1].values[..., 0])
    _require_divergence_free(v0, v1, grid, "field")
    h0, h1 = grid.spacing(0), grid.spacing(1)
    spec = _Spectral2D(grid)
    vmax = max(1.0, np.max(np.abs(v0)), np.max(np.abs(v1)))
    tol = max(config.linear_tol, 1e-14) * vmax

    T = grid.time_nodes
    shape = (*grid.nodes, T)
    U0, U1, Q = np.empty(shape), np.empty(shape), np.empty(shape)
    increments = np.zeros(T)
    for k in range(T):
        if k > 0:
            v0, v1, increments[k] = _cn_step(v0, v1, spec, grid.dt, config.nu,
                                             h0, h1, tol)
        U0[..., k], U1[..., k] = v0, v1
        P = _recover_pressure(v0, v1, spec, h0, h1)
        Q[..., k] = P - 0.5 * (v0 ** 2 + v1 ** 2)

    vel = VectorField(grid, (ScalarField(grid, U0), ScalarField(grid, U1)))
    scal = ScalarField(grid, Q)
    state = FieldQuartet(vel, scal, vel, scal)
    zeros = np.zeros(T)
    return Trajectory(state, increments, zeros, zeros, True,
                      "marched to the final time level")


def kinetic_energy_series(traj: Trajectory) -> np.ndarray:
    """0.5 int |u|^2 dx per time level."""
    g = traj.state.grid
    u = traj.state.u
    dens = ScalarField(g, 0.5 * sum(c.values ** 2 for c in u.components))
    return slice_integrals(dens)


# ---------------------------------------------------------------------------
# monolithic space-time Newton solve of the stationarity system
# ---------------------------------------------------------------------------

def _d1_matrix(n: int, h: float) -> sp.csr_matrix:
    idx = np.arange(n)
    rows = np.concatenate([idx, idx])
    cols = np.concatenate([(idx + 1) % n, (idx - 1) % n])
    vals = np.concatenate([np.full(n, 1 / (2 * h)), np.full(n, -1 / (2 * h))])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _lap_matrix(n: int, h: float) -> sp.csr_matrix:
    idx = np.arange(n)
    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([idx, (idx + 1) % n, (idx - 1) % n])
    vals = np.concatenate([np.full(n, -2 / h ** 2), np.full(n, 1 / h ** 2),
                           np.full(n, 1 / h ** 2)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _time_rows(T: int, dt: float):
    """Second-order time-derivative coefficients per slice: {k: [(kk, c)]}."""
    rows = {}
    for k in range(T):
        if k == 0:
            rows[k] = [(0, -1.5 / dt), (1, 2.0 / dt), (2, -0.5 / dt)]
        elif k == T - 1:
            rows[k] = [(T - 3, 0.5 / dt), (T - 2, -2.0 / dt), (T - 1, 1.5 / dt)]
        else:
            rows[k] = [(k - 1, -0.5 / dt), (k + 1, 0.5 / dt)]
    return rows


class _DualNewtonSystem:
    """Index bookkeeping, residual and Jacobian of the discrete system.

    Unknowns: u and w at every slice; p at slices 1..T-1; r at slices 1..T-2.
    Rows: data constraints at t=0, the matching constraint u=w at t=tau in
    the final w-slot, momentum rows elsewhere, divergence rows per pressure
    slice with the null pressure modes (constant plus checkerboards) pinned
    by gauge rows.
    """

    def __init__(self, grid: Grid, nu: float, data0, data1):
        _require_periodic_2d(grid, unsteady=True)
        self.grid = grid
        self.nu = nu
        n0, n1 = grid.nodes
        self.S = n0 * n1
        self.T = grid.time_nodes
        self.d = 2
        h0, h1 = grid.spacing(0), grid.spacing(1)
        self.DX = [sp.kron(_d1_matrix(n0, h0), sp.identity(n1), format="csr"),
                   sp.kron(sp.identity(n0), _d1_matrix(n1, h1), format="csr")]
        self.LAP = (sp.kron(_lap_matrix(n0, h0), sp.identity(n1))
                    + sp.kron(sp.identity(n0), _lap_matrix(n1, h1))).tocsr()
        self.trows = _time_rows(self.T, grid.dt)
        self.g = [np.asarray(data0, dtype=float).ravel(),
                  np.asarray(data1, dtype=float).ravel()]

        # pressure null modes of the composite central-difference operator
        modes = [np.ones(n0)]
        if n0 % 2 == 0:
            modes.append((-1.0) ** np.arange(n0))
        modes1 = [np.ones(n1)]
        if n1 % 2 == 0:
            modes1.append((-1.0) ** np.arange(n1))
        self.null_modes = [np.outer(a, b).ravel() for a in modes for b in modes1]
        self.gauge_nodes = [0, 1, n1, n1 + 1][:len(self.null_modes)]

        S, T, d = self.S, self.T, self.d
        self.off_u = lambda i, k: (i * T + k) * S
        self.off_w = lambda i, k: d * T * S + (i * T + k) * S
        self.off_p = lambda k: 2 * d * T * S + (k - 1) * S
        self.off_r = lambda k: 2 * d * T * S + (T - 1) * S + (k - 1) * S
        self.n_dof = 2 * d * T * S + (T - 1) * S + (T - 2) * S
        self.spec = _Spectral2D(grid)

    # -- state packing -----------------------------------------------------
    def pack(self, quartet: FieldQuartet) -> np.ndarray:
        z = np.zeros(self.n_dof)
        u, w, p, r = self.unpack(z)         # views into z
        for i in range(self.d):
            for k in range(self.T):
                u[i][k][:] = quartet.u[i].values[..., k].ravel()
                w[i][k][:] = quartet.w[i].values[..., k].ravel()
        for k in range(1, self.T):
            p[k][:] = quartet.p.values[..., k].ravel()
        for k in range(1, self.T - 1):
            r[k][:] = quartet.r.values[..., k].ravel()
        return z

    def unpack(self, z: np.ndarray):
        S, T = self.S, self.T
        u = [[z[self.off_u(i, k):self.off_u(i, k) + S] for k in range(T)]
             for i in range(self.d)]
        w = [[z[self.off_w(i, k):self.off_w(i, k) + S] for k in range(T)]
             for i in range(self.d)]
        p = [None] + [z[self.off_p(k):self.off_p(k) + S] for k in range(1, T)]
        r = [None] + [z[self.off_r(k):self.off_r(k) + S] for k in range(1, T - 1)] + [None]
        return u, w, p, r

    # -- residual ----------------------------------------------------------
    def _momentum(self, a, b, scal, i, k):
        """nu Lap a_i - grad_i scal - dt b_i - sym advection of b by (a+b)."""
        adv = 0.0
        for j in range(self.d):
            sym = self.DX[j] @ b[i][k] + self.DX[i] @ b[j][k]
            adv = adv + 0.5 * (a[j][k] + b[j][k]) * sym
        tderiv = sum(c * b[i][kk] for kk, c in self.trows[k])
        out = self.nu * (self.LAP @ a[i][k]) - tderiv - adv
        if scal is not None:
            out = out - self.DX[i] @ scal
        return out

    def _continuity(self, vel, scal, k):
        """Divergence row of ``vel`` at slice k, gauge rows pinning ``scal``."""
        row = sum(self.DX[i] @ vel[i][k] for i in range(self.d))
        for e, s in zip(self.null_modes, self.gauge_nodes):
            row[s] = e @ scal[k]
        return row

    def residual(self, z: np.ndarray) -> np.ndarray:
        u, w, p, r = self.unpack(z)
        T = self.T
        F = np.zeros(self.n_dof)
        Fu, Fw, Fp, Fr = self.unpack(F)     # row blocks share the unknowns' layout
        for i in range(self.d):
            Fu[i][0][:] = u[i][0] - self.g[i]
            Fw[i][0][:] = w[i][0] - self.g[i]
            for k in range(1, T):
                Fu[i][k][:] = self._momentum(u, w, p[k], i, k)
            for k in range(1, T - 1):
                Fw[i][k][:] = self._momentum(w, u, r[k], i, k)
            Fw[i][T - 1][:] = u[i][T - 1] - w[i][T - 1]
        for k in range(1, T):
            Fp[k][:] = self._continuity(u, p, k)
        for k in range(1, T - 1):
            Fr[k][:] = self._continuity(w, r, k)
        return F

    # -- Jacobian ----------------------------------------------------------
    def _momentum_blocks(self, a, b, i, k, off_a, off_b, off_scal, blocks):
        """Jacobian blocks of one momentum row block (a-row at slice k)."""
        S = self.S
        row = off_a(i, k)
        blocks.append((row, off_a(i, k), self.nu * self.LAP))
        for j in range(self.d):
            sym = self.DX[j] @ b[i][k] + self.DX[i] @ b[j][k]
            dia = sp.diags(-0.5 * sym)
            blocks.append((row, off_a(j, k), dia))
            blocks.append((row, off_b(j, k), dia))
            sj = sp.diags(-0.5 * (a[j][k] + b[j][k]))
            blocks.append((row, off_b(i, k), sj @ self.DX[j]))
            blocks.append((row, off_b(j, k), sj @ self.DX[i]))
        for kk, c in self.trows[k]:
            blocks.append((row, off_b(i, kk), sp.identity(S) * (-c)))
        if off_scal is not None:
            blocks.append((row, off_scal(k), -self.DX[i]))

    def jacobian(self, z: np.ndarray) -> sp.csr_matrix:
        u, w, p, r = self.unpack(z)
        S, T = self.S, self.T
        eye = sp.identity(S, format="csr")
        blocks: list[tuple[int, int, sp.spmatrix]] = []
        for i in range(self.d):
            blocks.append((self.off_u(i, 0), self.off_u(i, 0), eye))
            blocks.append((self.off_w(i, 0), self.off_w(i, 0), eye))
            for k in range(1, T):
                self._momentum_blocks(u, w, i, k, self.off_u, self.off_w,
                                      self.off_p, blocks)
            for k in range(1, T - 1):
                self._momentum_blocks(w, u, i, k, self.off_w, self.off_u,
                                      self.off_r, blocks)
            blocks.append((self.off_w(i, T - 1), self.off_u(i, T - 1), eye))
            blocks.append((self.off_w(i, T - 1), self.off_w(i, T - 1), -eye))

        def continuity(off_scal, off_vel, k):
            base = off_scal(k)
            keep = np.ones(S)
            keep[self.gauge_nodes] = 0.0
            mask = sp.diags(keep)
            for i in range(self.d):
                blocks.append((base, off_vel(i, k), mask @ self.DX[i]))
            rows = np.repeat(self.gauge_nodes, S)
            cols = np.tile(np.arange(S), len(self.gauge_nodes))
            vals = np.concatenate(self.null_modes)
            blocks.append((base, off_scal(k),
                           sp.csr_matrix((vals, (rows, cols)), shape=(S, S))))

        for k in range(1, T):
            continuity(self.off_p, self.off_u, k)
        for k in range(1, T - 1):
            continuity(self.off_r, self.off_w, k)

        rows, cols, vals = [], [], []
        for roff, coff, blk in blocks:
            blk = blk.tocoo()
            rows.append(blk.row + roff)
            cols.append(blk.col + coff)
            vals.append(blk.data)
        J = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(self.n_dof, self.n_dof))
        return J

    # -- pressure fill for the excluded slices ------------------------------
    def _fill_scalar(self, a, b, k):
        """Recover the scalar of an (a, b) momentum row at slice k by a
        divergence-of-momentum solve, null modes pinned to zero."""
        rhs = [self._momentum(a, b, None, i, k).reshape(self.grid.nodes)
               for i in range(self.d)]
        return self.spec.poisson_div(rhs[0], rhs[1]).ravel()

    def to_quartet(self, z: np.ndarray) -> FieldQuartet:
        u, w, p, r = self.unpack(z)
        T = self.T
        mk = lambda cols: np.stack([c.reshape(self.grid.nodes) for c in cols], axis=-1)
        p0 = self._fill_scalar(u, w, 0)
        r0 = self._fill_scalar(w, u, 0)
        rT = self._fill_scalar(w, u, T - 1)
        U = [mk([u[i][k] for k in range(T)]) for i in range(self.d)]
        W = [mk([w[i][k] for k in range(T)]) for i in range(self.d)]
        Pv = mk([p0] + [p[k] for k in range(1, T)])
        Rv = mk([r0] + [r[k] for k in range(1, T - 1)] + [rT])
        g = self.grid
        vec = lambda comps: VectorField(g, tuple(ScalarField(g, c) for c in comps))
        return FieldQuartet(vec(U), ScalarField(g, Pv), vec(W), ScalarField(g, Rv))


def _space_time_l2(grid: Grid, vec: VectorField) -> float:
    dens = ScalarField(grid, sum(c.values ** 2 for c in vec.components))
    return float(np.sqrt(max(integrate_spacetime(dens), 0.0)))


def u_w_gap(state: FieldQuartet) -> float:
    """Relative space-time L2 gap between the two velocity families."""
    g = state.grid
    diff = VectorField(g, tuple(
        ScalarField(g, cu.values - cw.values)
        for cu, cw in zip(state.u.components, state.w.components)))
    nrm = _space_time_l2(g, state.u)
    gap = _space_time_l2(g, diff)
    return gap / nrm if nrm > 0 else gap


def newton_dual(seed: FieldQuartet, data: VectorField | None,
                config: SolveConfig, grid: Grid) -> Trajectory:
    """Damped Newton iteration on the monolithic discrete stationarity system.

    ``data`` supplies the shared initial velocity (its t=0 slice); when None
    the seed's own u at t=0 is used. A viscosity-continuation ladder is run
    first when ``continuation_steps`` > 0: the solve starts at ten times the
    target viscosity and halves toward it, reusing each result as the next
    seed.
    """
    _require_periodic_2d(grid, unsteady=True)
    if seed.grid != grid:
        raise ValueError("seed quartet grid does not match")
    unknowns = grid.nodes[0] * grid.nodes[1] * (6 * grid.time_nodes - 3)
    if unknowns > _MAX_NEWTON_UNKNOWNS:
        raise ValueError(f"space-time system too large ({unknowns} unknowns, limit "
                         f"{_MAX_NEWTON_UNKNOWNS}); this solver is meant for coarse grids")
    source = seed.u if data is None else data
    d0, d1 = source[0].values[..., 0], source[1].values[..., 0]
    _require_divergence_free(d0, d1, grid, "data")

    ladder = [config.nu * 10.0 * 0.5 ** j for j in range(config.continuation_steps)]
    ladder = [nu for nu in ladder if nu > config.nu] + [config.nu]

    z = None
    for stage, nu in enumerate(ladder):
        system = _DualNewtonSystem(grid, nu, d0, d1)
        if z is None:
            z = system.pack(seed)
        final_stage = stage == len(ladder) - 1
        tol_here = config.newton_tol if final_stage else max(config.newton_tol, 1e-6)
        record = ([], [], [])          # history of the stage that finishes last
        z, ok = _newton_loop(system, z, config, tol_here, record)
        if not ok:
            break
    # the last system built is the one at the target viscosity unless a stage failed
    message = "converged" if ok else f"Newton did not converge at viscosity {nu}"
    return Trajectory(system.to_quartet(z), *(np.array(h) for h in record), ok, message)


def _newton_loop(system: _DualNewtonSystem, z: np.ndarray, config: SolveConfig,
                 tol: float, record):
    F = system.residual(z)
    norm = np.linalg.norm(F)
    tol_eff = tol * max(1.0, norm)

    def log(zz, nn):
        residuals, gaps, js = record
        q = system.to_quartet(zz)
        residuals.append(nn)
        gaps.append(u_w_gap(q))
        js.append(evaluate_lagrangian(q, system.nu).J)

    log(z, norm)
    for _ in range(config.max_newton):
        if norm <= tol_eff:
            return z, True
        J = system.jacobian(z)
        try:
            lu = spla.splu(J.tocsc())
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(
                "singular stationarity Jacobian; increase continuation_steps "
                f"to approach the target viscosity gradually ({exc})") from exc
        step = lu.solve(-F)
        alpha = 1.0
        while alpha >= 2 ** -30:
            z_try = z + alpha * step
            F_try = system.residual(z_try)
            n_try = np.linalg.norm(F_try)
            if n_try < norm:
                break
            alpha /= 2
        else:
            return z, norm <= tol_eff
        z, F, norm = z_try, F_try, n_try
        log(z, norm)
    return z, norm <= tol_eff


# ---------------------------------------------------------------------------
# steady pseudo-time solve
# ---------------------------------------------------------------------------

def _steady_from_arrays(grid: Grid, v, P) -> FieldQuartet:
    q = P - 0.5 * sum(c ** 2 for c in v)
    vel = VectorField(grid, tuple(ScalarField(grid, c[..., None]) for c in v))
    scal = ScalarField(grid, q[..., None])
    return FieldQuartet(vel, scal, vel, scal)


def steady_solve(boundary_data: VectorField | None, config: SolveConfig,
                 grid: Grid, initial: VectorField | None = None,
                 max_steps: int = 200_000) -> FieldQuartet:
    """Pseudo-time continuation to a steady stationary-structured quartet.

    All-periodic grids march the reduced system until the time increment
    stalls below tolerance; wall grids run an artificial-compressibility
    relaxation with the prescribed wall velocities imposed every step.
    Raises :class:`StagnationError` when the residual plateaus.
    """
    if not grid.steady:
        raise ValueError("steady_solve needs a steady grid (time_nodes == 1)")
    if all(b == PERIODIC for b in grid.boundaries):
        if boundary_data is not None:
            raise ValueError("boundary data is meaningless on an all-periodic grid")
        return _steady_periodic(config, grid, initial, max_steps)
    if boundary_data is None:
        raise ValueError("wall grids need boundary velocity data")
    return _steady_walls(boundary_data, config, grid, initial, max_steps)


def _steady_periodic(config, grid, initial, max_steps):
    if grid.dim != 2:
        raise ValueError("periodic steady solve supports 2D grids")
    h0, h1 = grid.spacing(0), grid.spacing(1)
    spec = _Spectral2D(grid)
    if initial is None:
        v0 = np.zeros(grid.nodes)
        v1 = np.zeros(grid.nodes)
    else:
        v0 = np.array(initial[0].values[..., 0])
        v1 = np.array(initial[1].values[..., 0])
        v0, v1 = spec.project(v0, v1)
    vmax = max(1.0, np.max(np.abs(v0)), np.max(np.abs(v1)))
    dt = 0.25 * min(h0, h1) / vmax
    tol = max(config.linear_tol, 1e-14)
    steps = 0
    history = []
    while steps < max_steps:
        n0, n1, _ = _cn_step(v0, v1, spec, dt, config.nu, h0, h1, tol)
        res = max(np.max(np.abs(n0 - v0)), np.max(np.abs(n1 - v1))) / dt
        history.append(res)
        v0, v1 = n0, n1
        steps += 1
        if res <= config.newton_tol * max(1.0, np.max(np.abs(v0)), np.max(np.abs(v1))):
            P = _recover_pressure(v0, v1, spec, h0, h1)
            return _steady_from_arrays(grid, [v0, v1], P)
        if len(history) > 200 and history[-1] > 0.995 * history[-101]:
            raise StagnationError(
                f"pseudo-time residual plateaued at {res:.3e}", history=history)
    raise StagnationError("pseudo-time step budget exhausted", history=history)


def _steady_walls(boundary_data, config, grid, initial, max_steps):
    if boundary_data.grid.nodes != grid.nodes:
        raise ValueError("boundary data resolution does not match the grid")
    d = grid.dim
    hs = [grid.spacing(a) for a in range(d)]
    periodic = [b == PERIODIC for b in grid.boundaries]
    bvals = [np.array(boundary_data[i].values[..., 0]) for i in range(d)]

    interior = ~_wall_boundary_mask(grid)[..., 0]

    if initial is None:
        v = [np.where(interior, 0.0, bvals[i]) for i in range(d)]
    else:
        v = [np.array(initial[i].values[..., 0]) for i in range(d)]
        for i in range(d):
            v[i] = np.where(interior, v[i], bvals[i])
    P = np.zeros(grid.nodes)

    vmax = max(1.0, *(np.max(np.abs(b)) for b in bvals))
    hmin = min(hs)
    dt = min(0.8 * hmin ** 2 / (4 * config.nu), 0.4 * hmin / vmax)
    # forward-Euler acoustics are damped only by viscosity: keep c^2 dt < nu,
    # and keep the wave CFL comfortable
    c2 = max(4.0 * vmax ** 2, min(0.35 * config.nu / dt, (0.5 * hmin / dt) ** 2))
    nu = config.nu

    def residual_fields():
        res = []
        for i in range(d):
            lap = sum(_d2(v[i], a, hs[a], periodic[a]) for a in range(d))
            adv = sum(v[j] * _d1(v[i], j, hs[j], periodic[j]) for j in range(d))
            gp = _d1(P, i, hs[i], periodic[i])
            res.append(nu * lap - adv - gp)
        div = sum(_d1(v[i], i, hs[i], periodic[i]) for i in range(d))
        return res, div

    history = []
    best = np.inf
    best_step = 0
    for step in range(max_steps):
        res, div = residual_fields()
        rnorm = max(max(np.max(np.abs(r[interior])) for r in res),
                    np.max(np.abs(div[interior])))
        history.append(rnorm)
        if rnorm <= config.newton_tol * max(1.0, vmax):
            return _steady_from_arrays(grid, v, P - P.mean())
        if rnorm < 0.995 * best:
            best, best_step = rnorm, step
        elif step - best_step > 2000:
            raise StagnationError(
                f"artificial-compressibility residual plateaued at {rnorm:.3e}",
                history=history)
        for i in range(d):
            v[i] = np.where(interior, v[i] + dt * res[i], bvals[i])
        P = P - dt * c2 * div
        P -= P.mean()
    raise StagnationError("pseudo-time step budget exhausted", history=history)

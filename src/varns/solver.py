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

class _DualNewtonSystem:
    """Residual and Jacobian of the discrete system in space-time Kronecker form.

    Unknowns, time-major per field: u and w at every slice, p at slices
    1..T-1, r at slices 1..T-2. Rows share that layout: data constraints at
    t=0, the matching constraint u=w at t=tau in the final w-slot, momentum
    rows elsewhere, divergence rows per pressure slice with the null pressure
    modes (constant plus checkerboards) pinned by gauge rows. A stencil A acts
    on all slices as I_T (x) A, the time derivative as D_t (x) I_S; the
    Jacobian is a constant part plus the advection linearization.
    """

    def __init__(self, grid: Grid, nu: float, data0, data1):
        _require_periodic_2d(grid, unsteady=True)
        self.grid = grid
        self.nu = nu
        n0, n1 = grid.nodes
        S, T = n0 * n1, grid.time_nodes
        self.S, self.T = S, T
        h0, h1 = grid.spacing(0), grid.spacing(1)
        stencil = lambda op, n, h: sp.csr_matrix(op(np.eye(n), 0, h, periodic=True))
        I0, I1, I_S, I_T = (sp.identity(m) for m in (n0, n1, S, T))
        DX = [sp.kron(stencil(_d1, n0, h0), I1, format="csr"),
              sp.kron(I0, stencil(_d1, n1, h1), format="csr")]
        LAP = (sp.kron(stencil(_d2, n0, h0), I1) + sp.kron(I0, stencil(_d2, n1, h1))).tocsr()
        DT = sp.csr_matrix(_d1(np.eye(T), 0, grid.dt, periodic=False))
        self.DX = [sp.kron(I_T, d, format="csr") for d in DX]
        self.LAP = sp.kron(I_T, LAP, format="csr")
        self.DT = sp.kron(DT, I_S, format="csr")
        self.g = np.array([data0, data1], dtype=float).reshape(2, S)

        # pressure null modes of the composite central-difference operator
        modes = lambda n: [np.ones(n)] + ([(-1.0) ** np.arange(n)] if n % 2 == 0 else [])
        self.null_modes = [np.outer(a, b).ravel() for a in modes(n0) for b in modes(n1)]
        self.gauge_nodes = [0, 1, n1, n1 + 1][:len(self.null_modes)]
        self.n_dof = (6 * T - 3) * S
        self.spec = _Spectral2D(grid)

        # slice selectors: data (0), matching (T-1), momentum rows of u (1..T-1)
        # and of w (1..T-2); lift_p/lift_r place the p/r slices among all T
        first, last = np.eye(T)[[0, -1]]
        mom_u, mom_w = 1 - first, 1 - first - last
        self.momentum_mask = (np.repeat(mom_u, S), np.repeat(mom_w, S))
        E0, ET, MU, MW = (sp.diags(v) for v in (first, last, mom_u, mom_w))
        lift_p, lift_r = sp.eye(T, T - 1, k=-1), sp.eye(T, T - 2, k=-1)
        keep = np.ones(S)
        keep[self.gauge_nodes] = 0.0
        div = [sp.diags(keep) @ d for d in DX]
        gauge = sp.csr_matrix((np.concatenate(self.null_modes),
                               (np.repeat(self.gauge_nodes, S),
                                np.tile(np.arange(S), len(self.gauge_nodes)))), shape=(S, S))
        kr = sp.kron
        own_u = kr(E0, I_S) + kr(MU, nu * LAP)
        own_w = kr(E0, I_S) + kr(MW, nu * LAP) - kr(ET, I_S)
        time_u = -kr(MU @ DT, I_S)
        time_w = kr(ET, I_S) - kr(MW @ DT, I_S)
        self.L = sp.bmat([
            [own_u, None, time_u, None, -kr(lift_p, DX[0]), None],
            [None, own_u, None, time_u, -kr(lift_p, DX[1]), None],
            [time_w, None, own_w, None, None, -kr(lift_r, DX[0])],
            [None, time_w, None, own_w, None, -kr(lift_r, DX[1])],
            [kr(lift_p.T, div[0]), kr(lift_p.T, div[1]), None, None,
             kr(sp.identity(T - 1), gauge), None],
            [None, None, kr(lift_r.T, div[0]), kr(lift_r.T, div[1]), None,
             kr(sp.identity(T - 2), gauge)]], format="csr")

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
        """Views (u, w, p, r) of shapes (2, T S), (2, T S), (T-1, S), (T-2, S)."""
        S, TS = self.S, self.T * self.S
        return (z[:2 * TS].reshape(2, TS), z[2 * TS:4 * TS].reshape(2, TS),
                z[4 * TS:5 * TS - S].reshape(-1, S), z[5 * TS - S:].reshape(-1, S))

    # -- residual ----------------------------------------------------------
    def _momentum(self, a, b, scal=None):
        """nu Lap a_i - dt b_i - sym advection of b by (a+b) [- grad_i scal]
        on every slice, as a (2, T S) array."""
        out = []
        for i in range(2):
            adv = 0.0
            for j in range(2):
                sym = self.DX[j] @ b[i] + self.DX[i] @ b[j]
                adv = adv + 0.5 * (a[j] + b[j]) * sym
            row = self.nu * (self.LAP @ a[i]) - self.DT @ b[i] - adv
            if scal is not None:
                row = row - self.DX[i] @ scal
            out.append(row)
        return np.array(out)

    def _continuity(self, vel, scal):
        """Divergence rows of ``vel`` on the slices of ``scal``, gauge rows pinning it."""
        rows = sum(self.DX[i] @ vel[i] for i in range(2)).reshape(self.T, self.S)
        rows = rows[1:1 + len(scal)]
        for e, s in zip(self.null_modes, self.gauge_nodes):
            rows[:, s] = [e @ sk for sk in scal]
        return rows

    def residual(self, z: np.ndarray) -> np.ndarray:
        u, w, p, r = self.unpack(z)
        S = self.S
        F = np.zeros(self.n_dof)
        Fu, Fw, Fp, Fr = self.unpack(F)     # row blocks share the unknowns' layout
        # p and r are zero-padded to all T slices; the rows there are overwritten
        Fu[:] = self._momentum(u, w, np.pad(p, ((1, 0), (0, 0))).ravel())
        Fw[:] = self._momentum(w, u, np.pad(r, ((1, 1), (0, 0))).ravel())
        Fu[:, :S] = u[:, :S] - self.g
        Fw[:, :S] = w[:, :S] - self.g
        Fw[:, -S:] = u[:, -S:] - w[:, -S:]
        Fp[:] = self._continuity(u, p)
        Fr[:] = self._continuity(w, r)
        return F

    # -- Jacobian ----------------------------------------------------------
    def _advection(self, a, b, m):
        """Advection linearization of the momentum rows of ``a`` (masked by
        ``m``): per component row, blocks on the a_0, a_1, b_0, b_1 columns."""
        DX = self.DX
        s = [sp.diags(m * (-0.5 * (a[j] + b[j]))) for j in range(2)]
        both = s[0] @ DX[0] + s[1] @ DX[1]
        rows = []
        for i in range(2):
            dia = [sp.diags(m * (-0.5 * (DX[j] @ b[i] + DX[i] @ b[j]))) for j in range(2)]
            partner = [dia[j] + s[j] @ DX[i] for j in range(2)]
            partner[i] = partner[i] + both
            rows.append(dia + partner)
        return rows

    def jacobian(self, z: np.ndarray) -> sp.csr_matrix:
        u, w, _, _ = self.unpack(z)
        rows_u = self._advection(u, w, self.momentum_mask[0])
        rows_w = self._advection(w, u, self.momentum_mask[1])
        N = sp.bmat(rows_u + [row[2:] + row[:2] for row in rows_w], format="csr")
        N.resize(self.L.shape)
        # each entry sums at most two terms, so its bits are order-free; splu
        # orders columns by the stored pattern, so no exact zero may be stored
        J = self.L + N
        J.eliminate_zeros()
        J.sort_indices()
        return J

    # -- pressure fill for the excluded slices ------------------------------
    def to_quartet(self, z: np.ndarray) -> FieldQuartet:
        """Quartet of ``z``; p at slice 0 and r at slices 0 and T-1 solve the
        divergence of their momentum rows, null modes pinned to zero."""
        u, w, p, r = self.unpack(z)
        g, T, S = self.grid, self.T, self.S
        mom_u = self._momentum(u, w).reshape(2, T, S)
        mom_w = self._momentum(w, u).reshape(2, T, S)
        fill = lambda rows: self.spec.poisson_div(
            *(row.reshape(g.nodes) for row in rows)).ravel()
        field = lambda slabs: ScalarField(
            g, np.moveaxis(slabs.reshape(T, *g.nodes), 0, -1).copy())
        vec = lambda comps: VectorField(g, tuple(field(c) for c in comps))
        P = np.vstack([fill(mom_u[:, 0]), p])
        R = np.vstack([fill(mom_w[:, 0]), r, fill(mom_w[:, -1])])
        return FieldQuartet(vec(u), field(P), vec(w), field(R))


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

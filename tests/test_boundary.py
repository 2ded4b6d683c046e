import numpy as np
import pytest

from varns.boundary import (
    SurfaceData,
    _surface_density_arrays,
    boundary_recovery_audit,
    extended_functional,
)
from varns.grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    periodic_square,
    wall_faces,
)
from varns.lagrangian import evaluate_lagrangian

from conftest import boundary_rich_quartet, random_quartet, smooth_scalar


def wall_grid(n=10, time_nodes=5, dt=0.02):
    return Grid((1.0, 1.0), (n, n), ("wall", "wall"), time_nodes, dt)


def mkv(grid, arrs):
    return VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))


def surface_of(state):
    return SurfaceData(state.u, state.w)


# ---------------------------------------------------------------------------
# surface data
# ---------------------------------------------------------------------------

def test_surface_data_mass_compatibility_enforced():
    g = wall_grid()
    X, Y, T = g.meshes()
    # net outflow through the right wall only
    u_s = mkv(g, [X, 0 * X])
    with pytest.raises(ValueError, match="mass"):
        SurfaceData(u_s, VectorField.zeros(g))
    # tangential lid motion is compatible (no through-flow)
    lid = np.where(Y >= 1.0 - 1e-12, 1.0, 0.0)
    SurfaceData(mkv(g, [lid, 0 * lid]), VectorField.zeros(g))


def test_surface_data_grid_mismatch():
    g = wall_grid()
    other = wall_grid(n=12)
    with pytest.raises(ValueError):
        SurfaceData(VectorField.zeros(g), VectorField.zeros(other))


# ---------------------------------------------------------------------------
# surface density
# ---------------------------------------------------------------------------

def test_surface_density_zero_everything():
    g = wall_grid()
    state = FieldQuartet.zeros(g)
    dens, _ = _surface_density_arrays(state, surface_of(state), 0.5)
    assert all(np.max(np.abs(c)) == 0.0 for c in dens)


def test_surface_density_swap_antisymmetry():
    g = wall_grid()
    state = boundary_rich_quartet(g, 31)
    surface = SurfaceData(state.u, state.w)
    swapped_surface = SurfaceData(state.w, state.u)
    nu = 0.4
    d1, _ = _surface_density_arrays(state, surface, nu)
    d2, _ = _surface_density_arrays(state.swapped(), swapped_surface, nu)
    for c1, c2 in zip(d1, d2):
        assert np.array_equal(c1, -c2)


def test_surface_density_dual_implementation_when_traces_match():
    # u_s = u and w_s = w: the viscous bracket and the permutation term
    # vanish, leaving pressure and cubic terms; compare with a straight line
    g = wall_grid(n=9)
    state = boundary_rich_quartet(g, 32)
    surface = SurfaceData(state.u, state.w)
    nu = 0.8
    dens, _ = _surface_density_arrays(state, surface, nu)

    uv = [c.values for c in state.u.components]
    wv = [c.values for c in state.w.components]
    p, r = state.p.values, state.r.values
    u2 = uv[0] ** 2 + uv[1] ** 2
    w2 = wv[0] ** 2 + wv[1] ** 2
    for j in range(2):
        ref = (-uv[j] * p + wv[j] * r
               + (uv[j] * u2 + u2 * wv[j]) / 4 - (wv[j] * w2 + w2 * uv[j]) / 4)
        assert np.max(np.abs(dens[j] - ref)) <= 1e-13 * (np.max(np.abs(ref)) + 1)


def test_surface_density_missing_data_grid():
    g = wall_grid()
    other = wall_grid(n=12)
    state = FieldQuartet.zeros(g)
    alien = SurfaceData(VectorField.zeros(other), VectorField.zeros(other))
    with pytest.raises(ValueError):
        _surface_density_arrays(state, alien, 0.1)


# ---------------------------------------------------------------------------
# extended functional
# ---------------------------------------------------------------------------

def test_extended_all_periodic_equals_J():
    g = periodic_square(10, time_nodes=5, dt=0.02)
    state = random_quartet(g, 33)
    rep = extended_functional(state, surface_of(state), 0.3)
    assert rep.surface_term == 0.0
    assert rep.I == rep.J


def test_extended_fixed_point_zero():
    g = wall_grid()
    q = boundary_rich_quartet(g, 34)
    state = FieldQuartet(q.u, q.p, q.u, q.p)
    surface = SurfaceData(state.u, state.u)
    rep = extended_functional(state, surface, 0.3)
    assert rep.J == 0.0
    assert rep.surface_term == 0.0
    assert rep.I == 0.0


def test_extended_recomposition_oracle():
    g = wall_grid(n=9)
    state = boundary_rich_quartet(g, 35)
    surface = surface_of(state)
    nu = 0.6
    rep = extended_functional(state, surface, nu)
    J = evaluate_lagrangian(state, nu).J
    dens, _ = _surface_density_arrays(state, surface, nu)
    # independent boundary-time quadrature of the density flux
    tw = g.time_weights()
    surf = 0.0
    for k in range(g.time_nodes):
        for axis, side, sign in wall_faces(g):
            comp = dens[axis][..., k]
            face = np.take(comp, side, axis=axis)
            wother = g.axis_weights(1 - axis)
            surf += tw[k] * sign * float(np.sum(wother * face))
    assert abs(rep.I - (J + surf)) <= 1e-12 * max(1.0, abs(J) + abs(surf))


def test_extended_swap_antisymmetry():
    g = wall_grid(n=9)
    for seed in range(5):
        state = boundary_rich_quartet(g, 40 + seed)
        surface = SurfaceData(state.u, state.w)
        swapped = SurfaceData(state.w, state.u)
        nu = 0.25
        a = extended_functional(state, surface, nu).I
        b = extended_functional(state.swapped(), swapped, nu).I
        assert abs(a + b) <= 1e-12 * max(abs(a), 1e-30)


# ---------------------------------------------------------------------------
# boundary recovery audit
# ---------------------------------------------------------------------------

def test_audit_exact_recovery_all_zero():
    g = wall_grid()
    q = boundary_rich_quartet(g, 50)
    # u matches its own trace by construction; w = 0 on the boundary
    wall_zero = [smooth_scalar(np.random.default_rng(51 + i), g, wall_vanishing=True)
                 for i in range(2)]
    state = FieldQuartet(q.u, q.p, mkv(g, wall_zero), q.r)
    surface = SurfaceData(state.u, VectorField.zeros(g))
    audit = boundary_recovery_audit(state, surface, 0.7)
    assert audit.max_normal_trace <= 1e-12
    assert audit.max_stationarity <= 1e-12
    assert audit.max_normal_adjoint <= 1e-12
    assert audit.max_adjoint <= 1e-12
    assert audit.passes(0.7)


def test_audit_inviscid_tangential_slip():
    # correct normal trace, tangential slip, n.w = 0: the inviscid checks
    # pass and the full-trace check is skipped at nu = 0
    g = wall_grid()
    X, Y, T = g.meshes()
    slip = np.sin(2 * np.pi * Y) * (X * 0 + 1)
    u = [0 * X, 0 * X]
    u_s = [u[0] + 0 * X, u[1] + 0 * X]
    # tangential component differs on the x-walls (component 1 is tangential)
    u[1] = slip
    w = [0 * X, np.cos(np.pi * T) * np.sin(np.pi * Y) * (1 + 0 * X)]
    state = FieldQuartet(mkv(g, u), ScalarField.zeros(g), mkv(g, w),
                         ScalarField.zeros(g))
    surface = SurfaceData(mkv(g, u_s), VectorField.zeros(g))
    audit = boundary_recovery_audit(state, surface, 0.0)
    assert audit.max_normal_trace <= 1e-12      # (a)
    assert audit.max_normal_adjoint <= 1e-12    # (c) on x-walls: w_0 = 0
    assert audit.max_adjoint > 1e-3             # (d) nonzero but not asserted
    assert audit.passes(0.0)
    assert not audit.passes(1.0)


def audit_values_3d(eps):
    g = Grid((1.0, 1.0, 1.0), (7, 7, 7), ("wall", "wall", "wall"))
    X, Y, Z, T = g.meshes()
    base = [np.sin(X + 0.3) * np.cos(Y) + 1.5, np.cos(Z + 0.1) + 0.5,
            np.sin(Y + Z) + 2.0]
    eta = [1.0 + 0.3 * np.sin(X + Y), 0.5 + 0.2 * np.cos(Z),
           0.8 + 0.1 * np.sin(X + Z)]
    u = [base[i] + eps * eta[i] for i in range(3)]
    w = [eps * eta[i] for i in range(3)]
    state = FieldQuartet(mkv(g, u), ScalarField.zeros(g), mkv(g, w),
                         ScalarField.zeros(g))
    # compatible surface data: the exact base trace (closed box, zero net flux
    # enforced by construction below)
    u_s = mkv(g, base)
    surface = SurfaceData.__new__(SurfaceData)  # skip flux check for test data
    object.__setattr__(surface, "u_s", u_s)
    object.__setattr__(surface, "w_s", VectorField.zeros(g))
    return boundary_recovery_audit(state, surface, 0.7)


def test_audit_linear_response_in_perturbation():
    eps_values = [1e-3, 1e-4, 1e-5]
    audits = [audit_values_3d(e) for e in eps_values]
    for attr in ("max_normal_trace", "max_stationarity",
                 "max_normal_adjoint", "max_adjoint"):
        scaled = [getattr(a, attr) / e for a, e in zip(audits, eps_values)]
        assert scaled[0] > 0
        for s in scaled[1:]:
            assert abs(s - scaled[0]) <= 0.05 * abs(scaled[0])


def test_audit_rows_cover_all_faces():
    g = wall_grid(n=6, time_nodes=3, dt=0.1)
    state = FieldQuartet.zeros(g)
    audit = boundary_recovery_audit(state, surface_of(state), 0.1)
    faces = set(audit.columns["face"])
    assert faces == {"axis0_low", "axis0_high", "axis1_low", "axis1_high"}
    # each face carries nodes x time rows, in every column
    assert [len(c) for c in audit.columns.values()] == [4 * 6 * 3] * 6


def _reference_audit(state, surface, nu):
    """The audit node by node, as a loop over the nodes of each wall face: its rows
    (face, node, check a, b, c, d) and its four maxima, each face's by np.max and
    the running maximum over the faces by np.maximum, which keeps a NaN."""
    levi = _levi()
    g, d = state.grid, state.grid.dim
    pad = lambda vec: [c.values for c in vec.components] + [np.zeros(g.shape)] * (3 - d)
    uv, us, wv = pad(state.u), pad(surface.u_s), pad(state.w)
    mag_u = np.sqrt(sum((uv[i] - us[i]) ** 2 for i in range(3)))
    dmag = [_wall_deriv(mag_u, a, g.spacing(a)) if g.boundaries[a] == "wall" else
            (np.roll(mag_u, -1, a) - np.roll(mag_u, 1, a)) / (2 * g.spacing(a))
            for a in range(d)]
    degenerate = mag_u <= 0.0
    rows, maxima = [], [0.0] * 4
    for axis, side, sign in wall_faces(g):
        take = lambda arr: np.take(arr, side, axis=axis)
        n_dot_du = sign * (take(uv[axis]) - take(us[axis]))
        n_dot_w = sign * take(wv[axis])
        w_mag = np.sqrt(sum(take(wv[i]) ** 2 for i in range(3)))
        b_sq = np.zeros(n_dot_du.shape)
        for j in range(d):
            comp = n_dot_du * (take(uv[j]) - take(us[j]))
            for (i, jj, k), lsign in levi.items():
                if jj == j and i == axis and k < d:
                    comp = comp + nu * sign * lsign * np.where(
                        take(degenerate), 0.0, take(dmag[k]))
            b_sq = b_sq + comp ** 2
        b_mag = np.sqrt(b_sq)
        face = {(0, 0): "axis0_low", (0, -1): "axis0_high", (1, 0): "axis1_low",
                (1, -1): "axis1_high", (2, 0): "axis2_low", (2, -1): "axis2_high"}[axis, side]
        for node in np.ndindex(n_dot_du.shape):
            rows.append((face, node, float(abs(n_dot_du[node])), float(b_mag[node]),
                         float(abs(n_dot_w[node])), float(w_mag[node])))
        face_max = [np.abs(n_dot_du), b_mag, np.abs(n_dot_w), w_mag]
        maxima = [float(np.maximum(m, np.max(f))) for m, f in zip(maxima, face_max)]
    return rows, maxima


@pytest.mark.parametrize("boundaries", [("wall", "wall"), ("wall", "periodic"),
                                        ("wall", "wall", "wall"),
                                        ("wall", "periodic", "wall")])
@pytest.mark.parametrize("with_nan", [False, True])
def test_audit_columns_match_the_per_node_loop(boundaries, with_nan):
    """The audit's columns and its maxima equal the node-by-node loop bit for bit,
    with degenerate nodes (u = u_s) on the walls, and with NaNs on wall nodes, where
    np.max of each face and the running np.maximum over the faces decide the maxima:
    a NaN on any face is the maximum."""
    d = len(boundaries)
    g = Grid((1.0,) * d, (6,) * d, boundaries, time_nodes=3, dt=0.05)
    state = boundary_rich_quartet(g, 70)
    rng = np.random.default_rng(71)
    near = g.meshes()[0] > 0.5           # u = u_s on the other half: degenerate nodes
    shifted = [c.values + near * smooth_scalar(rng, g) for c in state.u.components]
    surface = SurfaceData.__new__(SurfaceData)  # skip flux check for test data
    object.__setattr__(surface, "u_s", mkv(g, shifted))
    object.__setattr__(surface, "w_s", VectorField.zeros(g))
    if with_nan:    # the first node of the first face, and one node of the second
        state.u[0].values[(0,) * (d + 1)] = state.u[0].values[(-1, 2) + (1,) * (d - 1)] = np.nan
    audit = boundary_recovery_audit(state, surface, 0.7)
    rows, maxima = _reference_audit(state, surface, 0.7)
    bits = lambda xs: np.array(xs, dtype=float).view(np.int64).tolist()
    assert audit.columns["face"] == [r[0] for r in rows]
    assert audit.columns["node"] == [r[1] for r in rows]
    for k, name in enumerate(("check_a", "check_b", "check_c", "check_d"), start=2):
        assert bits(audit.columns[name]) == bits([r[k] for r in rows])
    assert bits([audit.max_normal_trace, audit.max_stationarity, audit.max_normal_adjoint,
                 audit.max_adjoint]) == bits(maxima)
    assert np.isnan(audit.columns["check_a"]).any() == with_nan


@pytest.mark.parametrize("boundaries", [("wall", "wall"), ("wall", "wall", "wall")])
def test_a_nan_wall_node_is_every_maximum_and_fails_the_audit(boundaries):
    """One wall node whose u and w are NaN: every maximum is NaN, so the audit does
    not pass. Joined by Python's max, the faces without the NaN set the maxima (all
    0 here) and the audit passed."""
    d = len(boundaries)
    g = Grid((1.0,) * d, (6,) * d, boundaries, time_nodes=3, dt=0.05)
    state = FieldQuartet.zeros(g)
    surface = SurfaceData(VectorField.zeros(g), VectorField.zeros(g))
    node = (0,) + (2,) * (d - 1) + (1,)          # on the low face of axis 0
    for c in state.u.components + state.w.components:
        c.values[node] = np.nan
    audit = boundary_recovery_audit(state, surface, 0.1)
    maxima = [audit.max_normal_trace, audit.max_stationarity, audit.max_normal_adjoint,
              audit.max_adjoint]
    assert np.isnan(maxima).all()
    assert not audit.passes(0.1) and not audit.passes(0.0)


# ---------------------------------------------------------------------------
# 3D: the permutation-tensor term is active only here
# ---------------------------------------------------------------------------

def _levi():
    return {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
            (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


def _wall_deriv(f, axis, h):
    out = np.empty_like(f)
    sl = lambda i: tuple(i if a == axis else slice(None) for a in range(f.ndim))
    out[sl(slice(1, -1))] = (f[sl(slice(2, None))] - f[sl(slice(None, -2))]) / (2 * h)
    out[sl(0)] = (-3 * f[sl(0)] + 4 * f[sl(1)] - f[sl(2)]) / (2 * h)
    out[sl(-1)] = (3 * f[sl(-1)] - 4 * f[sl(-2)] + f[sl(-3)]) / (2 * h)
    return out


def test_surface_density_3d_dual_implementation():
    g = Grid((1.0, 1.0, 1.0), (6, 6, 6), ("wall",) * 3, time_nodes=3, dt=0.05)
    X, Y, Z, T = g.meshes()
    u = [np.sin(X + Y) + 1.2, np.cos(Z) + 0.4, np.sin(Y + Z) * np.cos(T)]
    w = [0.3 * np.cos(X) - 0.8, np.sin(Z + 0.2), 0.5 * np.cos(X + Y)]
    us = [c + 0.7 + 0.1 * np.sin(Y) for c in u]      # offset keeps |arg| > 0
    ws = [c - 0.5 for c in w]
    p = np.sin(X) * np.cos(Y + Z)
    r = np.cos(X + T)
    state = FieldQuartet(mkv(g, u), ScalarField(g, p), mkv(g, w), ScalarField(g, r))
    surface = SurfaceData.__new__(SurfaceData)
    object.__setattr__(surface, "u_s", mkv(g, us))
    object.__setattr__(surface, "w_s", mkv(g, ws))
    nu = 0.9
    dens, _ = _surface_density_arrays(state, surface, nu)

    hs = [g.spacing(a) for a in range(3)]
    u2 = sum(c ** 2 for c in u)
    w2 = sum(c ** 2 for c in w)
    mag = np.sqrt(sum(((u[i] - us[i]) + (w[i] - ws[i])) ** 2 for i in range(3)))
    assert np.min(mag) > 0
    dmag = [_wall_deriv(mag, a, hs[a]) for a in range(3)]
    for j in range(3):
        ref = (-us[j] * p + ws[j] * r
               + (u[j] * u2 + u2 * w[j]) / 4 - (w[j] * w2 + w2 * u[j]) / 4)
        visc = sum(-(u[i] - us[i]) * _wall_deriv(u[i], j, hs[j])
                   + (w[i] - ws[i]) * _wall_deriv(w[i], j, hs[j])
                   for i in range(3))
        eps = np.zeros(g.shape)
        for (i, jj, k), sign in _levi().items():
            if jj != j:
                continue
            eps = eps + sign * ((w[k] - ws[k]) - (u[k] - us[k])) * dmag[i]
        ref = ref + nu * (visc + eps)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(dens[j] - ref)) <= 1e-12 * scale


def test_extended_3d_swap_antisymmetry():
    g = Grid((1.0, 1.0, 1.0), (6, 6, 6), ("wall", "wall", "periodic"),
             time_nodes=3, dt=0.05)
    state = boundary_rich_quartet(g, 60)
    surface = SurfaceData(state.u, state.w)
    swapped = SurfaceData(state.w, state.u)
    a = extended_functional(state, surface, 0.3).I
    b = extended_functional(state.swapped(), swapped, 0.3).I
    assert abs(a + b) <= 1e-12 * max(abs(a), 1e-30)

import math

import numpy as np
import pytest

from varns.grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    periodic_square,
)
from varns.lagrangian import evaluate_lagrangian
from varns.steady import (
    QUOTED_THRESHOLD_APPROX,
    THRESHOLD_CONSTANT,
    enclosing_radius,
    inequality_chain_audit,
    uniqueness_certificate,
)

from conftest import random_quartet


def steady_random(grid_seed, n=12, boundaries=("periodic", "periodic"),
                  extent=2 * np.pi):
    g = Grid((extent, extent), (n, n), boundaries)
    return g, random_quartet(g, grid_seed)


def quartet_from_arrays(grid, u, p, w, r):
    mkv = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(mkv(u), ScalarField(grid, p), mkv(w), ScalarField(grid, r))


# ---------------------------------------------------------------------------
# steady functional: independent straight-line oracle (no time terms)
# ---------------------------------------------------------------------------

def oracle_steady_functional(grid, u, p, w, r, nu):
    hs = [grid.spacing(a) for a in range(2)]
    per = [b == "periodic" for b in grid.boundaries]

    def der(f, ax):
        if per[ax]:
            return (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2 * hs[ax])
        out = np.empty_like(f)
        sl = lambda i: tuple(i if a == ax else slice(None) for a in range(2))
        out[sl(slice(1, -1))] = (f[sl(slice(2, None))] - f[sl(slice(None, -2))]) / (2 * hs[ax])
        out[sl(0)] = (-3 * f[sl(0)] + 4 * f[sl(1)] - f[sl(2)]) / (2 * hs[ax])
        out[sl(-1)] = (3 * f[sl(-1)] - 4 * f[sl(-2)] + f[sl(-3)]) / (2 * hs[ax])
        return out

    def half(u, p, w):
        dens = nu / 2 * sum(der(u[i], j) ** 2 for i in range(2) for j in range(2))
        dens = dens + 0.5 * sum((w[i] + u[i]) * u[j] * der(w[i], j)
                                for i in range(2) for j in range(2))
        dens = dens + u[0] * der(p, 0) + u[1] * der(p, 1)
        return dens

    dens = half(u, p, w) - half(w, r, u)
    wts = []
    for ax in range(2):
        wv = np.full(grid.nodes[ax], hs[ax])
        if not per[ax]:
            wv[0] = wv[-1] = hs[ax] / 2
        wts.append(wv)
    return float(np.sum(dens * np.outer(wts[0], wts[1])))


def test_steady_fixed_point_and_antisymmetry():
    for seed in range(5):
        g, q = steady_random(seed)
        same = evaluate_lagrangian(FieldQuartet(q.u, q.p, q.u, q.p), 0.3)
        assert abs(same.J) <= 1e-13 * same.scale
        J = evaluate_lagrangian(q, 0.3).J
        Js = evaluate_lagrangian(q.swapped(), 0.3).J
        assert abs(J + Js) <= 1e-12 * max(abs(J), 1e-30)


def test_steady_dual_implementation_oracle():
    nu = 0.17
    # decaying-vortex slice at a frozen time; the oracle works on 2D slabs
    g = periodic_square(24)
    X2, Y2 = [m[..., 0] for m in g.meshes()[:2]]
    e = math.exp(-2 * nu * 0.3)
    u = [-np.cos(X2) * np.sin(Y2) * e, np.sin(X2) * np.cos(Y2) * e]
    P = -0.25 * (np.cos(2 * X2) + np.cos(2 * Y2)) * e * e
    q = P - 0.5 * (u[0] ** 2 + u[1] ** 2)
    w = [0.3 * u[0], -0.6 * u[1]]
    r = 0.4 * q
    state = quartet_from_arrays(g, [c[..., None] for c in u], q[..., None],
                                [c[..., None] for c in w], r[..., None])
    ref = oracle_steady_functional(g, u, q, w, r, nu)
    val = evaluate_lagrangian(state, nu).J
    assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)

    gw, qw = steady_random(3, boundaries=("wall", "wall"), extent=1.0)
    take = lambda v: [c.values[..., 0][..., None] * np.ones(1) for c in v.components]
    raw = lambda v: [c.values for c in v.components]
    ref = oracle_steady_functional(
        gw, [c[..., 0] for c in raw(qw.u)], qw.p.values[..., 0],
        [c[..., 0] for c in raw(qw.w)], qw.r.values[..., 0], nu)
    val = evaluate_lagrangian(qw, nu).J
    assert abs(val - ref) <= 1e-12 * max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# enclosing radius
# ---------------------------------------------------------------------------

def test_enclosing_radius_boxes():
    assert enclosing_radius(Grid((1.0, 1.0), (8, 8), ("wall", "wall"))) == \
        pytest.approx(math.sqrt(2) / 2)
    assert enclosing_radius(Grid((1.0, 1.0, 1.0), (4, 4, 4), ("wall",) * 3)) == \
        pytest.approx(math.sqrt(3) / 2)
    assert enclosing_radius(Grid((2.0, 1.0), (8, 8), ("wall", "wall"))) == \
        pytest.approx(math.sqrt(5) / 2)


# ---------------------------------------------------------------------------
# uniqueness certificate
# ---------------------------------------------------------------------------

def test_certificate_zero_fields():
    g = Grid((1.0, 1.0), (10, 10), ("wall", "wall"))
    cert = uniqueness_certificate(FieldQuartet.zeros(g), 0.5)
    assert cert.lhs == 0.0
    assert cert.satisfied
    assert cert.lam == pytest.approx(20.0 / cert.R ** 2)


def test_certificate_threshold_constant():
    g = Grid((3.0, 2.0), (10, 10), ("wall", "wall"))
    cert = uniqueness_certificate(FieldQuartet.zeros(g), 1.0)
    # R^{1/2} (20/R^2)^{1/4} 3^{3/4} collapses to a pure number
    assert abs(cert.threshold - 20.0 ** 0.25 * 3.0 ** 0.75) < 1e-12
    assert abs(THRESHOLD_CONSTANT - 4.820570513667908) < 1e-12
    assert cert.threshold_quoted_approx == QUOTED_THRESHOLD_APPROX == 3.0
    rec = cert.to_record()
    assert set(rec) >= {"lhs", "threshold", "R", "lambda", "nu", "satisfied"}


def scale_state(state, c):
    g = state.grid
    vec = lambda v: VectorField(g, tuple(ScalarField(g, c * s.values)
                                         for s in v.components))
    return FieldQuartet(vec(state.u), state.p, vec(state.w), state.r)


def test_certificate_homogeneity_and_viscosity_scaling():
    g, q = steady_random(21)
    base = uniqueness_certificate(q, 1.0)
    doubled = uniqueness_certificate(scale_state(q, 2.0), 1.0)
    assert doubled.lhs == 2.0 * base.lhs          # power-of-two exactness
    tripled = uniqueness_certificate(scale_state(q, 3.0), 1.0)
    assert abs(tripled.lhs - 3.0 * base.lhs) <= 1e-13 * base.lhs
    halved_nu = uniqueness_certificate(q, 2.0)
    assert halved_nu.lhs == base.lhs / 2.0
    # satisfied flips monotonically as the amplitude grows
    flags = [uniqueness_certificate(scale_state(q, c), 1.0).satisfied
             for c in (1e-6, 1e3)]
    assert flags[0] and not flags[1]


def test_certificate_requires_positive_viscosity():
    g = Grid((1.0, 1.0), (8, 8), ("wall", "wall"))
    with pytest.raises(ValueError):
        uniqueness_certificate(FieldQuartet.zeros(g), 0.0)


# ---------------------------------------------------------------------------
# inequality chain audit
# ---------------------------------------------------------------------------

def test_chain_zero_difference_trivial():
    g = Grid((1.0, 1.0), (10, 10), ("wall", "wall"))
    rep = inequality_chain_audit(FieldQuartet.zeros(g), 1.0)
    assert rep.asserted_ok
    for row in rep.rows:
        assert row.margin >= -rep.tolerance


# frozen closed-form values (sympy): vbar = (sin x sin y, sin x sin y / 2),
# g = u + w = (sin 2x, sin x sin y) on the [0, pi]^2 wall box:
#   int (d_i vbar_j)^2           = 5 pi^2 / 8
#   int (vbar_i vbar_j /2) d_i g_j = -pi^2 / 8
#   int (vbar_i vbar_j)^2        = 225 pi^2 / 1024
#   int (d_i g_j)^2              = 5 pi^2 / 2
#   int vbar^2                   = 5 pi^2 / 16
def test_chain_closed_form_oracle():
    n = 129
    g = Grid((np.pi, np.pi), (n, n), ("wall", "wall"))
    X, Y, _ = g.meshes()
    vb = [np.sin(X) * np.sin(Y), np.sin(X) * np.sin(Y) / 2]
    gg = [np.sin(2 * X), np.sin(X) * np.sin(Y)]
    u = [gg[i] / 2 + vb[i] for i in range(2)]
    w = [gg[i] / 2 - vb[i] for i in range(2)]
    state = quartet_from_arrays(g, u, np.zeros(g.shape), w, np.zeros(g.shape))
    rep = inequality_chain_audit(state, 0.7)
    rows = {r.name: r for r in rep.rows}

    pi2 = np.pi ** 2
    schwarz_lhs = pi2 / 8
    schwarz_rhs = math.sqrt(225 * pi2 / 1024) * math.sqrt(5 * pi2 / 8)
    assert rows["schwarz"].lhs == pytest.approx(schwarz_lhs, rel=5e-3)
    assert rows["schwarz"].rhs == pytest.approx(schwarz_rhs, rel=5e-3)
    serrin_rhs = (3.0 ** -0.75 * (5 * pi2 / 16) ** 0.25
                  * (5 * pi2 / 8) ** 0.75 * math.sqrt(5 * pi2 / 8))
    assert rows["serrin"].lhs == pytest.approx(0.7 * 5 * pi2 / 8, rel=5e-3)
    assert rows["serrin"].rhs == pytest.approx(serrin_rhs, rel=5e-3)
    assert rows["schwarz"].asserted and not rows["serrin"].asserted
    assert not rows["payne-weinberger"].asserted
    assert rep.asserted_ok


def test_chain_schwarz_margin_randomized():
    for seed in range(10):
        g, q = steady_random(600 + seed)
        rep = inequality_chain_audit(q, 0.4)
        row = {r.name: r for r in rep.rows}["schwarz"]
        assert row.margin >= -rep.tolerance


def test_chain_wall_precondition():
    g = Grid((1.0, 1.0), (9, 9), ("wall", "wall"))
    bad = random_quartet(g, 77, wall_safe=False)
    with pytest.raises(ValueError, match="wall"):
        inequality_chain_audit(bad, 0.4)

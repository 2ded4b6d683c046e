import numpy as np
import pytest
import scipy.sparse as sp

from varns import grids
from varns.grids import (
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    boundary_integral,
    integrate_space,
    integrate_spacetime,
    periodic_square,
)

from conftest import (
    divergence,
    field_from_function,
    gradient,
    smooth_scalar,
    vector_from_functions,
)


def wall_line(n, extent=1.0, time_nodes=1, dt=0.0):
    return Grid((extent,), (n,), ("wall",), time_nodes, dt)


def wall_square(n, extent=1.0, time_nodes=1, dt=0.0):
    return Grid((extent, extent), (n, n), ("wall", "wall"), time_nodes, dt)


def laplacian(f):
    return ScalarField(f.grid, grids._laplacian(f.grid, f.values))


def time_derivative(f):
    """``grids._d1`` along the time axis, the last."""
    return ScalarField(f.grid, grids._d1(f.values, f.values.ndim - 1, f.grid.dt, periodic=False))


# ---------------------------------------------------------------------------
# grid invariants
# ---------------------------------------------------------------------------

def test_spacing_conventions():
    g = wall_line(11, 1.0)
    assert g.spacing(0) == pytest.approx(0.1)
    gp = Grid((1.0,), (10,), ("periodic",))
    assert gp.spacing(0) == pytest.approx(0.1)


def test_tau_and_steady():
    g = Grid((1.0,), (8,), ("wall",), time_nodes=5, dt=0.25)
    assert g.tau == pytest.approx(1.0)
    assert not g.steady
    assert wall_line(8).steady
    assert wall_line(8).tau == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((1.0,), (2,), ("wall",))
    with pytest.raises(ValueError):
        Grid((1.0,), (8,), ("mirror",))
    with pytest.raises(ValueError):
        Grid((1.0,), (8,), ("wall",), time_nodes=2, dt=0.1)
    with pytest.raises(ValueError):
        Grid((1.0, 1.0), (8,), ("wall", "wall"))
    with pytest.raises(ValueError):
        Grid((-1.0,), (8,), ("wall",))


def test_field_shape_validation():
    g = wall_square(5)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((5, 4, 1)))
    with pytest.raises(ValueError):
        VectorField(g, (ScalarField.zeros(g),))
    other = wall_square(6)
    with pytest.raises(ValueError):
        FieldQuartet(VectorField.zeros(g), ScalarField.zeros(other),
                     VectorField.zeros(g), ScalarField.zeros(g))


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_constant_is_zero():
    g = wall_square(9)
    f = field_from_function(g, lambda x, y, t: 3.7 + 0 * x)
    # one-sided closures leave a few ulps of cancellation noise
    assert np.max(np.abs(gradient(f, 0).values)) < 5e-14
    assert np.max(np.abs(gradient(f, 1).values)) < 5e-14


def test_gradient_linear_exact_on_walls():
    g = wall_line(17)
    f = field_from_function(g, lambda x, t: x)
    assert np.max(np.abs(gradient(f, 0).values - 1.0)) < 1e-13


def test_gradient_axis_out_of_range():
    # past the spatial axes of a steady grid lies its one-node time axis, too
    # short for the stencil
    g = wall_line(9)
    f = ScalarField.zeros(g)
    with pytest.raises(ValueError, match="at least 3 nodes"):
        grids._d1(f.values, 1, g.spacing(0), periodic=False)


def test_gradient_periodic_second_order():
    # oracle: exact derivative of sin(2 pi x) on [0, 1)
    errs = {}
    for n in (32, 64, 128):
        g = Grid((1.0,), (n,), ("periodic",))
        x = g.axis_coords(0)
        f = ScalarField(g, np.sin(2 * np.pi * x)[:, None])
        exact = 2 * np.pi * np.cos(2 * np.pi * x)[:, None]
        errs[n] = np.max(np.abs(gradient(f, 0).values - exact))
    # measured constant: err ~= (2 pi)^3 h^2 / 6 ~= 41.3 h^2
    for n, e in errs.items():
        assert e <= 45.0 / n ** 2
    assert 3.3 <= errs[32] / errs[64] <= 4.7
    assert 3.3 <= errs[64] / errs[128] <= 4.7


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_divergence_constant_vector():
    g = wall_square(7)
    v = vector_from_functions(g, [lambda x, y, t: 1.0 + 0 * x,
                                       lambda x, y, t: -2.0 + 0 * x])
    assert np.max(np.abs(divergence(v).values)) == 0.0


def test_divergence_solenoidal_vortex():
    g = periodic_square(32)
    v = vector_from_functions(
        g, [lambda x, y, t: -np.cos(x) * np.sin(y),
            lambda x, y, t: np.sin(x) * np.cos(y)])
    # analytically solenoidal; the equal-spacing central stencil keeps it so
    assert np.max(np.abs(divergence(v).values)) < 1e-12


def test_divergence_linear_field():
    g = wall_square(9)
    v = vector_from_functions(g, [lambda x, y, t: x,
                                       lambda x, y, t: 0 * x])
    assert np.max(np.abs(divergence(v).values - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

def test_laplacian_constant():
    g = wall_square(8)
    f = field_from_function(g, lambda x, y, t: 5.0 + 0 * x)
    assert np.max(np.abs(laplacian(f).values)) < 1e-12


def test_laplacian_quadratic_interior_exact():
    g = wall_line(11)
    f = field_from_function(g, lambda x, t: x ** 2 / 2)
    lap = laplacian(f).values[1:-1]
    assert np.max(np.abs(lap - 1.0)) < 1e-11


def test_laplacian_trig_second_order():
    errs = []
    for n in (16, 32, 64):
        g = periodic_square(n)
        f = field_from_function(g, lambda x, y, t: np.sin(x) * np.sin(y))
        errs.append(np.max(np.abs(laplacian(f).values + 2 * f.values)))
    assert 3.3 <= errs[0] / errs[1] <= 4.7
    assert 3.3 <= errs[1] / errs[2] <= 4.7


# ---------------------------------------------------------------------------
# time derivative
# ---------------------------------------------------------------------------

def test_time_derivative_constant_and_linear():
    g = wall_line(5, time_nodes=9, dt=0.125)
    f = field_from_function(g, lambda x, t: 2.0 + 0 * t)
    assert np.max(np.abs(time_derivative(f).values)) == 0.0
    f = field_from_function(g, lambda x, t: 3 * t)
    assert np.max(np.abs(time_derivative(f).values - 3.0)) < 1e-12


def test_time_derivative_trig_second_order():
    errs = []
    for tn in (9, 17, 33):
        dt = 1.0 / (tn - 1)
        g = wall_line(5, time_nodes=tn, dt=dt)
        f = field_from_function(g, lambda x, t: np.cos(2 * np.pi * t))
        exact = field_from_function(
            g, lambda x, t: -2 * np.pi * np.sin(2 * np.pi * t))
        errs.append(np.max(np.abs(time_derivative(f).values - exact.values)))
    assert 3.3 <= errs[0] / errs[1] <= 4.7
    assert 3.3 <= errs[1] / errs[2] <= 4.7


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_space_unit_square():
    g = wall_square(13)
    one = field_from_function(g, lambda x, y, t: 1.0 + 0 * x)
    assert integrate_space(one, 0) == pytest.approx(1.0, abs=1e-14)


def test_integrate_space_linear_exact():
    for n in (5, 9, 40):
        g = wall_line(n)
        f = field_from_function(g, lambda x, t: x)
        assert integrate_space(f, 0) == pytest.approx(0.5, abs=1e-14)


def test_integrate_space_periodic_trig_machine():
    g = Grid((2 * np.pi,), (24,), ("periodic",))
    f = field_from_function(g, lambda x, t: np.sin(x) ** 2)
    assert integrate_space(f, 0) == pytest.approx(np.pi, abs=1e-13)


def test_integrate_spacetime_trivial():
    g = Grid((1.0, 1.0, 1.0), (5, 5, 5), ("wall",) * 3, time_nodes=5, dt=0.25)
    one = ScalarField(g, np.ones(g.shape))
    assert integrate_spacetime(one) == pytest.approx(1.0, abs=1e-13)
    tfield = field_from_function(g, lambda x, y, z, t: t + 0 * x)
    assert integrate_spacetime(tfield) == pytest.approx(0.5, abs=1e-13)


def test_integrate_spacetime_product_second_order():
    # closed form on tau = 0.6 (a non-resonant horizon for the trapezoid):
    # int_0^0.6 sin^2(2 pi t) dt = 0.3 - sin(2.4 pi) / (8 pi); space factor pi
    tau = 0.6
    exact = (tau / 2 - np.sin(4 * np.pi * tau) / (8 * np.pi)) * np.pi
    errs = []
    for tn in (9, 17, 33):
        dt = tau / (tn - 1)
        g = Grid((2 * np.pi,), (32,), ("periodic",), time_nodes=tn, dt=dt)
        f = field_from_function(
            g, lambda x, t: np.sin(2 * np.pi * t) ** 2 * np.sin(x) ** 2)
        errs.append(abs(integrate_spacetime(f) - exact))
    assert errs[-1] < 1e-3
    assert 3.3 <= errs[0] / errs[1] <= 4.7
    assert 3.3 <= errs[1] / errs[2] <= 4.7


# ---------------------------------------------------------------------------
# boundary quadrature
# ---------------------------------------------------------------------------

def test_boundary_integral_constant_cancels():
    g = wall_square(9)
    v = vector_from_functions(g, [lambda x, y, t: 2.5 + 0 * x,
                                       lambda x, y, t: 0 * x])
    assert boundary_integral(v, 0) == pytest.approx(0.0, abs=1e-13)


def test_boundary_integral_matches_divergence_integral():
    g = wall_square(9)
    v = vector_from_functions(g, [lambda x, y, t: x, lambda x, y, t: 0 * x])
    assert boundary_integral(v, 0) == pytest.approx(1.0, abs=1e-13)
    assert integrate_space(divergence(v), 0) == pytest.approx(1.0, abs=1e-12)


def test_boundary_integral_all_periodic_zero():
    g = periodic_square(8)
    v = vector_from_functions(g, [lambda x, y, t: np.sin(x),
                                       lambda x, y, t: np.cos(y)])
    assert boundary_integral(v, 0) == 0.0


def test_discrete_divergence_theorem_second_order():
    errs = []
    for n in (17, 33, 65):
        g = wall_square(n)
        v = vector_from_functions(
            g, [lambda x, y, t: np.exp(x) * np.cos(2 * y),
                lambda x, y, t: np.sin(x + y)])
        gap = abs(integrate_space(divergence(v), 0) - boundary_integral(v, 0))
        errs.append(gap)
        assert gap <= 0.075 * g.spacing(0) ** 2  # C measured by refinement
    assert 3.3 <= errs[0] / errs[1] <= 4.7
    assert 3.3 <= errs[1] / errs[2] <= 4.7


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------

def test_operators_are_linear(rng):
    g = Grid((1.0, 2.0), (9, 12), ("wall", "periodic"), time_nodes=5, dt=0.1)
    f1 = ScalarField(g, smooth_scalar(rng, g))
    f2 = ScalarField(g, smooth_scalar(rng, g))
    a, b = 1.75, -0.6
    combo = ScalarField(g, a * f1.values + b * f2.values)
    for op in (lambda f: gradient(f, 0), lambda f: gradient(f, 1),
               laplacian, time_derivative):
        lhs = op(combo).values
        rhs = a * op(f1).values + b * op(f2).values
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale
    lhs = integrate_spacetime(combo)
    rhs = a * integrate_spacetime(f1) + b * integrate_spacetime(f2)
    assert abs(lhs - rhs) < 1e-12 * (abs(rhs) + 1.0)


@pytest.mark.parametrize("n", [3, 4, 8, 9, 10, 11, 255, 256, 257, 600, 1000])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("op", [grids._d1, grids._d2])
def test_stencil_matrix_equals_the_kernel_on_the_whole_identity(op, periodic, n):
    # the matrix is built from the kernel on 8 nodes; n runs from below that
    # window to far past it, and the bits must be those of one dense build
    got = grids._stencil_matrix(op, n, 0.3, periodic)
    want = sp.csr_matrix(op(np.eye(n), 0, 0.3, periodic))
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))

"""Structured space-time grids, fields, stencil operators and quadrature.

Everything downstream (functional evaluation, residuals, solvers) is built
from the operators in this module: second-order central differences with
one-sided closures at wall boundaries, trapezoid/rectangle quadrature, and
surface quadrature over wall faces. All operators are pure functions of
immutable inputs. Every sparse stencil matrix is built here, from the kernels
``_d1``/``_d2`` applied to an identity of at most 8 nodes (``_stencil_matrix``),
lifted to the nodes of a 2D or 3D slice by index (``_stencil_matrices``, for the
steady solve); the space-time Newton solve applies the kernels of a whole
identity, dense, along each axis.

The kernels copy nothing. Ufunc calls on views of the array along the axis,
shifted one node either way, compute every interior node (one subtraction for
``_d1``); the end
nodes, the periodic wrap or the one-sided closure, are written afterwards with
the expressions and operand order of the ``np.roll`` stencils they replace, and
one division by 2h or h^2 finishes all nodes, so every bit and every
floating-point warning is the same. A ``_d2`` result that holds a NaN is the
exception: of two NaNs, numpy's x + y keeps the one that the element's place in
its SIMD loop picks, so ``_d2`` computes it again by the ``np.roll`` stencil's
calls. Any axes besides the differentiated one are
carried along, so a batch of fields stacked on a leading axis takes one call per
axis (``_gradients``). At 64^2 x 33 on one core of a 2-vCPU Xeon, a periodic
``_d1`` takes 0.20 ms along the first axis and 0.27 ms along the second (1.13 and
1.08 ms with rolled copies), one along the time axis 0.38 ms (1.01 ms) and a
periodic ``_d2`` 0.27 and 0.57 ms (1.15 and 1.26 ms).

Field values are stored as float64 arrays of shape ``(*space_nodes,
time_nodes)``; the time axis is always last. A grid with ``time_nodes == 1``
encodes a steady problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:       # scipy is imported by the builders of sparse matrices alone
    import scipy.sparse as sp

PERIODIC = "periodic"
WALL = "wall"


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid over a box domain and a time interval.

    Attributes:
        extents: physical box size per spatial axis.
        nodes: node count per spatial axis (>= 3 each).
        boundaries: "periodic" or "wall" per spatial axis. On a wall axis the
            nodes include both endpoints; on a periodic axis the right
            endpoint is excluded.
        time_nodes: number of time levels; 1 means a steady problem.
        dt: time step (ignored when time_nodes == 1).
    """

    extents: tuple[float, ...]
    nodes: tuple[int, ...]
    boundaries: tuple[str, ...]
    time_nodes: int = 1
    dt: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if not (1 <= len(self.extents) <= 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {len(self.extents)}")
        if len(self.nodes) != self.dim or len(self.boundaries) != self.dim:
            raise ValueError("extents, nodes and boundaries must have equal length")
        for b in self.boundaries:
            if b not in (PERIODIC, WALL):
                raise ValueError(f"boundary kind must be 'periodic' or 'wall', got {b!r}")
        for n in self.nodes:
            if n < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {n}")
        for e in self.extents:
            if e <= 0:
                raise ValueError(f"extent must be positive, got {e}")
        if self.time_nodes != 1 and self.time_nodes < 3:
            raise ValueError("time_nodes must be 1 (steady) or >= 3")
        if self.time_nodes > 1 and self.dt <= 0:
            raise ValueError("unsteady grid needs dt > 0")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def steady(self) -> bool:
        return self.time_nodes == 1

    @property
    def tau(self) -> float:
        return (self.time_nodes - 1) * self.dt if self.time_nodes > 1 else 0.0

    def spacing(self, axis: int) -> float:
        n, e = self.nodes[axis], self.extents[axis]
        return e / n if self.boundaries[axis] == PERIODIC else e / (n - 1)

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.spacing(axis)
        return np.arange(self.nodes[axis]) * h

    def time_coords(self) -> np.ndarray:
        if self.steady:
            return np.zeros(1)
        return np.arange(self.time_nodes) * self.dt

    def axis_weights(self, axis: int) -> np.ndarray:
        """1D quadrature weights: rectangle rule (periodic) or trapezoid (wall)."""
        h = self.spacing(axis)
        w = np.full(self.nodes[axis], h)
        if self.boundaries[axis] == WALL:
            w[0] = w[-1] = h / 2
        return w

    def space_weights(self) -> np.ndarray:
        """Tensor-product spatial quadrature weights, shape ``self.nodes``."""
        w = self.axis_weights(0)
        for a in range(1, self.dim):
            w = np.multiply.outer(w, self.axis_weights(a))
        return w

    def time_weights(self) -> np.ndarray:
        if self.steady:
            return np.ones(1)
        w = np.full(self.time_nodes, self.dt)
        w[0] = w[-1] = self.dt / 2
        return w

    def open_meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays (space + time), each along its own axis and of length
        one on the others (an open mesh), so that they broadcast to the field shape."""
        axes = [self.axis_coords(a) for a in range(self.dim)] + [self.time_coords()]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays (space + time), each broadcast to full field shape."""
        return tuple(np.broadcast_to(m, self.shape).copy() for m in self.open_meshes())

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.nodes, self.time_nodes)


def periodic_square(n: int, extent: float = 2 * np.pi, time_nodes: int = 1,
                    dt: float = 0.0) -> Grid:
    """2D all-periodic square grid, the workhorse for Taylor-Green checks."""
    return Grid((extent, extent), (n, n), (PERIODIC, PERIODIC), time_nodes, dt)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}")

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.grid.dim:
            raise ValueError(
                f"vector field needs {self.grid.dim} components, got {len(self.components)}")
        for c in self.components:
            if c.grid != self.grid:
                raise ValueError("vector components must share the grid")

    def __getitem__(self, i: int) -> ScalarField:
        return self.components[i]

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, tuple(ScalarField.zeros(grid) for _ in range(grid.dim)))


@dataclass(frozen=True)
class FieldQuartet:
    """The four unknown fields of the dual variational problem."""

    u: VectorField
    p: ScalarField
    w: VectorField
    r: ScalarField

    def __post_init__(self):
        g = self.u.grid
        if not (self.p.grid == g and self.w.grid == g and self.r.grid == g):
            raise ValueError("all quartet fields must share the same grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldQuartet":
        return cls(VectorField.zeros(grid), ScalarField.zeros(grid),
                   VectorField.zeros(grid), ScalarField.zeros(grid))

    def swapped(self) -> "FieldQuartet":
        """Interchange (u, p) with (w, r)."""
        return FieldQuartet(self.w, self.r, self.u, self.p)


# ---------------------------------------------------------------------------
# stencil kernels on raw arrays
# ---------------------------------------------------------------------------

def _face_index(axis: int, side, ndim: int) -> tuple:
    """Index tuple selecting ``side`` (an index or a slice) along ``axis``."""
    idx = [slice(None)] * ndim
    idx[axis] = side
    return tuple(idx)


def _d1(arr: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order first derivative along ``axis``; any other axes, batch axes
    before the grid's among them, are carried along."""
    if arr.shape[axis] < 3:
        raise ValueError("first-derivative stencil needs at least 3 nodes")
    out = np.empty_like(arr, dtype=np.result_type(arr, 1.0))
    sl = lambda i: _face_index(axis, i, arr.ndim)
    np.subtract(arr[sl(slice(2, None))], arr[sl(slice(None, -2))], out=out[sl(slice(1, -1))])
    if periodic:
        out[sl(0)] = arr[sl(1)] - arr[sl(-1)]
        out[sl(-1)] = arr[sl(0)] - arr[sl(-2)]
    else:
        out[sl(0)] = -3 * arr[sl(0)] + 4 * arr[sl(1)] - arr[sl(2)]
        out[sl(-1)] = 3 * arr[sl(-1)] - 4 * arr[sl(-2)] + arr[sl(-3)]
    out /= 2 * h
    return out


def _d2(arr: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second derivative along ``axis``, batch axes carried along as in ``_d1``;
    one-sided 4-point closure at walls."""
    if arr.shape[axis] < 3:
        raise ValueError("second-derivative stencil needs at least 3 nodes")
    out = np.empty_like(arr, dtype=np.result_type(arr, 1.0))
    sl = lambda i: _face_index(axis, i, arr.ndim)
    inner = out[sl(slice(1, -1))]                       # (hi - 2 mid) + lo, in place
    np.multiply(arr[sl(slice(1, -1))], 2, out=inner)
    np.subtract(arr[sl(slice(2, None))], inner, out=inner)
    np.add(inner, arr[sl(slice(None, -2))], out=inner)
    if periodic:
        out[sl(0)] = arr[sl(1)] - 2 * arr[sl(0)] + arr[sl(-1)]
        out[sl(-1)] = arr[sl(0)] - 2 * arr[sl(-1)] + arr[sl(-2)]
    elif arr.shape[axis] >= 4:
        out[sl(0)] = 2 * arr[sl(0)] - 5 * arr[sl(1)] + 4 * arr[sl(2)] - arr[sl(3)]
        out[sl(-1)] = 2 * arr[sl(-1)] - 5 * arr[sl(-2)] + 4 * arr[sl(-3)] - arr[sl(-4)]
    else:
        # minimal 3-node axis: fall back to the symmetric interior stencil
        out[sl(0)] = arr[sl(0)] - 2 * arr[sl(1)] + arr[sl(2)]
        out[sl(-1)] = out[sl(0)]
    out /= h**2
    if np.isnan(np.min(out, initial=0.0)):     # its bits follow numpy's loops (module docstring)
        if periodic:
            return (np.roll(arr, -1, axis) - 2 * arr + np.roll(arr, 1, axis)) / h**2
        out[sl(slice(1, -1))] = (arr[sl(slice(2, None))] - 2 * arr[sl(slice(1, -1))]
                                 + arr[sl(slice(None, -2))]) / h**2
    return out


def _stencil_matrix(op: Callable, n: int, h: float, periodic: bool) -> sp.csr_matrix:
    """The kernel ``op`` (``_d1``/``_d2``) on ``n`` nodes: ``op`` of the identity, to
    the bit. A row reaches at most 3 nodes from itself, and only the end rows are
    not the interior band, so past 8 nodes the matrix is that of 8 nodes with the
    band of its row 4 shifted along rows 1 to n - 2, and the columns of its end
    rows from 4 on moved to the end of the axis."""
    import scipy.sparse as sp
    M = op(np.eye(min(n, 8)), 0, h, periodic)
    if n <= 8:
        return sp.csr_matrix(M)
    first, band, last = (np.flatnonzero(M[i]) for i in (0, 4, 7))
    ends = lambda cols: np.where(cols < 4, cols, cols + (n - 8))
    indices = np.concatenate([ends(first), (np.arange(1, n - 1)[:, None] + band - 4).ravel(),
                              ends(last)])
    data = np.concatenate([M[0, first], np.tile(M[4, band], n - 2), M[7, last]])
    indptr = np.r_[0, len(first) + len(band) * np.arange(n - 1), len(data)]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _stencil_matrices(grid: Grid):
    """Sparse first-derivative matrices (one per axis) and Laplacian on a slice:
    the 1D stencil matrices lifted by index. Slice node (o, i, k), o running over
    the axes before the lifted one and k over those after, couples to (o, j, k)
    with the 1D entry (i, j): the matrix that ``sp.kron`` with identities builds,
    to the bit."""
    import scipy.sparse as sp
    def lift(op, axis):
        n = grid.nodes[axis]
        M = _stencil_matrix(op, n, grid.spacing(axis), grid.boundaries[axis] == PERIODIC)
        M, inner = M.tocoo(), int(np.prod(grid.nodes[axis + 1:]))
        outer, S = int(np.prod(grid.nodes[:axis])), int(np.prod(grid.nodes))
        base = np.arange(outer)[:, None, None] * (n * inner) + np.arange(inner)
        at = lambda index: (base + (index * inner)[:, None]).ravel()   # (o, entry, k)
        vals = np.tile(np.repeat(M.data, inner), outer)
        return sp.csr_matrix((vals, (at(M.row), at(M.col))), shape=(S, S))
    axes = range(grid.dim)
    return [lift(_d1, a) for a in axes], sum(lift(_d2, a) for a in axes)


# ---------------------------------------------------------------------------
# differential operators and quadrature
# ---------------------------------------------------------------------------

def _gradients(grid: Grid, batch: np.ndarray) -> list[np.ndarray]:
    """The spatial derivative along each axis of every array of ``batch``, arrays
    on ``grid``'s nodes (its time axis optional) stacked on a leading axis: one
    kernel call per axis."""
    return [_d1(batch, 1 + a, grid.spacing(a), grid.boundaries[a] == PERIODIC)
            for a in range(grid.dim)]


def _laplacian(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """The Laplacian of an array on ``grid``'s nodes, summed over the axes in order
    onto zeros. One array at a time: a batch would hold its stacked copy beside
    the outputs of the kernel, and in ``el_residuals`` that is the peak."""
    out = np.zeros(arr.shape)
    for a in range(grid.dim):
        out += _d2(arr, a, grid.spacing(a), grid.boundaries[a] == PERIODIC)
    return out


def integrate_space(f: ScalarField, time_index: int = 0) -> float:
    """Spatial quadrature of one time slice (trapezoid on wall axes,
    rectangle rule on periodic axes)."""
    g = f.grid
    if not -g.time_nodes <= time_index < g.time_nodes:
        raise ValueError(f"time index {time_index} out of range")
    return float(np.sum(g.space_weights() * f.values[..., time_index]))


def slice_integrals(f: ScalarField) -> np.ndarray:
    """Spatial integral of every time slice, as one array."""
    g = f.grid
    return np.tensordot(g.space_weights(), f.values,
                        axes=(tuple(range(g.dim)), tuple(range(g.dim))))


def integrate_spacetime(f: ScalarField) -> float:
    return float(np.dot(f.grid.time_weights(), slice_integrals(f)))


def wall_faces(grid: Grid):
    """Yield (axis, side, sign) for every wall face; side is 0 or -1."""
    for a in range(grid.dim):
        if grid.boundaries[a] == WALL:
            yield a, 0, -1.0
            yield a, -1, 1.0


def _wall_boundary_mask(grid: Grid) -> np.ndarray:
    """Boolean array of full field shape, true on every wall-face node."""
    mask = np.zeros(grid.shape, dtype=bool)
    for axis, side, _ in wall_faces(grid):
        mask[_face_index(axis, side, grid.dim + 1)] = True
    return mask


def _face_weights(grid: Grid, axis: int) -> np.ndarray:
    """Quadrature weights over a boundary face normal to ``axis``."""
    others = [grid.axis_weights(a) for a in range(grid.dim) if a != axis]
    if not others:
        return np.ones(())
    w = others[0]
    for nxt in others[1:]:
        w = np.multiply.outer(w, nxt)
    return w


def boundary_integral(flux: VectorField, time_index: int = 0) -> float:
    """Surface quadrature of ``flux . n`` over all wall faces of one slice.

    Zero (no faces) on an all-periodic grid.
    """
    g = flux.grid
    total = 0.0
    for axis, side, sign in wall_faces(g):
        comp = flux[axis].values[..., time_index]
        face = np.take(comp, side, axis=axis)
        total += sign * float(np.sum(_face_weights(g, axis) * face))
    return total


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def field_scale(*fields) -> float:
    """Magnitude proxy used to scale 'machine precision' tolerances."""
    peak = 0.0
    for f in fields:
        if isinstance(f, VectorField):
            peak = max(peak, *(float(np.max(np.abs(c.values))) for c in f.components))
        else:
            peak = max(peak, float(np.max(np.abs(f.values))))
    return max(peak, 1e-300)


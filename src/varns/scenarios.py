"""Named field scenarios and the random generators of the command-line runner.

``zero`` is self-describing; ``taylor-green`` is the exact decaying-vortex
oracle, the closed-form solution of the reduced system (``taylor_green``);
``random:<seed>`` builds a smooth low-wavenumber quartet whose difference field
vanishes on wall boundaries (so the energy and audit operations accept it);
``file:<dir>`` reads a quartet dumped in the snapshot CSV format.
"""

from __future__ import annotations

import functools

import numpy as np

from .grids import PERIODIC, FieldQuartet, Grid


def taylor_green(nu: float, grid: Grid) -> FieldQuartet:
    """Exact decaying-vortex quartet on the 2-pi periodic square.

    u = w = (-cos x sin y, sin x cos y) e^{-2 nu t}; the stored scalar is the
    variational pressure q = P - |u|^2 / 2 with P the physical pressure
    -(cos 2x + cos 2y) e^{-4 nu t} / 4, so the quartet satisfies the
    stationarity system exactly in the continuum.
    """
    if grid.dim != 2:
        raise ValueError(f"the decaying-vortex oracle is 2D; this grid is {grid.dim}D")
    if any(b != PERIODIC for b in grid.boundaries):
        raise ValueError("the decaying-vortex oracle needs an all-periodic grid")
    for e in grid.extents:
        if abs(e - 2 * np.pi) > 1e-9:
            raise ValueError("the decaying-vortex oracle needs extents of 2*pi")
    X, Y, T = grid.open_meshes()
    decay = np.exp(-2 * nu * T)
    u0 = -np.cos(X) * np.sin(Y) * decay
    u1 = np.sin(X) * np.cos(Y) * decay
    P = -0.25 * (np.cos(2 * X) + np.cos(2 * Y)) * decay ** 2
    q = P - 0.5 * (u0 ** 2 + u1 ** 2)
    return FieldQuartet.from_arrays(grid, (u0, u1), q, (u0, u1), q)


def _smooth_scalar(rng: np.random.Generator, grid: Grid,
                   wall_vanishing: bool = False) -> np.ndarray:
    """Random low-mode trigonometric field; optionally zero on wall faces. Each
    term is a product of one-axis factors on the open mesh, taken in axis order;
    its last factor spreads it over the whole grid, in one buffer for all four."""
    *coords, t = grid.open_meshes()
    out, term = np.zeros(grid.shape), np.empty(grid.shape)
    for _ in range(4):
        factors = [rng.normal()]
        for a, x in enumerate(coords):
            scale = 2 * np.pi / grid.extents[a]
            k = int(rng.integers(0, 3))
            if grid.boundaries[a] == PERIODIC:
                factors.append(np.sin(k * scale * x + rng.normal()))
            elif wall_vanishing:
                factors.append(np.sin((k + 1) * np.pi * x / grid.extents[a]))
            else:
                factors.append(np.cos(k * np.pi * x / grid.extents[a] + rng.normal()))
        if not grid.steady:
            factors.append(np.cos(0.7 * rng.normal() * t + rng.normal()))
        *head, last = factors
        out += np.multiply(functools.reduce(np.multiply, head), last, out=term)
    return out


def random_quartet(grid: Grid, seed: int) -> FieldQuartet:
    """Smooth random quartet with a wall-vanishing difference field.

    On grids with wall axes the velocity fields themselves vanish on the
    walls, so the quartet is mass-compatible surface data and an admissible
    state (u = w = 0 on the boundary) for the audits.
    """
    rng = np.random.default_rng(seed)
    walls = any(b != PERIODIC for b in grid.boundaries)
    base = [_smooth_scalar(rng, grid, wall_vanishing=walls) for _ in range(grid.dim)]
    diff = [_smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    for i, b in enumerate(base):
        d, diff[i] = diff[i], b - diff[i]       # w = base - diff takes diff's place
        b += d                                  # u = base + diff, in base's buffer
    del d
    return FieldQuartet.from_arrays(grid, base, _smooth_scalar(rng, grid), diff,
                                   _smooth_scalar(rng, grid))


def admissible_direction(grid: Grid, seed: int) -> FieldQuartet:
    """Random direction in the admissible class: velocity directions vanish on
    walls, du = dw at both end time slices, dp = dr on walls."""
    rng = np.random.default_rng(seed)
    t = grid.open_meshes()[-1]
    env = np.sin(np.pi * t / grid.tau) if grid.tau > 0 else 0.0
    du = [_smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    dw = [du[i] + env * _smooth_scalar(rng, grid, wall_vanishing=True)
          for i in range(grid.dim)]
    dp = _smooth_scalar(rng, grid)
    dr = dp + _smooth_scalar(rng, grid, wall_vanishing=True)
    return FieldQuartet.from_arrays(grid, du, dp, dw, dr)


def build_scenario(name: str, grid: Grid, nu: float) -> FieldQuartet:
    if name == "zero":
        return FieldQuartet.zeros(grid)
    if name == "taylor-green":
        return taylor_green(nu, grid)
    if name.startswith("random:"):
        return random_quartet(grid, int(name.split(":", 1)[1]))
    if name.startswith("file:"):
        from .reports import read_quartet_csv
        return read_quartet_csv(name.split(":", 1)[1], grid)
    raise ValueError(
        f"unknown scenario {name!r}; expected zero, taylor-green, "
        "random:<seed> or file:<path>")

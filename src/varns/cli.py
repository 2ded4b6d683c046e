"""Command-line runner: one subcommand per laboratory operation.

Configuration comes from an optional JSON document plus flag overrides
(flags win); unknown keys are rejected. Every subcommand writes its reports
under the output directory (``--out``, then the config, then ``$VARNS_OUT``,
then ``./varns-out``) and prints a one-line JSON summary to stdout.

Exit codes: 0 success / checks passed, 2 checks failed (resonance, unmet
certificate, non-convergence, order band violation), 1 usage or config error
(an unknown subcommand, flag or key, a malformed, mistyped or non-finite
value): the parser checks every flag, ``_reject_unknown`` every config value.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import reports
from .boundary import SurfaceData, boundary_recovery_audit, extended_functional
from .grids import (
    PERIODIC,
    FieldQuartet,
    Grid,
    ScalarField,
    VectorField,
    periodic_square,
)
from .lagrangian import (
    el_residuals,
    energy_series,
    evaluate_lagrangian,
    first_variation,
    gronwall_audit,
)
from .oscillator import (
    OscillatorProblem,
    ResonanceError,
    galerkin_identity_residual,
    solve_oscillator_vp,
)
from .scenarios import build_scenario, random_quartet
from .solver import (
    ConvergenceError,
    SolveConfig,
    kinetic_energy_series,
    march_reduced,
    newton_dual,
    steady_solve,
    taylor_green,
    u_w_gap,
)
from .steady import (
    inequality_chain_audit,
    uniqueness_certificate,
)

ORDER_BAND = (3.3, 4.7)

DEFAULT_CONFIG = {
    "grid": {
        "dim": 2,
        "extent": [2 * math.pi, 2 * math.pi],
        "nodes": [32, 32],
        "boundary": ["periodic", "periodic"],
        "time_nodes": 9,
        "dt": 0.0125,
    },
    "nu": 0.1,
    "solver": {
        "newton_tol": 1e-10,
        "max_newton": 25,
        "continuation_steps": 0,
        "linear_tol": 1e-11,
    },
    "scenario": "taylor-green",
    "out": None,
    "seeds": 5,
}


class ConfigError(Exception):
    pass


#: JSON types a config value may take, and their name, by the type of its default
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
          str: ((str,), "a string"), type(None): ((str, type(None)), "a string or null")}


def _reject_unknown(loaded: dict, template: dict, path: str = ""):
    """Reject unknown keys and values whose JSON type is not their default's, and
    non-finite numbers (NaN, Infinity, overflow); a list default (grid extent,
    nodes, boundary) takes one element or a list."""
    for key, val in loaded.items():
        if key not in template:
            raise ConfigError(f"unknown config key {path + key!r}")
        default = template[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            _reject_unknown(val, default, path + key + ".")
            continue
        listed = isinstance(default, list)
        types, what = _KINDS[type(default[0] if listed else default)]
        # true/false load as bool, an int subclass, and no key takes them
        if not all(isinstance(v, types) and not isinstance(v, bool)
                   and not (isinstance(v, float) and not math.isfinite(v))
                   for v in (val if listed and isinstance(val, list) else [val])):
            raise ConfigError(f"config key {path + key!r} must be {what}"
                              f"{' or a list of them' if listed else ''}, got {json.dumps(val)}")


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {args.config}: line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        _reject_unknown(loaded, cfg)
        for key, val in loaded.items():
            if isinstance(val, dict):
                cfg[key].update(val)
            else:
                cfg[key] = val

    g = cfg["grid"]
    for section, keys in ((g, ("dim", "time_nodes", "dt")),
                          (cfg, ("nu", "scenario", "seeds", "out")),
                          (cfg["solver"], ("newton_tol", "max_newton",
                                           "continuation_steps", "linear_tol"))):
        for key in keys:
            if getattr(args, key, None) is not None:
                section[key] = getattr(args, key)
    if getattr(args, "n", None) is not None:
        g["nodes"] = [args.n] * g["dim"]
    if getattr(args, "nodes", None) is not None:
        g["nodes"] = args.nodes
    for key in ("extent", "boundary"):
        vals = getattr(args, key, None)
        if vals is not None:
            g[key] = vals * g["dim"] if len(vals) == 1 else vals
    return cfg


def grid_from_config(cfg: dict, steady: bool = False) -> Grid:
    g = cfg["grid"]
    dim = g["dim"]
    each = lambda key: g[key] if isinstance(g[key], list) else [g[key]] * dim
    ext, nodes, bnd = [float(v) for v in each("extent")], each("nodes"), each("boundary")
    if len(ext) != dim or len(nodes) != dim or len(bnd) != dim:
        raise ConfigError("grid extent/nodes/boundary lengths must match dim")
    try:
        if steady:
            return Grid(ext, nodes, bnd, 1, 0.0)
        return Grid(ext, nodes, bnd, int(g["time_nodes"]), float(g["dt"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def solve_config(cfg: dict) -> SolveConfig:
    s = cfg["solver"]
    return SolveConfig(nu=float(cfg["nu"]), newton_tol=float(s["newton_tol"]),
                       max_newton=int(s["max_newton"]),
                       continuation_steps=int(s["continuation_steps"]),
                       linear_tol=float(s["linear_tol"]))


def resolve_out(cfg: dict) -> str:
    out = cfg.get("out") or os.environ.get("VARNS_OUT") or "varns-out"
    os.makedirs(out, exist_ok=True)
    return out


def emit(payload: dict):
    print(reports.json_line(payload))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_oscillator(args, cfg, out, grid, state) -> int:
    problem = OscillatorProblem(args.a, args.b, args.alpha, args.beta, args.osc_n)
    x = problem.x()
    with np.errstate(over="ignore", invalid="ignore"):
        analytic = problem.analytic_solution(x)
    if not np.isfinite(analytic).all():
        raise ValueError(f"--a {args.a!r} and --b {args.b!r} give a closed-form "
                         "solution that is not finite in floating point")
    sol = solve_oscillator_vp(problem)
    max_err = float(np.max(np.abs(sol.y_mean - analytic)))

    errors = []
    for n in (max(4, (problem.n - 1) // 4 + 1), (problem.n - 1) // 2 + 1):
        pr = OscillatorProblem(args.a, args.b, args.alpha, args.beta, n)
        sl = solve_oscillator_vp(pr)
        errors.append(float(np.max(np.abs(sl.y_mean - pr.analytic_solution(pr.x())))))
    errors.append(max_err)
    ratios = [errors[i] / errors[i + 1] for i in range(2) if errors[i + 1] > 0]
    # no nonzero finer error (a node-exact solution): no order to estimate
    order = float(np.mean([math.log2(r) for r in ratios])) if ratios else None

    gres = galerkin_identity_residual(sol.y1, sol.y2, problem)
    with open(os.path.join(out, "oscillator.csv"), "w") as fh:
        fh.write("x,y1,y2,y_mean,y_diff,analytic\n")
        for i in range(problem.n):
            fh.write(",".join(repr(float(v)) for v in
                              (x[i], sol.y1[i], sol.y2[i], sol.y_mean[i],
                               sol.y_diff[i], analytic[i])) + "\n")
    verdict = {"J": sol.functional_value, "galerkin_residual": gres,
               "max_err": max_err, "order_estimate": order}
    reports.write_json(os.path.join(out, "oscillator_verdict.json"), verdict)
    emit(verdict)
    return 0


def cmd_evaluate(args, cfg, out, grid, state) -> int:
    rep = evaluate_lagrangian(state, cfg["nu"])
    payload = {"J": rep.J, **rep.breakdown(), "scale": rep.scale}
    reports.write_json(os.path.join(out, "lagrangian_report.json"), payload)
    emit({"J": rep.J})
    return 0


def cmd_residual(args, cfg, out, grid, state) -> int:
    res = el_residuals(state, cfg["nu"])
    payload = {
        "div_u_max": float(np.max(np.abs(res.res_div_u.values))),
        "div_w_max": float(np.max(np.abs(res.res_div_w.values))),
        "mom_u_max": float(max(np.max(np.abs(c.values)) for c in res.res_u.components)),
        "mom_w_max": float(max(np.max(np.abs(c.values)) for c in res.res_w.components)),
    }
    payload["max"] = max(payload.values())
    fields = [("res_div_u.csv", res.res_div_u), ("res_div_w.csv", res.res_div_w)]
    for i in range(grid.dim):
        fields += [(f"res_u_{i}.csv", res.res_u[i]), (f"res_w_{i}.csv", res.res_w[i])]
    reports.write_fields_csv(out, fields)
    emit(payload)
    return 0


def _admissible_direction(grid: Grid, seed: int) -> FieldQuartet:
    """Random direction in the admissible class: velocity directions vanish on
    walls, du = dw at both end time slices, dp = dr on walls."""
    from .scenarios import _smooth_scalar
    rng = np.random.default_rng(seed)
    t = grid.meshes()[-1]
    env = np.sin(np.pi * t / grid.tau) if grid.tau > 0 else np.zeros(grid.shape)
    du = [_smooth_scalar(rng, grid, wall_vanishing=True) for _ in range(grid.dim)]
    dw = [du[i] + env * _smooth_scalar(rng, grid, wall_vanishing=True)
          for i in range(grid.dim)]
    dp = _smooth_scalar(rng, grid)
    dr = dp + _smooth_scalar(rng, grid, wall_vanishing=True)
    mkv = lambda arrs: VectorField(grid, tuple(ScalarField(grid, a) for a in arrs))
    return FieldQuartet(mkv(du), ScalarField(grid, dp), mkv(dw), ScalarField(grid, dr))


def cmd_variation_check(args, cfg, out, grid, state) -> int:
    nu = cfg["nu"]
    worst = 0.0
    rows = []
    for seed in range(cfg["seeds"]):
        state = random_quartet(grid, 1000 + seed)
        direction = _admissible_direction(grid, 2000 + seed)
        dJ = first_variation(state, direction, nu)
        scale = max(1.0, max(np.max(np.abs(c.values)) for c in state.u.components))
        eps = 1e-5 * scale
        plus = _shift_state(state, direction, eps)
        minus = _shift_state(state, direction, -eps)
        fd = (evaluate_lagrangian(plus, nu).J - evaluate_lagrangian(minus, nu).J) / (2 * eps)
        rel = abs(dJ - fd) / max(abs(fd), 1e-30)
        rows.append({"seed": seed, "dJ": dJ, "fd": fd, "rel_err": rel})
        worst = max(worst, rel)
    reports.write_json(os.path.join(out, "variation_check.json"),
                       {"cases": rows, "max_rel_err": worst})
    ok = worst <= 1e-6
    emit({"max_rel_err": worst, "tolerance": 1e-6, "ok": ok})
    return 0 if ok else 2


def _shift_state(state: FieldQuartet, direction: FieldQuartet, eps: float) -> FieldQuartet:
    g = state.grid
    vec = lambda a, b: VectorField(g, tuple(
        ScalarField(g, ca.values + eps * cb.values)
        for ca, cb in zip(a.components, b.components)))
    return FieldQuartet(vec(state.u, direction.u),
                        ScalarField(g, state.p.values + eps * direction.p.values),
                        vec(state.w, direction.w),
                        ScalarField(g, state.r.values + eps * direction.r.values))


def cmd_energy(args, cfg, out, grid, state) -> int:
    series = energy_series(state, cfg["nu"])
    audit = gronwall_audit(series)
    reports.write_energy_csv(os.path.join(out, "energy_series.csv"), series)
    payload = {"m": series.m, "E_final": float(series.E[-1]),
               "pointwise_ok": audit.pointwise_ok,
               "min_margin": audit.min_pointwise_margin,
               "min_forward_difference": audit.min_forward_difference}
    emit(payload)
    return 0 if audit.pointwise_ok else 2


def cmd_steady_cert(args, cfg, out, grid, state) -> int:
    cert = uniqueness_certificate(state, cfg["nu"], grid)
    record = cert.to_record()
    reports.write_json(os.path.join(out, "certificate.json"), record)
    emit(record)
    return 0 if cert.satisfied else 2


def cmd_inequality_audit(args, cfg, out, grid, state) -> int:
    audit = inequality_chain_audit(state, cfg["nu"], grid)
    reports.write_inequality_csv(os.path.join(out, "inequality_audit.csv"), audit)
    emit({"asserted_ok": audit.asserted_ok,
          "margins": {r.name: r.margin for r in audit.rows}})
    return 0 if audit.asserted_ok else 2


def cmd_extended(args, cfg, out, grid, state) -> int:
    surface = SurfaceData(state.u, state.w)
    rep = extended_functional(state, surface, cfg["nu"])
    payload = {"J": rep.J, "surface_term": rep.surface_term, "I": rep.I,
               "degenerate_wall_nodes": rep.degenerate_wall_nodes}
    reports.write_json(os.path.join(out, "extended_report.json"), payload)
    emit(payload)
    return 0


def cmd_boundary_audit(args, cfg, out, grid, state) -> int:
    surface = SurfaceData(state.u, state.w)
    audit = boundary_recovery_audit(state, surface, cfg["nu"])
    reports.write_boundary_audit_csv(os.path.join(out, "boundary_audit.csv"), audit)
    payload = {"max_normal_trace": audit.max_normal_trace,
               "max_stationarity": audit.max_stationarity,
               "max_normal_adjoint": audit.max_normal_adjoint,
               "max_adjoint": audit.max_adjoint}
    ok = True
    if args.claimed_stationary:
        ok = payload["stationary_ok"] = audit.passes(cfg["nu"])
    emit(payload)
    return 0 if ok else 2


def cmd_solve_unsteady(args, cfg, out, grid, state) -> int:
    try:
        traj = march_reduced(state.u, solve_config(cfg), grid)
    except ConvergenceError as exc:
        emit({"converged": False, "error": str(exc)})
        return 2
    reports.write_quartet_csv(out, traj.state)
    reports.write_convergence_csv(os.path.join(out, "convergence.csv"), traj)
    ke = kinetic_energy_series(traj)
    emit({"converged": True, "final_ke": float(ke[-1]),
          "initial_ke": float(ke[0])})
    return 0


def cmd_solve_steady(args, cfg, out, grid, state) -> int:
    # the solver configuration is validated before the scenario is built
    scfg = solve_config(cfg)
    all_periodic = all(b == PERIODIC for b in grid.boundaries)
    state = build_scenario(cfg["scenario"], grid, cfg["nu"])
    boundary = None if all_periodic else state.u
    initial = state.u if cfg["scenario"] != "zero" else None
    try:
        result = steady_solve(boundary, scfg, grid, initial=initial)
    except ConvergenceError as exc:
        emit({"converged": False, "error": str(exc)})
        return 2
    reports.write_quartet_csv(out, result)
    cert = uniqueness_certificate(result, cfg["nu"], grid)
    record = cert.to_record()
    reports.write_json(os.path.join(out, "certificate.json"), record)
    emit({"converged": True, **record})
    return 0 if cert.satisfied else 2


def cmd_newton_dual(args, cfg, out, grid, seed_state) -> int:
    nu = cfg["nu"]
    if args.perturb_w:
        amp = args.perturb_w
        meshes = grid.meshes()
        pert = 1 + amp * np.cos(meshes[0]) * np.cos(meshes[1])
        w = VectorField(grid, tuple(
            ScalarField(grid, c.values * pert) for c in seed_state.u.components))
        seed_state = FieldQuartet(seed_state.u, seed_state.p, w, seed_state.r)
    traj = newton_dual(seed_state, seed_state.u, solve_config(cfg), grid)
    reports.write_convergence_csv(os.path.join(out, "convergence.csv"), traj)
    reports.write_quartet_csv(out, traj.state)
    rep = evaluate_lagrangian(traj.state, nu)
    gap = u_w_gap(traj.state)
    ok = traj.converged and gap <= 1e-8 and abs(rep.J) <= 1e-10 * rep.scale
    emit({"converged": traj.converged, "iterations": len(traj.residuals) - 1,
          "u_w_gap": gap, "J": rep.J, "scale": rep.scale, "ok": ok})
    return 0 if ok else 2


def cmd_taylor_green_verify(args, cfg, out, base, state) -> int:
    nu = cfg["nu"]
    norms = []
    lines = ["level,n,dt,residual_max"]
    for lev in range(args.refine):
        n = base.nodes[0] * 2 ** lev
        dt = base.dt / 2 ** lev
        tn = (base.time_nodes - 1) * 2 ** lev + 1
        grid = periodic_square(n, time_nodes=tn, dt=dt)
        state = taylor_green(nu, grid)
        norm = el_residuals(state, nu).max_norm()
        norms.append(norm)
        lines.append(f"{lev},{n},{repr(dt)},{repr(norm)}")
    ratios = [norms[i] / norms[i + 1] for i in range(len(norms) - 1)]
    ok = all(ORDER_BAND[0] <= r <= ORDER_BAND[1] for r in ratios)
    with open(os.path.join(out, "taylor_green_orders.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    emit({"norms": norms, "ratios": ratios, "band": list(ORDER_BAND), "ok": ok})
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """Flag type of a number; nan, inf and overflow are rejected as malformed."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _comma_list(convert):
    """Flag type of a comma list of ``convert`` values."""
    def comma_list(text: str) -> list:
        return [convert(v) for v in text.split(",")]
    return comma_list


_COMMON_FLAGS = {
    "--config": {"help": "JSON config document"},
    "--out": {"help": "output directory"},
    "--nu": {"type": _finite},
    "--n": {"type": int, "help": "nodes per spatial axis"},
    "--nodes": {"type": _comma_list(int), "help": "comma list of nodes per axis"},
    "--dim": {"type": int},
    "--extent": {"type": _comma_list(_finite), "help": "comma list of extents (or one value)"},
    "--boundary": {"type": _comma_list(str), "help": "comma list: periodic|wall"},
    "--time-nodes": {"type": int},
    "--dt": {"type": _finite},
    "--scenario": {},
    "--seeds": {"type": int},
    "--newton-tol": {"type": _finite},
    "--max-newton": {"type": int},
    "--continuation-steps": {"type": int},
    "--linear-tol": {"type": _finite},
    "--print-config": {"action": "store_true"},
}


class _Command(NamedTuple):
    """One subcommand: its handler, the preamble it needs and its own flags.

    ``grid`` is "unsteady", "steady" or None (no grid); with ``scenario`` the
    configured scenario is built on that grid before the handler runs.
    """

    handler: Callable
    grid: str | None = "unsteady"
    scenario: bool = True
    flags: dict = {}


_COMMANDS = {
    "oscillator": _Command(cmd_oscillator, grid=None, scenario=False, flags={
        "--a": {"type": _finite, "default": 1.0},
        "--b": {"type": _finite, "default": 20.0},
        "--alpha": {"type": _finite, "default": 0.0},
        "--beta": {"type": _finite, "default": 1.0},
        "--osc-n": {"type": int, "default": 257}}),
    "evaluate": _Command(cmd_evaluate),
    "residual": _Command(cmd_residual),
    "variation-check": _Command(cmd_variation_check, scenario=False),
    "energy": _Command(cmd_energy),
    "steady-cert": _Command(cmd_steady_cert, grid="steady"),
    "inequality-audit": _Command(cmd_inequality_audit, grid="steady"),
    "extended": _Command(cmd_extended),
    "boundary-audit": _Command(cmd_boundary_audit, flags={
        "--claimed-stationary": {"action": "store_true"}}),
    "solve-unsteady": _Command(cmd_solve_unsteady),
    "solve-steady": _Command(cmd_solve_steady, grid="steady", scenario=False),
    "newton-dual": _Command(cmd_newton_dual, flags={
        "--perturb-w": {"type": _finite, "default": 0.0}}),
    "taylor-green-verify": _Command(cmd_taylor_green_verify, scenario=False, flags={
        "--refine": {"type": int, "default": 3}}),
}


class _Parser(argparse.ArgumentParser):
    """A bad command line (unknown subcommand or flag, malformed value) is a
    usage error with exit code 1; argparse itself would exit with 2, the code
    of a failed check."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varns",
        description="dual-field variational laboratory for incompressible flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in (*_COMMON_FLAGS.items(), *command.flags.items()):
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        if args.print_config:
            print(json.dumps(cfg, sort_keys=True, indent=2))
            return 0
        # the preamble every handler shares, in its validation order:
        # output directory, then grid, then scenario
        command = _COMMANDS[args.command]
        out = resolve_out(cfg)
        grid = state = None
        if command.grid is not None:
            grid = grid_from_config(cfg, steady=command.grid == "steady")
        if command.scenario:
            state = build_scenario(cfg["scenario"], grid, cfg["nu"])
        return command.handler(args, cfg, out, grid, state)
    except ConfigError as exc:
        print(reports.json_line({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return 1
    except ResonanceError as exc:
        emit({"error": "resonance", "m": exc.m})
        return 2
    except ConvergenceError as exc:
        emit({"error": "non-convergence", "detail": str(exc)})
        return 2
    except ValueError as exc:
        print(reports.json_line({"error": "usage", "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

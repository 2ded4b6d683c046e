"""Command-line runner: one subcommand per laboratory operation.

Configuration comes from an optional JSON document plus flag overrides
(flags win); unknown keys are rejected. ``DEFAULT_CONFIG`` is the one list of
options: every key has a flag of its name. A subcommand handler imports the
modules it calls when it runs, and returns its one-line JSON summary, its
reports and whether its checks passed; ``main``
writes the reports under the output directory (``--out``, then the config,
then ``$VARNS_OUT``, then ``./varns-out``) and prints the summary to stdout.

Exit codes: 0 success / checks passed, 2 checks failed (resonance, a singular
discrete oscillator, unmet certificate, non-convergence, order band violation,
a NaN or an infinity in the summary or a JSON report, which no JSON holds, or
a floating-point RuntimeWarning raised as an error by ``-W error::RuntimeWarning``),
1 usage or config error (an unknown subcommand, flag or key, a malformed,
mistyped or non-finite value, an unwritable output path, a grid over a size
guard's memory budget or an allocation refused at once): the parser checks every
flag, ``_merge`` every config value.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import reports
from .grids import _MAX_NEWTON_BYTES, PERIODIC, FieldQuartet, Grid, periodic_square
from .scenarios import admissible_direction, build_scenario, random_quartet, taylor_green

ORDER_BAND = (3.3, 4.7)

#: memory per finest-level node of taylor-green-verify: whole-process peak RSS growth
#: over the imports, single-thread BLAS on a 2-vCPU Xeon, was 105-116 B at 128^2 x 33
#: and up (n 32 at --refine 3 and 4, n 16 and 24 at --refine 4); 125 B at 64^2 x 33
#: and 139 B at 64^2 x 17, levels of 17 and 10 MB that no budget comes near
_TG_BYTES_PER_NODE = 120

#: memory per node of the oscillator (Python lists of floats): whole-process peak RSS
#: growth over the imports, 2-vCPU Xeon, was 874-938 B at 65,537 to 1,048,577 nodes
_OSC_BYTES_PER_NODE = 1000

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
    },
    "scenario": "taylor-green",
    "out": None,
    "seeds": 5,
}


class ConfigError(Exception):
    pass


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


#: by the type of a config key's default: the JSON types its value may take,
#: their name, and the type of its flag
_KINDS = {int: ((int,), "an integer", int),
          float: ((int, float), "a finite number", _finite),
          str: ((str,), "a string", str),
          type(None): ((str, type(None)), "a string or null", str)}

#: other spellings of a config key's flag
_ALIASES = {"grid.nodes": ("--n",)}


def _keys(cfg: dict, prefix: str = ""):
    """``(section, key, dotted name)`` of every config key of ``cfg``."""
    for key, val in cfg.items():
        if isinstance(val, dict):
            yield from _keys(val, prefix + key + ".")
        else:
            yield cfg, key, prefix + key


def _merge(cfg: dict, loaded: dict, path: str = ""):
    """Merge a config document into ``cfg``. Reject unknown keys, values whose JSON
    type is not their default's, and non-finite numbers (NaN, Infinity,
    overflow); a list default (grid extent, nodes, boundary) takes one element or
    a list."""
    for key, val in loaded.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {path + key!r}")
        default = cfg[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            _merge(default, val, path + key + ".")
            continue
        listed = isinstance(default, list)
        types, what, _ = _KINDS[type(default[0] if listed else default)]
        vals = val if listed and isinstance(val, list) else [val]
        # true/false load as bool, an int subclass, and no key takes them
        if not all(isinstance(v, types) and not isinstance(v, bool)
                   and not (isinstance(v, float) and not math.isfinite(v)) for v in vals):
            raise ConfigError(f"config key {path + key!r} must be {what}"
                              f"{' or a list of them' if listed else ''}, got {json.dumps(val)}")
        cfg[key] = vals if listed else val


def load_config(args) -> dict:
    """The defaults, then the ``--config`` document, then the flags: every config
    key is set by the flag of its name (see ``_config_flags``)."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {args.config}: line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        _merge(cfg, loaded)
    for section, key, name in _keys(cfg):
        if getattr(args, name) is not None:
            section[key] = getattr(args, name)
    # one value of a list key applies to every axis
    dim = cfg["grid"]["dim"]
    for section, key, name in _keys(cfg):
        if isinstance(section[key], list) and len(section[key]) == 1:
            if dim not in (1, 2, 3):
                raise ConfigError(f"config key 'grid.dim' must be 1, 2 or 3, got {dim}")
            section[key] = section[key] * dim
    return cfg


def grid_from_config(cfg: dict, steady: bool = False) -> Grid:
    g = cfg["grid"]
    if not len(g["extent"]) == len(g["nodes"]) == len(g["boundary"]) == g["dim"]:
        raise ConfigError("grid extent/nodes/boundary lengths must match dim")
    time = (1, 0.0) if steady else (int(g["time_nodes"]), float(g["dt"]))
    try:
        return Grid([float(v) for v in g["extent"]], g["nodes"], g["boundary"], *time)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def solve_config(cfg: dict):
    from .solver import SolveConfig
    s = cfg["solver"]
    return SolveConfig(nu=float(cfg["nu"]), newton_tol=float(s["newton_tol"]),
                       max_newton=int(s["max_newton"]),
                       continuation_steps=int(s["continuation_steps"]))


# ---------------------------------------------------------------------------
# subcommands: each imports the modules it calls and returns its summary, its
# reports (file name -> JSON record, reports.Table or ScalarField) and verdict
# ---------------------------------------------------------------------------

def cmd_oscillator(args, cfg, grid, state):
    from .oscillator import (OscillatorProblem, ResonanceError, galerkin_identity_residual,
                             solve_oscillator_vp)
    # the order estimate also solves at (n - 1) / 2^k + 1 nodes for k = 2 and 1,
    # wherever that halves h and leaves at least 4 nodes; n = 7 is the first with one
    if args.osc_n < 7:
        raise ValueError(f"--osc-n must be at least 7 for the order estimate, got {args.osc_n}")
    if _OSC_BYTES_PER_NODE * args.osc_n > _MAX_NEWTON_BYTES:
        raise ValueError(f"--osc-n {args.osc_n} is too large: its levels need more than "
                         f"the {_MAX_NEWTON_BYTES / 1e6:.0f} MB memory budget")
    problem = OscillatorProblem(args.a, args.b, args.alpha, args.beta, args.osc_n)
    x = problem.x()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            analytic = problem.analytic_solution(x)
        if not np.isfinite(analytic).all():
            raise ValueError(f"--a {args.a!r} and --b {args.b!r} give a closed-form "
                             "solution that is not finite in floating point")
        levels = [OscillatorProblem(args.a, args.b, args.alpha, args.beta, n)
                  for n in [(problem.n - 1) // 2 ** k + 1 for k in (2, 1)
                            if (problem.n - 1) % 2 ** k == 0 and (problem.n - 1) // 2 ** k >= 3]]
        sol, *coarse = map(solve_oscillator_vp, [problem, *levels])
    except ResonanceError as exc:
        return {"error": "resonance", "m": exc.m}, {}, False
    except np.linalg.LinAlgError as exc:    # a zero pivot: no unique discrete solution
        return {"error": "singular", "detail": str(exc)}, {}, False
    max_err = float(np.max(np.abs(sol.y_mean - analytic)))
    errors = [float(np.max(np.abs(sl.y_mean - pr.analytic_solution(pr.x()))))
              for pr, sl in zip(levels, coarse)] + [max_err]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1) if errors[i + 1] > 0]
    # no coarser level, or no nonzero finer error (a node-exact solution): no order
    order = float(np.mean([math.log2(r) for r in ratios])) if ratios else None

    gres = galerkin_identity_residual(sol.y1, sol.y2, problem)
    table = reports.Table(x=x, y1=sol.y1, y2=sol.y2, y_mean=sol.y_mean,
                          y_diff=sol.y_diff, analytic=analytic)
    verdict = {"J": sol.functional_value, "galerkin_residual": gres,
               "max_err": max_err, "order_estimate": order}
    return verdict, {"oscillator.csv": table, "oscillator_verdict.json": verdict}, True


def cmd_evaluate(args, cfg, grid, state):
    from .lagrangian import evaluate_lagrangian
    rep = evaluate_lagrangian(state, cfg["nu"])
    payload = {"J": rep.J, **rep.breakdown(), "scale": rep.scale}
    return {"J": rep.J}, {"lagrangian_report.json": payload}, True


def cmd_residual(args, cfg, grid, state):
    from .lagrangian import el_residuals
    res = el_residuals(state, cfg["nu"])
    payload = {
        "div_u_max": float(np.max(np.abs(res.res_div_u.values))),
        "div_w_max": float(np.max(np.abs(res.res_div_w.values))),
        "mom_u_max": float(max(np.max(np.abs(c.values)) for c in res.res_u.components)),
        "mom_w_max": float(max(np.max(np.abs(c.values)) for c in res.res_w.components)),
    }
    payload["max"] = max(payload.values())
    files = {"res_div_u.csv": res.res_div_u, "res_div_w.csv": res.res_div_w}
    for i in range(grid.dim):
        files.update({f"res_u_{i}.csv": res.res_u[i], f"res_w_{i}.csv": res.res_w[i]})
    return payload, files, True


def cmd_variation_check(args, cfg, grid, state):
    from .lagrangian import evaluate_lagrangian, first_variation
    if cfg["seeds"] < 1:
        raise ValueError(f"--seeds must be at least 1, got {cfg['seeds']}")
    nu = cfg["nu"]
    worst = 0.0
    rows = []
    for seed in range(cfg["seeds"]):
        state = random_quartet(grid, 1000 + seed)
        direction = admissible_direction(grid, 2000 + seed)
        dJ = first_variation(state, direction, nu)
        scale = max(1.0, max(np.max(np.abs(c.values)) for c in state.u.components))
        eps = 1e-5 * scale
        plus = _shift_state(state, direction, eps)
        minus = _shift_state(state, direction, -eps)
        fd = (evaluate_lagrangian(plus, nu).J - evaluate_lagrangian(minus, nu).J) / (2 * eps)
        rel = abs(dJ - fd) / max(abs(fd), 1e-30)
        rows.append({"seed": seed, "dJ": dJ, "fd": fd, "rel_err": rel})
        worst = float(np.maximum(worst, rel))       # a NaN case is the worst
    ok = worst <= 1e-6
    return ({"max_rel_err": worst, "tolerance": 1e-6, "ok": ok},
            {"variation_check.json": {"cases": rows, "max_rel_err": worst}}, ok)


def _shift_state(state: FieldQuartet, direction: FieldQuartet, eps: float) -> FieldQuartet:
    shift = lambda a, b: a.values + eps * b.values
    vec = lambda a, b: map(shift, a.components, b.components)
    return FieldQuartet.from_arrays(state.grid, vec(state.u, direction.u),
                                    shift(state.p, direction.p), vec(state.w, direction.w),
                                    shift(state.r, direction.r))


def cmd_energy(args, cfg, grid, state):
    from .lagrangian import energy_series, gronwall_audit
    series = energy_series(state, cfg["nu"])
    audit = gronwall_audit(series)
    # the mismatch is defined at interior time nodes only
    mismatch = [None] * len(series.times)
    mismatch[1:-1] = series.identity_mismatch
    table = reports.Table(t=series.times, E=series.E, rhs=series.rhs, mismatch=mismatch)
    payload = {"m": series.m, "E_final": float(series.E[-1]),
               "pointwise_ok": audit.pointwise_ok,
               "min_margin": audit.min_pointwise_margin,
               "min_forward_difference": audit.min_forward_difference}
    return payload, {"energy_series.csv": table}, audit.pointwise_ok


def _convergence_table(traj) -> reports.Table:
    return reports.Table(iter=range(len(traj.residuals)), residual=traj.residuals,
                         u_w_gap=traj.u_w_gap, J=traj.J_values)


def cmd_steady_cert(args, cfg, grid, state):
    from .steady import uniqueness_certificate
    cert = uniqueness_certificate(state, cfg["nu"])
    record = cert.to_record()
    return record, {"certificate.json": record}, cert.satisfied


def cmd_inequality_audit(args, cfg, grid, state):
    from .steady import inequality_chain_audit
    audit = inequality_chain_audit(state, cfg["nu"])
    table = reports.Table({name: [getattr(r, name) for r in audit.rows]
                           for name in ("name", "lhs", "rhs", "margin", "asserted")})
    return ({"asserted_ok": audit.asserted_ok,
             "margins": {r.name: r.margin for r in audit.rows}},
            {"inequality_audit.csv": table}, audit.asserted_ok)


def cmd_extended(args, cfg, grid, state):
    from .boundary import SurfaceData, extended_functional
    surface = SurfaceData(state.u, state.w)
    rep = extended_functional(state, surface, cfg["nu"])
    payload = {"J": rep.J, "surface_term": rep.surface_term, "I": rep.I,
               "degenerate_wall_nodes": rep.degenerate_wall_nodes}
    return payload, {"extended_report.json": payload}, True


def cmd_boundary_audit(args, cfg, grid, state):
    from .boundary import SurfaceData, boundary_recovery_audit
    surface = SurfaceData(state.u, state.w)
    audit = boundary_recovery_audit(state, surface, cfg["nu"])
    payload = {"max_normal_trace": audit.max_normal_trace,
               "max_stationarity": audit.max_stationarity,
               "max_normal_adjoint": audit.max_normal_adjoint,
               "max_adjoint": audit.max_adjoint}
    ok = True
    if args.claimed_stationary:
        ok = payload["stationary_ok"] = audit.passes(cfg["nu"])
    return payload, {"boundary_audit.csv": reports.Table(audit.columns)}, ok


def cmd_solve_unsteady(args, cfg, grid, state):
    from .solver import ConvergenceError, kinetic_energy_series, march_reduced
    try:
        traj = march_reduced(state.u, solve_config(cfg), grid)
    except ConvergenceError as exc:
        return {"converged": False, "error": str(exc)}, {}, False
    ke = kinetic_energy_series(traj)
    return ({"converged": True, "final_ke": float(ke[-1]), "initial_ke": float(ke[0])},
            {**reports.quartet_files(traj.state), "convergence.csv": _convergence_table(traj)},
            True)


def cmd_solve_steady(args, cfg, grid, state):
    from .solver import ConvergenceError, steady_solve
    from .steady import uniqueness_certificate
    # the solver configuration is validated before the scenario is built
    scfg = solve_config(cfg)
    all_periodic = all(b == PERIODIC for b in grid.boundaries)
    state = build_scenario(cfg["scenario"], grid, cfg["nu"])
    boundary = None if all_periodic else state.u
    initial = state.u if cfg["scenario"] != "zero" else None
    try:
        result = steady_solve(boundary, scfg, grid, initial=initial)
    except ConvergenceError as exc:
        return {"converged": False, "error": str(exc)}, {}, False
    cert = uniqueness_certificate(result, cfg["nu"])
    record = cert.to_record()
    return ({"converged": True, **record},
            {**reports.quartet_files(result), "certificate.json": record}, cert.satisfied)


def cmd_newton_dual(args, cfg, grid, seed_state):
    from .lagrangian import evaluate_lagrangian
    from .solver import ConvergenceError, newton_dual, u_w_gap
    nu = cfg["nu"]
    if args.perturb_w:
        amp = args.perturb_w
        x, y = grid.open_meshes()[:2]
        pert = 1 + amp * np.cos(x) * np.cos(y)
        u = [c.values for c in seed_state.u.components]
        seed_state = FieldQuartet.from_arrays(grid, u, seed_state.p.values,
                                              [c * pert for c in u], seed_state.r.values)
    try:
        traj = newton_dual(seed_state, seed_state.u, solve_config(cfg), grid)
    except ConvergenceError as exc:
        return {"error": "non-convergence", "detail": str(exc)}, {}, False
    rep = traj.report if traj.report is not None else evaluate_lagrangian(traj.state, nu)
    gap = u_w_gap(traj.state)
    ok = traj.converged and gap <= 1e-8 and abs(rep.J) <= 1e-10 * rep.scale
    return ({"converged": traj.converged, "iterations": len(traj.residuals) - 1,
             "u_w_gap": gap, "J": rep.J, "scale": rep.scale, "ok": ok},
            {"convergence.csv": _convergence_table(traj), **reports.quartet_files(traj.state)},
            ok)


def cmd_taylor_green_verify(args, cfg, base, state):
    from .lagrangian import el_residuals
    if args.refine < 2:
        raise ValueError(f"--refine must be at least 2 for a ratio of levels, got {args.refine}")
    # one level is held at a time, the finest (n 2^(r-1))^2 x ((T - 1) 2^(r-1) + 1) nodes;
    # r - 1 = 32 already puts any grid over the budget, so the integers stay small
    scale = 2 ** min(args.refine - 1, 32)
    nodes = (base.nodes[0] * scale) ** 2 * ((base.time_nodes - 1) * scale + 1)
    if _TG_BYTES_PER_NODE * nodes > _MAX_NEWTON_BYTES:
        raise ValueError(f"--refine {args.refine} is too large: its finest level needs more "
                         f"than the {_MAX_NEWTON_BYTES / 1e6:.0f} MB memory budget")
    nu = cfg["nu"]
    levels = range(args.refine)
    n = [base.nodes[0] * 2 ** lev for lev in levels]
    dt = [base.dt / 2 ** lev for lev in levels]
    norms = []
    for lev in levels:
        grid = periodic_square(n[lev], time_nodes=(base.time_nodes - 1) * 2 ** lev + 1,
                               dt=dt[lev])
        norms.append(el_residuals(taylor_green(nu, grid), nu).max_norm())
    ratios = [norms[i] / norms[i + 1] for i in range(len(norms) - 1)]
    ok = all(ORDER_BAND[0] <= r <= ORDER_BAND[1] for r in ratios)
    table = reports.Table(level=levels, n=n, dt=dt, residual_max=norms)
    return ({"norms": norms, "ratios": ratios, "band": list(ORDER_BAND), "ok": ok},
            {"taylor_green_orders.csv": table}, ok)


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

def _config_flags():
    """``(spellings, add_argument keywords)`` of the flag of every config key: its
    name is the key's, its type the default's; a list key takes a comma list."""
    for section, key, name in _keys(DEFAULT_CONFIG):
        listed = isinstance(section[key], list)
        convert = _KINDS[type(section[key][0] if listed else section[key])][2]
        spellings = ("--" + key.replace("_", "-"), *_ALIASES.get(name, ()))
        yield spellings, {
            "dest": name, "type": _comma_list(convert) if listed else convert,
            "help": f"config key {name}" + (", a comma list or one value for "
                                            "every axis" if listed else "")}


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


# built once per process: parsing leaves no state in the parser, so calls share it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varns",
        description="dual-field variational laboratory for incompressible flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective configuration and exit")
        for spellings, kwargs in _config_flags():
            p.add_argument(*spellings, **kwargs)
        for flag, kwargs in command.flags.items():
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
        out = cfg["out"] or os.environ.get("VARNS_OUT") or "varns-out"
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot make the output directory {out!r}: {exc}") from exc
        grid = state = None
        if command.grid is not None:
            grid = grid_from_config(cfg, steady=command.grid == "steady")
        if command.scenario:
            state = build_scenario(cfg["scenario"], grid, cfg["nu"])
        summary, files, ok = command.handler(args, cfg, grid, state)
        line = reports.json_line(summary)       # a non-finite summary writes no report
        try:
            reports.write_reports(out, files)
        except OSError as exc:
            raise ValueError(f"cannot write the reports under {out!r}: {exc}") from exc
        print(line)
        return 0 if ok else 2
    except ConfigError as exc:
        print(reports.json_line({"error": "config", "detail": str(exc)}),
              file=sys.stderr)
        return 1
    except (reports.NonFiniteError, RuntimeWarning) as exc:
        # a RuntimeWarning raised as an error (-W error::RuntimeWarning) is an
        # overflow or an invalid operation: a non-finite result, as without the flag
        print(reports.json_line({"error": "non-finite", "detail": str(exc)}))
        return 2
    except (ValueError, MemoryError) as exc:
        # a MemoryError is an allocation refused at once: nothing was touched
        print(reports.json_line({"error": "usage", "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

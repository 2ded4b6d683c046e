"""Workload definitions: the ops each workload runs and how each op is checked.

An op is one ``varns`` subcommand run through ``varns.cli.main``. A workload
is a list of parts; each part turns one seeded parameter value into one or
more ops. A round draws one value per part, so every round has the same op
mix and differs only in seeded parameters. Parameters come from small fixed
sets, so the whole input domain of a workload is finite and the report
hashes of every possible op can be recorded once (see ``record_hashes.py``).

Checks are independent of ``varns``: they read the one-line JSON summary and
the report files with plain Python and return ``None`` or a failure reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORK = ".perfbench_work"
INPUTS = os.path.join(WORK, "inputs")
SNAP = os.path.join(WORK, "snap")


@dataclass
class Result:
    code: Optional[int]
    summary: Optional[dict]
    out: str
    error: Optional[str] = None


Check = Callable[[Result], Optional[str]]


@dataclass
class Op:
    kind: str
    cmd: str
    flags: tuple = ()
    config: Optional[dict] = None
    check: Optional[Check] = None
    out: Optional[str] = None            # fixed output directory, else a scratch one
    make_inputs: Optional[Callable[[], None]] = None
    known_defect: Optional[str] = None

    @property
    def key(self) -> str:
        return json.dumps({"cmd": self.cmd, "flags": list(self.flags),
                           "config": self.config}, sort_keys=True)

    @property
    def config_path(self) -> Optional[str]:
        if self.config is None:
            return None
        digest = hashlib.sha256(self.key.encode()).hexdigest()[:16]
        return os.path.join(INPUTS, f"{self.cmd}-{digest}.json")

    def argv(self, out: str) -> list[str]:
        argv = [self.cmd]
        if self.config is not None:
            argv += ["--config", self.config_path]
        return argv + list(self.flags) + ["--out", out]

    def prepare(self):
        if self.config is not None:
            with open(self.config_path, "w") as fh:
                json.dump(self.config, fh, sort_keys=True)
        if self.make_inputs is not None:
            self.make_inputs()

    def verdict(self, res: Result) -> Optional[str]:
        if res.error is not None:
            return res.error
        if res.code != 0:
            detail = json.dumps(res.summary, sort_keys=True)[:300] if res.summary else ""
            return f"exit code {res.code}, expected 0 {detail}".rstrip()
        if res.summary is None:
            return "no JSON summary on stdout"
        return self.check(res) if self.check else None


@dataclass
class Part:
    build: Callable[[object], list]
    choices: tuple


@dataclass
class Workload:
    name: str
    parts: list
    warmup: Callable[[], list]
    repeat_index: int                  # op of the first round re-run for determinism
    min_rounds: int                    # enough ops for a tail, and a round count
                                       # that --seconds does not decide alone
    notes: dict = field(default_factory=dict)

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield [op for part in self.parts for op in part.build(rng.choice(part.choices))]

    def domain(self) -> list:
        return [op for part in self.parts for v in part.choices for op in part.build(v)]


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------

def _all(*checks: Check) -> Check:
    def run(res: Result):
        for c in checks:
            reason = c(res)
            if reason:
                return reason
        return None
    return run


def _field(name: str, ok: Callable[[object], bool], what: str) -> Check:
    def run(res: Result):
        if name not in res.summary:
            return f"summary lacks {name!r}"
        val = res.summary[name]
        return None if ok(val) else f"{name}={val!r} is not {what}"
    return run


def _is_true(name: str) -> Check:
    return _field(name, lambda v: v is True, "true")


def _finite(*names: str) -> Check:
    return _all(*(_field(n, lambda v: isinstance(v, (int, float)) and math.isfinite(v),
                         "finite") for n in names))


def _files(*names: str) -> Check:
    def run(res: Result):
        for n in names:
            path = os.path.join(res.out, n)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                return f"report {n} missing or empty"
        return None
    return run


def _csv_rows(*names: str, rows: int) -> Check:
    """Each snapshot CSV has a header plus ``rows`` data rows."""
    def run(res: Result):
        for n in names:
            with open(os.path.join(res.out, n), "rb") as fh:
                count = sum(1 for _ in fh)
            if count != rows + 1:
                return f"{n} has {count - 1} rows, expected {rows}"
        return None
    return run


def _close(name: str, target: float, tol: float) -> Check:
    return _field(name, lambda v: abs(v - target) <= tol, f"within {tol:g} of {target!r}")


def _snapshot_value(out: str, fname: str, row: int) -> float:
    with open(os.path.join(out, fname)) as fh:
        for i, line in enumerate(fh):
            if i == row + 1:
                return float(line.rsplit(",", 1)[1])
    raise ValueError(f"{fname} has no row {row}")


def _grid(nodes, time_nodes=None, dt=None, extent=None, boundary=None) -> dict:
    g = {"nodes": [nodes, nodes]}
    if time_nodes is not None:
        g["time_nodes"] = time_nodes
    if dt is not None:
        g["dt"] = dt
    if extent is not None:
        g["extent"] = [extent, extent]
    if boundary is not None:
        g["boundary"] = [boundary, boundary]
    return g


QUARTET = ("u_0.csv", "u_1.csv", "p.csv", "w_0.csv", "w_1.csv", "r.csv")
RESIDUALS = ("res_div_u.csv", "res_div_w.csv", "res_u_0.csv", "res_w_0.csv",
             "res_u_1.csv", "res_w_1.csv")
DEFAULT_DT = 0.0125                      # the CLI's default time step


# ---------------------------------------------------------------------------
# audit: compute layers, little I/O
# ---------------------------------------------------------------------------

SCENARIO_SEEDS = tuple(range(16))
OSC_CHOICES = ((0.5, 5.0), (0.5, 30.0), (1.0, 15.0), (1.0, 20.0), (2.0, 5.0), (2.0, 60.0))
AUDIT_NUS = (0.05, 0.1, 0.2)
CERT_NUS = (20.0, 24.0, 32.0)
ORDER_BAND = (3.3, 4.7)


def oscillator_op(ab):
    a, b = ab
    return [Op("oscillator", "oscillator", ("--a", repr(a), "--b", repr(b)),
               check=_all(_finite("J", "galerkin_residual", "max_err"),
                          _close("order_estimate", 2.0, 0.05),
                          _files("oscillator.csv", "oscillator_verdict.json")))]


def _report_matches(fname: str, key: str) -> Check:
    def run(res: Result):
        with open(os.path.join(res.out, fname)) as fh:
            rep = json.load(fh)
        return None if rep.get(key) == res.summary.get(key) else f"{fname} {key} differs from summary"
    return run


def evaluate_op(seed, nodes=64, time_nodes=17):
    return [Op("evaluate", "evaluate",
               config={"grid": _grid(nodes, time_nodes), "scenario": f"random:{seed}"},
               check=_all(_finite("J"), _report_matches("lagrangian_report.json", "J")))]


def energy_op(seed, nodes=64, time_nodes=17):
    return [Op("energy", "energy",
               config={"grid": _grid(nodes, time_nodes), "scenario": f"random:{seed}"},
               check=_all(_is_true("pointwise_ok"), _finite("E_final", "m"),
                          _files("energy_series.csv")))]


def variation_op(nu, nodes=32, time_nodes=9):
    return [Op("variation-check", "variation-check",
               config={"grid": _grid(nodes, time_nodes), "nu": nu},
               check=_all(_is_true("ok"),
                          _field("max_rel_err", lambda v: v <= 1e-6, "<= 1e-6")))]


def _wall_box(nodes=32, time_nodes=9):
    return _grid(nodes, time_nodes, extent=1.0, boundary="wall")


def _extended_consistent(res: Result):
    s = res.summary
    tol = 1e-9 * max(1.0, abs(s["J"]), abs(s["I"]))
    if abs(s["I"] - (s["J"] + s["surface_term"])) > tol:
        return "extended functional I != J + surface_term"
    return None


def extended_op(seed):
    return [Op("extended", "extended",
               config={"grid": _wall_box(), "scenario": f"random:{seed}"},
               check=_all(_finite("J", "I", "surface_term"), _extended_consistent,
                          _files("extended_report.json")))]


def boundary_audit_op(seed):
    return [Op("boundary-audit", "boundary-audit",
               config={"grid": _wall_box(), "scenario": f"random:{seed}"},
               check=_all(_finite("max_normal_trace", "max_stationarity",
                                  "max_normal_adjoint", "max_adjoint"),
                          _files("boundary_audit.csv")))]


def _cert_holds(res: Result):
    s = res.summary
    if not (s.get("satisfied") is True and s["lhs"] < s["threshold"]):
        return f"certificate not satisfied (lhs {s.get('lhs')!r}, threshold {s.get('threshold')!r})"
    return None


def steady_cert_op(seed_nu):
    seed, nu = seed_nu
    return [Op("steady-cert", "steady-cert",
               config={"grid": _grid(64), "scenario": f"random:{seed}", "nu": nu},
               check=_all(_cert_holds, _files("certificate.json")))]


def inequality_op(seed):
    return [Op("inequality-audit", "inequality-audit",
               config={"grid": _grid(64), "scenario": f"random:{seed}"},
               check=_all(_is_true("asserted_ok"), _files("inequality_audit.csv")))]


def _ratios_in_band(res: Result):
    ratios = res.summary.get("ratios") or []
    if len(ratios) != 2 or not all(ORDER_BAND[0] <= r <= ORDER_BAND[1] for r in ratios):
        return f"refinement ratios {ratios!r} outside {ORDER_BAND}"
    return None


def taylor_green_verify_op(nu):
    return [Op("taylor-green-verify", "taylor-green-verify", ("--refine", "3"),
               config={"grid": _grid(16), "nu": nu},
               check=_all(_is_true("ok"), _ratios_in_band,
                          _files("taylor_green_orders.csv")))]


AUDIT_PARTS = [
    Part(oscillator_op, OSC_CHOICES),
    Part(evaluate_op, SCENARIO_SEEDS),
    Part(energy_op, SCENARIO_SEEDS),
    Part(variation_op, AUDIT_NUS),
    Part(extended_op, SCENARIO_SEEDS),
    Part(boundary_audit_op, SCENARIO_SEEDS),
    Part(steady_cert_op, tuple((s, nu) for s in SCENARIO_SEEDS for nu in CERT_NUS)),
    Part(inequality_op, SCENARIO_SEEDS),
    Part(taylor_green_verify_op, AUDIT_NUS),
]

AUDIT = Workload(
    "audit",
    AUDIT_PARTS,
    warmup=lambda: [op for p in AUDIT_PARTS for op in p.build(p.choices[0])],
    repeat_index=1,
    min_rounds=2,
)


# ---------------------------------------------------------------------------
# newton: monolithic space-time Newton with sparse LU
# ---------------------------------------------------------------------------

PERTURBS = (0.05, 0.1, 0.15, 0.2)
NEWTON_SIZES = ((8, 6), (10, 6), (12, 6), (8, 8), (10, 8))
ODD_T_PROBE = (8, 5)
ODD_T_DEFECT = ("newton-dual with an odd number of time nodes stalls and exits 2 "
                "after 25 Newton iterations (known defect at the seed commit)")


def _newton_ok(res: Result):
    s = res.summary
    if not (s.get("converged") is True and s.get("ok") is True):
        return f"not converged/ok after {s.get('iterations')} iterations (u_w_gap {s.get('u_w_gap')!r})"
    if not s["u_w_gap"] <= 1e-8:
        return f"u_w_gap {s['u_w_gap']!r} > 1e-8"
    if not abs(s["J"]) <= 1e-10 * s["scale"]:
        return f"|J| {abs(s['J'])!r} > 1e-10 * scale"
    return None


def newton_op(n, time_nodes, perturb, known_defect=None):
    return Op(f"newton-dual {n}x{n}x{time_nodes}", "newton-dual",
              ("--perturb-w", repr(perturb)),
              config={"grid": _grid(n, time_nodes, dt=0.02), "nu": 0.5},
              check=_all(_newton_ok, _files("convergence.csv", *QUARTET)),
              known_defect=known_defect)


NEWTON = Workload(
    "newton",
    [Part(lambda a, nt=nt: [newton_op(*nt, a)], PERTURBS) for nt in NEWTON_SIZES]
    + [Part(lambda a: [newton_op(*ODD_T_PROBE, a, known_defect=ODD_T_DEFECT)], PERTURBS)],
    warmup=lambda: [newton_op(8, 6, 0.1)],
    repeat_index=0,
    min_rounds=2,
    notes={"omitted_size": "12x12x8 (about 7 s per op) is left out to keep a round "
                           "near 12 s",
           "odd_t_probe": f"{ODD_T_PROBE[0]}x{ODD_T_PROBE[0]}x{ODD_T_PROBE[1]}, "
                          "one op per round, counted in failed/ok_frac"},
)


# ---------------------------------------------------------------------------
# snapshots: field CSV write and read
# ---------------------------------------------------------------------------

SNAP_NUS = (0.05, 0.08, 0.1, 0.12)


def _ke_decay(nu: float, tau: float) -> Check:
    def run(res: Result):
        s = res.summary
        if s.get("converged") is not True:
            return "march did not converge"
        if abs(s["initial_ke"] - math.pi ** 2) > 1e-9 * math.pi ** 2:
            return f"initial_ke {s['initial_ke']!r} != pi^2"
        want = math.exp(-4 * nu * tau)
        got = s["final_ke"] / s["initial_ke"]
        if abs(got - want) > 1e-3 * want:
            return f"kinetic energy ratio {got!r}, expected exp(-4 nu tau) = {want!r}"
        return None
    return run


def _zero_functional(res: Result):
    with open(os.path.join(res.out, "lagrangian_report.json")) as fh:
        rep = json.load(fh)
    if not abs(res.summary["J"]) <= 1e-12 * max(1.0, rep["scale"]):
        return f"J = {res.summary['J']!r} on a u = w snapshot, expected 0"
    return None


def snapshot_chain(nu, nodes=64, time_nodes=17, snap=SNAP):
    grid = _grid(nodes, time_nodes)
    tau = (time_nodes - 1) * DEFAULT_DT
    rows = nodes * nodes * time_nodes
    return [
        Op("solve-unsteady", "solve-unsteady", config={"grid": grid, "nu": nu}, out=snap,
           check=_all(_ke_decay(nu, tau), _files("convergence.csv"),
                      _csv_rows(*QUARTET, rows=rows))),
        Op("evaluate-file", "evaluate",
           config={"grid": grid, "nu": nu, "scenario": f"file:{snap}"},
           check=_all(_finite("J"), _zero_functional)),
    ]


def residual_op(nu, nodes=64, time_nodes=17):
    h = 2 * math.pi / nodes

    def small(res: Result):
        s = res.summary
        if not (s["div_u_max"] <= 1e-10 and s["div_w_max"] <= 1e-10):
            return "divergence residual of Taylor-Green exceeds 1e-10"
        if not s["max"] <= h * h:
            return f"momentum residual {s['max']!r} exceeds h^2 = {h * h!r}"
        return None
    return [Op("residual", "residual", config={"grid": _grid(nodes, time_nodes), "nu": nu},
               check=_all(small, _csv_rows(*RESIDUALS, rows=nodes * nodes * time_nodes)))]


SNAPSHOTS = Workload(
    "snapshots",
    [Part(snapshot_chain, SNAP_NUS), Part(residual_op, SNAP_NUS)],
    warmup=lambda: (snapshot_chain(0.1, 16, 5, os.path.join(WORK, "snap-warmup"))
                    + residual_op(0.1, 16, 5)),
    repeat_index=0,
    min_rounds=4,
)


# ---------------------------------------------------------------------------
# steady: wall-bounded explicit solver and periodic pseudo-time solver
# ---------------------------------------------------------------------------

LIDS = (0.5, 0.75, 1.0, 1.25, 1.5)
CAVITY_U88 = -0.176365                    # regression snapshot at lid 1, nu 1
CAVITY_LHS = 2.7798


def _write_cavity(path: str, nodes: int, lid: float):
    """Lid-driven cavity quartet in the snapshot CSV format: u_0 = lid on the
    top wall, every other field zero. Written without varns."""
    os.makedirs(path, exist_ok=True)
    coords = [i / (nodes - 1) for i in range(nodes)]
    for name in QUARTET:
        lines = ["axis0,axis1,t,value"]
        for i in range(nodes):
            for j in range(nodes):
                val = lid if name in ("u_0.csv", "w_0.csv") and j == nodes - 1 else 0.0
                lines.append(f"{coords[i]!r},{coords[j]!r},0.0,{val!r}")
        with open(os.path.join(path, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _cavity_check(lid: float, nodes: int) -> Check:
    """Reference values at lid 1 (tolerances of the regression test); other
    lid speeds scale them linearly (Stokes limit, lid Reynolds number <= 1.5),
    with the same tolerances scaled by the lid speed."""
    def run(res: Result):
        s = res.summary
        if s.get("converged") is not True:
            return "cavity solve did not converge"
        reason = _cert_holds(res)
        if reason:
            return reason
        if nodes != 16:
            return None
        if abs(s["lhs"] - CAVITY_LHS * lid) > 2e-3 * lid:
            return f"certificate lhs {s['lhs']!r}, expected {CAVITY_LHS * lid!r}"
        u88 = _snapshot_value(res.out, "u_0.csv", 8 * nodes + 8)
        if abs(u88 - CAVITY_U88 * lid) > 2e-4 * lid:
            return f"u0[8,8] = {u88!r}, expected {CAVITY_U88 * lid!r}"
        return None
    return run


def cavity_op(lid, nodes=16):
    path = os.path.join(INPUTS, f"cavity-{nodes}-lid{lid!r}")
    return [Op("solve-steady cavity", "solve-steady",
               config={"grid": _grid(nodes, extent=1.0, boundary="wall"), "nu": 1.0,
                       "scenario": f"file:{path}", "solver": {"newton_tol": 1e-8}},
               check=_all(_cavity_check(lid, nodes), _files("certificate.json", *QUARTET)),
               make_inputs=lambda: _write_cavity(path, nodes, lid))]


def _decayed(res: Result):
    s = res.summary
    if s.get("converged") is not True or s.get("satisfied") is not True:
        return "periodic steady solve did not converge to a certified state"
    if not s["lhs"] <= 1e-6:
        return f"Taylor-Green did not decay to rest (certificate lhs {s['lhs']!r})"
    return None


def periodic_steady_op(nodes):
    return [Op(f"solve-steady taylor-green {nodes}", "solve-steady",
               config={"grid": _grid(nodes), "nu": 0.2, "scenario": "taylor-green"},
               check=_all(_decayed, _files("certificate.json", *QUARTET)))]


STEADY = Workload(
    "steady",
    [Part(cavity_op, LIDS),
     Part(lambda _: periodic_steady_op(16), (None,)),
     Part(lambda _: periodic_steady_op(24), (None,))],
    warmup=lambda: cavity_op(1.0, nodes=8) + periodic_steady_op(16),
    repeat_index=1,
    min_rounds=6,
)


WORKLOADS = {w.name: w for w in (AUDIT, NEWTON, SNAPSHOTS, STEADY)}

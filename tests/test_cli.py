import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from varns import cli, lagrangian, oscillator, reports, solver
from varns.cli import main
from varns.grids import FieldQuartet, Grid, ScalarField, VectorField, periodic_square
from varns.lagrangian import el_residuals, evaluate_lagrangian
from varns.reports import write_field_csv
from varns.scenarios import build_scenario

from conftest import abc_flow, periodic_box, write_quartet_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def last_json(out):
    return json.loads(out.splitlines()[-1])


def test_oscillator_resonance_exit_2(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oscillator", "--a", "0", "--b", "9.8696044",
                           "--out", str(tmp_path))
    assert code == 2
    payload = last_json(out)
    assert payload["error"] == "resonance"
    assert payload["m"] == 1


def test_oscillator_singular_discrete_system_exits_2(tmp_path, capsys):
    # a = 1/h and b = 2/h^2 at 7 nodes zero a column of the sum system: an exact
    # zero pivot, reported like a resonance, on stdout with exit code 2
    code, out, err = run_cli(capsys, "oscillator", "--a", "6", "--b", "72", "--osc-n", "7",
                             "--out", str(tmp_path))
    assert code == 2 and err == ""
    assert len(out.splitlines()) == 1
    assert last_json(out) == {"detail": "singular discrete system: zero pivot",
                              "error": "singular"}
    assert not (tmp_path / "oscillator.csv").exists()


def test_oscillator_node_exact_solution_has_no_order(tmp_path, capsys):
    # y = alpha + (beta - alpha) x solves y'' = 0 exactly at the nodes: every
    # error is 0, so there is no order to estimate, and NaN is not JSON
    code, out, _ = run_cli(capsys, "oscillator", "--a", "0", "--b", "0",
                           "--osc-n", "9", "--out", str(tmp_path))
    assert code == 0
    reject = lambda name: pytest.fail(f"{name} in the JSON output")
    verdict = json.loads(out, parse_constant=reject)
    assert verdict["order_estimate"] is None
    assert verdict["max_err"] == 0.0
    saved = (tmp_path / "oscillator_verdict.json").read_text()
    assert json.loads(saved, parse_constant=reject) == verdict


@pytest.mark.parametrize("flag, value", [("--a", "1e200"), ("--a", "-1e200"),
                                         ("--b", "-1e308")])
def test_oscillator_rejects_coefficients_without_a_finite_solution(tmp_path, capsys,
                                                                   flag, value):
    code, out, err = run_cli(capsys, "oscillator", f"{flag}={value}", "--osc-n", "9",
                             "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert flag in payload["detail"] and "not finite" in payload["detail"]
    assert not (tmp_path / "oscillator.csv").exists()


def test_oscillator_healthy_run(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oscillator", "--a", "1", "--b", "20",
                           "--alpha", "0", "--beta", "1", "--out", str(tmp_path))
    assert code == 0
    payload = last_json(out)
    assert abs(payload["order_estimate"] - 2.0) < 0.2
    assert payload["max_err"] < 1e-3
    csv = (tmp_path / "oscillator.csv").read_text().splitlines()
    assert csv[0] == "x,y1,y2,y_mean,y_diff,analytic"


def test_evaluate_zero_scenario(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--scenario", "zero",
                           "--n", "8", "--time-nodes", "3", "--dt", "0.01",
                           "--out", str(tmp_path))
    assert code == 0
    assert last_json(out) == {"J": 0.0}
    assert (tmp_path / "lagrangian_report.json").exists()


def test_taylor_green_verify_spec_example(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "taylor-green-verify", "--nu", "0.1",
                           "--n", "32", "--refine", "3", "--out", str(tmp_path))
    assert code == 0
    payload = last_json(out)
    assert all(3.3 <= r <= 4.7 for r in payload["ratios"])
    assert (tmp_path / "taylor_green_orders.csv").exists()


def test_newton_dual_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "newton-dual", "--n", "8", "--time-nodes",
                           "6", "--dt", "0.02", "--nu", "0.5",
                           "--perturb-w", "0.1", "--out", str(tmp_path))
    assert code == 0
    payload = last_json(out)
    assert payload["converged"] and payload["ok"]
    assert payload["u_w_gap"] <= 1e-8
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv[0] == "iter,residual,u_w_gap,J"
    assert len(conv) >= 3


def test_newton_dual_cli_takes_the_functional_from_the_solve(tmp_path, capsys, monkeypatch):
    # the solve evaluated the functional of its last iterate at the target
    # viscosity; the handler does not evaluate it again
    def evaluate(*args):
        raise AssertionError("evaluate_lagrangian called again")
    monkeypatch.setattr(lagrangian, "evaluate_lagrangian", evaluate)
    code, out, _ = run_cli(capsys, "newton-dual", "--n", "8", "--time-nodes", "6",
                           "--dt", "0.02", "--nu", "0.5", "--out", str(tmp_path))
    assert code == 0 and last_json(out)["ok"]


def test_deterministic_outputs(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code, _, _ = run_cli(capsys, "evaluate", "--scenario", "random:7",
                             "--n", "10", "--time-nodes", "5", "--dt", "0.02",
                             "--out", str(d))
        assert code == 0
    assert (d1 / "lagrangian_report.json").read_bytes() == \
        (d2 / "lagrangian_report.json").read_bytes()


def test_out_dir_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "only-here"
    code, _, _ = run_cli(capsys, "evaluate", "--scenario", "zero", "--n", "8",
                         "--time-nodes", "3", "--dt", "0.01", "--out", str(out))
    assert code == 0
    entries = {p.name for p in tmp_path.iterdir()}
    assert entries == {"only-here"}


def test_env_var_default_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("VARNS_OUT", str(tmp_path / "envout"))
    code, _, _ = run_cli(capsys, "evaluate", "--scenario", "zero", "--n", "8",
                         "--time-nodes", "3", "--dt", "0.01")
    assert code == 0
    assert (tmp_path / "envout" / "lagrangian_report.json").exists()


def _usage_error(err):
    payload = json.loads(err)
    assert payload["error"] == "usage"
    return payload["detail"]


def test_out_naming_an_existing_file_exits_1_naming_it(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("")
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "zero", "--n", "8",
                             "--time-nodes", "3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert str(target) in _usage_error(err)


def test_unwritable_report_exits_1_naming_its_path(tmp_path, capsys):
    # a directory where the report file should go cannot be opened for writing
    (tmp_path / "lagrangian_report.json").mkdir()
    code, out, err = run_cli(capsys, "evaluate", "--scenario", "zero", "--n", "8",
                             "--time-nodes", "3", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert str(tmp_path / "lagrangian_report.json") in _usage_error(err)


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, _ = run_cli(capsys, "evaluate", "--scenario", "zero", "--n", "16",
                         "--time-nodes", "3", "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "evaluate", "--print-config")
    assert code == 0
    assert json.loads(out)["grid"]["nodes"] == cli.DEFAULT_CONFIG["grid"]["nodes"]
    code, out, err = run_cli(capsys, "evaluate", "--no-such-flag", "--out", str(tmp_path))
    assert code == 1
    assert "--no-such-flag" in _usage_error(err)
    code, out, _ = run_cli(capsys, "evaluate", "--scenario", "zero", "--n", "8",
                           "--time-nodes", "3", "--out", str(tmp_path))
    assert code == 0
    assert last_json(out) == {"J": 0.0}


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"dim": 2}, "viscosity": 0.1}))
    code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                           "--out", str(tmp_path))
    assert code == 1
    assert "viscosity" in err


def test_linear_tol_config_key_is_unknown(tmp_path, capsys):
    """The marcher's Picard tolerance is a constant: a document that sets the old key
    is refused like any unknown key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"linear_tol": 1e-11}}))
    code, out, err = run_cli(capsys, "solve-unsteady", "--config", str(cfg),
                             "--out", str(tmp_path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["detail"] == "unknown config key 'solver.linear_tol'"


@pytest.mark.parametrize("command, document, key", [
    ("evaluate", {"nu": {"a": 1}}, "nu"),
    ("evaluate", {"nu": "abc"}, "nu"),
    ("evaluate", {"scenario": 5}, "scenario"),
    ("evaluate", {"grid": {"dim": "two"}}, "grid.dim"),
    ("evaluate", {"grid": {"nodes": [[8, 8]]}}, "grid.nodes"),
    ("evaluate", {"grid": {"extent": "wide"}}, "grid.extent"),
    ("evaluate", {"grid": {"boundary": 3}}, "grid.boundary"),
    ("evaluate", {"out": 7}, "out"),
    ("evaluate", {"solver": {"max_newton": 2.5}}, "solver.max_newton"),
    ("variation-check", {"seeds": "x"}, "seeds"),
])
def test_mistyped_config_value_exits_1_naming_the_key(tmp_path, capsys, command,
                                                      document, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, command, "--config", str(cfg),
                             "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert repr(key) in payload["detail"]


@pytest.mark.parametrize("argv, document, name", [
    (("evaluate", "--n", "abc"), None, "--n"),
    (("evaluate", "--bogus", "1"), None, "--bogus"),
    (("frobnicate",), None, "frobnicate"),
    (("oscillator", "--b", "inf"), None, "--b"),
    (("oscillator", "--alpha", "nan"), None, "--alpha"),
    (("evaluate", "--nu", "nan"), None, "--nu"),
    (("evaluate", "--dt", "nan"), None, "--dt"),
    (("evaluate", "--extent", "inf"), None, "--extent"),
    (("evaluate",), '{"nu": NaN}', "'nu'"),
    (("evaluate",), '{"grid": {"dt": Infinity}}', "'grid.dt'"),
    (("evaluate",), '{"grid": {"extent": [1, -Infinity]}}', "'grid.extent'"),
    (("evaluate",), '{"solver": {"newton_tol": 1e999}}', "'solver.newton_tol'"),
    # one value of a list key is repeated dim times only for a valid dim
    (("evaluate", "--dim", "1000000000", "--n", "8"), None, "'grid.dim'"),
], ids=["bad-int", "unknown-flag", "unknown-subcommand", "flag-inf", "flag-nan",
        "nu-nan", "dt-nan", "extent-inf", "config-nan", "config-inf",
        "config-list-inf", "config-overflow", "dim-out-of-range"])
def test_usage_error_exits_1_naming_the_flag_or_key(tmp_path, capsys, argv, document,
                                                    name):
    if document is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(document)
        argv = (*argv, "--config", str(cfg))
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "detail"}
    assert name in payload["detail"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    assert "--nu" in capsys.readouterr().out


def test_malformed_json_line_column(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "nu": 0.1,\n  oops\n}')
    code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                           "--out", str(tmp_path))
    assert code == 1
    payload = json.loads(err)
    assert "line 3" in payload["detail"]


def test_print_config_lists_all_defaults(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--print-config",
                           "--out", str(tmp_path))
    assert code == 0
    cfg = json.loads(out)
    assert set(cfg) == {"grid", "nu", "solver", "scenario", "out", "seeds"}
    assert set(cfg["solver"]) == {"newton_tol", "max_newton", "continuation_steps"}


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"nodes": [12, 12], "time_nodes": 5, "dt": 0.02},
        "nu": 0.3, "scenario": "random:1"}))
    # flag wins over the file: the zero scenario forces J = 0 exactly
    code, out, _ = run_cli(capsys, "evaluate", "--config", str(cfg),
                           "--scenario", "zero", "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["J"] == 0.0
    report = json.loads((tmp_path / "lagrangian_report.json").read_text())
    assert "viscous" in report


def test_file_scenario_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "dump"
    code, out, _ = run_cli(capsys, "solve-unsteady", "--scenario", "taylor-green",
                           "--n", "12", "--time-nodes", "5", "--dt", "0.02",
                           "--nu", "0.2", "--out", str(out1))
    assert code == 0
    code, out, _ = run_cli(capsys, "evaluate",
                           "--scenario", f"file:{out1}",
                           "--n", "12", "--time-nodes", "5", "--dt", "0.02",
                           "--nu", "0.2", "--out", str(tmp_path / "eval"))
    assert code == 0
    # marched state has the stationary structure, so J is near zero
    assert abs(last_json(out)["J"]) < 1e-10


def _corrupt_missing(dump):
    return dump / "absent", dump / "absent" / "u_0.csv"


def _corrupt_row(dump):
    path = dump / "p.csv"
    lines = path.read_text().splitlines()
    lines[30] = "0.0;0.0;0.0;0.0"
    path.write_text("\n".join(lines) + "\n")
    return dump, path


def _corrupt_value(dump):
    path = dump / "r.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",not-a-number"
    path.write_text("\n".join(lines) + "\n")
    return dump, path


@pytest.mark.parametrize("corrupt, where", [(_corrupt_missing, "cannot be read"),
                                            (_corrupt_row, "line 31"),
                                            (_corrupt_value, "line 6")])
def test_bad_file_scenario_exits_1_naming_the_file(tmp_path, capsys, corrupt, where):
    dump = tmp_path / "dump"
    grid = ("--n", "8", "--time-nodes", "3", "--dt", "0.02", "--nu", "0.2")
    code, _, _ = run_cli(capsys, "solve-unsteady", "--scenario", "taylor-green",
                         *grid, "--out", str(dump))
    assert code == 0
    scenario_dir, bad_file = corrupt(dump)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": f"file:{scenario_dir}"}))
    code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg), *grid,
                           "--out", str(tmp_path / "eval"))
    assert code == 1
    detail = json.loads(err)["detail"]
    assert str(bad_file) in detail and where in detail


@pytest.mark.parametrize("flag, value", [("--extent", "1"), ("--dt", "0.05")])
def test_file_scenario_from_another_grid_exits_1(tmp_path, capsys, flag, value):
    """Same node counts, other extent or dt: the snapshot's coordinates do
    not match the grid."""
    dump = tmp_path / "dump"
    grid = {"--n": "8", "--time-nodes": "3", "--dt": "0.02", "--nu": "0.2"}
    flags = lambda d: [x for kv in d.items() for x in kv]
    code, _, _ = run_cli(capsys, "solve-unsteady", "--scenario", "taylor-green",
                         *flags(grid), "--out", str(dump))
    assert code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": f"file:{dump}"}))
    code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                           *flags({**grid, flag: value}), "--out", str(tmp_path / "eval"))
    assert code == 1
    detail = json.loads(err)["detail"]
    assert str(dump / "u_0.csv") in detail and "another grid" in detail


@pytest.mark.parametrize("name, value, line", [("u_0.csv", "nan", 10), ("w_1.csv", "inf", 70),
                                               ("r.csv", "-nan", 192)])
@pytest.mark.parametrize("command", ["evaluate", "residual"])
def test_non_finite_file_scenario_exits_1_naming_file_and_line(tmp_path, capsys, command,
                                                               name, value, line):
    """NaN is not JSON: a non-finite snapshot value must not reach the report."""
    dump = tmp_path / "dump"
    grid = ("--n", "8", "--time-nodes", "3", "--dt", "0.02", "--nu", "0.2")
    code, _, _ = run_cli(capsys, "solve-unsteady", "--scenario", "taylor-green",
                         *grid, "--out", str(dump))
    assert code == 0
    lines = (dump / name).read_text().splitlines()
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + "," + value
    (dump / name).write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, command, "--scenario", f"file:{dump}", *grid,
                             "--out", str(tmp_path / "report"))
    assert code == 1 and out == ""
    detail = json.loads(err)["detail"]
    assert str(dump / name) in detail and f"line {line} has a non-finite value" in detail


def test_residual_formats_each_distinct_field_once(tmp_path, capsys, monkeypatch):
    """Taylor-Green has w = u, so the w residuals are bit-equal to the u ones:
    three of the six files are copies, with the bytes of independent writes."""
    calls, real = [], reports.write_field_csv
    monkeypatch.setattr(reports, "write_field_csv",
                        lambda path, f, *a: calls.append(path) or real(path, f, *a))
    code, _, _ = run_cli(capsys, "residual", "--scenario", "taylor-green", "--n", "8",
                         "--time-nodes", "3", "--dt", "0.02", "--nu", "0.2",
                         "--out", str(tmp_path / "cli"))
    assert code == 0
    assert len(calls) == 3
    g = periodic_square(8, time_nodes=3, dt=0.02)
    res = el_residuals(build_scenario("taylor-green", g, 0.2), 0.2)
    fields = {"res_div_u.csv": res.res_div_u, "res_div_w.csv": res.res_div_w,
              **{f"res_u_{i}.csv": res.res_u[i] for i in range(2)},
              **{f"res_w_{i}.csv": res.res_w[i] for i in range(2)}}
    (tmp_path / "ref").mkdir()
    for name, f in fields.items():
        write_field_csv(tmp_path / "ref" / name, f)
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_energy_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "energy", "--scenario", "random:3",
                           "--n", "10", "--time-nodes", "5", "--dt", "0.02",
                           "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["pointwise_ok"] is True
    lines = (tmp_path / "energy_series.csv").read_text().splitlines()
    assert lines[0] == "t,E,rhs,mismatch"
    assert lines[1].endswith(",")          # no mismatch at the first node
    assert not lines[2].endswith(",")


def test_steady_cert_cli_zero_satisfied(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "steady-cert", "--scenario", "zero",
                           "--n", "10", "--out", str(tmp_path))
    assert code == 0
    payload = last_json(out)
    assert payload["satisfied"] is True
    assert payload["lhs"] == 0.0
    assert abs(payload["threshold"] - 4.820570513667908) < 1e-12
    assert payload["threshold_quoted_approx"] == 3.0


def test_steady_cert_cli_unsatisfied_exit_2(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "steady-cert", "--scenario", "taylor-green",
                           "--n", "16", "--nu", "0.01", "--out", str(tmp_path))
    assert code == 2
    assert last_json(out)["satisfied"] is False


def test_inequality_audit_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "inequality-audit", "--scenario", "random:5",
                           "--n", "12", "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["asserted_ok"] is True
    lines = (tmp_path / "inequality_audit.csv").read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,asserted"
    assert len(lines) == 4


def test_boundary_audit_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "boundary-audit", "--scenario", "zero",
                           "--n", "8", "--time-nodes", "3", "--dt", "0.05",
                           "--boundary", "wall", "--claimed-stationary",
                           "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["stationary_ok"] is True
    lines = (tmp_path / "boundary_audit.csv").read_text().splitlines()
    assert lines[0] == "face,node,check_a,check_b,check_c,check_d"


def test_variation_check_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "variation-check", "--n", "10",
                           "--time-nodes", "5", "--dt", "0.02", "--seeds", "3",
                           "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["max_rel_err"] <= 1e-6


def test_solve_steady_cli_periodic_decay(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "solve-steady", "--scenario", "taylor-green",
                           "--n", "12", "--nu", "0.5", "--newton-tol", "1e-8",
                           "--out", str(tmp_path))
    assert code == 0
    payload = last_json(out)
    assert payload["converged"] is True
    assert payload["satisfied"] is True


def _wall_scenario(path, top=0.0, left=0.0):
    """12x12 unit-box quartet whose u_0 is ``top`` on the top wall and ``left``
    on the interior nodes of the left wall, every other value zero."""
    g = Grid((1.0, 1.0), (12, 12), ("wall", "wall"))
    u0 = np.zeros(g.shape)
    u0[:, -1] = top
    u0[0, 1:-1] = left
    vel = VectorField(g, (ScalarField(g, u0), ScalarField.zeros(g)))
    write_quartet_csv(str(path), FieldQuartet(vel, ScalarField.zeros(g), vel,
                                              ScalarField.zeros(g)))
    return ("--scenario", f"file:{path}", "--n", "12", "--boundary", "wall",
            "--extent", "1", "--nu", "1")


@pytest.mark.parametrize("scenario, budget", [
    ({"left": 1.0}, ()),                      # inflow with no outflow
    ({"top": 1.0}, ("--max-newton", "1")),    # the cavity needs three steps
], ids=["mass-incompatible", "newton-budget"])
def test_solve_steady_failure_exits_2(tmp_path, capsys, scenario, budget):
    flags = _wall_scenario(tmp_path / "data", **scenario)
    code, out, _ = run_cli(capsys, "solve-steady", *flags, *budget,
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert last_json(out)["converged"] is False


def test_solve_steady_honours_continuation_steps(tmp_path, capsys):
    # without the ladder this solve runs out of Newton steps and exits 2
    code, out, _ = run_cli(capsys, "solve-steady", "--scenario", "random:2",
                           "--nu", "0.01", "--continuation-steps", "3",
                           "--out", str(tmp_path))
    assert code == 0
    assert last_json(out)["converged"] is True


def test_newton_dual_cli_accepts_default_grid(tmp_path, capsys, monkeypatch):
    # the default 32x32x9 grid passes the memory guard and reaches the solve
    # (replaced here, so that no 52,224-unknown system is solved); 128x128x9
    # is a clean usage error
    def reached(*args):
        raise solver.ConvergenceError("reached the space-time solve")
    monkeypatch.setattr(solver, "_DualNewtonSystem", reached)
    code, out, err = run_cli(capsys, "newton-dual", "--out", str(tmp_path / "default"))
    assert code == 2
    assert err == ""
    assert last_json(out)["detail"] == "reached the space-time solve"
    code, out, err = run_cli(capsys, "newton-dual", "--n", "128", "--time-nodes", "9",
                             "--out", str(tmp_path / "large"))
    assert code == 1
    assert out == ""
    assert "too large" in json.loads(err)["detail"]


def test_newton_dual_cli_non_finite_step_exits_2(tmp_path, capsys, monkeypatch):
    # a GMRES step with NaN entries ends the solve as non-convergence, not a traceback
    monkeypatch.setattr(solver, "_gmres", lambda A, b, *args: (np.full(len(b), np.nan), 0, True))
    code, out, _ = run_cli(capsys, "newton-dual", "--n", "6", "--time-nodes", "4",
                           "--dt", "0.02", "--nu", "0.5", "--perturb-w", "0.1",
                           "--out", str(tmp_path))
    assert code == 2
    assert last_json(out)["error"] == "non-convergence"
    assert "non-finite Newton step" in last_json(out)["detail"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_dual_overflowing_residual_norm_is_not_converged(tmp_path, capsys):
    # a seed of 1e100 overflows the residual's 2-norm: inf is no convergence (it
    # met its own stop tol * max(1, inf) before), and the overflow raises no warning
    code, out, _ = run_cli(capsys, "newton-dual", "--n", "8", "--time-nodes", "4",
                           "--perturb-w", "1e100", "--out", str(tmp_path))
    summary = last_json(out)
    assert code == 2
    assert summary["converged"] is False and summary["iterations"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_dual_overflowing_krylov_vectors_are_not_converged(tmp_path, capsys):
    # at nu 1e200 the Krylov vectors of GMRES overflow: the run is not converged,
    # and neither their dot products nor the Givens rotations raise a warning
    code, out, _ = run_cli(capsys, "newton-dual", "--n", "6", "--time-nodes", "4",
                           "--dt", "0.02", "--nu", "1e200", "--out", str(tmp_path))
    summary = last_json(out)
    assert code == 2
    assert summary["converged"] is False and summary["iterations"] == 0


def test_newton_dual_singular_preconditioner_block_exits_2(tmp_path, capsys, monkeypatch):
    # a singular block of the preconditioner is a breakdown of the solve, reported
    # on stdout with the continuation advice, not a usage error
    def singular_block(_):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "inv", singular_block)
    code, out, err = run_cli(capsys, "newton-dual", "--n", "6", "--time-nodes", "4",
                             "--dt", "0.02", "--nu", "0.5", "--out", str(tmp_path))
    assert code == 2 and err == ""
    summary = last_json(out)
    assert summary["error"] == "non-convergence"
    assert "continuation_steps" in summary["detail"]


@pytest.mark.parametrize("osc_n", ["4", "5", "6"])
def test_oscillator_too_few_nodes_exits_1_naming_the_flag(tmp_path, capsys, osc_n):
    """The order estimate also solves at (n - 1) // 2 + 1 nodes, so n >= 7."""
    code, out, err = run_cli(capsys, "oscillator", "--osc-n", osc_n, "--out", str(tmp_path))
    assert code == 1 and out == ""
    detail = json.loads(err)["detail"]
    assert "--osc-n" in detail and "7" in detail
    assert not (tmp_path / "oscillator.csv").exists()


@pytest.mark.parametrize("argv, flag, minimum", [
    (("taylor-green-verify", "--refine", "1"), "--refine", 2),
    (("taylor-green-verify", "--refine", "0"), "--refine", 2),
    (("taylor-green-verify", "--refine", "-3"), "--refine", 2),
    (("variation-check", "--seeds", "0"), "--seeds", 1),
    (("variation-check", "--seeds", "-2"), "--seeds", 1),
])
def test_audit_that_would_check_nothing_exits_1_naming_the_flag(tmp_path, capsys, argv,
                                                                flag, minimum):
    """One refinement level gives no ratio and no seed gives no case: either audit
    would pass with nothing checked."""
    code, out, err = run_cli(capsys, *argv, "--n", "8", "--out", str(tmp_path))
    assert code == 1 and out == ""
    detail = json.loads(err)["detail"]
    assert flag in detail and f"at least {minimum}" in detail
    assert not any(tmp_path.iterdir())


class _LevelBuilt(Exception):
    pass


# finest levels at about 120 B per node: 256^2 x 65 takes about 511 MB (458 MB
# measured), 256^2 x 73 about 574 MB (514 MB measured), 512^2 x 129 about 4.1 GB,
# 512^2 x 33 about 1.0 GB
@pytest.mark.parametrize("argv, admitted", [
    (("--refine", "4"), True),
    (("--refine", "5"), False),
    (("--n", "64", "--time-nodes", "5", "--refine", "4"), False),
    (("--refine", "1000000000"), False),
    (("--time-nodes", "10", "--refine", "4"), True),
])
def test_taylor_green_verify_memory_guard_decides_before_any_level_is_built(
        tmp_path, capsys, monkeypatch, argv, admitted):
    def build_level(*args, **kwargs):
        raise _LevelBuilt
    monkeypatch.setattr(cli, "periodic_square", build_level)
    argv = ("taylor-green-verify", *argv, "--out", str(tmp_path))
    if admitted:
        with pytest.raises(_LevelBuilt):
            main(list(argv))
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    detail = json.loads(err)["detail"]
    assert "--refine" in detail and "600 MB" in detail


# the estimate compares levels that halve h: 7 nodes against 4, 9 against 5,
# and 8 has none; levels that were no halvings read 1.17 at 7 and 1.59 at 9
@pytest.mark.parametrize("osc_n, expected", [("7", 2.34), ("8", None), ("9", 1.96)])
def test_oscillator_order_estimate_compares_halvings_only(tmp_path, capsys, osc_n, expected):
    code, out, _ = run_cli(capsys, "oscillator", "--a", "1", "--b", "20", "--osc-n", osc_n,
                           "--out", str(tmp_path))
    assert code == 0
    order = last_json(out)["order_estimate"]
    assert order == expected if expected is None else abs(order - expected) < 0.01


def test_oscillator_smallest_node_count_runs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "oscillator", "--osc-n", "7", "--out", str(tmp_path))
    assert code == 0
    assert len((tmp_path / "oscillator.csv").read_text().splitlines()) == 8


def _flag_value(default):
    """A value other than ``default`` of its type, and its flag text."""
    if isinstance(default, list):
        value = {int: [7, 9], float: [1.5, 2.5], str: ["wall", "periodic"]}[type(default[0])]
        return value, ",".join(map(str, value))
    if isinstance(default, (int, float)):
        return default * 3 + 1, repr(default * 3 + 1)
    value = "elsewhere" if default is None else "zero"
    return value, value


def _print_config(capsys, *argv):
    code, out, err = run_cli(capsys, "evaluate", *argv, "--print-config")
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("name", [name for _, _, name in cli._keys(cli.DEFAULT_CONFIG)])
def test_every_config_key_is_set_by_its_flag(capsys, name):
    *sections, key = name.split(".")
    default = cli.DEFAULT_CONFIG
    for s in sections:
        default = default[s]
    value, text = _flag_value(default[key])
    assert value != default[key]
    cfg = _print_config(capsys, "--" + key.replace("_", "-"), text)
    for s in sections:
        cfg = cfg[s]
    assert cfg[key] == value


def test_every_common_flag_is_a_config_key():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {name for _, _, name in cli._keys(cli.DEFAULT_CONFIG)}
    for command, p in sub.choices.items():
        own = {flag[2:].replace("-", "_") for flag in cli._COMMANDS[command].flags}
        dests = {a.dest for a in p._actions} - own - {"help", "config", "print_config"}
        assert dests == keys, command


@pytest.mark.parametrize("argv, document, expected", [
    (("--n", "16"), None, {"nodes": [16, 16]}),
    (("--nodes", "16"), None, {"nodes": [16, 16]}),
    (("--extent", "1"), None, {"extent": [1.0, 1.0]}),
    (("--boundary", "wall"), None, {"boundary": ["wall", "wall"]}),
    (("--dim", "3", "--n", "5"), None, {"nodes": [5, 5, 5]}),
    ((), {"grid": {"extent": [1.0]}}, {"extent": [1.0, 1.0]}),
    ((), {"grid": {"nodes": 12}}, {"nodes": [12, 12]}),
    (("--dim", "1"), {"grid": {"boundary": ["wall"]}}, {"boundary": ["wall"]}),
    (("--n", "10"), {"grid": {"nodes": [12, 14]}}, {"nodes": [10, 10]}),
], ids=["n", "nodes", "extent", "boundary", "dim-3", "config-extent", "config-scalar",
        "config-dim-1", "flag-wins"])
def test_one_value_applies_to_every_axis(tmp_path, capsys, argv, document, expected):
    if document is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(document))
        argv = (*argv, "--config", str(tmp_path / "cfg.json"))
    grid = _print_config(capsys, *argv)["grid"]
    assert {key: grid[key] for key in expected} == expected
    if grid["dim"] == 2:
        code, out, err = run_cli(capsys, "evaluate", "--scenario", "zero", "--time-nodes", "3",
                                 *argv, "--out", str(tmp_path / "out"))
        assert code == 0, err
        assert last_json(out) == {"J": 0.0}


@pytest.mark.parametrize("time_nodes, expected", [
    ("1", "t,E,rhs,mismatch\n0.0,0.0,0.0,\n"),
    ("3", "t,E,rhs,mismatch\n0.0,0.0,0.0,\n0.1,0.0,0.0,0.0\n0.2,0.0,0.0,\n"),
])
def test_energy_table_at_the_fewest_time_nodes(tmp_path, capsys, time_nodes, expected):
    """The mismatch is blank at the end nodes, and on a steady grid everywhere."""
    code, _, _ = run_cli(capsys, "energy", "--scenario", "zero", "--n", "4",
                         "--time-nodes", time_nodes, "--dt", "0.1", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "energy_series.csv").read_text() == expected


def test_solve_unsteady_non_convergence_exits_2_without_reports(tmp_path, capsys,
                                                                monkeypatch):
    def stalled(*args):
        raise solver.ConvergenceError("Picard iteration stalled")
    monkeypatch.setattr(solver, "march_reduced", stalled)
    code, out, _ = run_cli(capsys, "solve-unsteady", "--n", "8", "--time-nodes", "3",
                           "--out", str(tmp_path))
    assert code == 2
    assert last_json(out) == {"converged": False, "error": "Picard iteration stalled"}
    assert list(tmp_path.iterdir()) == []


def test_residual_on_a_steady_grid_omits_the_time_terms(tmp_path, capsys):
    """The steady residual of a state is the unsteady one of the same state held
    constant in time, at an interior time slice."""
    code, out, _ = run_cli(capsys, "residual", "--scenario", "random:6", "--n", "6",
                           "--time-nodes", "1", "--out", str(tmp_path))
    assert code == 0
    steady = Grid((2 * np.pi,) * 2, (6, 6), ("periodic",) * 2, 1, 0.0)
    state = build_scenario("random:6", steady, 0.1)
    g = Grid((2 * np.pi,) * 2, (6, 6), ("periodic",) * 2, 3, 0.0125)
    held = lambda f: ScalarField(g, np.repeat(f.values, 3, axis=-1))
    vec = lambda v: VectorField(g, tuple(held(c) for c in v.components))
    res = el_residuals(FieldQuartet(vec(state.u), held(state.p), vec(state.w),
                                    held(state.r)), 0.1)
    fields = {"res_div_u.csv": res.res_div_u, "res_div_w.csv": res.res_div_w,
              **{f"res_u_{i}.csv": res.res_u[i] for i in range(2)},
              **{f"res_w_{i}.csv": res.res_w[i] for i in range(2)}}
    for name, f in fields.items():
        written = reports.read_field_csv(tmp_path / name, steady).values[..., 0]
        assert np.array_equal(written, f.values[..., 1]), name
    assert last_json(out)["max"] == max(np.abs(f.values[..., 1]).max() for f in fields.values())


def test_evaluate_on_a_steady_grid_omits_the_time_terms(tmp_path, capsys):
    """The steady functional of a state is the unsteady one of the same state held
    constant over a time interval of length 1."""
    code, _, _ = run_cli(capsys, "evaluate", "--scenario", "random:6", "--n", "6",
                         "--time-nodes", "1", "--out", str(tmp_path))
    assert code == 0
    steady = Grid((2 * np.pi,) * 2, (6, 6), ("periodic",) * 2, 1, 0.0)
    state = build_scenario("random:6", steady, 0.1)
    g = Grid((2 * np.pi,) * 2, (6, 6), ("periodic",) * 2, 3, 0.5)
    held = lambda f: ScalarField(g, np.repeat(f.values, 3, axis=-1))
    vec = lambda v: VectorField(g, tuple(held(c) for c in v.components))
    rep = evaluate_lagrangian(FieldQuartet(vec(state.u), held(state.p), vec(state.w),
                                           held(state.r)), 0.1)
    written = json.loads((tmp_path / "lagrangian_report.json").read_text())
    assert written["temporal"] == 0.0
    assert abs(written["J"] - rep.J) <= 1e-13 * rep.scale


CUBE = ("--dim", "3", "--nodes", "8", "--extent", "6.283185307179586", "--time-nodes", "4",
        "--dt", "0.05", "--nu", "0.1")


def test_3d_abc_flow_solves_end_to_end(tmp_path, capsys):
    write_quartet_csv(tmp_path / "abc", abc_flow(periodic_box((8, 8, 8), 4, 0.05), 0.1))
    scenario = ("--boundary", "periodic", "--scenario", f"file:{tmp_path / 'abc'}")
    code, out, _ = run_cli(capsys, "newton-dual", *CUBE, *scenario,
                           "--out", str(tmp_path / "newton"))
    assert code == 0 and last_json(out)["ok"] is True
    code, out, _ = run_cli(capsys, "solve-unsteady", *CUBE, *scenario,
                           "--out", str(tmp_path / "march"))
    assert code == 0 and last_json(out)["converged"] is True
    assert (tmp_path / "march" / "u_2.csv").exists()


@pytest.mark.parametrize("command, boundary, scenario, reason", [
    ("solve-unsteady", "periodic", "taylor-green", "oracle is 2D"),
    ("solve-unsteady", "periodic,periodic,wall", "zero", "all-periodic"),
    ("newton-dual", "periodic,periodic,wall", "zero", "all-periodic"),
])
def test_3d_grid_a_solver_cannot_take_exits_1_naming_why(tmp_path, capsys, command,
                                                         boundary, scenario, reason):
    code, out, err = run_cli(capsys, command, *CUBE, "--boundary", boundary,
                             "--scenario", scenario, "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert reason in json.loads(err)["detail"]


# --- cold start: each subcommand loads only the modules it runs ------------------

#: the varns modules that ``import varns.cli`` loads
CLI_MODULES = {"varns", "varns.cli", "varns.grids", "varns.reports", "varns.scenarios"}

#: the scipy modules whose loading the cold-start tests watch
SCIPY_MODULES = ("scipy", "scipy.sparse", "scipy.sparse.linalg")

#: per case, whose first word is the subcommand: its flags, the varns modules it
#: adds to CLI_MODULES and the scipy modules it loads (only a wall-grid
#: solve-steady assembles and factors a sparse matrix)
SUBCOMMAND_MODULES = {
    "oscillator": ((), {"oscillator"}, []),
    "evaluate": ((), {"lagrangian"}, []),
    "residual": ((), {"lagrangian"}, []),
    "variation-check": ((), {"lagrangian"}, []),
    "energy": ((), {"lagrangian"}, []),
    "taylor-green-verify": (("--refine", "2"), {"lagrangian"}, []),
    "steady-cert": ((), {"lagrangian", "steady"}, []),
    "inequality-audit": ((), {"lagrangian", "steady"}, []),
    "extended": ((), {"lagrangian", "boundary"}, []),
    "boundary-audit": ((), {"lagrangian", "boundary"}, []),
    "solve-unsteady": ((), {"lagrangian", "solver"}, []),
    "newton-dual": ((), {"lagrangian", "solver"}, []),
    "solve-steady": ((), {"lagrangian", "solver", "steady"}, []),
    "solve-steady wall": (("--boundary", "wall", "--extent", "1", "--scenario", "random:1"),
                          {"lagrangian", "solver", "steady"}, list(SCIPY_MODULES)),
}


def loaded_modules(tmp_path, subcommand=None, *flags):
    """The exit code, the varns modules and the ``SCIPY_MODULES`` loaded in a fresh
    process that imports ``varns.cli`` and runs ``subcommand`` (None: none)."""
    script = f"""
import contextlib, io, json, sys
from varns import cli
code = None
if {subcommand!r} is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([{subcommand!r}, "--n", "8", "--time-nodes", "5", *{flags!r},
                         "--out", {str(tmp_path)!r}])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "varns"),
                  [m for m in {SCIPY_MODULES!r} if m in sys.modules]]))
"""
    run = subprocess.run([sys.executable, "-c", script], env=fresh_process_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_importing_the_cli_loads_only_its_preamble_modules(tmp_path):
    """``import varns.cli`` loads the modules of the preamble that every subcommand
    shares (grid, scenario, reports) and no other, and no scipy."""
    assert loaded_modules(tmp_path) == [None, sorted(CLI_MODULES), []]


@pytest.mark.parametrize("case", SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, case):
    """A subcommand adds to the modules of ``import varns.cli`` only those it calls;
    scipy, whose import is most of a cold start, loads only where a sparse matrix
    is built. The table is the set, not a bound: a module that stops loading is a
    change to record here too."""
    flags, modules, scipy = SUBCOMMAND_MODULES[case]
    code, loaded, loaded_scipy = loaded_modules(tmp_path, case.split()[0], *flags)
    assert code in (0, 2)
    assert (loaded, loaded_scipy) == \
        (sorted(CLI_MODULES | {f"varns.{m}" for m in modules}), scipy)


def test_solver_spla_resolves_to_the_sparse_linear_algebra_module():
    """``solver.spla``, the name through which tests and the tracer patch ``splu``,
    resolves to scipy.sparse.linalg on first use."""
    script = """
import scipy.sparse.linalg
from varns import solver
assert solver.spla is scipy.sparse.linalg
"""
    run = subprocess.run([sys.executable, "-c", script], env=fresh_process_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_newton_dual_loads_no_sparse_solver(tmp_path):
    """newton-dual applies its stencils and time matrices and solves with numpy
    alone: a whole solve in a fresh process loads no scipy module at all, and
    ``solver.spla`` still resolves to scipy.sparse.linalg afterwards."""
    script = f"""
import contextlib, io, sys
from varns import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["newton-dual", "--n", "8", "--time-nodes", "5", "--out", {str(tmp_path)!r}])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert code == 0 and not loaded, (code, loaded[:3])
import scipy.sparse.linalg
from varns import solver
assert solver.spla is scipy.sparse.linalg
"""
    run = subprocess.run([sys.executable, "-c", script], env=fresh_process_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_importing_the_package_loads_no_module_of_it():
    """The API is the modules, with no flat ``varns.*`` namespace: ``import varns``
    loads none of them."""
    script = "import sys, varns; print(sorted(m for m in sys.modules if m.startswith('varns.')))"
    run = subprocess.run([sys.executable, "-c", script], env=fresh_process_env(),
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def fresh_process_env(**overrides):
    """The environment of a fresh Python process that imports this ``varns``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, **overrides,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


NON_FINITE = [("evaluate", "--nu", "1e308"),
              ("energy", "--nu", "1e308", "--scenario", "random:1"),
              ("solve-unsteady", "--n", "8", "--time-nodes", "4", "--dt", "1e300"),
              ("newton-dual", "--n", "6", "--time-nodes", "4", "--dt", "0.02", "--nu", "1e308"),
              ("newton-dual", "--n", "6", "--time-nodes", "4", "--dt", "0.02",
               "--perturb-w", "1e300"),
              ("steady-cert", "--nu", "1e308"),
              ("taylor-green-verify", "--nu", "1e308"),
              # a finite summary, "ok": true, over a report of NaN cases
              ("variation-check", "--nu", "1e308", "--seeds", "1", "--n", "8",
               "--time-nodes", "5")]


def assert_non_finite_exit_2_with_strict_json(tmp_path, argv, *python_flags):
    env = {k: v for k, v in fresh_process_env(OPENBLAS_NUM_THREADS="1").items()
           if k != "PYTHONWARNINGS"}
    run = subprocess.run([sys.executable, *python_flags, "-m", "varns.cli", *argv,
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    assert run.returncode == 2, run.stderr
    assert len(run.stdout.splitlines()) == 1
    assert json.loads(run.stdout, parse_constant=reject)["error"] == "non-finite"
    for report in tmp_path.glob("*.json"):
        text = report.read_text()
        assert "NaN" not in text and "Infinity" not in text, report.name


@pytest.mark.parametrize("argv", NON_FINITE, ids=lambda argv: " ".join(argv))
def test_non_finite_results_exit_2_with_strict_json(tmp_path, argv):
    """Admitted inputs whose results overflow to NaN or an infinity: JSON has no token
    for either, so the run exits 2 with one strict-JSON line and writes no JSON report
    that holds one. A fresh process with no -W flag and no PYTHONWARNINGS lets the
    overflow warnings pass, as for a user's run."""
    assert_non_finite_exit_2_with_strict_json(tmp_path, argv)


@pytest.mark.parametrize("argv", NON_FINITE, ids=lambda argv: " ".join(argv))
def test_non_finite_results_exit_2_with_strict_json_under_warnings_as_errors(tmp_path, argv):
    """The same inputs under the CI's -W error::RuntimeWarning: the first overflow
    warning, raised as an error, ends the run the same way, not in a traceback."""
    assert_non_finite_exit_2_with_strict_json(tmp_path, argv, "-W", "error::RuntimeWarning")


def test_variation_check_keeps_a_nan_case_in_max_rel_err(monkeypatch):
    """A NaN case is the worst case: max_rel_err is NaN and the check fails. Joined
    by Python's max, the NaN of the first seed was dropped for the second's error."""
    first_variation = lagrangian.first_variation
    calls = []
    def nan_first(*args):
        calls.append(args)
        return float("nan") if len(calls) == 1 else first_variation(*args)
    monkeypatch.setattr(lagrangian, "first_variation", nan_first)
    grid = periodic_square(8, time_nodes=5, dt=0.0125)
    summary, files, ok = cli.cmd_variation_check(None, {"seeds": 2, "nu": 0.1}, grid, None)
    cases = files["variation_check.json"]["cases"]
    assert np.isnan(cases[0]["rel_err"]) and np.isfinite(cases[1]["rel_err"])
    assert np.isnan(summary["max_rel_err"]) and summary["ok"] is False and ok is False
    assert np.isnan(files["variation_check.json"]["max_rel_err"])


#: extents whose node spacing squared or squared enclosing radius overflows or
#: underflows to zero, which ended in an OverflowError or a ZeroDivisionError, and
#: grids so large that their first allocation is refused at once
OUT_OF_RANGE = [
    *[(cmd, "--extent", "1e300", "--scenario", "random:2")
      for cmd in ("residual", "solve-unsteady", "solve-steady", "newton-dual",
                  "inequality-audit")],
    *[(cmd, "--extent", "1e200", "--boundary", "wall", "--scenario", "random:3")
      for cmd in ("residual", "solve-steady", "inequality-audit")],
    *[(cmd, "--extent", extent, *flags) for cmd in ("steady-cert", "inequality-audit")
      for extent, flags in (("1e-300", ("--scenario", "random:2")),
                            ("1e-200", ("--boundary", "wall", "--scenario", "random:3")))],
]
TOO_LARGE = [("evaluate", "--n", "100000", "--time-nodes", "100000", "--scenario", "random:1"),
             ("oscillator", "--osc-n", "1000000000000000")]


def assert_exit_1_with_strict_json(tmp_path, argv, error, *python_flags):
    env = {k: v for k, v in fresh_process_env(OPENBLAS_NUM_THREADS="1").items()
           if k != "PYTHONWARNINGS"}
    run = subprocess.run([sys.executable, *python_flags, "-m", "varns.cli", *argv,
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    assert (run.returncode, run.stdout) == (1, ""), run.stderr
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert json.loads(run.stderr, parse_constant=reject)["error"] == error


@pytest.mark.parametrize("warnings_flags", [(), ("-W", "error::RuntimeWarning")],
                         ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=lambda argv: " ".join(argv))
def test_out_of_range_extent_is_a_config_error(tmp_path, argv, warnings_flags):
    """An extent whose node spacing squared or summed squared extents is not a
    positive finite float is refused by the grid, naming the extent: exit 1 with one
    strict-JSON line, with or without warnings raised as errors."""
    assert_exit_1_with_strict_json(tmp_path, (*argv, "--n", "6", "--time-nodes", "4"),
                                   "config", *warnings_flags)


@pytest.mark.parametrize("warnings_flags", [(), ("-W", "error::RuntimeWarning")],
                         ids=["default", "warnings-as-errors"])
@pytest.mark.parametrize("argv", TOO_LARGE, ids=lambda argv: " ".join(argv[:3]))
def test_refused_allocation_is_a_usage_error(tmp_path, argv, warnings_flags):
    """A request of petabytes is refused at once, by the oscillator's guard or by the
    allocator: exit 1 with one strict-JSON line, not a MemoryError traceback."""
    assert_exit_1_with_strict_json(tmp_path, argv, "usage", *warnings_flags)


def test_out_of_range_extent_is_named(capsys):
    code, out, err = run_cli(capsys, "steady-cert", "--extent", "1e-300", "--n", "6")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "config", "detail": "extent 1e-300 gives a node "
                               "spacing whose square is not a positive finite float"}


# 600,000 nodes at 1000 B each fill the 600 MB budget; the CI solves 65,537
@pytest.mark.parametrize("osc_n, admitted", [("600000", True), ("600001", False)])
def test_oscillator_memory_guard_decides_before_any_level_is_built(
        tmp_path, capsys, monkeypatch, osc_n, admitted):
    def build_level(*args, **kwargs):
        raise _LevelBuilt
    monkeypatch.setattr(oscillator, "OscillatorProblem", build_level)
    argv = ("oscillator", "--osc-n", osc_n, "--out", str(tmp_path))
    if admitted:
        with pytest.raises(_LevelBuilt):
            main(list(argv))
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    detail = json.loads(err)["detail"]
    assert "--osc-n" in detail and "600 MB" in detail


# --- report bytes against the BLAS thread count ---------------------------------

def assert_newton_dual_reports_keep_their_bytes_at_two_blas_threads(tmp_path, *argv):
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        run = subprocess.run([sys.executable, "-m", "varns.cli", "newton-dual", *argv,
                              "--out", str(out)],
                             env=fresh_process_env(OPENBLAS_NUM_THREADS=threads),
                             capture_output=True, text=True, timeout=300)
        if run.returncode != 0:
            pytest.fail(run.stderr)
        reports[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    if len(reports["1"]) != 7 or reports["1"].keys() != reports["2"].keys():
        pytest.fail(f"report files differ: {sorted(reports['1'])} against {sorted(reports['2'])}")
    assert [name for name in sorted(reports["1"])
            if reports["1"][name] != reports["2"][name]] == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_default_newton_dual_reports_keep_their_bytes_at_two_blas_threads(tmp_path):
    """The default 32^2 x 9 grid (52,224 unknowns): the per-axis stencil products,
    the time blocks, the block inverses and GMRES's dot products, summed in pieces
    that OpenBLAS does not split among threads, give the same bits at one and at
    two BLAS threads."""
    assert_newton_dual_reports_keep_their_bytes_at_two_blas_threads(tmp_path)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: OpenBLAS inverts the (4T - 3)-row saddle "
                          "blocks of newton-dual with other bits at two threads from T = 26")
def test_newton_dual_reports_keep_their_bytes_at_two_blas_threads(tmp_path):
    assert_newton_dual_reports_keep_their_bytes_at_two_blas_threads(
        tmp_path, "--n", "6", "--time-nodes", "26")

"""Golden outputs: the sha256 of every report file and of the stdout summary
line, for every subcommand at small fixed configs.

The hashes were recorded with numpy 2.4.6 and scipy 1.17.1 (Python 3.11);
other versions may legitimately change the last bits of a report. Every
hash holds at one and at two BLAS threads: no subcommand calls a dense
LAPACK solve, and the sparse LU (SuperLU) gives the same bits at any thread
count.

To print the hashes of the current code (after an intended change of
output), run ``python tests/test_golden.py`` from the repository root.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from varns.cli import main

GRID_T = ("--time-nodes", "5", "--dt", "0.02")

CASES = {
    "oscillator": ("oscillator", "--osc-n", "65"),
    "evaluate": ("evaluate", "--scenario", "random:3", "--n", "8",
                 "--boundary", "wall,periodic", *GRID_T),
    "residual": ("residual", "--scenario", "random:6", "--n", "8",
                 "--boundary", "wall", *GRID_T),
    "variation-check": ("variation-check", "--n", "8", "--seeds", "2",
                        "--boundary", "periodic,wall", *GRID_T),
    "energy": ("energy", "--scenario", "random:4", "--n", "8", "--boundary", "wall",
               *GRID_T),
    "steady-cert": ("steady-cert", "--scenario", "taylor-green", "--n", "12",
                    "--nu", "0.5"),
    "inequality-audit": ("inequality-audit", "--scenario", "random:5", "--n", "10",
                         "--boundary", "wall,periodic"),
    "extended": ("extended", "--scenario", "random:2", "--n", "8",
                 "--boundary", "wall", "--extent", "1", *GRID_T),
    "boundary-audit": ("boundary-audit", "--scenario", "random:2", "--n", "8",
                       "--boundary", "wall,periodic", "--claimed-stationary",
                       *GRID_T),
    "solve-unsteady": ("solve-unsteady", "--scenario", "taylor-green", "--n", "12",
                       "--nu", "0.2", *GRID_T),
    "solve-steady-periodic": ("solve-steady", "--scenario", "taylor-green",
                              "--n", "12", "--nu", "0.5", "--newton-tol", "1e-8"),
    "solve-steady-wall": ("solve-steady", "--scenario", "random:1", "--n", "6",
                          "--boundary", "wall", "--extent", "1", "--nu", "1",
                          "--newton-tol", "1e-6"),
    "newton-dual": ("newton-dual", "--n", "6", "--time-nodes", "4", "--dt", "0.02",
                    "--nu", "0.5", "--perturb-w", "0.1"),
    "newton-dual-n7": ("newton-dual", "--n", "7", "--time-nodes", "4", "--dt", "0.02",
                       "--nu", "0.5", "--perturb-w", "0.1"),
    "newton-dual-n8": ("newton-dual", "--n", "8", "--time-nodes", "6", "--dt", "0.02",
                       "--nu", "0.5", "--perturb-w", "0.1"),
    "taylor-green-verify": ("taylor-green-verify", "--n", "8", "--time-nodes", "3",
                            "--dt", "0.05", "--refine", "2"),
}

GOLDEN = {
    "boundary-audit": {
        "exit": 0,
        "stdout": "bf10f112c40f955ac132875c8c0dfd4bac340a44dcbce98f11784e2f08905304",
        "files": {
            "boundary_audit.csv": "a705310b3253bb37477cf4459b2f77d53995cda9422761614bb81b1b61073e79",
        },
    },
    "energy": {
        "exit": 0,
        "stdout": "6b9e543e9edbf4296a5778feb71180011c8826cc3c3f9a0efb46b87e6112a2ca",
        "files": {
            "energy_series.csv": "ce3a02381d1e1fac2d07ba82a2a1864f115d1af6ae27c22f4c42d6a643342eb8",
        },
    },
    "evaluate": {
        "exit": 0,
        "stdout": "18368aa92e4ce8056ddf692f23d48ce4813e6d7ab5c7a8b8b8b1c1f35d39839b",
        "files": {
            "lagrangian_report.json": "c4a279eb501d76b3c84fa0a0bac87051db857063ed75449463796eb8955f2f4b",
        },
    },
    "extended": {
        "exit": 0,
        "stdout": "ed245a253592d86c0ea491cbceaee096dcdee6bf95dd4648356a6e2abf25fac0",
        "files": {
            "extended_report.json": "ad87b4f7c816f74db1f67a4bfea41df621573b3e1d21d00ac5bdf003e13bee18",
        },
    },
    "inequality-audit": {
        "exit": 0,
        "stdout": "a365ded53e8547a73fe4d78c35314724c7705cce077f9eff8f200dc8363d625c",
        "files": {
            "inequality_audit.csv": "47a44fefaedc6388ec4556f6b31e79480c423222c7b23ecd64fd9d1f92cc3708",
        },
    },
    "newton-dual": {
        "exit": 0,
        "stdout": "af38fe76fead80452f356de859356e309b06a5135173cb3b0664ad0016eb7198",
        "files": {
            "convergence.csv": "0e21dc728b4f33a8c85ef328d6db3a99350bb722e71a06d96dc25121e0f49c7b",
            "p.csv": "6fe2c1a4441b998e10e007d6d801a59177777eb999ea750dbedcbea7372b29e0",
            "r.csv": "01efefa8e6a0983514c6f49f7e206658d8d468276d38429b3ae796edeefda433",
            "u_0.csv": "1e7b670c2f8f7b51de4d331e008576db3d73a5f54c5664fe95af248a8073c841",
            "u_1.csv": "88c97cc4f0e0b6cde6915ebc352565f07bd306749751023a69a148ecf4ce422d",
            "w_0.csv": "644d5ab13f7b4b22092d57e6a3bb2023bc7106ac8c8a98358492cb5a4d16bbf4",
            "w_1.csv": "87fe0d10adac9d823d22916a036bc11f795599786df2e1b28c04c3cca9328a2d",
        },
    },
    "newton-dual-n7": {
        "exit": 0,
        "stdout": "17ffdbabfd8b48ada46567876f01bc50035e01ec78313bd887c1d7f6318eed65",
        "files": {
            "convergence.csv": "a0321aa1645b707631131d8c25b26d1f70430ae8f182f173665a19c8fc7f3e0b",
            "p.csv": "5d5de1e404e08860e5e0081fd0896a1de49fe459eb01b5e64f47cdfe1cc92422",
            "r.csv": "c28c4bbe5add524db2e0c66d6c445d3a2607e18d23e106d1f29bfb4ccea88860",
            "u_0.csv": "358d613e3fb8a2c48089e696f659e685fb65873203710c046be182c76aa50721",
            "u_1.csv": "87aa2b0008736353474e3e86edd8799f66abcb5b4026fcad1a015720f7b2b407",
            "w_0.csv": "6db8bbe7fc47a7cc1550aaab9a751c8f7128f12bd22af714ce2a1da1ff1da091",
            "w_1.csv": "9adb9a6c1334c1bb9937b217b79e4e2e6613df2690628c662db2db9faffccfd8",
        },
    },
    "newton-dual-n8": {
        "exit": 0,
        "stdout": "6b5d2c5bdf544eccea0ed3341fa0bd73fb6ab6d4999e019a057dbf67fcb4f7e5",
        "files": {
            "convergence.csv": "266a027388a1a8fedae95bfb9b608972d2ecaa7e222febf183eec9d3e1478b81",
            "p.csv": "5cfb90affab313dbf217f6b337bb46c0f9356c6b08ff23b3a364b2f3ef48b559",
            "r.csv": "3e3869c2b0388017e50aae2130a1175c04c73706455181757c266bf0d1b22b53",
            "u_0.csv": "53fd5b649d728266ff39c87f34604fb5f2ae373ae02dd91f55bdedd6159bc341",
            "u_1.csv": "919793f3f28a8aec24030af1bea54494740358df79200a828860c3a4d8538605",
            "w_0.csv": "341ca6bab32c9bda733e8cef8cb65dbc6a456bc5baf8d4f198283647800e3be6",
            "w_1.csv": "ec57c34d387680e92711447e62db5c93142e71bbc13f761e6baabc690220dad8",
        },
    },
    "oscillator": {
        "exit": 0,
        "stdout": "8edb2e0c562e37ac8bc90cc02cde938d12856663ed3ed53a0491c22046f4a287",
        "files": {
            "oscillator.csv": "bada8a40cd7c75497f9230136f931ed31c7ea2f5534381dd558fcca4930e56dc",
            "oscillator_verdict.json": "c44b262d9bd32236d387ca852f5900188b49eb575fb4aac5088a837f5cce3337",
        },
    },
    "residual": {
        "exit": 0,
        "stdout": "83b15ebc0720397124e08b9d1c4ef32bb1c4f635df52c3cd8cb5206dde695ee8",
        "files": {
            "res_div_u.csv": "815d6216825f0f7be811e4b29a74613817412a149e688f0c0359289632676e6e",
            "res_div_w.csv": "24d6db1c05be96adf82078f69f22a65e073d012bff8af13efa150189ce36809c",
            "res_u_0.csv": "5974a4d8d12a42caafe5a9221c4d91a958e0a6408f9248896fd6a1c4acb99d81",
            "res_u_1.csv": "62eaf1be4e2a7c9ccdf62295c994a67fa79868fb1079e35ef6d33eccf7580c49",
            "res_w_0.csv": "6cfaf67d363abd20842feffc4bb82356aacdf61e9ed64ad80c35d29feb87d663",
            "res_w_1.csv": "c238677597a4f68a856af53b138df95c3d1a9d92dfa04769e0cd098940e9ba02",
        },
    },
    "solve-steady-periodic": {
        "exit": 0,
        "stdout": "a7c9327a35bd73fc551c6e07741479aa6088356770a0cad36ad079c59e9e7c6c",
        "files": {
            "certificate.json": "422b257678713a7c5b429ff73648d1ef9e1ed6b011b82ad1cb3b5e0dcbdbf5cd",
            "p.csv": "103c70749072e43178f6d21a7b29c001786cf30d6a6c7b029eb49f9bbad7a115",
            "r.csv": "103c70749072e43178f6d21a7b29c001786cf30d6a6c7b029eb49f9bbad7a115",
            "u_0.csv": "740286f926cac1bbd5c8fadd953a82add88f821ea8afac718be35c8ae410eb0a",
            "u_1.csv": "80dccd931092c8c9854787138d0b0a884e69f447b415b3a0d54d1e72e77b09f8",
            "w_0.csv": "740286f926cac1bbd5c8fadd953a82add88f821ea8afac718be35c8ae410eb0a",
            "w_1.csv": "80dccd931092c8c9854787138d0b0a884e69f447b415b3a0d54d1e72e77b09f8",
        },
    },
    "solve-steady-wall": {
        "exit": 0,
        "stdout": "69c6e883ab7adf5fe313d9c06fbbd50119c4662abc0a67254c4d1b6deaa54d3d",
        "files": {
            "certificate.json": "97cc8f3763d0f4a2b6d392a90c01ace71b20f2e552b8e1ff22a1eec07be8b6c1",
            "p.csv": "8136f7c8e181b1ba29a3bd930f63f86ce8a3880d0f266ec63113d68bfc827b72",
            "r.csv": "8136f7c8e181b1ba29a3bd930f63f86ce8a3880d0f266ec63113d68bfc827b72",
            "u_0.csv": "a9c100cb0c6e1fc54986d298a3ae3d0a5bfc3731c3721d384756e3e180a46d17",
            "u_1.csv": "f403c5fc8ec4b3faab2bd55a0ef77cd4f8c97fb0b0d15dcbf619fcaed3bb91a4",
            "w_0.csv": "a9c100cb0c6e1fc54986d298a3ae3d0a5bfc3731c3721d384756e3e180a46d17",
            "w_1.csv": "f403c5fc8ec4b3faab2bd55a0ef77cd4f8c97fb0b0d15dcbf619fcaed3bb91a4",
        },
    },
    "solve-unsteady": {
        "exit": 0,
        "stdout": "1fd26f93833b1e00cc553b31920141a714019057e2dacb1b141fa99c896934ce",
        "files": {
            "convergence.csv": "94f8396678af2ee54a86028950d4d246fb76a08ccd3244cb2e576ab6c85e3216",
            "p.csv": "3a23db25f33583688a38db589d87dda2945a34d0dba6dd1b237f596181f120bd",
            "r.csv": "3a23db25f33583688a38db589d87dda2945a34d0dba6dd1b237f596181f120bd",
            "u_0.csv": "2eed46f021be1a0ee7a98b97b6d66d6537c1df73faae7188d8ead82ef73476f0",
            "u_1.csv": "dc7228c5a4f778579762b270056ad5772be005d05eb86ad5a04d62bc63a8f1a8",
            "w_0.csv": "2eed46f021be1a0ee7a98b97b6d66d6537c1df73faae7188d8ead82ef73476f0",
            "w_1.csv": "dc7228c5a4f778579762b270056ad5772be005d05eb86ad5a04d62bc63a8f1a8",
        },
    },
    "steady-cert": {
        "exit": 2,
        "stdout": "5bd653b57209529ef9fe061d7bd4f22467642c0998202b03c37c81db913dc5d9",
        "files": {
            "certificate.json": "5573b0807064ae6d1d1ed916bcca966e4153691ac7a2ade20fc73118deeb88b2",
        },
    },
    "taylor-green-verify": {
        "exit": 0,
        "stdout": "16acd8dc9584b0e71d535e01338a29dfe94cac77d9d23296e72688bf2b2df2a2",
        "files": {
            "taylor_green_orders.csv": "1df189f880e2ce0e97d6ea9c05f96a61b648f8edbdd43211f2c2eaca49c33b52",
        },
    },
    "variation-check": {
        "exit": 0,
        "stdout": "e52f547f02f8d61fabad78df1e4917c5ce5bc47d52e0604826b884f1df4ecd03",
        "files": {
            "variation_check.json": "b30659673ea25eac8374fc6f49fe15678e649520d6ca2153d833394957bec6d2",
        },
    },
}

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, out: Path, capsys=None):
    """Run one subcommand; return (exit code, stdout line, {file: sha256})."""
    code = main([*argv, "--out", str(out)])
    line = capsys.readouterr().out.strip() if capsys is not None else ""
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    return code, line, files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports(name, tmp_path, capsys):
    code, line, files = run_case(CASES[name], tmp_path, capsys)
    expected = GOLDEN[name]
    assert code == expected["exit"]
    assert _sha(line.encode()) == expected["stdout"], line
    assert files == expected["files"]


def _record() -> dict:
    import contextlib
    import io
    import tempfile

    table = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, _, files = run_case(CASES[name], Path(tmp))
            line = buf.getvalue().strip()
        table[name] = {"exit": code, "stdout": _sha(line.encode()), "files": files}
    return table


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=4, sort_keys=True)
    print()

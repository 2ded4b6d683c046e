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
        "stdout": "c8d938794a7d5b2369d8e1f2ee58a5fdd1d3cd517df3f7bdfc8eed8609b21eb5",
        "files": {
            "convergence.csv": "f90f5f70655916e15d67377fb2730641ae07eadc4fe4503150646533a8faa498",
            "p.csv": "97e8d7ff3929eed233f43a32f528f06eeead69e2a2956af24783d6fe2aea997a",
            "r.csv": "11e29bff76e3b62f8f6a11ed5ed62f8673463a798bfa109c447fc654594cbf9d",
            "u_0.csv": "430a70c13c6ec9377798ba6a23aec980683dfeef1f8d79ce5ea4192cf68250b3",
            "u_1.csv": "776fce49c15dd75b4ac3b7e2680c9a0fcedd2938f977355cec2a08e4be9e2c1a",
            "w_0.csv": "3d22a33b7c74559cab2b9b0ea543252d97a1116587cddb8c9d0c62c4967b8531",
            "w_1.csv": "b647ad3850261348f0dbb0dea83e0e4783027eded226f74322dd9ecdc86cc279",
        },
    },
    "newton-dual-n7": {
        "exit": 0,
        "stdout": "8e3ea0d407aafa75468cc3e0296714ab1b2f250f4b27d1b993063f8077e30a4c",
        "files": {
            "convergence.csv": "3689e4253f6441c85a3216a227dec93bf545eb4c93a4d6b265a217c0f3b70bbb",
            "p.csv": "11fde7d48b07a9c75923952b98f916eec581ecbfc15910ddff61a05b770be798",
            "r.csv": "f913f6dcca69e4fd3a394f7a63ed67fb43381b906409d31ef0202b5084afb8f5",
            "u_0.csv": "dafc2a1def90ef36f50e9a99247c4b3e8f9a337778dd63727480ff5eb95634de",
            "u_1.csv": "84b86fadccf7f23b5d89d54f0341f6a5f12e7ae6f9057579582ea721acd38233",
            "w_0.csv": "289ecb2aab334354e6e31d5d7729082618a59a8aa8cebd11478e14704bbedbc2",
            "w_1.csv": "ecf04d04e17cca2f5b5fce8457fc81ab62b6be779b9a70ce81ffa2139cbd3084",
        },
    },
    "newton-dual-n8": {
        "exit": 0,
        "stdout": "ce7ad19f9abe307baf324a6eaf8748a14937ce50803c62c7fa795d1c062331fa",
        "files": {
            "convergence.csv": "1e22c6dda288cec5c16e586420ef633734bd4a5425074c77f411be427bc26b17",
            "p.csv": "4194b0c28e46a9191705d73bea2c3e19bc494c6d5c5b53f3a9f7a55cfc81956d",
            "r.csv": "59c1ba2bc5fad4fb5afdd6a3b810e4888a6ef70428b50f04e4bd6a923b16e37a",
            "u_0.csv": "ce6be3defa71aed7b8ceeeaa8f5e1c87c71eef5d4372df3380aa160222b70eef",
            "u_1.csv": "e6fb78ec267726fcf0f0432043b8c62afac6f8c140a1ff28de1ec3c3d109c285",
            "w_0.csv": "43dbe9993c4c5c8ad7d0ab9707508abd1a0dcc176cdc55415f59e38b0eed9229",
            "w_1.csv": "24c202b84e303df2f09d1b59477a1b61100083a43352f3de08508213bce775fb",
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


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, which JSON does not have."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


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
    strict_json(line)
    for report in tmp_path.glob("*.json"):
        strict_json(report.read_text())


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

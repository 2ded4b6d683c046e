"""Golden outputs: the sha256 of every report file and of the stdout summary
line, for every subcommand at small fixed configs.

The hashes were recorded with numpy 2.4.6, scipy 1.17.1 and orjson 3.8.3
(Python 3.11); other versions may legitimately change the last bits of a
report. orjson writes the digits of every report float, and
``tests/test_reports.py`` fails if another orjson version writes any float
other than its ``repr``. Every
hash holds at one and at two BLAS threads, and CI checks both: the sparse
LU (SuperLU) and the oscillator's tridiagonal eliminations give the same bits
at any thread count, and so, as recorded, do the dense block inverses and
products of the ``newton-dual`` preconditioner at these sizes; from 26 time
nodes on they do not (``tests/test_cli.py``, ROADMAP item 13).

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
        "stdout": "b343a4d0a2f22df7475700af5c8bd6820002a6e583fc8c39fd3ab2675b0e2c94",
        "files": {
            "convergence.csv": "d07684f7ca23b0715aff4bca9e1be31a23eae6b46c419bbc009083f070b0a191",
            "p.csv": "983e2ae778a4d9e25f314eab90274627117c9361abe099573a9db1c49449cc95",
            "r.csv": "d65d5d77fa69003023fd21374c5e01c203c315cf58ceec6a0904e82732f395ff",
            "u_0.csv": "36efa7c94c970bafecdf2d1600317b5b948de9d729cd8e14f7b94e87d7f23ac3",
            "u_1.csv": "42821a04704687d91f460b6371beb94e377bd05375716ffbe0805584c6062ce4",
            "w_0.csv": "8aad29a695143bd5ca2b58766d0a6c24a4b6415fa34906888b6b82950c98c6ed",
            "w_1.csv": "7ae27693a07f43f120461e24f633f6a94b8ba08a9ec216e3aae837c4062604ca",
        },
    },
    "newton-dual-n7": {
        "exit": 0,
        "stdout": "f331b13db5748eb624a134df760fa32236009bb0b155c624ce5631a6f7f490c0",
        "files": {
            "convergence.csv": "d1d59bbcc1b5b32ef1cd3c570f6fa734b9ea17451cfe290bc13946fb159debfb",
            "p.csv": "7188ecfae23006a506f70ded0c4884faef17ae6cf896d2be3a7f0d0724027c46",
            "r.csv": "8dc878f8dd559774669b2a33b80d38b2201f1fdc1e5364ebae3a886f0d256304",
            "u_0.csv": "d87fe731c6c6e79f38cc0c0e1ea7a96c0a7be6a03692929766b8ee1eeb167f59",
            "u_1.csv": "dc0257c1328e79c96f4c46e7ec88637ce191308be588667cf6a844652c3534e6",
            "w_0.csv": "d9c7a7cc2bf070a618c88e5047924dafcdc0987cbd45db4eb631b28af1b6940f",
            "w_1.csv": "76c3b14e94002cb0b728eb415e4d97b4b4c3280891b164f184647da02c9d58a6",
        },
    },
    "newton-dual-n8": {
        "exit": 0,
        "stdout": "f53f8840f6f38bf4f8728f3339e8486165b9b7239b2005c2b4cdf787d6770214",
        "files": {
            "convergence.csv": "215fefb3ec303ae8d690c3fef3345db292518a21c5029b8a40d34e46914fc846",
            "p.csv": "809b4aafa30d96e22e3a2677f3970f5ac4d0716be13284a359fb8c7d72ec5bb3",
            "r.csv": "bab2bb0fcd0641f1c624cd5369f95d9606871f0dc3469a6c6bc7dff3c8c5bdc9",
            "u_0.csv": "fb2f78f4e3360c0ad3d57cfef75dd4f4d7f62247e99940c8797dc92fb2391515",
            "u_1.csv": "9a9cd0416fb1937899921d3faa0776a4d59771e0efd59b538484c6016fb5414b",
            "w_0.csv": "a92cbb73abaa0234771d546b47b2c988e9452de1323ddf454b02488334d7da06",
            "w_1.csv": "df07894a8d5f6ce3ff2dec051b49e4bac8a38c3260a2356c8e2db542fa77de11",
        },
    },
    "oscillator": {
        "exit": 0,
        "stdout": "ab4dd69a592aa2ddc5fbc0f0b34f5506d937b4182daf7ac80433c826a911a21a",
        "files": {
            "oscillator.csv": "498bfa6c95eba2bbb9bb887e85529aa47175bf2d88c50b81e8deb8967a3835b7",
            "oscillator_verdict.json": "ae6943ec8506bac9097c7e6dd58ecde3e74d1490811dbb1c1f7c92541525dd3b",
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
        "stdout": "da1acce298f6c41aee60d986dacae4a0d1ebf7e0992b532b24cc854b8cbc7877",
        "files": {
            "certificate.json": "913cafeed7801974fc470590947d136d161a5e27cebd22f53adc1fe598f3981d",
            "p.csv": "fb136e12d94786fe17472e53cc9290191f6e6650d33cd9f0817223842a34fb64",
            "r.csv": "fb136e12d94786fe17472e53cc9290191f6e6650d33cd9f0817223842a34fb64",
            "u_0.csv": "92c67412ab75b8a3080f88965f0b83157600d6f61305ed5ee0b188086a0c2dc0",
            "u_1.csv": "7b86ac9ec8379f5181f7c0049f7e999ccdb411da6ef36dc8657e2e3d2c431479",
            "w_0.csv": "92c67412ab75b8a3080f88965f0b83157600d6f61305ed5ee0b188086a0c2dc0",
            "w_1.csv": "7b86ac9ec8379f5181f7c0049f7e999ccdb411da6ef36dc8657e2e3d2c431479",
        },
    },
    "solve-steady-wall": {
        "exit": 0,
        "stdout": "c48c15ffc2a15f1c00f4fbc938c5cb7ddb5b55aaaec7586155f359cbb021e376",
        "files": {
            "certificate.json": "c237938c29ac1b92bb724b315ee3bdfd70ae57a4633b4559819c73db2f4026f0",
            "p.csv": "d403d118596dde891e070dcaa7e4137bc8b521dce69c4efe4f2ac88501a211cb",
            "r.csv": "d403d118596dde891e070dcaa7e4137bc8b521dce69c4efe4f2ac88501a211cb",
            "u_0.csv": "0856578710377c4aff74ebe7456701b424083e44696eb4d405a3c5df6cd74755",
            "u_1.csv": "91cb5101156e534a51b219ad43b58fa3c361be616beee4250bced20a4ef3df65",
            "w_0.csv": "0856578710377c4aff74ebe7456701b424083e44696eb4d405a3c5df6cd74755",
            "w_1.csv": "91cb5101156e534a51b219ad43b58fa3c361be616beee4250bced20a4ef3df65",
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

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
        "stdout": "2254d2ed7d8f40a4ac28dae32b0905b79fd06d8c947f4b4aed9230c0453f23c5",
        "files": {
            "convergence.csv": "a131e54f235aec5ed4d907df67eae9548c108b3ae86a622a8483095bac2fe9d9",
            "p.csv": "b18dd1636573e8edfc92117d2fafacf299ae777201baf9e7b1568fffb569b63c",
            "r.csv": "6aba1e30cf4021d1a64147e01beada92258134005ed7ac4956090fc3e9a22527",
            "u_0.csv": "00b57ba50fcb1f3fd3cbf9af7b8642b6867ab10a6f100b759683543d73577f54",
            "u_1.csv": "b94911b40a9c3a890407caa48291b4d3a4a8bea152d973f807b4919de4d21ad1",
            "w_0.csv": "1c115cf0e3f45d504062d372888836f5c827e11ab3c68d6e65b89dd75d2c32e8",
            "w_1.csv": "b3ac7d563428db16244a800c2625c7e41542d2859d04fe4e0bab60122da68f8e",
        },
    },
    "newton-dual-n7": {
        "exit": 0,
        "stdout": "24593c79ea5f134b59a3ad5d35ae20b1142c2743043d12a7d853d430aa4d7af0",
        "files": {
            "convergence.csv": "110d4a1e4aafb22fe708979ef346911426e05e0ad65c8510a8da4dd965c2b0cf",
            "p.csv": "b39db04b1decbd731fbe394b59a70583dd9817b06440456e0c66259d061c40a3",
            "r.csv": "0d54cb0f28d7e32985c88446d2425b74fdda2be1181d9a671cb19122d015c202",
            "u_0.csv": "c493f90217cafbfb8610fd22ef0e254db4ccc90a4cbd67be5310d480fcc60c32",
            "u_1.csv": "392ba1644ed94ab0357440a0d71cd5fbd5ee39454c01a56b44ff35525b735105",
            "w_0.csv": "913b0645a1eb29bf5895a2f4edec6b29aacba90bfd01ca2eed8eb32626b19785",
            "w_1.csv": "11cd8497ebc0abeb2f2b6a313e6ed0c5da8a087091fc82b72ca10fcefd2927a4",
        },
    },
    "newton-dual-n8": {
        "exit": 0,
        "stdout": "789a5a469e13f2a389535cd3e65cc0c1113a55839a43ea6411d30b6db22e36a3",
        "files": {
            "convergence.csv": "41adb29d3afd7b1c54818cd6bcc57d93a1b3d94418fb54d6e6275988b2a92db4",
            "p.csv": "a08398117379eb3ff148421ef68aea678945c03b1605fc2de67296f791458614",
            "r.csv": "39bbe95a846d38dd96d9b86d43aacb3eadba1fd6bb1f23ea47e8dc4c43d76409",
            "u_0.csv": "3c688a6d60cc04a35b8ae62da97703c88d17277deae3d6ae10df06506e9d1b26",
            "u_1.csv": "82622a2cf8db7e08781316ed805610905971bc944beaa427ac2e458a09a950d2",
            "w_0.csv": "58d4ff7f9efa28980e57c48a901f30aa7110ad1cae86efaf379c5ebe3a30cc6d",
            "w_1.csv": "772ab73363c9348c522c0a330ddb01306cca4dd3d7f40a1900c8262aae81952a",
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
        "stdout": "8f7ebb623ffb14cba244da78d16091c8e41a0dfdd36904e0af88fd9c3607e661",
        "files": {
            "certificate.json": "cc6e6e96a252e052c75cac5b2d9c8a9df60b160fb6757b13338369ea710ed4c8",
            "p.csv": "c24a85a1f05f4433796c09a51772d78a76faede516a9e3b13eac7a47783f9d03",
            "r.csv": "c24a85a1f05f4433796c09a51772d78a76faede516a9e3b13eac7a47783f9d03",
            "u_0.csv": "db63e3039ef12455f2a58475b6ace432f7e80a1e3b135557fb7ffe72a9315064",
            "u_1.csv": "cdebbee1f6cee3197358bd9cd5c6bb6224aacd36b0359eb1e5378a550e528547",
            "w_0.csv": "db63e3039ef12455f2a58475b6ace432f7e80a1e3b135557fb7ffe72a9315064",
            "w_1.csv": "cdebbee1f6cee3197358bd9cd5c6bb6224aacd36b0359eb1e5378a550e528547",
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

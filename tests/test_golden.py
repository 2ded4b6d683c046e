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
        "stdout": "4bf65cd1da72a1681be4f383159fbea5efb29f3ca8389e5c7eac1338cc2e8b28",
        "files": {
            "convergence.csv": "a9d55e7a2ed8dd1eadca2de2f76d422d9df16f2ebbe80352d33ca868fbbe49b6",
            "p.csv": "c3624da5c243f589d3e0d22682aae87efead10fd008c866d3c4d3d30a752b631",
            "r.csv": "15e6f8c492bd3bb436da90566b67d089e67627268ee04d7e43fbd23134ffe119",
            "u_0.csv": "a0b8690b83289bd5efb488d7368b5a733727fa9327251e6f5d1c357c22c9289f",
            "u_1.csv": "429f0370dded3f6263baeaf0f04ccd609f631da7fa6bae02b21a5f2f247f8d30",
            "w_0.csv": "9dc2646956e1cf474c3b35cc1292db5b78c4269f70f80ded5de5510065891816",
            "w_1.csv": "28c071d412a8eab0d2636c2d1a2a923e35efb429bd61daedeb538bf7f62cd7ed",
        },
    },
    "newton-dual-n7": {
        "exit": 0,
        "stdout": "aae49d02e6a5dee8e1dcba6d8f6f3a2115374b8486692ed66a7de326b8d2530d",
        "files": {
            "convergence.csv": "dd9f9e7a57802c79bd893abc8c08c7baa9341be9295e7406a4b85bf916ae01ba",
            "p.csv": "309bb833813e8b7be8ecb280dccae02a19208a8dc221849a86ad1ead3ef49f12",
            "r.csv": "6b741936f39f5e8677b836cbc100680bb93924ae1ccf963cd7af0642ab12d657",
            "u_0.csv": "8661a02a7efd103f0c99497b0c5840bea9e6b2043e930573484eb8981cd988e8",
            "u_1.csv": "2dc1378250fa6a37f22d6d7839f5370868717f2d6794b71bf8f2651844903a7f",
            "w_0.csv": "679abbda226c7ad54879b70c0e512e192be70634f24c754d29f181d818ec4776",
            "w_1.csv": "62145445de732e0408c31e830b4fe63182d3f1cf6b4d149ed7c2a1b3b88fdbad",
        },
    },
    "newton-dual-n8": {
        "exit": 0,
        "stdout": "524f86b2d64f1d3bbbd5ded739834e6ec4da7d6d08cac9d9a829392d20270b64",
        "files": {
            "convergence.csv": "93004c972635cda9452d43ee70946bf16e9afd3f5c978830dfba3a204bff36b1",
            "p.csv": "9b471acf216cd4d68fe8bce28106cf5371c78911bb4ab5ce0ff6b1bacc2c7d75",
            "r.csv": "a09101054fe06565215316394c2578e6789b4cbb8c6bd989e35bab88378aa47e",
            "u_0.csv": "deeb836531bf41881654cdc0e6daeec2367304b921a702c92028a92557a13b34",
            "u_1.csv": "446f50307e0f10abd6adf3f347dd327bac2359aa189ca689f8c9a2fb6f335901",
            "w_0.csv": "768c98bde6ff075f246001d165584e7e1992ef24961e82a30265359531528387",
            "w_1.csv": "b8dd736994ce9b506276541dfb2cd73d7d7a7cc17d7724ec298db5da19cf82b2",
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
        "stdout": "d47c4fe9cb5615173ad8dcd906b655195b897f4529b54e23b015cfca79975ecc",
        "files": {
            "certificate.json": "bfe78eeaaad14f74f5abec99e69e4344ca668b2c27ba46131060d56f3e2b5082",
            "p.csv": "0b336d3e271ce09b5549bda3101473281b1ad8b1c4758142bc74aeb52b8f8b4e",
            "r.csv": "0b336d3e271ce09b5549bda3101473281b1ad8b1c4758142bc74aeb52b8f8b4e",
            "u_0.csv": "7d139cb0847ab4b45a7a131686345574cb4c736a66d2ac5401d3c4fb86f84fa3",
            "u_1.csv": "45f9ebc4714a40bf70a089547e919cb71e3760ac5b46fbac2a7be8a250c36531",
            "w_0.csv": "7d139cb0847ab4b45a7a131686345574cb4c736a66d2ac5401d3c4fb86f84fa3",
            "w_1.csv": "45f9ebc4714a40bf70a089547e919cb71e3760ac5b46fbac2a7be8a250c36531",
        },
    },
    "solve-steady-wall": {
        "exit": 0,
        "stdout": "1628e486fcf51bd7acd538c3d4d928d5b08be1a66e7b333e46f65302a2fc45e0",
        "files": {
            "certificate.json": "6cd9cb8814d66da5c3931e808fe5ce6051b044337156e3e63f790a1e5e63ed10",
            "p.csv": "3d07040954c75c0b1894b39fd8c39cbe07bbece125aafac8ad85a336b5de1e78",
            "r.csv": "3d07040954c75c0b1894b39fd8c39cbe07bbece125aafac8ad85a336b5de1e78",
            "u_0.csv": "009290342fb797f10e15ee96338939f4dc97d73f94000eb32fc9354e5af308a2",
            "u_1.csv": "1cd81d76d52949e78f40a1c3ea0b4e17f9f025da4acee03780c4979deb299a6f",
            "w_0.csv": "009290342fb797f10e15ee96338939f4dc97d73f94000eb32fc9354e5af308a2",
            "w_1.csv": "1cd81d76d52949e78f40a1c3ea0b4e17f9f025da4acee03780c4979deb299a6f",
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

"""Golden outputs: the sha256 of every report file and of the stdout summary
line, for every subcommand at small fixed configs.

The hashes were recorded with numpy 2.4.6, scipy 1.17.1 and orjson 3.8.3
(Python 3.11); other versions may legitimately change the last bits of a
report. orjson writes the digits of every report float, and
``tests/test_reports.py`` fails if another orjson version writes any float
other than its ``repr``. Every
hash holds at one and at two BLAS threads, and CI checks both: the sparse
LU (SuperLU) gives the same bits at any thread count, and so, as recorded,
do the dense block inverses and products of the ``newton-dual`` preconditioner.

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
        "stdout": "e03a1208062f6feb0f7441ff13975b2eba06b19e65ae75edf9f9aa378737446b",
        "files": {
            "convergence.csv": "ded388d69476fec625f637b4bcf0ec89980f9c8e9f09af788190a32199d813b0",
            "p.csv": "b74819d860f879585c35704969eb74e4604aa9f4584f025d12b22a7cf5a21d65",
            "r.csv": "f4a8ab2853ade6dd679b0ea8ab51d45f5b645fdf2e94f61f6d8420e0ed735dae",
            "u_0.csv": "084e55a9aa8188c830131c5401f96adcf68c8a193234cd80476de08fedd6b645",
            "u_1.csv": "5ff5a0d2b81d8ab9b6aa328a779ded49ddc2f0dbf9a64ae01da60a774cffa515",
            "w_0.csv": "8b64ec54f009548a40f949d99409f3ff37605626998d9b1ea1f1d177794af46a",
            "w_1.csv": "8016c8745eac3f2283de4102429b4ba055f6d7d810f4f1c2b17cdcab65ab832e",
        },
    },
    "newton-dual-n7": {
        "exit": 0,
        "stdout": "61b5ee831b3be0c0d2326fbaef7bbfc374d67b037e06760f9ba92d87292bd53e",
        "files": {
            "convergence.csv": "81b4d5c73bb18129648ff712ad2e46eb3942a9bfc6bea697746f7f2a32dd29a6",
            "p.csv": "22d0050887d1c70ea331e4b2188209c3545dd1511e3825589867b953e7832710",
            "r.csv": "9636e730ce5cdd3f8d8037cbf0849b2ca0d04ccb8ad828ab2ba430122dc37349",
            "u_0.csv": "75383e8c81ba9dc359a17774cbafd072335c2327bf42bb4eeaa27f01ec7d6530",
            "u_1.csv": "78b7a351adff4e46f9b821d3f8c3a10248d8e6cc598de726e3ef068d09d4be1b",
            "w_0.csv": "46d3f83ce26cfa2726ec5069514e339a58569032bb55095aea758c0b53b94a5e",
            "w_1.csv": "ffa5506ad94ab02e8728f7c76910ada5959bfd7e7809732317c875c7983c21ab",
        },
    },
    "newton-dual-n8": {
        "exit": 0,
        "stdout": "315f62402c2d1b21f9fb0e4dbb752fedb958596996388c04b4003175e79e59f9",
        "files": {
            "convergence.csv": "1cb431c614f5e7b4cafac226cabb1e140bcf502c39b6dafcbaae7d893ab1d959",
            "p.csv": "9a216bb4737ce3add83e4947b657cd46fbe4372481a22ecc41f8b038208ef17d",
            "r.csv": "1127353b9d65f31a1ccc12d3fb30e1480ad90b9d477160f3a869838adf640e7b",
            "u_0.csv": "2468e95c425aa415b3f2dadfd8211d5c0df0e29b50306fecbb7cecf6163d0d18",
            "u_1.csv": "1d94fda23d8b890b331d84e9f68d9e1128e0310844c7ff0c54aac9a16fb38e02",
            "w_0.csv": "cb1a597f5f6f844c2d92eaf73b0c62cc1145ebef51c7f1f1d132aed3f1d0c935",
            "w_1.csv": "d70d9c5ef467999ae26cb207db4a53f4d90a60586b05a98b6e8faf508286f83d",
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

"""Record the report hashes of every op in every workload's input domain.

Run from the root of a checkout, at the commit whose outputs are the
reference (the ``reports.bytes_changed`` count compares against them):

    python3 perfbench/record_hashes.py

It runs with the same BLAS/OpenMP thread cap as the benchmark. Every op is
also checked; the script lists failed ops and exits 1 if any op other than a
known-defect probe fails.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as W
from run import child_env
from worker import SEED_HASHES, Runner, import_varns, prepare_inputs


def main() -> int:
    os.environ.update(child_env())          # before numpy is imported
    runner = Runner(import_varns(os.getcwd()))
    hashes, unexpected = {}, 0
    for workload in W.WORKLOADS.values():
        prepare_inputs(workload)
        for op in workload.domain():
            rec = runner.run(op, hash_outputs=True)
            hashes[op.key] = rec.hashes
            if rec.reason is not None:
                unexpected += op.known_defect is None
                print(f"{workload.name}: {op.kind} {op.argv('<out>')}: {rec.reason}",
                      file=sys.stderr)
        print(f"{workload.name}: {len(workload.domain())} ops", file=sys.stderr)
    with open(SEED_HASHES, "w") as fh:
        json.dump(hashes, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

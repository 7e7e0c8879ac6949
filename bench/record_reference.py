#!/usr/bin/env python3
"""Record the correctness references in bench/reference.json.

    python3 bench/record_reference.py

Run it from the root of a checkout whose outputs are known to be right.  It
runs every sweep workload once per master seed in ``SWEEP_MASTER_SEEDS`` and
stores each ``records.csv`` (its sha256 and rows).  It computes the
folded-HEA closure dimensions and cross-checks them against the brute-force
oracle ``liepqc.verify.brute_force_closure_dim``; the open-TFIM dimensions
are checked against n(2n-1) and not stored, since the run checks the formula.
A change that alters the CSV bytes on purpose re-records and says so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from liepqc.lie import lie_closure  # noqa: E402
from liepqc.verify import brute_force_closure_dim  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_MASTER_SEEDS, WORKLOADS, ClosureWorkload, SweepWorkload, expected_closure_dim,
)


def record_sweep(workload: SweepWorkload) -> dict:
    out = {}
    for index, master in enumerate(SWEEP_MASTER_SEEDS):
        inputs = workload.build(index)
        with tempfile.TemporaryDirectory() as tmp:
            _, errors = workload.run(inputs, Path(tmp))
            if errors:
                raise SystemExit(f"{workload.name} master seed {master}: {errors}")
            data = (Path(tmp) / "records.csv").read_bytes()
        out[str(master)] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "rows": data.decode().splitlines()[1:],
        }
        print(f"{workload.name} master seed {master}: {out[str(master)]['sha256']}")
    return out


def record_closures(workload: ClosureWorkload) -> dict:
    folded = {}
    for family, n, gens in workload.build(0).payload:
        dim = lie_closure(gens).dim
        if family == "tfim":
            if dim != expected_closure_dim(family, n, {}):
                raise SystemExit(f"tfim n={n}: closure dimension {dim} is not n(2n-1)")
            continue
        oracle = brute_force_closure_dim([g.dense() for g in gens])
        if dim != oracle:
            raise SystemExit(f"{family} n={n}: closure {dim} but oracle {oracle}")
        folded[str(n)] = dim
        print(f"{family} n={n}: dimension {dim}, oracle agrees")
    return folded


def main() -> int:
    reference = {
        name: record_sweep(w) for name, w in WORKLOADS.items() if isinstance(w, SweepWorkload)
    }
    reference["closure_dla"] = {"folded_hea": record_closures(WORKLOADS["closure_dla"])}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the outcomes a performance change must leave exactly unchanged.

    python3 perfbench/record_expected.py

For every workload and every seed in SEEDS, runs one pass into
perfbench/out/record/ and keeps what workloads.check_outputs reports per op:
each dimension estimate with its |estimate - exact|, and the sha256 of the
curve values.  Writes them to perfbench/expected.json, against which run.py
checks every reference pass; a differing outcome fails its op.  Re-record
only for a change that alters these outcomes on purpose, and say so.
"""
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402,F401  sets the BLAS thread count before numpy loads
import workloads  # noqa: E402

SEEDS = range(0, 50)


def main():
    scratch = HERE / "out" / "record"
    recorded = {}
    for workload in workloads.WORKLOADS:
        recorded[workload] = {}
        for seed in SEEDS:
            shutil.rmtree(scratch, ignore_errors=True)
            docs = workloads.generate(workload, seed)
            workloads.write_inputs(docs, scratch / "inputs")
            results = workloads.run_pass(workload, scratch / "inputs", scratch / "out")
            problems, outcomes = workloads.check_outputs(workload, docs, scratch / "out")
            failed = [r for r in results if r["error"]] + [p for p in problems.values() if p]
            if failed:
                raise SystemExit(f"{workload} seed {seed} failed: {failed}")
            recorded[workload][str(seed)] = outcomes
            print(f"{workload} seed {seed}: {outcomes}", file=sys.stderr, flush=True)
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

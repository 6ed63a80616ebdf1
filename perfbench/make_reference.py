#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current gcirc sources.

    python3 perfbench/make_reference.py

Runs one pass of each workload on the seeds below, re-derives every
output through the oracle, and records each op's exit code and stdout
digest under the digest of its input. Nothing is written unless every
output passes. A benchmark run then compares any op whose input matches
a recorded one, on whatever seed it runs. The search-mds seeds cover
all three moduli that seed can pick, so its ops are covered on every
seed.
"""

from __future__ import annotations

import json
import os
import sys

import run
import verify
import workloads

SEEDS = {"search-mds": (1, 2, 5), "search-involutory": (1, 2), "check-wide": (1, 2)}


def main() -> int:
    sys.path.insert(0, run.SRC)
    fields = verify.Fields()
    recorded, failures = {}, []
    with run.work_dir(f"reference-{os.getpid()}") as work:
        for workload, seeds in SEEDS.items():
            for seed in seeds:
                ops = workloads.ops_for(workload, seed)
                gcirc, _ = run.setup(ops, work)
                results = run.run_pass(gcirc, ops, work)
                job_found = verify.job_problems(results)
                for op, out in results:
                    found = verify.problems(op, out, {}, fields, deep=True) + job_found.get(op.label, [])
                    if found:
                        failures.append(f"{workload}/{seed}/{op.label}: {'; '.join(found)}")
                    recorded[op.fingerprint()] = {
                        "label": f"{workload}/{op.label}",
                        "exit": out.rc,
                        "stdout_sha256": out.digest,
                    }
                print(f"{workload} seed {seed}: {len(recorded)} ops recorded", file=sys.stderr)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"seeds": SEEDS, "ops": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

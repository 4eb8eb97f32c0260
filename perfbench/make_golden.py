"""Write golden.json: a digest per fixed item, where two routes agree.

Each fixed Tesler item is recomputed by the tableau sum and each fixed
tableau item by the Tesler sum; a digest is written only when both routes
give the same polynomial, and the script fails otherwise.  It also records
how many checks each verify grid makes, from a run with no mismatches.
Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys

import qtcatalan
from qtcatalan.verification import run_verify

import workloads


def main() -> int:
    items = {}
    disagree = []
    for workload in workloads.WORKLOADS:
        for route, vec in workloads.fixed_items(workload):
            value = qtcatalan.f_tesler(vec) if route == "tesler" else qtcatalan.f_tableaux(vec)
            key = workloads.item_key(route, vec)
            if value != workloads.second_route(route, vec):
                disagree.append(key)
            items[key] = workloads.digest(value)
    if disagree:
        print(f"routes disagree on {disagree}; golden.json not written", file=sys.stderr)
        return 1
    checks = {}
    for n, m in workloads.VERIFY_GRIDS:
        report = run_verify(n, m, jobs=workloads.VERIFY_JOBS)
        if report.mismatches or not report.cases:
            print(f"verify {n},{m} failed; golden.json not written", file=sys.stderr)
            return 1
        checks[f"{n},{m}"] = len(report.cases)
    golden = {"items": items, "verify_checks": checks}
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(items)} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

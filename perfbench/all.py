"""Run every workload untraced and traced, and print every metric with its unit.

    python3 perfbench/all.py [--seed 1] [--out perfbench/BENCH_<commit>.json]

Each run is ``run.py`` with the ``run_seconds`` of ``BENCHMARK.json``.  With
``--out`` the results, with their provenance, are also written as one JSON
file.  The exit code is the largest exit code of the runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {"seed": args.seed, "run_seconds": seconds, "workloads": {}}
    worst = 0
    for workload in workloads.WORKLOADS:
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            worst = max(worst, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or not lines:
                print(f"{workload} trace={trace}: {proc.stderr.strip()}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            run = entry["per_layer" if trace else "end_to_end"] = {
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
            for line in lines[:-1]:
                key, _, rest = line.partition(" ")
                if key in ("provenance", "unscaled"):
                    run[key] = json.loads(rest)
                else:
                    print(f"{workload:14s} {line}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the qtcatalan sweeps.  Run from the repository root:

    python3 perfbench/run.py --workload tesler_sweep --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (``trial.py``) that imports
``qtcatalan`` from this checkout's ``src/``.  With ``--trace 0`` the run
repeats untraced trials for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it makes one untraced pass (and, for the verify
sweep, one pooled pass) and one traced pass, and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  End-to-end
times are scaled to a reference speed of the machine (see
``trial.reference_kernel``); the unscaled figures are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output was right, 1 when some were wrong, and 2 when the
benchmark could not run (no result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

#: Trials per untraced run, at the least, so that the median pass is robust.
MIN_TRIALS = 3
#: Set-up-only interpreters started before each trial.  With the trial's
#: own set-up they give two set-up samples per trial, spread over the run.
SETUPS_PER_TRIAL = 1
#: Wall-clock budget of one run, below the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def metric_units() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


class Children:
    """Starts trial interpreters, each waited for, within one deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, mode: str, jobs: int = 1, check_seeded: bool = False, spans_out=None) -> dict:
        cmd = [
            sys.executable, str(BENCH_DIR / "trial.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--jobs", str(jobs),
        ]
        if check_seeded:
            cmd.append("--check-seeded")
        if spans_out:
            cmd += ["--spans-out", str(spans_out)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run was complete")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"trial ({mode}) did not finish within {remaining:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"trial ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        package = Path(out["package_file"]).resolve()
        if SRC.resolve() not in package.parents:
            raise BenchError(f"qtcatalan was imported from {package}, not from {SRC}")
        for failure in out.get("failures", []):
            print(f"perfbench: wrong output: {failure}", file=sys.stderr)
        return out


def provenance(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qtcatalan").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def seeded_failures(trials: list[dict]) -> int:
    """Seeded items are checked by a second route in the first trial only;
    later trials must reproduce its digests."""
    reference = trials[0]["seeded"]
    return sum(
        digest != reference.get(key) for t in trials[1:] for key, digest in t["seeded"].items()
    )


def untraced(children: Children, seconds: float) -> tuple[dict, int, int, dict]:
    jobs = workloads.VERIFY_JOBS if children.workload == "verify_sweep" else 1
    start = time.monotonic()
    trials = []
    setups = []
    while len(trials) < MIN_TRIALS or time.monotonic() - start < seconds:
        setups += [children.run("setup") for _ in range(SETUPS_PER_TRIAL)]
        trials.append(children.run("timed", jobs=jobs, check_seeded=not trials))
        setups.append(trials[-1])
    items = trials[0]["attempted"]
    metrics = {
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "items_per_s": items / statistics.median(t["pass_ref_s"] for t in trials),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in trials),
    }
    unscaled = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "items_per_s": items / statistics.median(t["pass_s"] for t in trials),
    }
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials) + seeded_failures(trials)
    return metrics, attempted, failed, unscaled


def traced(children: Children) -> tuple[dict, int, int, dict]:
    serial = children.run("timed", jobs=1, check_seeded=True)
    runs = [serial]
    efficiency = 0.0
    if children.workload == "verify_sweep":
        jobs = workloads.VERIFY_JOBS
        pooled = children.run("timed", jobs=jobs)
        runs.append(pooled)
        efficiency = serial["pass_s"] / (jobs * pooled["pass_s"])
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{children.workload}-seed{children.seed}.bin"
    trace = children.run("traced", jobs=1, check_seeded=True, spans_out=spans)
    runs.append(trace)
    metrics = dict(trace["layers"])
    metrics["tableaux.plan_s"] = trace["plan_s"]
    metrics["verification.pool_efficiency"] = efficiency
    metrics["trace.wall_s"] = trace["pass_s"]
    metrics["trace.untraced_wall_s"] = serial["pass_s"]
    metrics["trace.overhead_ratio"] = trace["pass_s"] / serial["pass_s"]
    return metrics, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs), {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "qtcatalan" / "__init__.py").is_file():
            raise BenchError(f"no qtcatalan package under {SRC}")
        units = metric_units()["per_layer" if args.trace else "end_to_end"]
        info = provenance(args.workload, args.seed)
        children = Children(args.workload, args.seed)
        if args.trace:
            metrics, attempted, failed, unscaled = traced(children)
        else:
            metrics, attempted, failed, unscaled = untraced(children, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print("provenance " + json.dumps(info))
    if unscaled:
        print("unscaled " + json.dumps(unscaled))
    print(f"failed_fraction {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

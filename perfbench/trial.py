"""One fresh-interpreter trial: import qtcatalan, set up, run one pass.

Run by ``run.py`` with ``src/`` first on ``PYTHONPATH``; prints one JSON
object on its last line.  Modes:

* ``setup``  -- import and the per-length set-up calls only;
* ``timed``  -- set-up, then one timed pass, then the correctness checks;
* ``traced`` -- the tableau plan time (a cold and a warm call per length),
  set-up, then one pass with every layer wrapped in spans, then the checks.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import qtcatalan  # noqa: E402
from qtcatalan import verification  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def call(route: str, vec: tuple[int, ...], jobs: int = 1):
    # module attributes are looked up per call, so a traced run sees its wrappers
    if route == "tesler":
        return qtcatalan.f_tesler(vec)
    if route == "tableaux":
        return qtcatalan.f_tableaux(vec)
    n, maxval = vec
    return verification.run_verify(n, maxval, jobs=jobs)


#: Time of ``reference_kernel`` on the machine the baseline was taken on
#: (2 CPUs), when it was quiet.  Timings are scaled by REFERENCE_S over the
#: kernel's time measured next to them, so they read as on that machine.
REFERENCE_S = 0.006


def reference_kernel() -> float:
    """Time one fixed pure-Python sparse product over a dict of exponent
    pairs: the kind of work a LaurentPoly multiply does, but frozen here and
    independent of qtcatalan, so it measures only the machine's speed."""
    a = {(i, j): 7 * i + j for i in range(12) for j in range(3)}
    b = {(i, j): i - j for i in range(3) for j in range(12)}
    t = time.perf_counter()
    out: dict = {}
    for _ in range(20):
        for (qa, ta), ca in a.items():
            for (qb, tb), cb in b.items():
                key = (qa + qb, ta + tb)
                out[key] = out.get(key, 0) + ca * cb
    return time.perf_counter() - t


def run_pass(workload: str, item_list, jobs: int) -> tuple[list, float, float]:
    """The timed pass, one unit of work (an item, or a verify grid) at a
    time.  Returns the results (or the exceptions raised), the pass time,
    and the pass time scaled unit by unit to the reference speed, with the
    reference kernel timed between consecutive units."""
    units = workloads.VERIFY_GRIDS if workload == "verify_sweep" else item_list
    results, times, probes = [], [], [reference_kernel()]
    for unit in units:
        route, vec = ("verify", unit) if workload == "verify_sweep" else unit[:2]
        t = time.perf_counter()
        try:
            results.append(call(route, vec, jobs))
        except Exception as exc:  # counted as failed by check_pass
            results.append(exc)
        times.append(time.perf_counter() - t)
        probes.append(reference_kernel())
    scaled = sum(
        u * REFERENCE_S / ((before + after) / 2)
        for u, before, after in zip(times, probes, probes[1:])
    )
    return results, sum(times), scaled


def check_pass(workload, item_list, results, golden, check_seeded: bool) -> dict:
    """Count units attempted and failed.  Fixed items must match their
    golden digest; seeded items are returned by digest and, when
    ``check_seeded``, recomputed by a second route.  A verify grid counts
    its mismatches, and fails whole if it ran another number of checks."""
    failures: list[str] = []
    seeded: dict[str, str] = {}
    attempted = failed = 0
    if workload == "verify_sweep":
        for (n, maxval), report in zip(workloads.VERIFY_GRIDS, results):
            expected = golden["verify_checks"][f"{n},{maxval}"]
            attempted += expected
            if isinstance(report, Exception):
                failed += expected
                failures.append(f"verify {n},{maxval}: {report!r}")
            elif len(report.cases) != expected:
                failed += expected
                failures.append(f"verify {n},{maxval}: {len(report.cases)} checks, expected {expected}")
            else:
                failed += len(report.mismatches)
                failures += [f"verify {n},{maxval}: {c.identity} {c.vector}" for c in report.mismatches]
    else:
        for (route, vec, is_seeded), value in zip(item_list, results):
            key = workloads.item_key(route, vec)
            attempted += 1
            if isinstance(value, Exception):
                failed += 1
                failures.append(f"{key}: {value!r}")
                continue
            d = workloads.digest(value)
            if is_seeded:
                seeded[key] = d
                if check_seeded and workloads.digest(workloads.second_route(route, vec)) != d:
                    failed += 1
                    failures.append(f"{key}: differs from the second route")
            elif golden["items"].get(key) != d:
                failed += 1
                failures.append(f"{key}: digest differs from golden.json")
    return {"attempted": attempted, "failed": failed, "failures": failures[:20], "seeded": seeded}


def peak_rss_mb(jobs: int) -> float:
    """Own peak resident set plus, for a pooled pass, jobs times the
    largest pool child's peak (getrusage reports only the largest child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * child) / 1024.0


def plan_seconds(workload: str) -> float:
    """For each tableau length the workload uses, the first call minus a
    warm repeat: the time spent building that length's tableau plan."""
    total = 0.0
    for length in workloads.tableau_lengths(workload):
        cold, warm = (_timed_call("tableaux", (0,) * length) for _ in range(2))
        total += cold - warm
    return total


def _timed_call(route, vec) -> float:
    t = time.perf_counter()
    call(route, vec)
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--check-seeded", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    out = {"package_file": qtcatalan.__file__}
    if args.mode == "traced":
        # measured before set-up, which would otherwise build the plans
        out["plan_s"] = plan_seconds(args.workload)
    for route, vec in workloads.setup_calls(args.workload):
        call(route, vec)
    out["setup_s"] = time.perf_counter() - T_START
    speed = REFERENCE_S / statistics.median(reference_kernel() for _ in range(3))
    out["setup_ref_s"] = out["setup_s"] * speed
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    item_list = workloads.items(args.workload, args.seed)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer().install()
    try:
        results, out["pass_s"], out["pass_ref_s"] = run_pass(args.workload, item_list, args.jobs)
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = peak_rss_mb(args.jobs)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        if args.spans_out:
            tracer.write(args.spans_out)
    out.update(check_pass(args.workload, item_list, results, workloads.load_golden(), args.check_seeded))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

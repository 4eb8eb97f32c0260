"""The cross-verification suite behind `qtc verify`.

Each check recomputes some value by two or more independent routes and
reports a mismatch with the full polynomials involved; an identity that
mixes two routes, such as ``hcomb_recursion_residual``, lives here.  Checks
are pure functions of their parameter vector, so the sweep can be sharded
across forked workers (``parallel_map``); aggregation is order-independent.
"""

from __future__ import annotations

import os
import pickle
import time
from itertools import product

from .chains import (
    _resolved,
    chain_of,
    enumerate_heads,
    enumerate_pseudoheads,
    enumerate_quasiheads,
    enumerate_tails,
    f_chains,
    f_stat,
    h_comb_poly,
)

# not called here: perfbench's tracer wraps these where verify looks names up
from .chains import area, locate, stat, subpartitions3  # noqa: F401
from .closed_forms import f1, f2, f3_recursive, f3_two_step, h2, h3
from .errors import DomainError
from .poly import LaurentPoly, bracket, qt_power, unimodality_check
from .record import ABCParams
from .tableaux import f_tableaux, h_tableaux
from .tesler import f_tesler, lambda_partition, subdiagram_area_gf

#: First hook sums passed to f_tesler, which caches on F's normal form, so a1=3 reads
#: a1=0's memo entry.  The pair stays only because perfbench/tests/test_perfbench.py
#: pins tesler.calls == 1 + 4 * (2 + 1); ROADMAP item 10 removes it after item 2.
TESLER_FIRST_ENTRIES = (0, 3)


class CaseResult:
    __slots__ = ("identity", "vector", "ok", "detail")

    def __init__(self, identity: str, vector: tuple[int, ...], ok: bool, detail: str = ""):
        self.identity, self.vector, self.ok, self.detail = identity, vector, ok, detail


class VerificationReport:
    def __init__(self):
        self.cases: list[CaseResult] = []
        self.elapsed = 0.0

    @property
    def mismatches(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]

    def to_text(self) -> str:
        lines = []
        for c in self.cases:
            status = "ok" if c.ok else "MISMATCH"
            lines.append(f"{status:8s} {c.identity:28s} {c.vector}")
            if not c.ok and c.detail:
                lines.append(f"         {c.detail}")
        lines.append(
            f"{len(self.cases)} checks, {len(self.mismatches)} mismatches, "
            f"{self.elapsed:.2f} s"
        )
        return "\n".join(lines)


def _result(identity, vector, pairs) -> CaseResult:
    """Compare labeled polynomials pairwise; report all values on mismatch."""
    baseline = pairs[0][1]
    ok = all(v == baseline for _, v in pairs[1:])
    detail = "" if ok else "; ".join(f"{name} = {val.to_text()}" for name, val in pairs)
    return CaseResult(identity, tuple(vector), ok, detail)


def _vanishes(identity, vec, value) -> CaseResult:
    """The identity holds iff value is zero; report the residual otherwise."""
    ok = value == 0
    return CaseResult(identity, tuple(vec), ok, "" if ok else f"residual = {value.to_text()}")


def check_methods(vec: tuple[int, ...]) -> list[CaseResult]:
    """All-route agreement on F(vec): the tableau sum, the closed forms and
    recursions of vec's length, and the Tesler sums; at n = 2 and 3, also
    H(vec) against its closed form."""
    n = len(vec) + 1
    pairs = [("tableaux", f_tableaux(vec))]
    if n == 2:
        pairs.append(("bracket", bracket(vec[0] + 1)))
    elif n == 3 and vec[0] >= vec[1] - 1:
        pairs.append(("double-sum", f2(*vec)))
    elif n == 4:
        p = ABCParams(*vec)
        pairs += [("recursion", f3_recursive(p)), ("chains", f_chains(p)), ("stat", f_stat(p))]
        if p.c >= 1:
            pairs.append(("two-step", f3_two_step(p)))
    pairs += [(f"tesler[a1={x}]", f_tesler((x,) + vec)) for x in TESLER_FIRST_ENTRIES]
    out = [_result(f"methods-agree[n={n}]", vec, pairs)]
    if n in (2, 3):
        h = [("h_tableaux", h_tableaux(vec)), (f"h{n}", h2(*vec) if n == 2 else h3(*vec))]
        out.append(_result(f"h-closed-form[n={n}]", vec, h))
    return out


def check_t1_specialization(vec: tuple[int, ...]) -> list[CaseResult]:
    """t = 1 collapses the Tesler sum at (0,) + vec to the subdiagram area
    counter; the full hook vector is reported."""
    hooks = (0,) + vec
    lhs = f_tesler(hooks).specialize_t_one()
    rhs = subdiagram_area_gf(lambda_partition(vec))
    return [_result("t1-subdiagram-count", hooks, [("tesler|t=1", lhs), ("area-gf", rhs)])]


def check_trailing_zero(vec: tuple[int, ...]) -> list[CaseResult]:
    pairs = [("with-zero", f_tableaux(vec + (0,))), ("without", f_tableaux(vec))]
    return [_result("trailing-zero", vec, pairs)]


def check_reflection(vec: tuple[int, ...]) -> list[CaseResult]:
    """f1(-a) = -(qt)^(1-a) f1(a-2) for a >= 1."""
    (a,) = vec
    return [_vanishes("one-arg-reflection", vec, f1(-a) + qt_power(1 - a) * f1(a - 2))]


def check_unimodality(vec: tuple[int, ...]) -> list[CaseResult]:
    special = f_chains(ABCParams(*vec)).specialize_t_qinv()
    ok = unimodality_check(special)
    detail = "" if ok else f"specialization = {special.to_text()}"
    return [CaseResult("unimodality[t=1/q]", vec, ok, detail)]


def check_chain_partition(vec: tuple[int, ...]) -> list[CaseResult]:
    """Chains are disjoint, cover exactly the subpartition lattice, fill
    their area ranges bijectively, and each member's case resolves to the
    tail of its own chain; the four index sets are equinumerous with the
    bijections preserving area ranges.  Each chain is built once; the
    lattice, each member's area, tail and stat are read from the table
    ``chains._resolved``, which ``f_stat`` sums."""
    p = ABCParams(*vec)
    problems = []
    tails = enumerate_tails(p)
    sizes = {
        "tails": len(tails),
        "pseudoheads": len(enumerate_pseudoheads(p)),
        "heads": len(enumerate_heads(p)),
        "quasiheads": len(enumerate_quasiheads(p)),
    }
    if len(set(sizes.values())) != 1:
        problems.append(f"index sets differ in size: {sizes}")
    chains = [chain_of(t) for t in tails]
    seen = {}  # member -> the chain it was found in
    for ch in chains:
        for idx in (ch.pseudohead, ch.head, ch.quasihead):
            if idx.area_range() != ch.area_range:
                problems.append(f"range not preserved along chain of {ch.tail}")
        for m in ch.members:
            if m in seen:
                problems.append(f"{m} lies in two chains")
            seen[m] = ch
    areas = {row[0]: row[1] for row in _resolved(p)}  # the lattice, with its areas
    missing, outside = areas.keys() - seen.keys(), seen.keys() - areas.keys()
    if missing:
        problems.append(f"not covered: {sorted(missing)[:4]}...")
    if outside:
        problems.append(f"outside the staircase: {sorted(outside)[:4]}...")
    for ch in chains:
        r, R = ch.area_range
        got = [areas.get(m) for m in ch.members]
        if got != list(range(r, R + 1)):
            problems.append(f"chain of ({ch.tail.E},{ch.tail.F}) has areas {got} for range {ch.area_range}")
    for lam, lam_area, E, F, lam_stat in (row for row in _resolved(p) if row[0] in seen):
        ch = seen[lam]
        if E != ch.tail.E or F != ch.tail.F:
            problems.append(f"locate_tail({lam}) finds another chain")
        r, R = ch.area_range
        if lam_stat != r + R - lam_area:
            problems.append(f"stat({lam}) disagrees with its chain")
    return [CaseResult("chain-partition[n=4]", vec, not problems, "; ".join(problems))]


def hcomb_recursion_residual(p: ABCParams) -> LaurentPoly:
    """Left minus right side of the two-step recursion for h_comb,

        h_comb(a,b,c) = h_comb(a+2,b+2,c-2) + (qt)^c H(a+c, b-c)
            + (qt)^(c-1) H(a+c, b-c+2)
            + sum_{2 <= l <= min(2c, a-b)} q^(a+2c-l) t^(l+b)
            - [a = b-1] q^(a+2c) t^b
            - ([a = b] + [a = b-1]) q^(a+2c-1) t^(b+1),

    which is zero for every valid (a, b, c) with c >= 1.  The two bracket
    corrections are exactly the boundary cases where the plain sums
    overcount.
    """
    a, b, c = p.a, p.b, p.c
    if c < 1:
        raise DomainError(f"the h_comb recursion needs c >= 1, got {p}")
    rhs = (
        h_comb_poly(a + 2, b + 2, c - 2)
        + LaurentPoly.monomial(c, c) * h3(a + c, b - c)
        + LaurentPoly.monomial(c - 1, c - 1) * h3(a + c, b - c + 2)
    )
    for l in range(2, min(2 * c, a - b) + 1):
        rhs = rhs + LaurentPoly.monomial(a + 2 * c - l, l + b)
    if a == b - 1:
        rhs = rhs - LaurentPoly.monomial(a + 2 * c, b)
    if a == b or a == b - 1:
        rhs = rhs - LaurentPoly.monomial(a + 2 * c - 1, b + 1)
    return h_comb_poly(a, b, c) - rhs


def check_hcomb_recursion(vec: tuple[int, ...]) -> list[CaseResult]:
    return [_vanishes("hcomb-two-step-recursion", vec, hcomb_recursion_residual(ABCParams(*vec)))]


def _run_case(case) -> list[CaseResult]:
    check, vec = case
    return check(vec)


def valid_triples(maxval: int):
    """The validated (a, b, c) region with all entries <= maxval."""
    for a in range(maxval + 1):
        for b in range(min(maxval, a + 1) + 1):
            for c in range(min(maxval, a + 1, b + 1) + 1):
                yield (a, b, c)


#: The checks run at each length n, on every vector of a_2, ..., a_n.
_SUITE = {
    2: (check_methods, check_t1_specialization, check_trailing_zero, check_reflection),
    3: (check_methods, check_t1_specialization, check_trailing_zero),
    4: (check_methods, check_t1_specialization, check_chain_partition,
        check_unimodality, check_hcomb_recursion),
    5: (check_methods, check_t1_specialization),
}

#: Checks defined only where one entry is positive, with that entry's index.
_POSITIVE_ENTRY = {check_reflection: 0, check_hcomb_recursion: 2}


def check_sweep(n: int, maxval: int) -> None:
    """Refuse a sweep that verify cannot run, or that would run no check."""
    if n not in _SUITE:
        raise DomainError(f"verify supports n in 2..5, got {n}")
    if maxval < 0:
        raise DomainError(f"verify needs a nonnegative max entry, got {maxval}")


def build_case_specs(n: int, maxval: int) -> list:
    """(check, vector) pairs; n = 4 sweeps the validated triples only."""
    check_sweep(n, maxval)
    grid = valid_triples(maxval) if n == 4 else product(range(maxval + 1), repeat=n - 1)
    return [
        (check, vec)
        for vec in grid
        for check in _SUITE[n]
        if check not in _POSITIVE_ENTRY or vec[_POSITIVE_ENTRY[check]] >= 1
    ]


def env_int(name: str, default: int) -> int:
    """The integer in environment variable name, or default if it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from None


def default_jobs() -> int:
    return max(1, env_int("QTC_JOBS", 1))


def _work(fn, chunks: list, write_end: int):
    """A forked worker: pickles its results, or its exception, down the pipe and exits."""
    try:
        try:
            data = pickle.dumps([[fn(x) for x in chunk] for chunk in chunks])
        except BaseException as exc:  # sent to the parent, which raises it
            data = pickle.dumps(exc)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def parallel_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in order.  With jobs > 1 and ``os.fork``, on
    no more than jobs, the usable CPUs or the chunks of 8 items: worker k
    maps chunks k, k + workers, ...; worker 0 is this process, so fn runs
    here too, and the others are forked.  A worker's exception, or a
    child's exit without results, raises here; no child outlives the call."""
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    items = list(items)
    chunks = [items[i : i + 8] for i in range(0, len(items), 8)]
    # sched_getaffinity is missing on some platforms
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1, len(chunks) or 1)
    results, pipes, pids = [None] * len(chunks), [], []  # a pid is None once reaped
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, chunks[k::workers], write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        results[0::workers] = [[fn(x) for x in chunk] for chunk in chunks[0::workers]]
        for k, pid in enumerate(pids):
            data = pipes[k].read()
            status = os.waitpid(pid, 0)[1]
            pids[k] = None
            if not data:
                raise RuntimeError(f"a forked worker exited (wait status {status}) without sending its results")
            out = pickle.loads(data)
            if isinstance(out, BaseException):
                raise out
            results[k + 1 :: workers] = out
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            os.kill(pid, 9)  # SIGKILL, without importing signal
            os.waitpid(pid, 0)
    return [y for chunk in results for y in chunk]


def run_verify(n: int, maxval: int, jobs: int | None = None) -> VerificationReport:
    specs = build_case_specs(n, maxval)
    jobs = default_jobs() if jobs is None else jobs
    start = time.perf_counter()
    report = VerificationReport()
    for results in parallel_map(_run_case, specs, jobs):
        report.cases.extend(results)
    report.cases.sort(key=lambda c: (c.identity, c.vector))
    report.elapsed = time.perf_counter() - start
    return report

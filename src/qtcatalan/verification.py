"""The cross-verification suite behind `qtc verify`.

Each check recomputes some value by two or more independent routes and
reports a mismatch with the full polynomials involved.  Checks are pure
functions of their parameter vector, so the sweep can be sharded across a
process pool; aggregation is order-independent.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .chains import (
    chain_of,
    enumerate_heads,
    enumerate_pseudoheads,
    enumerate_quasiheads,
    enumerate_tails,
    area,
    f_chains,
    f_stat,
    hcomb_recursion_residual,
    locate,
    stat,
    subpartitions3,
)
from .closed_forms import ABCParams, f1, f2, f3_recursive, f3_two_step, h2, h3
from .errors import DomainError
from .poly import bracket, qt_power, unimodality_check
from .tableaux import f_tableaux, h_tableaux
from .tesler import f_tesler, lambda_partition, subdiagram_area_gf

#: First hook sums used to confirm that the Tesler value ignores a_1.
TESLER_FIRST_ENTRIES = (0, 3)


@dataclass
class CaseResult:
    identity: str
    vector: tuple[int, ...]
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    cases: list[CaseResult] = field(default_factory=list)
    elapsed: float = 0.0

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
    values = list(pairs)
    baseline = values[0][1]
    ok = all(v == baseline for _, v in values[1:])
    detail = "" if ok else "; ".join(f"{name} = {val.to_text()}" for name, val in values)
    return CaseResult(identity, tuple(vector), ok, detail)


def check_methods_n2(a: int) -> list[CaseResult]:
    vec = (a,)
    pairs = [("tableaux", f_tableaux(vec)), ("bracket", bracket(a + 1))]
    pairs += [(f"tesler[a1={x}]", f_tesler((x,) + vec)) for x in TESLER_FIRST_ENTRIES]
    out = [_result("methods-agree[n=2]", vec, pairs)]
    out.append(_result("h-closed-form[n=2]", vec, [("h_tableaux", h_tableaux(vec)), ("h2", h2(a))]))
    return out


def check_methods_n3(a: int, b: int) -> list[CaseResult]:
    vec = (a, b)
    pairs = [("tableaux", f_tableaux(vec))]
    pairs += [(f"tesler[a1={x}]", f_tesler((x,) + vec)) for x in TESLER_FIRST_ENTRIES]
    if a >= b - 1:
        pairs.append(("double-sum", f2(a, b)))
    out = [_result("methods-agree[n=3]", vec, pairs)]
    out.append(_result("h-closed-form[n=3]", vec, [("h_tableaux", h_tableaux(vec)), ("h3", h3(a, b))]))
    return out


def check_methods_n4(a: int, b: int, c: int) -> list[CaseResult]:
    """All-route agreement on a validated triple."""
    vec = (a, b, c)
    p = ABCParams(a, b, c)
    pairs = [
        ("tableaux", f_tableaux(vec)),
        ("recursion", f3_recursive(p)),
        ("chains", f_chains(p)),
        ("stat", f_stat(p)),
    ]
    if c >= 1:
        pairs.append(("two-step", f3_two_step(p)))
    pairs += [(f"tesler[a1={x}]", f_tesler((x,) + vec)) for x in TESLER_FIRST_ENTRIES]
    return [_result("methods-agree[n=4]", vec, pairs)]


def check_methods_n5(vec: tuple[int, ...]) -> list[CaseResult]:
    pairs = [("tableaux", f_tableaux(vec))]
    pairs += [(f"tesler[a1={x}]", f_tesler((x,) + vec)) for x in TESLER_FIRST_ENTRIES]
    return [_result("methods-agree[n=5]", vec, pairs)]


def check_t1_specialization(vec: tuple[int, ...]) -> list[CaseResult]:
    """t = 1 collapses the Tesler sum to the subdiagram area counter."""
    lhs = f_tesler(vec).specialize_t_one()
    rhs = subdiagram_area_gf(lambda_partition(vec[1:]))
    return [_result("t1-subdiagram-count", vec, [("tesler|t=1", lhs), ("area-gf", rhs)])]


def check_trailing_zero(vec: tuple[int, ...]) -> list[CaseResult]:
    return [
        _result(
            "trailing-zero",
            vec,
            [("with-zero", f_tableaux(vec + (0,))), ("without", f_tableaux(vec))],
        )
    ]


def check_reflection(a: int) -> list[CaseResult]:
    """f1(-a) = -(qt)^(1-a) f1(a-2) for a >= 1."""
    residual = f1(-a) + qt_power(1 - a) * f1(a - 2)
    return [
        CaseResult(
            "one-arg-reflection",
            (a,),
            residual == 0,
            "" if residual == 0 else f"residual = {residual.to_text()}",
        )
    ]


def check_unimodality(a: int, b: int, c: int) -> list[CaseResult]:
    p = ABCParams(a, b, c)
    special = f_chains(p).specialize_t_qinv()
    ok = unimodality_check(special)
    return [
        CaseResult(
            "unimodality[t=1/q]",
            (a, b, c),
            ok,
            "" if ok else f"specialization = {special.to_text()}",
        )
    ]


def check_chain_partition(a: int, b: int, c: int) -> list[CaseResult]:
    """Chains are disjoint, cover the subpartition lattice, fill their area
    ranges bijectively, and the four index sets are equinumerous with the
    bijections preserving area ranges."""
    p = ABCParams(a, b, c)
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
    seen: dict[tuple[int, int, int], tuple[int, int]] = {}
    for t in tails:
        ch = chain_of(t)
        r, R = ch.area_range
        for idx in (ch.pseudohead, ch.head, ch.quasihead):
            if idx.area_range() != (r, R):
                problems.append(f"range not preserved along chain of {t}")
        areas = [area(p, m) for m in ch.members]
        if areas != list(range(r, R + 1)):
            problems.append(f"chain of ({t.E},{t.F}) has areas {areas} for range {ch.area_range}")
        for m in ch.members:
            if m in seen:
                problems.append(f"{m} lies in two chains")
            seen[m] = ch.area_range
    missing = set(subpartitions3(p)) - set(seen)
    if missing:
        problems.append(f"not covered: {sorted(missing)[:4]}...")
    for lam in seen:
        r, R = locate(p, lam).area_range
        if stat(p, lam) != r + R - area(p, lam):
            problems.append(f"stat({lam}) disagrees with its chain")
    return [CaseResult("chain-partition[n=4]", (a, b, c), not problems, "; ".join(problems))]


def check_hcomb_recursion(a: int, b: int, c: int) -> list[CaseResult]:
    residual = hcomb_recursion_residual(ABCParams(a, b, c))
    return [
        CaseResult(
            "hcomb-two-step-recursion",
            (a, b, c),
            residual == 0,
            "" if residual == 0 else f"residual = {residual.to_text()}",
        )
    ]


_CHECKS = {
    "n2": lambda args: check_methods_n2(*args),
    "n3": lambda args: check_methods_n3(*args),
    "n4": lambda args: check_methods_n4(*args),
    "n5": lambda args: check_methods_n5(args),
    "t1": lambda args: check_t1_specialization(args),
    "trailing": lambda args: check_trailing_zero(args),
    "reflection": lambda args: check_reflection(*args),
    "unimodal": lambda args: check_unimodality(*args),
    "partition": lambda args: check_chain_partition(*args),
    "hcomb": lambda args: check_hcomb_recursion(*args),
}


def _run_case(case: tuple[str, tuple[int, ...]]) -> list[CaseResult]:
    kind, args = case
    return _CHECKS[kind](args)


def valid_triples(maxval: int):
    """The validated (a, b, c) region with all entries <= maxval."""
    for a in range(maxval + 1):
        for b in range(min(maxval, a + 1) + 1):
            for c in range(min(maxval, a + 1, b + 1) + 1):
                yield (a, b, c)


def build_case_specs(n: int, maxval: int) -> list[tuple[str, tuple[int, ...]]]:
    specs: list[tuple[str, tuple[int, ...]]] = []
    if n == 2:
        for a in range(maxval + 1):
            specs.append(("n2", (a,)))
            specs.append(("t1", (0, a)))
            specs.append(("trailing", (a,)))
        for a in range(1, maxval + 1):
            specs.append(("reflection", (a,)))
    elif n == 3:
        for a in range(maxval + 1):
            for b in range(maxval + 1):
                specs.append(("n3", (a, b)))
                specs.append(("t1", (0, a, b)))
                specs.append(("trailing", (a, b)))
    elif n == 4:
        for triple in valid_triples(maxval):
            specs.append(("n4", triple))
            specs.append(("t1", (0,) + triple))
            specs.append(("partition", triple))
            specs.append(("unimodal", triple))
            if triple[2] >= 1:
                specs.append(("hcomb", triple))
    elif n == 5:
        for a in range(maxval + 1):
            for b in range(maxval + 1):
                for c in range(maxval + 1):
                    for d in range(maxval + 1):
                        specs.append(("n5", (a, b, c, d)))
                        specs.append(("t1", (0, a, b, c, d)))
    else:
        raise DomainError(f"verify supports n in 2..5, got {n}")
    return specs


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


def run_verify(n: int, maxval: int, jobs: int | None = None) -> VerificationReport:
    specs = build_case_specs(n, maxval)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    start = time.time()
    report = VerificationReport()
    if jobs == 1:
        for case in specs:
            report.cases.extend(_run_case(case))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for results in pool.map(_run_case, specs, chunksize=8):
                report.cases.extend(results)
    report.cases.sort(key=lambda c: (c.identity, c.vector))
    report.elapsed = time.time() - start
    return report

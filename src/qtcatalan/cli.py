"""Command-line front end.

    qtc compute  --method M (--a v | --abc v) [--format text|json|latex|csv]
    qtc verify   [--n N] [--max K] [--jobs J]
    qtc decompose --abc a,b,c [--format text|csv]
    qtc scan     --n N --max K [--all]
    qtc rational --m M --n N

Exit codes: 0 success; 1 verification or positivity failure, or an output
pipe closed early; 2 usage or domain error, or an input too deep for
Python's recursion limit.

QTC_JOBS sets the default worker count for verify and scan; the library
reads no environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import combinations_with_replacement, product
from typing import Sequence

from .chains import ChainRecord, _resolved, decompose, f_chains, f_stat
from .closed_forms import f3_recursive, f3_two_step, slope_sequence
from .errors import DomainError, NotPolynomialError
from .poly import LaurentPoly
from .record import ABCParams
from .render import RENDERERS, csv_text
from .tableaux import f_tableaux
from .tesler import f_tesler
from .verification import check_sweep, parallel_map, run_verify


def default_jobs() -> int:
    """The worker count QTC_JOBS sets, at least 1; 1 if it is unset."""
    raw = os.environ.get("QTC_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise DomainError(f"QTC_JOBS must be an integer, got {raw!r}") from None


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated integer vector, got {text!r}")


def _parse_abc(text: str) -> ABCParams:
    vec = _parse_vector(text)
    if len(vec) != 3:
        raise DomainError(f"--abc expects exactly three entries, got {vec}")
    return ABCParams(*vec)


#: compute's methods: the function, and whether it takes --abc (else --a)
METHODS = {
    "tableaux": (f_tableaux, False),
    "tesler": (f_tesler, False),
    "recursion": (f3_recursive, True),
    "two-step": (f3_two_step, True),
    "chains": (f_chains, True),
    "stat": (f_stat, True),
}


def _compute(args) -> int:
    method = args.method
    fn, takes_abc = METHODS[method]
    if takes_abc:
        if args.abc is None:
            raise DomainError(f"--method {method} requires --abc a,b,c")
        p = _parse_abc(args.abc)
        vec, poly = (p.a, p.b, p.c), fn(p)
    else:
        if args.a is None:
            raise DomainError(f"--method {method} requires --a (for tesler, including a_1)")
        vec = _parse_vector(args.a)
        poly = fn(vec)
    print(RENDERERS[args.format](poly, vec), end="" if args.format == "csv" else "\n")
    return 0


def _parse_n_range(text: str) -> range:
    # a range, not a list, so that --n 2-10000000000 costs nothing before
    # check_sweep refuses its 6
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
        else:
            lo = hi = text
        lengths = range(int(lo), int(hi) + 1)
    except ValueError:
        raise DomainError(f"expected a length or a range like 2-4, got {text!r}")
    if not lengths:
        raise DomainError(f"the range {text!r} contains no lengths")
    return lengths


def _verify(args) -> int:
    lengths = _parse_n_range(args.n)
    for n in lengths:  # refuse the whole range before printing any report
        check_sweep(n, args.max)
    jobs = default_jobs() if args.jobs is None else args.jobs
    failures = 0
    for n in lengths:
        report = run_verify(n, args.max, jobs)
        print(report.to_text())
        failures += len(report.mismatches)
    return 0 if failures == 0 else 1


def _decompose_rows(chains: list[ChainRecord], p: ABCParams, area_stat: dict):
    for chain_id, ch in enumerate(chains, start=1):
        for role, part in (
            ("tail", ch.tail.partition()),
            ("pseudohead", ch.pseudohead.partition()),
            ("head", ch.head.partition()),
            ("quasihead", ch.quasihead.partition()),
        ):
            yield [chain_id, role, *part, p.total_weight - sum(part), ""]
        for member in ch.members:
            yield [chain_id, "member", *member, *area_stat[member]]


def _decompose(args) -> int:
    p = _parse_abc(args.abc)
    chains = decompose(p)
    area_stat = {m: (m_area, m_stat) for m, m_area, _, _, m_stat in _resolved(p)}
    if args.format == "csv":
        print(csv_text(["chain_id", "role", "x", "y", "z", "area", "stat"], _decompose_rows(chains, p, area_stat)), end="")
        return 0
    for chain_id, ch in enumerate(chains, start=1):
        r, R = ch.area_range
        print(
            f"chain {chain_id}: range [{r},{R}]  tail {ch.tail.partition()}  "
            f"pseudohead {ch.pseudohead.partition()}  head {ch.head.partition()}  "
            f"quasihead {ch.quasihead.partition()}"
        )
        for member in ch.members:
            mono = LaurentPoly.monomial(*area_stat[member])
            print(f"  {member}  {mono.to_text()}")
    return 0


def _scan_vectors(n: int, maxval: int, monotone: bool):
    if monotone:
        return combinations_with_replacement(range(maxval, -1, -1), n - 1)
    return product(range(maxval + 1), repeat=n - 1)


def _scan_worker(vec: tuple[int, ...]):
    return vec, {e: c for e, c in f_tableaux(vec).terms().items() if c < 0}


def _scan(args) -> int:
    check_sweep(args.n, args.max, "scan")
    monotone = not args.all
    vectors = list(_scan_vectors(args.n, args.max, monotone))
    results = parallel_map(_scan_worker, vectors, default_jobs())
    findings = [(vec, negatives) for vec, negatives in results if negatives]
    count = len(vectors)
    mode = "weakly decreasing" if monotone else "all"
    print(f"scanned {count} vectors (n={args.n}, entries <= {args.max}, {mode})")
    for vec, negatives in findings:
        print(f"negative coefficients at {vec}: {LaurentPoly(negatives).to_text()}")
    if not findings:
        print("no negative coefficients found")
    return 1 if (monotone and findings) else 0


def _rational(args) -> int:
    seq = slope_sequence(args.m, args.n)
    poly = f_tableaux(seq[1:])
    print(f"slope sequence: {seq}")
    print(poly.to_text())
    if math.gcd(args.m, args.n) == 1 and poly.has_negative_coefficient():
        print("error: negative coefficient in a coprime rational case", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtc",
        description="Exact q,t-polynomials of integer sequences, computed by "
        "tableau sums, Tesler matrices, recursions, and symmetric chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate F(a_2, ..., a_n) by one method")
    c.add_argument("--method", required=True, choices=METHODS)
    vector = c.add_mutually_exclusive_group()
    vector.add_argument(
        "--a",
        help="comma-separated vector; for tesler it includes a_1; "
        "a vector starting with a minus sign needs the = form, --a=-1,2",
    )
    vector.add_argument(
        "--abc",
        help="comma-separated triple for the n=4 methods; "
        "a triple starting with a minus sign needs the = form, --abc=-1,0,0",
    )
    c.add_argument("--format", default="text", choices=["text", "json", "latex", "csv"])
    c.set_defaults(fn=_compute)

    v = sub.add_parser("verify", help="run the cross-method identity suite")
    v.add_argument("--n", default="4", help="sequence length, or a range like 2-4")
    v.add_argument("--max", type=int, default=3, help="entry bound for the sweep (default %(default)s)")
    v.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default 1, env QTC_JOBS)"
    )
    v.set_defaults(fn=_verify)

    d = sub.add_parser("decompose", help="print the chain decomposition for (a, b, c)")
    d.add_argument("--abc", required=True)
    d.add_argument("--format", default="text", choices=["text", "csv"])
    d.set_defaults(fn=_decompose)

    s = sub.add_parser("scan", help="search vectors for negative coefficients")
    s.add_argument("--n", type=int, required=True, help="sequence length")
    s.add_argument("--max", type=int, required=True, help="entry bound")
    s.add_argument("--all", action="store_true", help="all vectors, not only weakly decreasing ones")
    s.set_defaults(fn=_scan)

    r = sub.add_parser("rational", help="the slope-sequence specialization")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.set_defaults(fn=_rational)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
        return code
    except BrokenPipeError:
        # Python's documented recipe: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DomainError, NotPolynomialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input needs a deeper recursion than Python allows", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

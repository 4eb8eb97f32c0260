"""Symmetric chain decomposition of the subpartition lattice for n = 4.

For parameters (a, b, c) in the validated region, the partitions contained
in the staircase (a+b+c, b+c, c) split into symmetric chains.  Four
equinumerous index families describe the chains:

  * tails      T^{EF} = (a+b+c-E, b+c-F, c), the largest member of a chain;
  * pseudoheads P_ij  = (i, i, j);
  * heads: negative pseudoheads together with pairs (k, l, 0) with
    a < l <= k < b+c, the smallest member of a chain;
  * quasiheads Q_st  = (s, s, t), the cleanest bookkeeping form.

Area-range preserving bijections connect them:

    psi:   tails       -> pseudoheads    (E,F) -> (E+F-eps, F+eps)
    theta: pseudoheads -> heads          (i,j) -> (i+j-delta, i+eps)
    phi / omega: heads -> quasiheads

A chain is the string of its pseudohead (three legs of partitions running
up to the tail) plus, for a positive pseudohead, the appendage hanging
below its head.  Within a chain the member areas fill the chain's area
range exactly once each, which yields two formulas:

    F(a,b,c) = sum over quasiheads of the symmetric chain
               [s + eps_st, A - 2s - t]
             = sum over subpartitions of q^area t^stat,

where area(lam) = A - |lam| and stat is the case-defined statistic below
(equivalently r + R - area within a chain with area range [r, R]).
One resolver, ``_resolve``, reads a member's case, the tail of its chain
and its stat in one pass; ``classify``, ``stat`` and ``locate_tail`` call it,
and ``_resolved(p)`` tables it once per staircase, one row (member, area,
E, F, stat) per subpartition, for ``f_stat`` and verify's chain check.

All ceilings here are mathematical ceilings: ceil(-1/2) = 0.  Truncating
division toward zero would corrupt every bijection.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import DomainError, canonical_partition, integer_entries
from .poly import LaurentPoly
from .record import ABCParams, Record

Partition3 = tuple[int, int, int]


def _ceil_half(x: int) -> int:
    """Ceiling of x/2, rounding toward +infinity for negative x."""
    return (x + 1) // 2


# ---------------------------------------------------------------------------
# Index families
# ---------------------------------------------------------------------------


def _eps(x: int, bc: int) -> int:
    """The excess eps = max(0, x - (b + c)) that the regions and bijections read."""
    return max(0, x - bc)


def _pseudohead_eps_delta(p: ABCParams, i: int, j: int) -> tuple[int, int]:
    """(eps, delta) of the pseudohead (i, i, j); the tail psi_inv(i, j) shares them."""
    eps = _eps(i + j, p.b + p.c)
    return eps, _ceil_half(i + eps - p.a)


def _is_quasihead(a: int, b: int, c: int, s: int, t: int) -> bool:
    return (
        0 <= t <= c
        and t <= s <= b + c
        and 2 * s + 2 * t <= a + b + 2 * c - (c - t) % 2
    )


def _is_tail(p: ABCParams, E: int, F: int) -> bool:
    eps = _eps(E + 2 * F, p.b + p.c)
    return (
        0 <= F <= p.c - eps
        and 2 * eps <= E <= F + p.a
        and 4 * E + 5 * F - 3 * eps <= p.a + 3 * p.b + 3 * p.c
    )


class TailIndex(Record):
    __slots__ = ("params", "E", "F")

    def partition(self) -> Partition3:
        p = self.params
        return (p.leg - self.E, p.b + p.c - self.F, p.c)

    def area_range(self) -> tuple[int, int]:
        p = self.params
        eps, delta = _pseudohead_eps_delta(p, *psi(p, self.E, self.F))
        return (
            self.E + self.F,
            p.total_weight - 2 * self.E - 3 * self.F + max(eps, delta),
        )

    def is_valid(self) -> bool:
        return _is_tail(self.params, self.E, self.F)


def _is_pseudohead(p: ABCParams, i: int, j: int) -> bool:
    return (
        0 <= j <= p.c
        and j <= i <= p.b + p.c
        and 4 * i + j <= p.a + 3 * p.b + 3 * p.c
        and i - 2 * j <= p.a
    )


class PseudoheadIndex(Record):
    __slots__ = ("params", "i", "j")

    @property
    def is_negative(self) -> bool:
        eps, delta = _pseudohead_eps_delta(self.params, self.i, self.j)
        return delta <= eps

    def partition(self) -> Partition3:
        return (self.i, self.i, self.j)

    def area_range(self) -> tuple[int, int]:
        p = self.params
        eps, delta = _pseudohead_eps_delta(p, self.i, self.j)
        return (
            self.i + eps,
            p.total_weight - 2 * self.i - self.j + max(0, delta - eps),
        )

    def is_valid(self) -> bool:
        return _is_pseudohead(self.params, self.i, self.j)


class PositiveHeadIndex(Record):
    __slots__ = ("params", "k", "l")

    def partition(self) -> Partition3:
        return (self.k, self.l, 0)

    def area_range(self) -> tuple[int, int]:
        p = self.params
        return (self.l, p.total_weight - self.k - self.l)

    def is_valid(self) -> bool:
        p = self.params
        return p.a < self.l <= self.k < p.b + p.c


HeadIndex = PseudoheadIndex | PositiveHeadIndex


class QuasiheadIndex(Record):
    __slots__ = ("params", "s", "t")

    def partition(self) -> Partition3:
        return (self.s, self.s, self.t)

    def area_range(self) -> tuple[int, int]:
        p = self.params
        return (self.s + _eps(self.s + self.t, p.b + p.c), p.total_weight - 2 * self.s - self.t)

    def is_valid(self) -> bool:
        p = self.params
        return _is_quasihead(p.a, p.b, p.c, self.s, self.t)


class ChainRecord(Record):
    """One chain: its four index forms, the members ordered by increasing
    area, and the common area range."""

    __slots__ = ("tail", "pseudohead", "head", "quasihead", "members", "area_range")


class CaseLabel(Enum):
    CASE_1A = "1a"
    CASE_1BI = "1bi"
    CASE_1BII = "1bii"
    CASE_2 = "2"


# ---------------------------------------------------------------------------
# Enumeration of the index sets
# ---------------------------------------------------------------------------


# Each family comes out in lexicographic order of its indices, and a record
# is built only for a candidate pair that the family's region accepts.
def enumerate_tails(p: ABCParams) -> list[TailIndex]:
    pairs = ((E, F) for E in range(p.a + p.c + 1) for F in range(max(0, E - p.a), p.c + 1))
    return [TailIndex(p, E, F) for E, F in pairs if _is_tail(p, E, F)]


def enumerate_pseudoheads(p: ABCParams) -> list[PseudoheadIndex]:
    pairs = ((i, j) for i in range(p.b + p.c + 1) for j in range(min(i, p.c) + 1))
    return [PseudoheadIndex(p, i, j) for i, j in pairs if _is_pseudohead(p, i, j)]


def enumerate_heads(p: ABCParams) -> list[HeadIndex]:
    """Negative pseudoheads followed by the positive (k, l) heads, which
    are exactly the pairs a < l <= k < b+c."""
    negatives = [ph for ph in enumerate_pseudoheads(p) if ph.is_negative]
    lows = range(p.a + 1, p.b + p.c)
    return negatives + [PositiveHeadIndex(p, k, l) for k in lows for l in range(p.a + 1, k + 1)]


def _quasiheads(a: int, b: int, c: int) -> Iterator[tuple[int, int, int, int]]:
    """Each quasihead (s, t) of the triple with its area range (s + eps_st, A - 2s - t).
    The triple is not checked against the region: the set is empty when c < 0."""
    for s in range(b + c + 1):
        for t in range(min(s, c) + 1):
            if _is_quasihead(a, b, c, s, t):
                yield s, t, s + _eps(s + t, b + c), a + 2 * b + 3 * c - 2 * s - t


def enumerate_quasiheads(p: ABCParams) -> list[QuasiheadIndex]:
    return [QuasiheadIndex(p, s, t) for s, t, _, _ in _quasiheads(p.a, p.b, p.c)]


# ---------------------------------------------------------------------------
# Bijections between the index sets
# ---------------------------------------------------------------------------


def psi(p: ABCParams, E: int, F: int) -> tuple[int, int]:
    """Tail index to pseudohead index."""
    eps = _eps(E + 2 * F, p.b + p.c)
    return (E + F - eps, F + eps)


def psi_inv(p: ABCParams, i: int, j: int) -> tuple[int, int]:
    eps = _eps(i + j, p.b + p.c)
    return (i - j + 2 * eps, j - eps)


def theta(p: ABCParams, i: int, j: int) -> tuple[int, int]:
    """Pseudohead index to positive-head index (used on positive ones)."""
    eps, delta = _pseudohead_eps_delta(p, i, j)
    return (i + j - delta, i + eps)


def theta_inv(p: ABCParams, k: int, l: int) -> tuple[int, int]:
    delta = _ceil_half(l - p.a)
    eps = _eps(k + delta, p.b + p.c)
    return (l - eps, k - l + eps + delta)


def phi(p: ABCParams, i: int, j: int) -> tuple[int, int]:
    """Negative pseudohead index to quasihead index (identity when
    2i + j <= a + b + c)."""
    w = max(0, _ceil_half(2 * i + j - p.leg))
    return (i + w, j - 2 * w)


def phi_inv(p: ABCParams, s: int, t: int) -> tuple[int, int]:
    w = max(0, _ceil_half(2 * s + t - p.leg))
    return (s - w, t + 2 * w)


def omega_map(k: int, l: int) -> tuple[int, int]:
    """Positive-head index to quasihead index."""
    return (l, k - l)


def omega_inv(s: int, t: int) -> tuple[int, int]:
    return (s + t, s)


# ---------------------------------------------------------------------------
# Strings, appendages, chains
# ---------------------------------------------------------------------------


def string_of(ph: PseudoheadIndex) -> list[Partition3]:
    """The three-leg path of partitions from the pseudohead (i, i, j) up to
    its tail (p, q, c), ordered by decreasing area."""
    params = ph.params
    i, j = ph.i, ph.j
    E, F = psi_inv(params, i, j)
    top, mid = params.leg - E, params.b + params.c - F
    leg1 = [(x, i, j) for x in range(i, top)]
    leg2 = [(top, y, j) for y in range(i, mid)]
    leg3 = [(top, mid, z) for z in range(j, params.c + 1)]
    return leg1 + leg2 + leg3


def appendage_of(head: PositiveHeadIndex) -> list[Partition3]:
    """The partitions (k, l, z) hanging below a positive head, for
    z < min(b+c-k, ceil((l-a)/2)); ordered by increasing z."""
    if not isinstance(head, PositiveHeadIndex):
        raise DomainError("appendage_of expects a positive head")
    p = head.params
    bound = min(p.b + p.c - head.k, _ceil_half(head.l - p.a))
    return [(head.k, head.l, z) for z in range(bound)]


def chain_of(tail: TailIndex) -> ChainRecord:
    """The chain of a tail: its string, plus the appendage when the
    pseudohead is positive.  Members are ordered by increasing area."""
    p = tail.params
    ph = PseudoheadIndex(p, *psi(p, tail.E, tail.F))
    members = list(reversed(string_of(ph)))
    if ph.is_negative:
        # phi is the identity when i + j <= b + c: delta <= eps = 0 gives i <= a, so 2i + j <= L
        head, quasi = ph, QuasiheadIndex(p, *phi(p, ph.i, ph.j))
    else:
        head = PositiveHeadIndex(p, *theta(p, ph.i, ph.j))
        quasi = QuasiheadIndex(p, *omega_map(head.k, head.l))
        members.extend(reversed(appendage_of(head)))
    return ChainRecord(tail, ph, head, quasi, tuple(members), tail.area_range())


def decompose(p: ABCParams) -> list[ChainRecord]:
    """All chains, ordered by area range: start ascending, end descending."""
    chains = [chain_of(t) for t in enumerate_tails(p)]
    chains.sort(key=lambda c: (c.area_range[0], -c.area_range[1], c.tail.E, c.tail.F))
    return chains


# ---------------------------------------------------------------------------
# Statistics and the resulting formulas
# ---------------------------------------------------------------------------


def _check_contained(p: ABCParams, lam: Sequence[int]) -> Partition3:
    if len(lam) > 3:
        raise DomainError(f"expected a partition with at most 3 parts, got {tuple(lam)}")
    x, y, z = lam = (*canonical_partition(lam), 0, 0, 0)[:3]
    ax, ay, az = p.ambient()
    if x > ax or y > ay or z > az:
        raise DomainError(f"{lam} is not contained in {p.ambient()}")
    return (x, y, z)


def area(p: ABCParams, lam: Sequence[int]) -> int:
    """area(lam) = |ambient staircase| - |lam|."""
    return p.total_weight - sum(_check_contained(p, lam))


def _resolve(p: ABCParams, x: int, y: int, z: int) -> tuple[CaseLabel, int, int, int]:
    """(case, E, F, stat) of a contained (x, y, z) in one pass: the case of
    the statistic's definition, the tail T^{EF} of its chain, and its stat.

    The case picks the chain, with L = a+b+c:

        1a   -> chain of pseudohead (y, z)
        1bi  -> chain of pseudohead (L+z-x, z)
        1bii -> chain of tail (L-x, b+c-y)
        2    -> chain of positive head (x, y)
    """
    a, bc = p.a, p.b + p.c
    L = a + bc
    if z < min(bc - x, _ceil_half(y - a)):
        return (CaseLabel.CASE_2, *psi_inv(p, *theta_inv(p, x, y)), y + z)
    eps_yz = _eps(y + z, bc)
    if x + y - z + 2 * eps_yz < L:
        s = x + max(eps_yz, _ceil_half(y - a), _ceil_half(2 * y + z - L))
        return (CaseLabel.CASE_1A, *psi_inv(p, y, z), s)
    if y + z < bc:
        s = -L + 2 * x + y - z + max(0, _ceil_half(L + z - x - a))
        return (CaseLabel.CASE_1BI, *psi_inv(p, L + z - x, z), s)
    s = 2 * x + 3 * y + z - a - 3 * bc + max(0, _ceil_half(2 * bc - x - y), a + 2 * bc - x - 2 * y)
    return (CaseLabel.CASE_1BII, L - x, bc - y, s)


def classify(p: ABCParams, lam: Sequence[int]) -> CaseLabel:
    """The case of the statistic's definition that lam falls into."""
    return _resolve(p, *_check_contained(p, lam))[0]


def stat(p: ABCParams, lam: Sequence[int]) -> int:
    """The t-statistic making sum(q^area t^stat) equal F(a, b, c).

    Within a chain of area range [r, R] it equals r + R - area(lam).
    """
    return _resolve(p, *_check_contained(p, lam))[3]


def locate_tail(p: ABCParams, lam: Sequence[int]) -> TailIndex:
    """The tail of the chain containing lam, resolved from its case."""
    _, E, F, _ = _resolve(p, *_check_contained(p, lam))
    return TailIndex(p, E, F)


def locate(p: ABCParams, lam: Sequence[int]) -> ChainRecord:
    """The chain containing lam: the chain of ``locate_tail(p, lam)``."""
    return chain_of(locate_tail(p, lam))


def subpartitions3(p: ABCParams) -> list[Partition3]:
    """All triples (x, y, z) contained in the ambient staircase."""
    ax, ay, az = p.ambient()
    return [
        (x, y, z)
        for x in range(ax + 1)
        for y in range(min(x, ay) + 1)
        for z in range(min(y, az) + 1)
    ]


@lru_cache(maxsize=2)  # verify checks one triple at a time, twice
def f_chains(p: ABCParams) -> LaurentPoly:
    """F(a, b, c) as a sum of symmetric chains over the quasiheads: the
    chain [k, l] contributes q^(l-i) t^(k+i) for 0 <= i <= l-k."""
    counts = Counter()
    for _, _, k, l in _quasiheads(p.a, p.b, p.c):
        counts.update((l - i, k + i) for i in range(l - k + 1))
    return LaurentPoly._from_dict(dict(counts))


@lru_cache(maxsize=2)
def _resolved(p: ABCParams) -> tuple:
    """One row (member, area, E, F, stat) per subpartition, in ``subpartitions3`` order."""
    # subpartitions3 lists contained partitions only, so none is checked again
    A = p.total_weight
    return tuple((m, A - sum(m), *_resolve(p, *m)[1:]) for m in subpartitions3(p))


def f_stat(p: ABCParams) -> LaurentPoly:
    """F(a, b, c) as sum over subpartitions of q^area t^stat."""
    return LaurentPoly._from_dict(dict(Counter((row[1], row[4]) for row in _resolved(p))))


def h_comb_poly(a: int, b: int, c: int) -> LaurentPoly:
    """The quasihead monomial sum: q^(A-2s-t) t^(s+eps_st) over the raw
    index set, without region validation, repeated monomials added.  Empty
    (zero) when c < 0.

    This is not the head-like tableau sum H in general, but combining it
    with its variable swap reproduces F.
    """
    a, b, c = integer_entries((a, b, c))
    return LaurentPoly(((hi, lo), 1) for _, _, lo, hi in _quasiheads(a, b, c))

"""Standard Young tableaux, their weights, and the F and H sums.

Conventions: rows are indexed from the bottom starting at 0, columns from
the left starting at 0, so the cell in row r, column c carries the content
monomial q^c t^r.  A tableau is stored as its growth sequence: the list of
cells in insertion order.  The content vector z lists the contents in that
order, so z[0] = (0, 0) always.

F(a_2, ..., a_n) sums z_2^{a_2} ... z_n^{a_n} * wt(T) over all standard
tableaux of size n, where

    wt(T) = prod_{i=2..n} 1 / ((1 - z_i^-1) (1 - qt z_{i-1}/z_i))
            * prod_{i<j} (1 - z_i/z_j)(1 - qt z_i/z_j)
                       / ((1 - q z_i/z_j)(1 - t z_i/z_j)),

with the convention that any individual factor equal to (1 - q^0 t^0) is
simply dropped, in numerator and denominator independently.  H restricts
the sum to head-like tableaux (z_2 = q) with the reduced weight
(1 - t/q) * wt(T).

Transposing T swaps q and t in z(T), so in z(T)^a and in wt(T).  The cell
labeled 2 lies at (0, 1) in exactly one of T and its transpose T', so the
head-like tableaux hold one member of every conjugate pair (no tableau of
size >= 2 is its own transpose), and F is the head-like half of its sum,
H / (1 - t/q), plus that half with q and t swapped.  With x = t/q,
1 / (1 - q/t) = -x / (1 - x), so F = (H - x H(t,q)) / (1 - x): F is H and
one exact division (``combine_h_to_f``).

H puts every weight over one common denominator D per size n, reduced up
to units: (1 - x^v) and its associate (1 - x^-v) = -x^-v (1 - x^v) count as
one factor, so D holds the forward one of each class (``_representative``),
at its largest multiplicity over the head-like tableaux, 19 factors at
n = 6 (36 with the two counted apart).  A tableau's own factors that are not
representatives give its row a sign and a unit monomial q^i t^j.  A plan,
built once per size, keeps only small integer data, per head-like tableau:
that unit monomial and the q- and t-columns of the content tail z[1:], so
a row's monomial is two dot products; and the product tree
(``rational.ProductTree``) of their signed factor lists, each list the
numerator factors of T's reduced weight plus its cofactor D / den'(T),
den'(T) its denominator in representatives.  Almost every factor of D is in
all rows but one, so the tree multiplies by most of them once for many
rows: at n = 6, the 38 rows take 189 shifts per vector, where each row
multiplied out on its own would take 570.  A vector then costs one
evaluation of the tree at its monomials and one division of that packed
sum by D, run on the quotient's window of the box, with no unpacking in
between (``rational.divide_sum_of_products``).  Both run at the width of
the plan's proved bound on the sum's coefficients (``ROW_NORM_BOUNDS``):
16 bits at n = 6, where the bound that holds for any 38 rows of up to 15
binomials, 38 * 2^15, would take 24.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import DomainError, integer_entries
from .poly import ExponentPair, LaurentPoly, ONE
from .rational import (
    ProductTree,
    divide_sum_of_products,
    exact_divide,
    forward,
)
from .record import Record


class StandardTableau(Record):
    """A standard Young tableau given by its growth sequence.

    cells[k] = (row, col) of the cell labeled k+1; rows count from the
    bottom.  The sequence must start at (0, 0) and every prefix must be a
    valid Young diagram grown one corner at a time.
    """

    __slots__ = ("cells",)

    def _check(self):
        # the canonical tuple, which hashes and compares as enumerate_syt's
        object.__setattr__(self, "cells", tuple(map(integer_entries, self.cells)))
        rows: list[int] = []  # rows[r]: the cells in row r so far
        for r, c in self.cells:
            # the cell ends row r, or opens a row on top, and leaves row r no longer than row r - 1
            if not 0 <= r <= len(rows) or c != (rows + [0])[r] or (r and rows[r - 1] <= c):
                raise DomainError(f"not a growth sequence: {self.cells}")
            rows[r : r + 1] = [c + 1]

    @property
    def n(self) -> int:
        return len(self.cells)

    def contents(self) -> tuple[ExponentPair, ...]:
        """The content exponent vector z(T): cell (r, c) gives (c, r)."""
        return tuple((c, r) for r, c in self.cells)

    def is_head_like(self) -> bool:
        """True iff the cell labeled 2 has content q."""
        return self.n >= 2 and self.cells[1] == (0, 1)


def enumerate_syt(n: int) -> list[StandardTableau]:
    """All standard Young tableaux of size n, in lexicographic order of
    their growth sequences."""
    (n,) = integer_entries((n,))
    if n < 1:
        raise DomainError(f"enumerate_syt requires n >= 1, got {n}")
    if n > MAX_TABLEAU_SIZE:
        raise DomainError(
            f"enumerate_syt is limited to n <= {MAX_TABLEAU_SIZE} "
            f"(tableau count and weight cost grow too fast), got {n}"
        )
    out: list[StandardTableau] = []

    def grow(cells: tuple[tuple[int, int], ...], rows: tuple[int, ...]):
        if len(cells) == n:
            out.append(StandardTableau(cells))
            return
        for r, c in enumerate(rows + (0,)):
            if r == 0 or rows[r - 1] > c:
                grow(cells + ((r, c),), rows[:r] + (c + 1,) + rows[r + 1 :])

    grow(((0, 0),), (1,))
    return out


def _add_factor(bag: Counter, alpha: int, beta: int) -> None:
    # the vanishing factor (1 - q^0 t^0) is dropped by convention
    if alpha or beta:
        bag[(alpha, beta)] += 1


def _add_cross_factor(num: Counter, den: Counter, alpha: int, beta: int) -> None:
    # (1-x)(1-qtx) / ((1-qx)(1-tx)) at x = q^alpha t^beta
    _add_factor(num, alpha, beta)
    _add_factor(num, alpha + 1, beta + 1)
    _add_factor(den, alpha + 1, beta)
    _add_factor(den, alpha, beta + 1)


def _weight_factors(z: Sequence[ExponentPair], reduced: bool) -> tuple[Counter, Counter]:
    """The numerator and denominator factors (alpha, beta) of wt (or of the
    reduced weight (1 - t/q) wt) at the content vector z, as multisets, with
    vanishing factors dropped and exactly matching factors cancelled."""
    num: Counter = Counter()
    den: Counter = Counter()
    n = len(z)
    for i in range(1, n):
        qa, ta = z[i]
        _add_factor(den, -qa, -ta)  # (1 - z_i^-1)
        qp, tp = z[i - 1]
        _add_factor(den, qp - qa + 1, tp - ta + 1)  # (1 - qt z_{i-1}/z_i)
    for i in range(n):
        for j in range(i + 1, n):
            _add_cross_factor(num, den, z[i][0] - z[j][0], z[i][1] - z[j][1])
    if reduced:
        _add_factor(num, -1, 1)  # multiply by (1 - t/q)
    common = num & den
    return num - common, den - common


def _representative(alpha: int, beta: int) -> ExponentPair:
    """The factor a plan's denominator holds for (1 - q^alpha t^beta): of it
    and its associate (1 - q^-alpha t^-beta) = -q^-alpha t^-beta (1 - q^alpha
    t^beta), the one that points forward (``rational.forward``)."""
    return (alpha, beta) if forward(alpha, beta) else (-alpha, -beta)


def _represented(den: Counter) -> tuple[int, ExponentPair, Counter]:
    """(sign, (i, j), den'): 1 / prod over den equals sign q^i t^j / prod
    over den', den' the representatives of den's factors.  A factor v that
    points backward gives 1 / (1 - x^v) = -x^-v / (1 - x^-v)."""
    sign, i, j = 1, 0, 0
    out: Counter = Counter()
    for (alpha, beta), m in den.items():
        rep = _representative(alpha, beta)
        out[rep] += m
        if rep != (alpha, beta):
            sign, i, j = sign * (-1) ** m, i + m * rep[0], j + m * rep[1]
    return sign, (i, j), out


#: B_n, the sum over the rows of H's plan at size n of ||P_r||_inf, P_r the
#: product of row r's factors: a row's monomial and sign keep its norm, so no
#: coefficient of any vector's packed sum exceeds B_n, and the plan's kernel
#: runs at fit_width(B_n) bits, 16 at n = 6 where the bound rows * 2^max_m,
#: which holds for any rows, takes 24.  Expanding the rows takes 1.5, 3.5
#: and 10 times as long as building the plan at n = 6, 7 and 8, so the sums
#: are pinned here, and a test rebuilds them from the rows.
ROW_NORM_BOUNDS = {2: 1, 3: 2, 4: 7, 5: 34, 6: 1455, 7: 156051, 8: 115877164}

#: Exhaustive sums over tableaux are kept to sizes where they stay cheap:
#: those whose B_n is pinned, so the cap rises with the table.
MAX_TABLEAU_SIZE = max(ROW_NORM_BOUNDS)


@lru_cache(maxsize=None)
def _plan(n: int) -> tuple[tuple, ProductTree, tuple[ExponentPair, ...]]:
    """H's sum over the head-like tableaux of size n as small integer data:
    per row, its unit monomial q^i t^j and the q- and t-columns zq, zt of
    its content tail z[1:], as (i, zq, j, zt); the product tree of the rows,
    each its unit sign, the numerator factors of its reduced weight and its
    cofactor D / den'_T (``_represented``), with B_n as the bound on its
    sum; and D, each representative at its largest multiplicity over these
    tableaux."""
    rows = []
    common: Counter = Counter()
    for tab in enumerate_syt(n):
        if not tab.is_head_like():
            continue
        z = tab.contents()
        num, den = _weight_factors(z, reduced=True)
        sign, (i, j), den = _represented(den)
        zq, zt = zip(*z[1:])
        rows.append(((i, zq, j, zt), sign, num, den))
        common |= den
    columns, signs, nums, dens = zip(*rows)
    factor_lists = ((num + (common - den)).elements() for num, den in zip(nums, dens))
    return columns, ProductTree(factor_lists, signs, ROW_NORM_BOUNDS[n]), tuple(common.elements())


def _row_exponents(a: tuple[int, ...], columns: tuple) -> list[ExponentPair]:
    """The monomial of each row, z_2^{a_2} ... z_n^{a_n} times its unit
    q^i t^j, as (e, f)."""
    return [(i + sum(map(mul, a, zq)), j + sum(map(mul, a, zt))) for i, zq, j, zt in columns]


def f_tableaux(a: Sequence[int]) -> LaurentPoly:
    """F(a_2, ..., a_n) as the exact sum over all standard tableaux of
    size n = len(a) + 1: the head-like half, H, and its q,t swap, rebuilt
    into F by one exact division (``combine_h_to_f``).  Defined for
    arbitrary integer entries; the sum always reduces to a Laurent
    polynomial."""
    a = integer_entries(a)
    if not a:
        return ONE  # n = 1: a single one-box tableau with empty products
    return combine_h_to_f(h_tableaux(a))


def h_tableaux(a: Sequence[int]) -> LaurentPoly:
    """H(a_2, ..., a_n): the reduced-weight sum over head-like tableaux."""
    a = integer_entries(a)
    if not a:
        raise DomainError("h_tableaux requires at least one entry (tableaux of size >= 2)")
    if len(a) >= MAX_TABLEAU_SIZE:
        raise DomainError(
            f"tableau sums are limited to vectors of length <= {MAX_TABLEAU_SIZE - 1}, got {len(a)}"
        )
    columns, tree, common = _plan(len(a) + 1)
    return divide_sum_of_products(_row_exponents(a, columns), tree, common)


def combine_h_to_f(h: LaurentPoly) -> LaurentPoly:
    """Rebuild F from H via F = H(q,t)/(1 - t/q) + H(t,q)/(1 - q/t).

    With x = t/q, 1/(1 - q/t) = -x/(1 - x), so F = (H - x H(t,q)) / (1 - x):
    one exact division by (1 - q^-1 t).  Swapping the variables of a
    polynomial transposes every exponent pair.
    """
    return exact_divide(h - LaurentPoly.monomial(-1, 1) * h.swap_qt(), (-1, 1))

"""Reference engines that the tests check the package's routes against.

Each oracle here computes one object of the paper one piece at a time, as
the paper defines it, where a route sums it whole.  None of them is a route:
no command of the package runs one, and none names the summing engine it is
checked against (``tests/test_route_independence.py``).

- The Tesler matrices with given hook sums, listed one by one
  (``enumerate_tesler``, built by ``_tesler_rows``), each with its weight
  prod B(m_{i,i+1}) prod A(m_ij) (``TeslerMatrix.weight``), from the series
  coefficients A and B (``coeff_A``, ``coeff_B``); their weights sum to F,
  which ``tesler.f_tesler`` sums as one packed column walk.  At t = 1 the
  two-diagonal matrices pair with the subdiagrams of the staircase
  (``two_diagonal_subdiagrams``, ``subpartitions``).
- The weight of one standard tableau as a ``FactoredRational``
  (``tableau_weight``, ``reduced_tableau_weight``, ``omega_at``); times
  their content monomials, the weights sum to F and H, which
  ``tableaux.f_tableaux`` and ``h_tableaux`` sum through one product tree
  per size.
- The symmetric chains q^l t^k + ... + q^k t^l (``sym_chain``) that the
  chain decomposition's F is a sum of, and the premise under which H's
  nonnegativity carries over to F (``positivity_premise_check``).
- A polynomial's terms packed on a box one digit at a time (``encode``),
  the inverse of ``PackedBox.decode``, where the routes pack whole sums.

The oracles share the routes' input checks, factor lists and digit bias
(``tesler._check_hook_vector``, ``tesler._key``, ``tableaux._weight_factors``,
``tableaux._add_cross_factor``, ``rational._zero_digit``, ``rational._bias_of``)
rather than copy them.
"""

from __future__ import annotations

from collections import Counter
from operator import add, itemgetter
from typing import Iterator, Sequence

from qtcatalan.errors import DomainError, canonical_partition, integer_entries
from qtcatalan.poly import ExponentPair, LaurentPoly, ONE, Q, T, bracket
from qtcatalan.rational import FactoredRational, PackedBox, _bias_of, _zero_digit, product_of_factors
from qtcatalan.record import Record
from qtcatalan.tableaux import StandardTableau, _add_cross_factor, _weight_factors
from qtcatalan.tesler import _check_hook_vector, _key, lambda_partition


# -- series coefficients and symmetric chains ----------------------------------

def sym_chain(k: int, l: int) -> LaurentPoly:
    """The symmetric chain q^l t^k + q^(l-1) t^(k+1) + ... + q^k t^l.

    Homogeneous of degree k + l with l - k + 1 unit coefficients, invariant
    under exchanging q and t.  Requires k <= l.
    """
    k, l = integer_entries((k, l))
    if k > l:
        raise DomainError(f"sym_chain requires k <= l, got ({k}, {l})")
    return LaurentPoly({(l - i, k + i): 1 for i in range(l - k + 1)})


def coeff_A(m: int) -> LaurentPoly:
    """Coefficient of z^m in (1-z)(1-qtz) / ((1-qz)(1-tz)).

    A(0) = 1 and A(m) = -(1-q)(1-t) * bracket(m) for m >= 1.
    """
    (m,) = integer_entries((m,))
    if m < 0:
        raise DomainError(f"coeff_A requires m >= 0, got {m}")
    if m == 0:
        return ONE
    one_minus_q = ONE - Q
    one_minus_t = ONE - T
    return -(one_minus_q * one_minus_t * bracket(m))


def coeff_B(m: int) -> LaurentPoly:
    """Coefficient of z^m in (1-z) / ((1-qz)(1-tz)): bracket(m+1) - bracket(m)."""
    (m,) = integer_entries((m,))
    if m < 0:
        raise DomainError(f"coeff_B requires m >= 0, got {m}")
    return bracket(m + 1) - bracket(m)


# -- Tesler matrices, one by one ----------------------------------------------

def subpartitions(lam: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All partitions contained in lam, trailing zeros stripped."""
    lam = canonical_partition(lam)

    def rec(i: int, cap: int, prefix: tuple[int, ...]):
        yield prefix  # with rows i, i + 1, ... all zero
        if i < len(lam):
            for part in range(1, min(cap, lam[i]) + 1):
                yield from rec(i + 1, part, prefix + (part,))

    yield from rec(0, lam[0] if lam else 0, ())


class TeslerMatrix(Record):
    """An upper-triangular matrix with prescribed hook sums.

    rows[i] holds (m_ii, m_{i,i+1}, ..., m_{i,n-1}); indices are 0-based.
    """

    __slots__ = ("hook_sums", "rows")

    def _check(self):
        # the canonical tuples, which hash and compare as enumerate_tesler's
        object.__setattr__(self, "hook_sums", _check_hook_vector(self.hook_sums))
        object.__setattr__(self, "rows", tuple(map(integer_entries, self.rows)))
        n = len(self.hook_sums)
        if len(self.rows) != n or any(len(row) != n - i for i, row in enumerate(self.rows)):
            raise DomainError("rows must form an upper-triangular array")
        if any(v < 0 for row in self.rows for v in row):
            raise DomainError("Tesler matrix entries must be nonnegative")
        for i in range(n):
            if self.hook_sum(i) != self.hook_sums[i]:
                raise DomainError(
                    f"hook sum {i} is {self.hook_sum(i)}, expected {self.hook_sums[i]}"
                )

    @classmethod
    def _built_valid(cls, hook_sums: tuple[int, ...], rows: tuple[tuple[int, ...], ...]):
        # for rows built valid (``_tesler_rows``): skips the checks above
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "hook_sums", hook_sums)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    @property
    def n(self) -> int:
        return len(self.hook_sums)

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i <= j < self.n:
            raise IndexError(f"({i}, {j}) is not an upper-triangular index")
        return self.rows[i][j - i]

    def hook_sum(self, i: int) -> int:
        above = sum(self.rows[j][i - j] for j in range(i))
        right = sum(self.rows[i][1:])
        return self.rows[i][0] + above - right

    def off_diagonal_vector(self) -> tuple[int, ...]:
        """Entries m_ij (i < j) flattened column by column."""
        return tuple(
            self.rows[i][j - i] for j in range(1, self.n) for i in range(j)
        )

    def is_two_diagonal(self) -> bool:
        return all(v == 0 for row in self.rows for v in row[2:])

    def weight(self) -> LaurentPoly:
        """prod_i B(m_{i,i+1}) * prod_{j>i+1} A(m_ij)."""
        w = ONE
        for i, row in enumerate(self.rows):
            for off, v in enumerate(row[1:], start=1):
                if v:
                    w = w * (coeff_B(v) if off == 1 else coeff_A(v))
        return w


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every weak composition of total into parts entries."""
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in _compositions(total - v, parts - 1):
            yield (v,) + rest


def _tesler_rows(a: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every Tesler matrix with hook sums a, ordered
    lexicographically by the flattened off-diagonal vector.

    The matrices are built by the walk's recursion: their last column is a
    weak composition of a_n, and the rest is a Tesler matrix with hook
    sums a_i + m_in, which are nonnegative, so every column completes.  A
    matrix is held as its columns (m_1k, ..., m_kk) one after another, so
    that a column is appended in one step; the hook vectors met within one
    call share their lists.  A zero a_n forces a zero last column, so the
    trailing zeros are stripped first (``_key`` finds the last nonzero
    entry), and a long zero tail does not deepen the recursion; their zero
    columns are appended at the end.  The off-diagonal vector determines
    the diagonal, so one sort on it orders the matrices with no ties.
    """
    n, k = len(a), len(_key(a))
    memo = {}

    def columns(b: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(b) == 1:
            return [b]
        if b not in memo:
            # map stops at the end of b[:-1]: m_kk adds to no hook sum
            memo[b] = [
                flat + column
                for column in _compositions(b[-1], len(b))
                for flat in columns(tuple(map(add, b[:-1], column)))
            ]
        return memo[b]

    flats = columns(a[:k])
    memo.clear()  # flats holds tuples of its own
    # m_rc (0-based) sits at index c (c + 1) / 2 + r of a flat
    if k > 1:
        flats.sort(key=itemgetter(*(c * (c + 1) // 2 + r for c in range(1, k) for r in range(c))))
    pad = (0,) * ((n * (n + 1) - k * (k + 1)) // 2)
    rows = [itemgetter(*(c * (c + 1) // 2 + r for c in range(r, n))) for r in range(n - 1)]
    return [
        tuple([row(flat) for row in rows]) + ((flat[-1],),)
        for flat in (flat + pad for flat in flats)
    ]


def enumerate_tesler(a: Sequence[int]) -> list[TeslerMatrix]:
    """Every Tesler matrix with hook sums a, ordered lexicographically by
    the flattened off-diagonal vector."""
    a = _check_hook_vector(a)
    return [TeslerMatrix._built_valid(a, rows) for rows in _tesler_rows(a)]


def two_diagonal_subdiagrams(a: Sequence[int]) -> list[tuple[TeslerMatrix, tuple[int, ...]]]:
    """Each two-diagonal Tesler matrix paired with its subdiagram of
    lambda(a_2, ..., a_n): the partition of diagonal suffix sums
    (m_22+...+m_nn, m_33+...+m_nn, ...).  The pairing is a bijection onto
    all subdiagrams."""
    return [
        (m, lambda_partition([row[0] for row in m.rows[1:]]))
        for m in enumerate_tesler(a)
        if m.is_two_diagonal()
    ]


# -- tableau weights, one tableau at a time ------------------------------------

def _factored(num: Counter, den: Counter) -> FactoredRational:
    return FactoredRational(product_of_factors(num.elements()), den.elements())


def omega_at(x: ExponentPair) -> FactoredRational:
    """The cross factor (1-x)(1-qtx) / ((1-qx)(1-tx)) at the monomial
    x = q^alpha t^beta, with vanishing factors dropped."""
    num: Counter = Counter()
    den: Counter = Counter()
    _add_cross_factor(num, den, *x)
    return _factored(num, den)


def tableau_weight(tab: StandardTableau) -> FactoredRational:
    """wt(T), with common binomial factors cancelled exactly."""
    return _factored(*_weight_factors(tab.contents(), reduced=False))


def reduced_tableau_weight(tab: StandardTableau) -> FactoredRational:
    """(1 - t/q) * wt(T), the head-like reduced weight."""
    return _factored(*_weight_factors(tab.contents(), reduced=True))


def positivity_premise_check(h: LaurentPoly) -> bool:
    """True iff every term has a nonnegative coefficient and q-degree >=
    t-degree.  When this holds for H, the combined F is coefficientwise
    nonnegative."""
    return all(c >= 0 and qe >= te for (qe, te), c in h.terms().items())


# -- packing by digits ---------------------------------------------------------

def encode(box: PackedBox, terms: dict[ExponentPair, int], width: int) -> int:
    """terms packed on box at width bits per slot, one balanced digit each,
    written byte by byte: the inverse of ``PackedBox.decode``."""
    nbytes = width // 8
    half = 1 << (width - 1)
    raw = bytearray(_zero_digit(nbytes) * box.slots)
    for (e, f), coeff in terms.items():
        i = box.slot(e, f) * nbytes
        raw[i : i + nbytes] = (coeff + half).to_bytes(nbytes, "little")
    return int.from_bytes(raw, "little") - _bias_of(box.slots, nbytes, 0)

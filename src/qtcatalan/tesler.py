"""Tesler matrices and the division-free evaluation of F.

A Tesler matrix for hook sums (a_1, ..., a_n) is an upper-triangular
matrix of nonnegative integers whose i-th hook sum

    m_ii + sum_{j<i} m_ji - sum_{j>i} m_ij

equals a_i.  Summing the weight prod_i B(m_{i,i+1}) * prod_{j>i+1} A(m_ij)
over all Tesler matrices gives F(a_2, ..., a_n) without a single division,
which also proves F is a polynomial.  At t = 1 only the two-diagonal
matrices survive, and those biject with subdiagrams of the staircase
partition lambda(a) = (a_2+...+a_n, a_3+...+a_n, ..., a_n).

Both the enumeration and the weight sum peel off the last column, the
transpose of Haglund's Tesler recursion.  Row n has nothing to its right,
so (m_1n, ..., m_{n-1,n}, m_nn) is a weak composition of a_n.  Removing
the column leaves a Tesler matrix with hook sums
a' = (a_1 + m_1n, ..., a_{n-1} + m_{n-1,n}), so the weight sum W over the
matrices with hook sums a satisfies

    W(a) = sum over last columns of
           B(m_{n-1,n}) * prod_{i<n-1} A(m_in) * W(a'),

with W(a_1) = 1.  Different columns lead to shared subproblems, so W is
cached on the hook vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import DomainError
from .poly import LaurentPoly, ONE, ZERO, coeff_A, coeff_B
from .tableaux import canonical_partition


def lambda_partition(a_tail: Sequence[int]) -> tuple[int, ...]:
    """The staircase partition of suffix sums of (a_2, ..., a_n)."""
    tail = list(a_tail)
    if any(x < 0 for x in tail):
        raise DomainError(f"lambda_partition requires nonnegative entries, got {tail}")
    out = []
    total = sum(tail)
    for x in tail:
        out.append(total)
        total -= x
    return canonical_partition(out)


def subpartitions(lam: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All partitions contained in lam, trailing zeros stripped."""
    lam = canonical_partition(lam)

    def rec(i: int, cap: int, prefix: list[int]):
        if i == len(lam):
            yield canonical_partition(prefix)
            return
        for part in range(min(cap, lam[i]) + 1):
            prefix.append(part)
            yield from rec(i + 1, part, prefix)
            prefix.pop()

    yield from rec(0, lam[0] if lam else 0, [])


def subdiagram_area_gf(lam: Sequence[int]) -> LaurentPoly:
    """Sum of q^(|lam| - |mu|) over all subpartitions mu of lam."""
    size = sum(canonical_partition(lam))
    return LaurentPoly(((size - sum(mu), 0), 1) for mu in subpartitions(lam))


@dataclass(frozen=True)
class TeslerMatrix:
    """An upper-triangular matrix with prescribed hook sums.

    rows[i] holds (m_ii, m_{i,i+1}, ..., m_{i,n-1}); indices are 0-based.
    """

    hook_sums: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.hook_sums)
        if len(self.rows) != n or any(len(row) != n - i for i, row in enumerate(self.rows)):
            raise DomainError("rows must form an upper-triangular array")
        for row in self.rows:
            if any(v < 0 for v in row):
                raise DomainError("Tesler matrix entries must be nonnegative")
        for i in range(n):
            if self.hook_sum(i) != self.hook_sums[i]:
                raise DomainError(
                    f"hook sum {i} is {self.hook_sum(i)}, expected {self.hook_sums[i]}"
                )

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


def _check_hook_vector(a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(int(x) for x in a)
    if not a:
        raise DomainError("hook-sum vector must be nonempty")
    if any(x < 0 for x in a):
        raise DomainError(f"hook sums must be nonnegative, got {a}")
    return a


def _last_columns(a: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every possible last column of a Tesler matrix with hook sums a.

    Yields (off, smaller): off = (m_1n, ..., m_{n-1,n}) is the off-diagonal
    part of the column and smaller = (a_1 + m_1n, ..., a_{n-1} + m_{n-1,n})
    are the hook sums of the matrix left once the column is removed.  The
    diagonal entry m_nn = a_n - sum(off) is left implicit.
    """
    *rest, last = a

    def fill(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == len(rest):
            yield ()
            return
        for v in range(left + 1):
            for tail in fill(i + 1, left - v):
                yield (v,) + tail

    for off in fill(0, last):
        yield off, tuple(x + v for x, v in zip(rest, off))


def _tesler_rows(a: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every Tesler matrix with hook sums a, in no set order."""
    if len(a) == 1:
        yield ((a[0],),)
        return
    for off, smaller in _last_columns(a):
        last_row = ((a[-1] - sum(off),),)
        for rows in _tesler_rows(smaller):
            yield tuple(row + (v,) for row, v in zip(rows, off)) + last_row


def enumerate_tesler(a: Sequence[int]) -> list[TeslerMatrix]:
    """Every Tesler matrix with hook sums a, ordered lexicographically by
    the flattened off-diagonal vector."""
    a = _check_hook_vector(a)
    matrices = [TeslerMatrix(a, rows) for rows in _tesler_rows(a)]
    matrices.sort(key=TeslerMatrix.off_diagonal_vector)
    return matrices


@lru_cache(maxsize=None)
def _weight_sum(a: tuple[int, ...]) -> LaurentPoly:
    """W(a) of the module docstring, one last column at a time."""
    if len(a) == 1:
        return ONE
    total = ZERO
    for off, smaller in _last_columns(a):
        term = _weight_sum(smaller)
        for i, v in enumerate(off):
            if v:
                term = term * (coeff_B(v) if i == len(off) - 1 else coeff_A(v))
        total = total + term
    return total


def f_tesler(a: Sequence[int]) -> LaurentPoly:
    """F(a_2, ..., a_n) as the weight sum over Tesler matrices with hook
    sums (a_1, ..., a_n).  The first entry changes the matrix set but not
    the value.  No division occurs."""
    return _weight_sum(_check_hook_vector(a))


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

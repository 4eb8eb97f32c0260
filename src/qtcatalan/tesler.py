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

Column sums by recurrence.  With v_i = m_in, the sum over last columns
nests one coordinate at a time:

    W(a) = sum_{v_{n-1}} B(v_{n-1}) sum_{v_{n-2}} A(v_{n-2}) ...
           sum_{v_1} A(v_1) W(a_1 + v_1, ..., a_{n-1} + v_{n-1}),

with v_1 + ... + v_{n-1} <= a_n.  The generating functions of A and B
have the denominator (1 - qz)(1 - tz), so each inner sum of c(v) g(v)
over v = 0..K is one backward pass: U_v = g(v) + t U_{v+1} and
R_v = U_v + q R_{v+1}, from U_{K+1} = R_{K+1} = 0, give
R_v = sum_{u >= v} [u - v + 1] g(u), the three-term recurrence
R_v = g(v) + (q + t) R_{v+1} - qt R_{v+2} run as its two factors.  Since
B(v) = [v + 1] - [v] and A(v) = -(1 - q)(1 - t) [v] for v >= 1,

    sum B(v) g(v) = R_0 - R_1,    sum A(v) g(v) = g(0) - (1 - q)(1 - t) R_1.

Packed layout.  The sum runs on one integer per hook vector: the
substitution q -> X^S, t -> X at X = 2^w, under which multiplying by q or
t is a shift by S*w or w bits (Kronecker substitution, as in
``rational.PackedBox``, which decodes the result).  The substitution is a
ring map, so every intermediate is exact; only the result must fit its
slots, which two bounds with proofs guarantee:

- Stride.  Summing (i - 1) times the i-th hook sum over the rows gives
  sum_i (i - 1) a_i = sum_i (i - 1) m_ii + sum_{r<c} (c - r) m_rc
  >= sum_{r<c} m_rc (1-indexed).  A(v) and B(v) have q- and t-degree v, so
  D(a) = sum_i (i - 1) a_i bounds both degrees of F, and S is the
  smallest power of two above D: F lies on a (D + 1) x S box of slots.
- Width.  N(a) = sum over last columns of prod ||coeff||_1 * N(a'), with
  ||A(v)||_1 <= 4v and ||B(v)||_1 <= 2v + 1, bounds the sum of |coefficients|
  of F, since ||fg||_1 <= ||f||_1 ||g||_1.  It is computed on integers by
  the same column sums and cached on a; w is the smallest 8 * 2^k with
  2^(w-1) > N(a).

Sizes in powers of two let calls share cached packed values, which are
keyed on (a, S, w).  A sparse F wastes most of its box, and a long vector
inflates N(a) far past F's coefficients, so a box with more than
``PACKED_SLOTS`` slots, or a width above ``PACKED_WIDTH`` bits, is summed
by the LaurentPoly recursion instead (``_weight_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

from .errors import DomainError
from .poly import LaurentPoly, ONE, ZERO, coeff_A, coeff_B
from .rational import PackedBox
from .tableaux import canonical_partition, integer_entries


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


def _check_hook_vector(a: Sequence[int]) -> tuple[int, ...]:
    a = integer_entries(a)
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
    matrices = [TeslerMatrix._built_valid(a, rows) for rows in _tesler_rows(a)]
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


#: The packed sum spends (D + 1) * S slots on F (see the module docstring),
#: which a line-shaped F such as F(a) = [a + 1] fills only a + 1 of; its
#: steps then shift mostly empty slots.  Timed on F(a), the packed sum beat
#: ``_weight_sum`` up to a = 185 (47,616 slots) and lost from a = 200
#: (51,456 slots: 0.07 s against 0.05 s) on; this cap keeps a margin below
#: that.  Dense inputs it admits run many times faster packed:
#: f_tesler((0, 0, 60)) (15,488 slots) in 1.7 s against 6.1 s.
PACKED_SLOTS = 1 << 15
#: The widest digit the packed sum uses.  N(a) gains about two bits per
#: entry of a long vector, while F(0, ..., 0, 1) = [n] keeps coefficients of
#: 1; on those the packed sum lost from width 256 on (0.42 s against 0.33 s
#: at length 64, 9.8 s against 2.6 s at length 128), while every vector timed
#: at width 128, such as (0,) + (1,) * 10 (2.4 s against 23 s), gained.
PACKED_WIDTH = 128


def _column_sum(a: tuple[int, ...], leaf: Callable, combine: Callable):
    """The sum over the last columns of a, one coordinate at a time.

    Level j sums over v_j, v_{n-1} (B-weighted) outermost and v_1 innermost.
    With v_{j+1}, ..., v_{n-1} fixed, its terms g[v] are the level below at
    v_j = v, for v up to budgets[j], what the outer coordinates leave of
    a_n; tails[j] holds their hook sums (a_{j+1} + v_{j+1}, ...), and
    combine(g, outermost) weighs the terms by B or A.  leaf(a') is the value
    at the hook sums a' of the smaller matrix.  With no budget left every
    inner v is 0 and A(0) = 1, so the level is a leaf.  The levels are an
    explicit stack, so that the recursion into smaller hook vectors stays a
    few frames per entry of a.
    """
    *rest, last = a
    m = len(rest)
    tails, budgets, gs = [()] * (m + 1), [last] * (m + 1), [[] for _ in range(m + 1)]
    j = m
    while True:
        if not budgets[j]:
            value = leaf(tuple(rest[:j]) + tails[j])
        elif j == 1:
            x, tail = rest[0], tails[1]
            value = combine([leaf((x + v,) + tail) for v in range(budgets[1] + 1)], m == 1)
        else:
            g = gs[j]
            v = len(g)
            if v <= budgets[j]:
                tails[j - 1] = (rest[j - 1] + v,) + tails[j]
                budgets[j - 1] = budgets[j] - v
                gs[j - 1] = []
                j -= 1
                continue
            value = combine(g, j == m)
        if j == m:
            return value
        j += 1
        gs[j].append(value)


def _l1_combine(g: list[int], outermost: bool) -> int:
    # ||B(v)||_1 <= 2v + 1, ||A(v)||_1 <= 4v and A(0) = 1
    if outermost:
        return sum((2 * v + 1) * x for v, x in enumerate(g))
    return g[0] + 4 * sum(v * x for v, x in enumerate(g))


@lru_cache(maxsize=None)
def _l1_bound(a: tuple[int, ...]) -> int:
    """N(a) of the module docstring, a bound on the sum of |coefficients|
    of F."""
    if len(a) == 1:
        return 1
    return _column_sum(a, _l1_bound, _l1_combine)


@lru_cache(maxsize=None)
def _packed(stride: int, width: int, a: tuple[int, ...]) -> int:
    """W(a) at q = X^stride, t = X with X = 2^width."""
    if len(a) == 1:
        return 1
    q_shift = stride * width

    def combine(g: list[int], outermost: bool) -> int:
        # u = U_v and r = R_v, from v = K down to v = 1
        u = r = 0
        for v in range(len(g) - 1, 0, -1):
            u = g[v] + (u << width)
            r = u + (r << q_shift)
        if outermost:
            # R_0 - R_1
            return g[0] + (u << width) + (r << q_shift) - r
        # g(0) - (1 - q)(1 - t) R_1
        y = r - (r << q_shift)
        return g[0] - y + (y << width)

    return _column_sum(a, partial(_packed, stride, width), combine)


def _box(a: tuple[int, ...]) -> PackedBox:
    """The (D + 1) x S box of slots that holds F (see the module docstring)."""
    degree = sum(i * x for i, x in enumerate(a))
    return PackedBox(0, degree, 0, (1 << degree.bit_length()) - 1)


def _width(a: tuple[int, ...]) -> int:
    """The smallest 8 * 2^k with 2^(w-1) > N(a): every coefficient of F
    fits a balanced digit of that many bits."""
    bound = _l1_bound(a)
    width = 8
    while 1 << (width - 1) <= bound:
        width *= 2
    return width


def f_tesler(a: Sequence[int]) -> LaurentPoly:
    """F(a_2, ..., a_n) as the weight sum over Tesler matrices with hook
    sums (a_1, ..., a_n).  The first entry changes the matrix set but not
    the value.  No division occurs."""
    a = _check_hook_vector(a)
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]  # a zero last hook sum forces a zero last column
    box = _box(a)
    if box.slots <= PACKED_SLOTS:
        width = _width(a)
        if width <= PACKED_WIDTH:
            return LaurentPoly._from_dict(box.decode(_packed(box.stride, width, a), width))
    return _weight_sum(a)


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

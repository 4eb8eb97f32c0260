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

One column walk.  With v_i = m_in, the sum over last columns nests one
coordinate at a time:

    W(a) = sum_{v_{n-1}} B(v_{n-1}) sum_{v_{n-2}} A(v_{n-2}) ...
           sum_{v_1} A(v_1) W(a_1 + v_1, ..., a_{n-1} + v_{n-1}),

with v_1 + ... + v_{n-1} <= a_n.  ``_column_walk`` runs these nested sums,
given how one coordinate's terms are weighed by A or B, and memoizes the
result on a.  Three sums are its instances: W on LaurentPoly
(``_weight_sum``), W on packed integers (below) and the bound N(a) on
integers (``_l1_bound``).  On LaurentPoly a coordinate's sum is
sum_v A(v) g(v) or sum_v B(v) g(v) as it stands; on packed integers it is
a recurrence.  The generating functions of A and B have the denominator
(1 - qz)(1 - tz), so each inner sum of c(v) g(v) over v = 0..K is one
backward pass: U_v = g(v) + t U_{v+1} and R_v = U_v + q R_{v+1}, from
U_{K+1} = R_{K+1} = 0, give R_v = sum_{u >= v} [u - v + 1] g(u), the
three-term recurrence R_v = g(v) + (q + t) R_{v+1} - qt R_{v+2} run as its
two factors.  Since
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
  the same column walk and cached on a; w is the smallest 8 * 2^k with
  2^(w-1) > N(a).

Sizes in powers of two let calls share cached packed values: there is one
packed walk per (S, w), so its values are keyed on (S, w, a).  A sparse F
wastes most of its box, and a long vector inflates N(a) far past F's
coefficients, so a box with more than ``PACKED_SLOTS`` slots, or a width
above ``PACKED_WIDTH`` bits, is summed on LaurentPoly instead
(``_weight_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Sequence

from .errors import DomainError
from .poly import LaurentPoly, ONE, coeff_A, coeff_B
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


def _tesler_rows(a: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every Tesler matrix with hook sums a, in no set order.

    The last column's off-diagonal part (m_1n, ..., m_{n-1,n}) sums to at
    most a_n, so its partial sums are weakly increasing cuts in 0..a_n
    (stars and bars); the diagonal entry m_nn takes the rest.  Removing the
    column leaves a Tesler matrix with hook sums (a_1 + m_1n, ...,
    a_{n-1} + m_{n-1,n}).
    """
    if len(a) == 1:
        yield ((a[0],),)
        return
    *rest, last = a
    for cuts in combinations_with_replacement(range(last + 1), len(rest)):
        off = [right - left for left, right in zip((0,) + cuts, cuts)]
        last_row = ((last - cuts[-1],),)
        for rows in _tesler_rows(tuple(x + v for x, v in zip(rest, off))):
            yield tuple(row + (v,) for row, v in zip(rows, off)) + last_row


def enumerate_tesler(a: Sequence[int]) -> list[TeslerMatrix]:
    """Every Tesler matrix with hook sums a, ordered lexicographically by
    the flattened off-diagonal vector."""
    a = _check_hook_vector(a)
    matrices = [TeslerMatrix._built_valid(a, rows) for rows in _tesler_rows(a)]
    matrices.sort(key=TeslerMatrix.off_diagonal_vector)
    return matrices


#: The packed sum spends (D + 1) * S slots on F (see the module docstring),
#: which a line-shaped F such as F(a) = [a + 1] fills only a + 1 of; its
#: steps then shift mostly empty slots.  Timed on F(a), best of 5, the
#: packed sum beat ``_weight_sum`` up to a = 255 (65,536 slots: 0.031 s
#: against 0.037 s) and lost from a = 256 (131,584 slots: 0.049 s against
#: 0.025 s) on; this cap keeps a margin below that.  Dense inputs it admits
#: run a few times faster packed: f_tesler((0, 0, 63)) (16,256 slots) in
#: 0.8 s against 2.3 s.  Past the cap dense inputs pay memory, not time:
#: packed, (0, 0, 64) would take 2.2 s and 132 MB against 2.6 s and 28 MB,
#: and (0, 0, 100) 8.8 s and 420 MB against 12.7 s and 49 MB.
PACKED_SLOTS = 1 << 15
#: The widest digit the packed sum uses.  N(a) gains about two bits per
#: entry of a long vector, while F(0, ..., 0, 1) = [n] keeps coefficients of
#: 1.  On those the packed sum is even with ``_weight_sum`` at width 128 and
#: length 32 (0.018 s each), slower at length 62 (0.18 s against 0.12 s),
#: and from width 256 on slower still (0.27 s against 0.11 s at length 63).
#: A dense vector at width 128 gains several times, as (0,) + (1,) * 10
#: does (2.4 s against 13.4 s), so the cap stays at 128.
PACKED_WIDTH = 128


def _column_walk(combine: Callable, one) -> Callable:
    """The memoized function a -> W(a), summed by combine, with W(a_1) = one.

    W(a) sums over the last columns of a one coordinate at a time.  Level j
    sums over v_j, v_{n-1} (B-weighted) outermost and v_1 innermost.  With
    v_{j+1}, ..., v_{n-1} fixed, its terms g[v] are the level below at
    v_j = v, for v up to budgets[j], what the outer coordinates leave of
    a_n; tails[j] holds their hook sums (a_{j+1} + v_{j+1}, ...), and
    combine(g, outermost) weighs the terms by B or A.  Below level 1 lies
    W at the hook sums a' of the smaller matrix.  With no budget left every
    inner v is 0 and A(0) = 1, so the level is W(a').  The levels are an
    explicit stack, and the walk calls itself for W(a'), so that the
    recursion into smaller hook vectors stays a few frames per entry of a.
    """

    @lru_cache(maxsize=None)
    def walk(a: tuple[int, ...]):
        if len(a) == 1:
            return one
        *rest, last = a
        m = len(rest)
        tails, budgets, gs = [()] * (m + 1), [last] * (m + 1), [[] for _ in range(m + 1)]
        j = m
        while True:
            if not budgets[j]:
                value = walk(tuple(rest[:j]) + tails[j])
            elif j == 1:
                # a loop, since a comprehension would add a frame per entry
                x, tail, g = rest[0], tails[1], []
                for v in range(budgets[1] + 1):
                    g.append(walk((x + v,) + tail))
                value = combine(g, m == 1)
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

    return walk


def _poly_combine(g: list[LaurentPoly], outermost: bool) -> LaurentPoly:
    # sum of coeff(v) g[v], with A(0) = B(0) = 1
    coeff = coeff_B if outermost else coeff_A
    total = g[0]
    for v in range(1, len(g)):
        total = total + coeff(v) * g[v]
    return total


def _l1_combine(g: list[int], outermost: bool) -> int:
    # ||B(v)||_1 <= 2v + 1, ||A(v)||_1 <= 4v and A(0) = 1
    if outermost:
        return sum((2 * v + 1) * x for v, x in enumerate(g))
    return g[0] + 4 * sum(v * x for v, x in enumerate(g))


#: W(a) of the module docstring, summed on LaurentPoly.
_weight_sum = _column_walk(_poly_combine, ONE)
#: N(a) of the module docstring, a bound on the sum of |coefficients| of F.
_l1_bound = _column_walk(_l1_combine, 1)


@lru_cache(maxsize=None)
def _packed_walk(stride: int, width: int) -> Callable[[tuple[int, ...]], int]:
    """a -> W(a) at q = X^stride, t = X with X = 2^width."""
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

    return _column_walk(combine, 1)


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
            return LaurentPoly._from_dict(box.decode(_packed_walk(box.stride, width)(a), width))
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

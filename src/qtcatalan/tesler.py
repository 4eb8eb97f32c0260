"""Tesler matrices and the division-free evaluation of F.

A Tesler matrix for hook sums (a_1, ..., a_n) is an upper-triangular
matrix of nonnegative integers whose i-th hook sum

    m_ii + sum_{j<i} m_ji - sum_{j>i} m_ij

equals a_i.  Summing the weight prod_i B(m_{i,i+1}) * prod_{j>i+1} A(m_ij)
over all Tesler matrices gives F(a_2, ..., a_n) without a single division,
which also proves F is a polynomial.  At t = 1 only the two-diagonal
matrices survive, and those biject with subdiagrams of the staircase
partition lambda(a) = (a_2+...+a_n, a_3+...+a_n, ..., a_n).

The enumeration builds the matrices column by column from the first, in
lexicographic order (``_tesler_rows``).  The weight sum peels off the last
column, the transpose of Haglund's Tesler recursion.  Row n has nothing to
its right, so (m_1n, ..., m_{n-1,n}, m_nn) is a weak composition of a_n.
Removing the column leaves a Tesler matrix with hook sums
a' = (a_1 + m_1n, ..., a_{n-1} + m_{n-1,n}), so the weight sum W over the
matrices with hook sums a satisfies

    W(a) = sum over last columns of
           B(m_{n-1,n}) * prod_{i<n-1} A(m_in) * W(a'),

with W(a_1) = 1.  No term reads a_1: W((a_1,)) = 1 whatever a_1 is, and
the sum reads a_1 only through W(a'), whose first entry is a_1 + m_1n.  By
induction on n, W(a) does not depend on a_1, and a zero a_n forces a zero
last column.  Different columns lead to shared subproblems, so W is cached
on a's normal form (0, a_2, ..., a_k), a_k its last nonzero entry (``_key``).

One column walk.  With v_i = m_in, the sum over last columns nests one
coordinate at a time:

    W(a) = sum_{v_{n-1}} B(v_{n-1}) sum_{v_{n-2}} A(v_{n-2}) ...
           sum_{v_1} A(v_1) W(a_1 + v_1, ..., a_{n-1} + v_{n-1}),

with v_1 + ... + v_{n-1} <= a_n.  The innermost terms do not depend on
v_1, so they are one value.  ``_packed_walk`` runs these nested sums on
packed integers (below), memoized on a, and sums each coordinate by a
recurrence.  The generating functions of A and B have the denominator
(1 - qz)(1 - tz), so each inner sum of c(v) g(v) over v = 0..K is one
backward pass: U_v = g(v) + t U_{v+1} and R_v = U_v + q R_{v+1}, from
U_{K+1} = R_{K+1} = 0, give R_v = sum_{u >= v} [u - v + 1] g(u), the
three-term recurrence R_v = g(v) + (q + t) R_{v+1} - qt R_{v+2} run as its
two factors.  Since B(v) = [v + 1] - [v] and A(v) = -(1 - q)(1 - t) [v]
for v >= 1,

    sum B(v) g(v) = R_0 - R_1,    sum A(v) g(v) = g(0) - (1 - q)(1 - t) R_1.

Packed layout.  The sum runs on integers: the substitution q -> X^S,
t -> X at X = 2^w, under which multiplying by q or t is a shift by S*w or
w bits (Kronecker substitution, as in ``rational.PackedBox``, which reads
the digits).  The substitution is a ring map, so every intermediate is
exact; a value must fit its slots only where its digits are read, which
the bounds below, with proofs, guarantee:

- Stride.  Summing (i - 1) times the i-th hook sum over the rows gives
  sum_i (i - 1) a_i = sum_i (i - 1) m_ii + sum_{r<c} (c - r) m_rc
  >= sum_{r<c} m_rc (1-indexed).  A(v) and B(v) have q- and t-degree v, so
  D(a) = sum_i (i - 1) a_i bounds both degrees of F, and S(a) is the
  smallest power of two above D: F lies on a (D + 1) x S box of slots
  (``_box``).  A level of the walk sums matrix weights with some of their
  A and B factors left out, which have nonnegative degrees, so it lies on
  a's box too.  Each W(a') has D(a') = D(a) - (n - 1) a_n + sum_{i<n}
  (i - 1) v_i <= D(a), as the v_i add up to at most a_n, so S(a') <= S(a).
- Total degree.  B(v) = [v + 1] - [v] has total degree at most v, and
  A(v) = -(1 - q)(1 - t) [v] at most v + 1 for v >= 1.  An entry
  m_rc >= 1 with c - r >= 2 has (c - r) m_rc >= m_rc + 1, so a weight has
  total degree at most sum_{r<c} (c - r) m_rc <= D(a), attained on every
  hook vector with entries <= 3 at lengths 2-5.  F lies in the triangle
  e + f <= D of its box, the only slots decoded.
- Width.  The value of a level is sum_v c(v) g(v), with c = A or B, and
  since ||fg||_inf <= ||f||_1 ||g||_inf, its largest |coefficient| is at
  most sum_v ||c(v)||_1 m(v), where m(v) bounds that of g(v); here
  ||A(0)||_1 = ||B(0)||_1 = 1, ||A(v)||_1 <= 4v and ||B(v)||_1 <= 2v + 1.
  Taking m = ||W(a')||_inf, the exact largest |coefficient| of each W(a'),
  and m of a level below its own bound, the outermost level gives

      ||W(a)||_inf <= sum over last columns of
                      prod ||coefficient||_1 * ||W(a')||_inf.

  The bound starts from exact values at each node, so its slack is that of
  one node and does not compound down the recursion.  Each level runs at
  the smallest multiple of 8 bits w with 2^(w-1) above its bound, where a
  balanced digit holds every coefficient (``rational.fit_width``, the one
  rule that also sizes the tableau kernel).  Once a node is summed, its
  exact largest |coefficient| is found without reading its digits one by
  one: a few big-integer operations test them all at once against a bound
  (``rational.narrowest``), first for the smallest such w, at which the
  node is kept, then bisecting the bound.  A level's bound is at least each
  term's (every ||c(v)||_1 >= 1), so terms only widen.

The walk is one memo keyed on the normal form alone: one node per distinct
F, at its own stride S(a), which reads neither a_1 nor a zero a_n.  A level
at S(a) reads W(a') with each row moved to the start of a row of S(a) slots
and widened in the same pass (``rational.relayout``), after the memoized
call returns, so that the recursion stays one frame per smaller hook
vector; the node keeps that copy for each (stride, width) a parent asks
for.  F is decoded once per normal form, and repeats share that immutable
``LaurentPoly``.  A line-shaped F such as F(a) = [a + 1] fills only a + 1
of its box's slots, so its steps shift mostly empty slots; it is summed
packed all the same.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .errors import DomainError, integer_entries
from .poly import LaurentPoly, ONE, coeff_A, coeff_B
from .rational import PackedBox, fit_width, narrowest, relayout
from .record import Record


def canonical_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing nonnegative sequence and strip trailing zeros."""
    parts = integer_entries(parts)
    for i, p in enumerate(parts):
        if p < 0:
            raise DomainError(f"partition parts must be nonnegative, got {parts}")
        if i and parts[i - 1] < p:
            raise DomainError(f"partition parts must weakly decrease, got {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def lambda_partition(a_tail: Sequence[int]) -> tuple[int, ...]:
    """The staircase partition of suffix sums of (a_2, ..., a_n)."""
    tail = integer_entries(a_tail)
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
    """Sum of q^(|lam| - |mu|) over all subpartitions mu of lam.

    The subpartitions are counted row by row, not listed: counts[p][s] is
    the number of choices of mu's rows so far with size s and last part p.
    Row i takes a part p <= lam_i no larger than the row above's, so its
    counts at p are those of the parts >= p above, a running sum from the
    top of the row above's cap down, moved up by p in size."""
    lam = canonical_partition(lam)
    size = sum(lam)
    # no row yet: one empty choice, as if under a row of part lam_1
    counts = [[0] * (size + 1)] * (lam[0] if lam else 0) + [[1] + [0] * size]
    for cap in lam:
        above, running = counts, [0] * (size + 1)
        counts = [None] * (cap + 1)
        for p in range(len(above) - 1, -1, -1):
            running = [x + y for x, y in zip(running, above[p])]
            if p <= cap:
                counts[p] = [0] * p + running[: size + 1 - p]
    return LaurentPoly(
        ((size - s, 0), c) for s, c in enumerate(map(sum, zip(*counts))) if c
    )


class TeslerMatrix(Record):
    """An upper-triangular matrix with prescribed hook sums.

    rows[i] holds (m_ii, m_{i,i+1}, ..., m_{i,n-1}); indices are 0-based.
    """

    __slots__ = ("hook_sums", "rows")

    def _check(self):
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


def _columns(residuals: tuple[int, ...], hook_sum: int, room: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every column (m_0k, ..., m_{k-1,k}) that a partial matrix with these
    residuals can take next, in lexicographic order, with the residuals
    after it (see ``_tesler_rows``).

    With the entries e_r of the column, row r is short of
    max(0, -(residuals[r] + e_r)) and row k of max(0, e_0 + ... - hook_sum);
    the column fits when the shortfall is at most room.  Once e_0, ..., e_r
    are chosen, the least shortfall the rest can reach spends what is left
    of hook_sum on the rows below r that are short, so e_r runs upward
    while that least shortfall can still shrink or fit.
    """
    k = len(residuals)
    short_below = [0] * (k + 1)  # short_below[r]: sum over i >= r of max(0, -residuals[i])
    for r in range(k - 1, -1, -1):
        short_below[r] = short_below[r + 1] + max(0, -residuals[r])
    out = []
    column = [0] * k

    def fill(r: int, short: int, total: int) -> None:
        if r == k:
            after = tuple(x + e for x, e in zip(residuals, column)) + (hook_sum - total,)
            out.append((tuple(column), after))
            return
        floor = max(0, -residuals[r])
        e = 0
        while True:
            least = short + max(0, floor - e) + max(0, total + e - hook_sum)
            least += max(0, short_below[r + 1] - max(0, hook_sum - total - e))
            if least <= room:
                column[r] = e
                fill(r + 1, short + max(0, floor - e), total + e)
            elif e >= floor:
                break
            e += 1

    fill(0, 0, 0)
    return out


def _tesler_rows(a: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every Tesler matrix with hook sums a, ordered
    lexicographically by the flattened off-diagonal vector.

    The matrices are built column by column, each partial matrix extended
    by its next columns in lexicographic order, so the list stays in order.
    After columns 1..k-1, row r < k has the residual
    a_r - (its entries above the diagonal) + (its entries so far right of
    it), and its diagonal entry will be that residual plus its entries in
    the columns still to come.  A row with a negative residual is short by
    its absolute value, which it must send right.  The partial matrix
    completes exactly when the total shortfall is at most
    a_k + ... + a_{n-1}.  It cannot complete otherwise: the entries from
    rows r < k to columns c >= k, at least the shortfall, add up to at most
    that sum by the cumulative form of the hook sums.  It completes
    otherwise: the short rows send their shortfall to column k, whose row
    passes on what exceeds a_k, and so on up to column n - 1.  After the
    last column the room is 0, so every residual is a diagonal entry.
    The next columns depend on the residuals only, so partial matrices
    with equal residuals share them.
    """
    n = len(a)
    # (the entries m_rc so far, column by column; the residuals of rows 0..k-1)
    partial = [((), (a[0],))]
    for k in range(1, n):
        room, columns = sum(a[k + 1 :]), {}
        for _, residuals in partial:
            if residuals not in columns:
                columns[residuals] = _columns(residuals, a[k], room)
        partial = [
            (entries + column, after)
            for entries, residuals in partial
            for column, after in columns[residuals]
        ]
    # row r < n - 1 reads its diagonal entry, at index r of the residuals
    # after the entries, then m_rc, at index c (c - 1) / 2 + r of the entries
    start = n * (n - 1) // 2
    rows = [itemgetter(start + r, *(c * (c - 1) // 2 + r for c in range(r + 1, n))) for r in range(n - 1)]
    return [
        tuple([row(flat) for row in rows]) + ((flat[-1],),)
        for flat in (entries + diagonal for entries, diagonal in partial)
    ]


def enumerate_tesler(a: Sequence[int]) -> list[TeslerMatrix]:
    """Every Tesler matrix with hook sums a, ordered lexicographically by
    the flattened off-diagonal vector."""
    a = _check_hook_vector(a)
    return [TeslerMatrix._built_valid(a, rows) for rows in _tesler_rows(a)]


def _slots(value: int, stride: int, width: int) -> int:
    # whole rows enough for every nonzero digit of value: if digit i is its
    # top one, 2^(width i - 1) < |value| < 2^(width (i + 1) - 1), so
    # i = bit_length // width
    return (value.bit_length() // (stride * width) + 1) * stride


def _combine(g: list[tuple], outermost: bool, stride: int) -> tuple:
    """sum_v c(v) g[v] on packed integers, with c = B outermost and A
    elsewhere.  g[v] is (value, width, bound on its |coefficients|, copies,
    ..., stride); the terms meet at the width of the level's bound and at
    its stride."""
    # sum of ||c(v)||_1 times the terms' bounds, with ||B(v)||_1 <= 2v + 1,
    # ||A(v)||_1 <= 4v and A(0) = 1
    if outermost:
        bound = sum((2 * v + 1) * term[2] for v, term in enumerate(g))
    else:
        bound = g[0][2] + 4 * sum(v * term[2] for v, term in enumerate(g))
    width = fit_width(bound)
    q_shift = stride * width
    layout = (stride, width)
    values, previous, x = [], None, 0
    for term in g:
        if term is not previous:
            previous, (x, term_width, _, copies, _, term_stride) = term, term
            if term_width != width or term_stride != stride:
                if layout not in copies:
                    copies[layout] = relayout(x, _slots(x, term_stride, term_width), term_stride, term_width, stride, width)
                x = copies[layout]
        values.append(x)
    # u = U_v and r = R_v, from v = K down to v = 1
    u = r = 0
    for v in range(len(values) - 1, 0, -1):
        u = values[v] + (u << width)
        r = u + (r << q_shift)
    if outermost:
        # R_0 - R_1, kept at the width of its own largest coefficient,
        # and at each layout a parent asks for
        value = values[0] + (u << width) + (r << q_shift) - r
        return narrowest(value, _slots(value, stride, width), width) + ({}, bound, stride)
    # g(0) - (1 - q)(1 - t) R_1
    y = r - (r << q_shift)
    return values[0] - y + (y << width), width, bound, {}, bound, stride


@lru_cache(maxsize=None)
def _packed_walk(a: tuple[int, ...]) -> tuple:
    """(W(a) at q = X^S, t = X with X = 2^w, w, max |coefficient| of W(a),
    {(stride, width): W(a) at them}, the bound on that maximum from the
    W(a'), S), w the narrowest width that holds W(a) and S(a) a's stride.

    W(a) sums over the last columns of a one coordinate at a time.  Level j
    sums over v_j, v_{n-1} (B-weighted) outermost and v_1 innermost.  With
    v_{j+1}, ..., v_{n-1} fixed, its terms g[v] are the level below at
    v_j = v, for v up to budgets[j], what the outer coordinates leave of
    a_n; point holds the hook sums a' of the smaller matrix, a_i + v_i
    from the outer coordinates and a_i below, and ``_combine`` weighs the
    terms by B or A.  Below level 1 lies W(a'), keyed on its normal form,
    which does not read a'_1: the terms of level 1 are one value.
    With no budget left every inner v is 0 and A(0) = 1, so the level is
    W(a').  The levels are an explicit stack, and the walk calls itself for
    W(a'), so that the recursion into smaller hook vectors stays a few
    frames per entry of a.
    """
    if len(a) == 1:
        return 1, 8, 1, {}, 1, 1  # W = 1 at 8 bits, on a box of one slot
    stride = _box(a).stride
    rest, last = a[:-1], a[-1]
    m = len(rest)
    point, budgets, gs = list(rest), [last] * (m + 1), [None] * m + [[]]
    j = m
    while True:
        if not budgets[j] or j == 1:
            key = tuple(point)  # point[0] is a's 0: only a zero last entry needs _key
            value = _packed_walk(key if key[-1] else _key(key))
            if budgets[j]:
                value = _combine([value] * (budgets[1] + 1), m == 1, stride)
        else:
            g = gs[j]
            v = len(g)
            if v <= budgets[j]:
                point[j - 1] = rest[j - 1] + v
                budgets[j - 1] = budgets[j] - v
                gs[j - 1] = []
                j -= 1
                continue
            point[j - 1] = rest[j - 1]
            value = _combine(g, j == m, stride)
        if j == m:
            return value
        j += 1
        gs[j].append(value)


def _box(a: tuple[int, ...]) -> PackedBox:
    """The (D + 1) x S box of slots that holds F (see the module docstring)."""
    degree = sum(map(mul, range(len(a)), a))
    return PackedBox(0, degree, 0, (1 << degree.bit_length()) - 1)


def _key(a: Sequence[int]) -> tuple[int, ...]:
    # F's normal form (0, a_2, ..., a_k), a_k the last nonzero entry
    k = len(a)
    while k > 1 and not a[k - 1]:
        k -= 1
    return (0, *a[1:k])


def f_tesler(a: Sequence[int]) -> LaurentPoly:
    """F(a_2, ..., a_n) as the weight sum over Tesler matrices with hook
    sums (a_1, ..., a_n).  The first entry changes the matrix set but not
    the value.  No division occurs."""
    return _decoded(_key(_check_hook_vector(a)))


@lru_cache(maxsize=None)
def _decoded(a: tuple[int, ...]) -> LaurentPoly:
    # F at a normal form a (``_key``), decoded once from its triangle
    # e + f <= D; a LaurentPoly is immutable, so repeats share it
    box = _box(a)
    value, width, *_ = _packed_walk(a)
    return LaurentPoly._from_dict(box.decode(value, width, box.q_hi))


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

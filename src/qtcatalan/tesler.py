"""Tesler matrices and the division-free evaluation of F.

A Tesler matrix for hook sums (a_1, ..., a_n) is an upper-triangular
matrix of nonnegative integers whose i-th hook sum

    m_ii + sum_{j<i} m_ji - sum_{j>i} m_ij

equals a_i.  Summing the weight prod_i B(m_{i,i+1}) * prod_{j>i+1} A(m_ij)
over all Tesler matrices gives F(a_2, ..., a_n) without a single division,
which also proves F is a polynomial.  At t = 1 only the two-diagonal
matrices survive, and those biject with subdiagrams of the staircase
partition lambda(a) = (a_2+...+a_n, a_3+...+a_n, ..., a_n), which
``subdiagram_area_gf`` counts.  This module sums the weights without
listing a single matrix; the matrices one by one, their weights and the
two-diagonal bijection are reference engines in ``tests/oracles.py``.

The weight sum, like the enumeration there (``_tesler_rows``), peels off the
last column, the transpose of Haglund's Tesler recursion.  Row n has nothing
to its right, so (m_1n, ..., m_{n-1,n}, m_nn) is a weak composition of a_n.
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
  (``rational.narrowest``), first for the smallest such w, to which the
  node is narrowed and kept, then bisecting the bound.  A level's bound is
  at least each term's (every ||c(v)||_1 >= 1), so terms only widen.

The walk is one memo keyed on the normal form alone: one node per distinct
F, at its own stride S(a), which reads neither a_1 nor a zero a_n.  A level
at S(a) reads W(a') with each row moved to the start of a row of S(a) slots
and widened in the same pass, after the memoized call returns, by the
re-pack that also narrows a node (``rational.relayout``); the node keeps
that copy for each (stride, width) a parent asks for.  F is decoded once
per normal form, and repeats share that immutable ``LaurentPoly``.  A
line-shaped F such as F(a) = [a + 1] fills only a + 1 of its box's slots,
so its steps shift mostly empty slots; it is summed packed all the same.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import DomainError, canonical_partition, integer_entries
from .poly import LaurentPoly
from .rational import MAX_QUOTIENT_SLOTS, PackedBox, fit_width, narrowest, relayout


def lambda_partition(a_tail: Sequence[int]) -> tuple[int, ...]:
    """The staircase partition of suffix sums of (a_2, ..., a_n)."""
    tail = integer_entries(a_tail)
    if any(x < 0 for x in tail):
        raise DomainError(f"lambda_partition requires nonnegative entries, got {tail}")
    return canonical_partition([sum(tail[i:]) for i in range(len(tail))])


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


def _check_hook_vector(a: Sequence[int]) -> tuple[int, ...]:
    a = integer_entries(a)
    if not a:
        raise DomainError("hook-sum vector must be nonempty")
    if any(x < 0 for x in a):
        raise DomainError(f"hook sums must be nonnegative, got {a}")
    return a


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

    W(a) sums over the last columns of a one coordinate at a time, as the
    nested sum of the module docstring: ``level(j, budget)`` sums over
    v_j, v_{n-1} (B-weighted) outermost and v_1 innermost, with budget what
    the outer coordinates leave of a_n.  Its terms are the level below at
    v_j = v for v = 0..budget, and ``_combine`` weighs them by B or A.
    point holds the hook sums a' of the smaller matrix: a_i + v_i from the
    outer coordinates and a_i below.  Below level 1 lies W(a'), keyed on
    its normal form, which does not read a'_1: the terms of level 1 are one
    value.  With no budget left every inner v is 0 and A(0) = 1, so the
    level is W(a').  A level is one frame, and it calls the walk for W(a')
    under the levels above it: a hook vector of length n with k nonzero
    entries recurses up to about k n frames deep.
    """
    if len(a) == 1:
        return 1, 8, 1, {}, 1, 1  # W = 1 at 8 bits, on a box of one slot
    stride = _box(a).stride
    rest = a[:-1]
    m = len(rest)
    point = list(rest)

    def level(j: int, budget: int) -> tuple:
        if not budget or j == 1:
            key = tuple(point)  # point[0] is a's 0: only a zero last entry needs _key
            value = _packed_walk(key if key[-1] else _key(key))
            return _combine([value] * (budget + 1), m == 1, stride) if budget else value
        g = []
        for v in range(budget + 1):
            point[j - 1] = rest[j - 1] + v
            g.append(level(j - 1, budget - v))
        point[j - 1] = rest[j - 1]
        return _combine(g, j == m, stride)

    return level(m, a[-1])


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
    # e + f <= D; a LaurentPoly is immutable, so repeats share it.  No node
    # of the walk has a larger box than F's, so a box of more than
    # MAX_QUOTIENT_SLOTS slots is refused before any walk
    box = _box(a)
    if box.slots > MAX_QUOTIENT_SLOTS:
        raise DomainError(f"the Tesler sum needs a box of {box.slots} slots, more than the {MAX_QUOTIENT_SLOTS} allowed")
    value, width, *_ = _packed_walk(a)
    return LaurentPoly._from_dict(box.decode(value, width, box.q_hi))

"""Closed forms for one and two arguments, and recursions for three.

These give a route to F(a, b, c) that is independent of both the tableau
sum and the Tesler sum:

  * f1(a): the q,t-integer for a >= 0, zero at a = -1, and the reflection
    f1(-a) = -(qt)^(1-a) f1(a-2) for a > 0.
  * f2(a, b): the double sum valid for b >= -1, a >= b-1.
  * f3_recursive: peels one unit off the third argument,
        F(a,b,c) = F(a+1,b+1,c-1) + (qt)^c F(a+c,b-c)
                   + sum_{i=0}^{c-1} (qt)^{b+2c-2i} F(a-b-2c+4i),
    with one-argument values routed through f1.
  * f3_two_step: the equivalent recursion in steps of two, which never
    produces negative arguments and is used by the chain recursion proofs.

Three-argument calls take an ``ABCParams`` (from ``record``), which refuses
a triple outside the region ``record.in_region`` tests.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, integer_entries
from .poly import LaurentPoly, ZERO, bracket, qt_power
from .record import ABCParams


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must miss an IntEnum 2's entry, and be refused
def f1(a: int) -> LaurentPoly:
    """F of a single argument, for any integer.

    Equals bracket(a+1) for a >= 0, vanishes at a = -1, and for a <= -2
    is fixed by the reflection F(-m) = -(qt)^(1-m) F(m-2).
    """
    (a,) = integer_entries((a,))
    if a >= 0:
        return bracket(a + 1)
    if a == -1:
        return ZERO
    m = -a
    return -(qt_power(1 - m) * f1(m - 2))


def f2(a: int, b: int) -> LaurentPoly:
    """F of two arguments: sum_{i=0}^{b} sum_{j=i}^{a+2b-2i} q^j t^(a+2b-i-j).

    Valid for b >= -1 and a >= b-1; f2(a, -1) = 0.
    """
    a, b = integer_entries((a, b))
    if b < -1 or a < b - 1:
        raise DomainError(f"f2 requires b >= -1 and a >= b-1, got ({a}, {b})")
    # (i, j) -> (j, a + 2b - i - j) is one to one, so no two terms meet
    return LaurentPoly._from_dict(
        {(j, a + 2 * b - i - j): 1 for i in range(b + 1) for j in range(i, a + 2 * b - 2 * i + 1)}
    )


def h2(a: int) -> LaurentPoly:
    """H of a single argument: the monomial q^a, for any integer a."""
    (a,) = integer_entries((a,))
    return LaurentPoly.monomial(a, 0)


def h3(a: int, b: int) -> LaurentPoly:
    """H of two arguments: q^a * sum_{i=0}^{b} q^(2(b-i)) t^i.

    Valid for any integer a and b >= -1; h3(a, -1) = 0.
    """
    a, b = integer_entries((a, b))
    if b < -1:
        raise DomainError(f"h3 requires b >= -1, got ({a}, {b})")
    return LaurentPoly({(a + 2 * (b - i), i): 1 for i in range(b + 1)})


def _f3_step(a: int, b: int, c: int) -> LaurentPoly:
    if c == 0:
        return f2(a, b)
    total = _f3_step(a + 1, b + 1, c - 1) + qt_power(c) * f2(a + c, b - c)
    for i in range(c):
        total = total + qt_power(b + 2 * c - 2 * i) * f1(a - b - 2 * c + 4 * i)
    return total


def f3_recursive(p: ABCParams) -> LaurentPoly:
    """F(a, b, c) by peeling single units off the third argument."""
    return _f3_step(p.a, p.b, p.c)


def _f3_two_step(a: int, b: int, c: int) -> LaurentPoly:
    if c == -1:
        return ZERO  # F(a, b, -1) = 0 here since a, b >= 1 on every such call
    if c == 0:
        return f2(a, b)
    total = (
        _f3_two_step(a + 2, b + 2, c - 2)
        + qt_power(c) * f2(a + c, b - c)
        + qt_power(c - 1) * f2(a + c, b - c + 2)
    )
    for j in range(2, min(a - b, 2 * c) + 1):
        total = total + qt_power(b + j) * f1(a - b + 2 * c - 2 * j)
    for j in range(a - b + 1, 2):
        total = total - qt_power(b + j) * f1(a - b + 2 * c - 2 * j)
    return total


def f3_two_step(p: ABCParams) -> LaurentPoly:
    """F(a, b, c) by the two-step recursion; requires c >= 1.

    Agrees with f3_recursive everywhere both are defined, but never calls
    F with a negative argument vector of length three.
    """
    if p.c < 1:
        raise DomainError(f"f3_two_step requires c >= 1, got {p}")
    return _f3_two_step(p.a, p.b, p.c)


def slope_sequence(m: int, n: int) -> tuple[int, ...]:
    """The length-n vector of ceiling differences ceil(im/n) - ceil((i-1)m/n).

    Its entries sum to m; feeding it to the tableau sum yields the rational
    q,t-Catalan polynomial when m and n are coprime.
    """
    m, n = integer_entries((m, n))
    if m < 1 or n < 1:
        raise DomainError(f"slope_sequence requires m, n >= 1, got ({m}, {n})")
    ceilings = [(i * m + n - 1) // n for i in range(n + 1)]  # ceil(im/n), all operands >= 0
    return tuple(ceilings[i] - ceilings[i - 1] for i in range(1, n + 1))

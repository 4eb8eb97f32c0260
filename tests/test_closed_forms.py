"""Closed forms and recursions, cross-checked against the tableau sums."""

from enum import IntEnum

import pytest

from qtcatalan import (
    ABCParams,
    DomainError,
    LaurentPoly,
    ONE,
    Q,
    T,
    bracket,
    combine_h_to_f,
    f1,
    f2,
    f3_recursive,
    f3_two_step,
    f_tableaux,
    f_tesler,
    h2,
    h3,
    h_tableaux,
    qt_power,
    slope_sequence,
)
from qtcatalan.record import MAX_SUBDIAGRAMS


def test_f1_values():
    assert f1(3) == Q**3 + Q**2 * T + Q * T**2 + T**3
    assert f1(-1) == 0
    assert f1(-3) == -(qt_power(-2) * (Q + T))
    for a in range(8):
        assert f1(a) == bracket(a + 1)


@pytest.mark.parametrize("a", range(1, 11))
def test_f1_reflection(a):
    assert f1(-a) + qt_power(1 - a) * f1(a - 2) == 0


def test_f2_values():
    assert f2(1, 1) == Q**3 + Q**2 * T + Q * T**2 + T**3 + Q * T
    assert f2(0, 0) == ONE
    for a in range(6):
        assert f2(a, -1) == 0


def test_f2_domain():
    with pytest.raises(DomainError):
        f2(0, -2)
    with pytest.raises(DomainError):
        f2(1, 3)


def test_f2_matches_h_combination():
    for b in range(-1, 7):
        for a in range(b - 1, 9):
            assert f2(a, b) == combine_h_to_f(h3(a, b))


def test_h2_h3_values():
    assert h2(-2) == LaurentPoly.monomial(-2, 0)
    assert h3(0, 2) == Q**4 + Q**2 * T + T**2
    assert h3(5, -1) == 0
    with pytest.raises(DomainError):
        h3(0, -2)


def test_h3_matches_tableaux():
    for b in range(0, 5):
        for a in range(0, 5):
            assert h3(a, b) == h_tableaux((a, b))


def test_f3_base_case_drops_zero():
    assert f3_recursive(ABCParams(1, 1, 0)) == f2(1, 1)


def test_f3_table_values():
    p = f3_recursive(ABCParams(1, 1, 1))
    assert len(p) == 14 and not p.has_negative_coefficient()
    p2 = f3_recursive(ABCParams(1, 1, 2))
    assert sum(c for _, c in p2.terms().items()) == 28


def test_f3_region_guard():
    with pytest.raises(DomainError):
        f3_recursive(ABCParams(1, 3, 0))
    with pytest.raises(DomainError):
        f3_recursive(ABCParams(1, 1, 3))
    with pytest.raises(DomainError):
        f3_two_step(ABCParams(2, 2, 0))


def test_two_step_equals_one_step():
    for a in range(0, 9):
        for b in range(0, min(8, a + 1) + 1):
            for c in range(1, min(8, a + 1, b + 1) + 1):
                p = ABCParams(a, b, c)
                assert f3_two_step(p) == f3_recursive(p)


def test_two_step_boundary_term_counts():
    # at a = b the trailing correction has one term, at a = b - 1 two
    for a, b, c in [(2, 2, 1), (2, 2, 2), (1, 2, 1), (3, 3, 2)]:
        p = ABCParams(a, b, c)
        assert f3_two_step(p) == f3_recursive(p)


def test_recursive_methods_match_sums():
    x = 2
    for a in range(0, 5):
        for b in range(0, min(4, a + 1) + 1):
            for c in range(0, min(4, a + 1, b + 1) + 1):
                expected = f_tableaux((a, b, c))
                assert f3_recursive(ABCParams(a, b, c)) == expected
                assert f_tesler((x, a, b, c)) == expected


def test_h_recursion_via_tableaux():
    # the one-step recursion for the head-like sums at four cells
    for a in range(0, 4):
        for b in range(0, a + 2):
            for c in range(1, min(a + 1, b + 1) + 1):
                rhs = h_tableaux((a + 1, b + 1, c - 1)) + qt_power(c) * h3(a + c, b - c)
                for i in range(c):
                    rhs = rhs + qt_power(b + 2 * c - 2 * i) * h2(a - b - 2 * c + 4 * i)
                assert h_tableaux((a, b, c)) == rhs


def test_abcparams_region():
    with pytest.raises(DomainError):
        ABCParams(1, 3, 1)
    with pytest.raises(DomainError):
        ABCParams(-1, 0, 0)
    with pytest.raises(DomainError):
        ABCParams(3, 1, 3)
    for bad in [(1.5, 1, 1), (True, 1, 1), (1, 1, 1.0)]:
        with pytest.raises(DomainError):
            ABCParams(*bad)
    p = ABCParams(2, 3, 3)
    assert p.total_weight == 2 + 6 + 9
    assert p.leg == 8
    assert p.ambient() == (8, 6, 3)


def test_abcparams_refuses_a_staircase_past_the_subdiagram_bound():
    # (L + 1)(b + c + 1)(c + 1) bounds the subdiagrams of the staircase
    # (L, b + c, c); at (a, 0, 0) it is a + 1, so a = 2^21 - 1 is the last
    # admitted there, and the region is tested first
    assert ABCParams(MAX_SUBDIAGRAMS - 1, 0, 0).leg == MAX_SUBDIAGRAMS - 1
    with pytest.raises(DomainError, match="subdiagrams, .* more than the 2097152 allowed"):
        ABCParams(MAX_SUBDIAGRAMS, 0, 0)
    with pytest.raises(DomainError, match="outside the validated region"):
        ABCParams(10**12, 10**12 + 2, 0)
    # the (161, 4) rational Catalan's triple reads 121 * 81 * 41 = 401,841
    assert f3_recursive(ABCParams(40, 40, 40)) == f_tableaux((40, 40, 40))


def test_slope_sequence():
    assert slope_sequence(4, 3) == (2, 1, 1)
    assert slope_sequence(3, 2) == (2, 1)
    assert slope_sequence(5, 3) == (2, 2, 1)
    assert slope_sequence(1, 1) == (1,)
    for m, n in [(7, 5), (5, 7), (4, 4)]:
        assert sum(slope_sequence(m, n)) == m
        assert len(slope_sequence(m, n)) == n
    with pytest.raises(DomainError):
        slope_sequence(0, 3)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
@pytest.mark.parametrize(
    "call",
    [
        f1,
        lambda x: f2(x, 1),
        lambda x: f2(1, x),
        h2,
        lambda x: h3(x, 0),
        lambda x: h3(0, x),
        lambda x: slope_sequence(x, 2),
        lambda x: slope_sequence(5, x),
    ],
    ids=["f1", "f2-a", "f2-b", "h2", "h3-a", "h3-b", "slope-m", "slope-n"],
)
def test_closed_forms_refuse_non_integers(call, bad):
    # h2(1.5) was q^1.5, slope_sequence(2.5, 2) was (1.0, 2.0), f1(True) read
    # True as 1, and f1(2.0) raised TypeError
    with pytest.raises(DomainError, match="integers"):
        call(bad)


def test_f1_cache_keeps_a_float_apart_from_an_equal_int():
    # untyped, lru_cache would hand 2.0 the entry an IntEnum 2 left
    two = IntEnum("Two", {"TWO": 2}).TWO
    assert f1(two) == f1(2)
    with pytest.raises(DomainError, match="integers"):
        f1(2.0)

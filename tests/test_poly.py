"""Ring operations, brackets, chains, series coefficients, specializations."""

import gc
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    coeff_A,
    coeff_B,
    sym_chain,
)
from qtcatalan import (
    ABCParams,
    DomainError,
    LaurentPoly,
    ONE,
    Q,
    T,
    ZERO,
    bracket,
    f3_recursive,
    f3_two_step,
    qt_power,
    unimodality_check,
)

polys = st.dictionaries(
    keys=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    values=st.integers(-5, 5),
    max_size=6,
).map(LaurentPoly)


def test_additive_cancellation():
    assert (Q + T) + (-T) == Q
    assert 1 - Q == -Q + 1


def test_difference_of_squares():
    assert (ONE - Q) * (ONE + Q) == ONE - Q**2


def test_laurent_inverse_monomials():
    assert LaurentPoly.monomial(-1, 1) * LaurentPoly.monomial(1, -1) == ONE


def test_canonical_form_drops_zeros():
    p = LaurentPoly({(1, 0): 1, (0, 1): 0})
    assert p.terms() == {(1, 0): 1}
    assert (Q - Q).is_zero()
    assert p * 0 is ZERO


def test_immutability():
    with pytest.raises(AttributeError):
        Q._terms = {}


def test_constants_hash_as_the_integers_they_equal():
    assert LaurentPoly.from_int(3) == 3 and LaurentPoly.from_int(3) in {3}
    assert ZERO in {0} and ONE in {1}
    assert {LaurentPoly.from_int(-7): "x"}[-7] == "x"
    assert len({ONE, 1, Q}) == 2
    assert (Q == "q") is False


def test_operands_outside_the_ring_are_refused():
    with pytest.raises(TypeError):
        "x" - Q
    with pytest.raises(TypeError):
        Q - "x"
    with pytest.raises(DomainError):
        Q**-1


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly({(0, 0): 1.5}),
        lambda: LaurentPoly({(1.5, 0): 1}),
        lambda: LaurentPoly([((0, True), 1)]),
        lambda: LaurentPoly.monomial(1, 0, True),
        lambda: LaurentPoly.from_int(2.0),
    ],
    ids=["float-coefficient", "float-exponent", "bool-exponent", "bool-coefficient", "from_int-float"],
)
def test_terms_that_are_not_integers_are_refused(build):
    # these built 1.5, q^1.5, t and q with the coefficient True
    with pytest.raises(DomainError, match="integers"):
        build()


def test_an_int_subclass_builds_plain_int_terms():
    two = IntEnum("Two", {"TWO": 2}).TWO
    p = LaurentPoly({(two, 0): two})
    assert p == 2 * Q**2
    [((qe, te), coeff)] = p.terms().items()
    assert type(qe) is type(te) is type(coeff) is int


@pytest.mark.parametrize("bad", [1.5, True])
def test_a_bool_operand_is_refused_as_a_float_is(bad):
    # p + True and p ** True read True as 1
    with pytest.raises(TypeError):
        Q + bad
    with pytest.raises(TypeError):
        bad - Q
    with pytest.raises(TypeError):
        Q * bad
    with pytest.raises(DomainError):
        Q**bad
    assert (ONE == bad) is False


@given(st.integers(-(10**30), 10**30))
@settings(max_examples=100)
def test_equal_values_hash_alike(n):
    assert hash(LaurentPoly.from_int(n)) == hash(n)


@given(polys, polys)
@settings(max_examples=100)
def test_add_commutes(p, r):
    assert p + r == r + p


@given(polys, polys)
@settings(max_examples=100)
def test_mul_commutes(p, r):
    assert p * r == r * p


@given(polys, polys, polys)
@settings(max_examples=100)
def test_add_associates(p, r, s):
    assert (p + r) + s == p + (r + s)


@given(polys, polys, polys)
@settings(max_examples=100)
def test_mul_associates(p, r, s):
    assert (p * r) * s == p * (r * s)


@given(polys, polys, polys)
@settings(max_examples=100)
def test_mul_distributes(p, r, s):
    assert p * (r + s) == p * r + p * s


def test_bracket_empty_sum():
    assert bracket(0) == ZERO


def test_bracket_two():
    assert bracket(2) == Q + T


def test_bracket_four_unrolled():
    assert bracket(4) == Q**3 + Q**2 * T + Q * T**2 + T**3


def test_bracket_negative_raises():
    with pytest.raises(DomainError):
        bracket(-1)
    with pytest.raises(DomainError):
        coeff_A(-1)
    with pytest.raises(DomainError):
        coeff_B(-1)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
@pytest.mark.parametrize(
    "call",
    [bracket, qt_power, lambda x: sym_chain(x, 3), lambda x: sym_chain(0, x), coeff_A, coeff_B],
    ids=["bracket", "qt_power", "sym_chain-k", "sym_chain-l", "coeff_A", "coeff_B"],
)
def test_integer_arguments_refuse_non_integers(call, bad):
    # qt_power(1.5) was q^1.5 t^1.5, coeff_B(True) was q - 1 + t, and
    # bracket(2.0), coeff_A(2.0) and sym_chain(1.5, 3) raised TypeError
    with pytest.raises(DomainError, match="integers"):
        call(bad)


@pytest.mark.parametrize("cached", [bracket, coeff_A, coeff_B])
def test_cache_keeps_a_float_apart_from_an_equal_int(cached):
    # an IntEnum reads as its int and 2.0 is refused; an untyped cache on any
    # of the three would hand 2.0 the entry an IntEnum 2 left
    two = IntEnum("Two", {"TWO": 2}).TWO
    assert cached(two) == cached(2)
    with pytest.raises(DomainError, match="integers"):
        cached(2.0)


def test_pure_functions_keep_nothing_they_computed():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for m in range(300):
            bracket(m), coeff_A(m), coeff_B(m)
        for k in range(1, 11):
            f3_recursive(ABCParams(k, k, k)), f3_two_step(ABCParams(k, k, k))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert retained < 2**20  # a process-lifetime cache on each of the five kept 22 MiB


@pytest.mark.parametrize("m", range(0, 21))
def test_bracket_difference_is_B(m):
    assert bracket(m + 1) - bracket(m) == coeff_B(m)


def test_coeff_constants():
    assert coeff_A(0) == ONE
    assert coeff_B(0) == ONE
    assert coeff_B(1) == Q + T - 1
    assert coeff_A(1) == -(ONE - Q) * (ONE - T)


def test_A_series_against_power_series_oracle():
    # Independent oracle: expand (1-z)(1-qtz) / ((1-qz)(1-tz)) as a power
    # series in z by the division recurrence S_m = N_m - sum D_k S_{m-k}.
    M = 10
    n_coeffs = {0: ONE, 1: -(ONE + Q * T), 2: Q * T}
    d_coeffs = {0: ONE, 1: -(Q + T), 2: Q * T}
    series = []
    for m in range(M + 1):
        val = n_coeffs.get(m, ZERO)
        for k in range(1, m + 1):
            val = val - d_coeffs.get(k, ZERO) * series[m - k]
        series.append(val)
    for m in range(M + 1):
        assert coeff_A(m) == series[m]


def test_sym_chain_point():
    assert sym_chain(0, 0) == ONE


def test_sym_chain_unrolled():
    assert sym_chain(1, 3) == Q**3 * T + Q**2 * T**2 + Q * T**3


def test_sym_chain_zero_six():
    assert sym_chain(0, 6) == LaurentPoly({(6 - i, i): 1 for i in range(7)})


def test_sym_chain_reversed_raises():
    with pytest.raises(DomainError):
        sym_chain(3, 1)


@given(st.integers(-3, 5), st.integers(0, 6))
def test_sym_chain_qt_symmetric(k, d):
    chain = sym_chain(k, k + d)
    assert chain.swap_qt() == chain


def test_specialize_t_one():
    assert (Q + T).specialize_t_one() == Q + 1
    assert sym_chain(1, 3).specialize_t_one() == Q**3 + Q**2 + Q


def test_specialize_t_qinv_on_chain():
    # a symmetric chain collapses to q^(l-k) + q^(l-k-2) + ... + q^(k-l)
    for k, l in [(0, 0), (1, 3), (0, 6), (2, 5)]:
        got = sym_chain(k, l).specialize_t_qinv()
        expected = LaurentPoly({(l - k - 2 * i, 0): 1 for i in range(l - k + 1)})
        assert got == expected


def test_unimodality_trivial():
    assert unimodality_check(ONE)
    assert unimodality_check(ZERO)


def test_unimodality_rejects_bivariate():
    with pytest.raises(DomainError):
        unimodality_check(Q * T)


def test_unimodality_counterexample():
    # even-degree coefficients 1, 0, 1 dip and rise again
    assert not unimodality_check(ONE + Q**4)
    assert unimodality_check(ONE + Q**2 + Q**4)


def test_qt_power_negative():
    assert qt_power(-2) == LaurentPoly.monomial(-2, -2)


def test_text_rendering_order():
    p = Q**2 + Q * T + T**2 - Q
    assert p.to_text() == "q^2 - q + q t + t^2"
    assert list(p) == [((2, 0), 1), ((1, 0), -1), ((1, 1), 1), ((0, 2), 1)]
    assert str(Q * T) == "q t"

"""Factored rationals: arithmetic, cancellation, and exact reduction."""

from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qtcatalan import (
    BinomialFactor,
    DomainError,
    FactoredRational,
    LaurentPoly,
    NotPolynomialError,
    ONE,
    Q,
    T,
    exact_divide,
)
from qtcatalan import rational
from qtcatalan.rational import (
    Packed,
    PackedBox,
    ProductTree,
    divide_sum_of_products,
    sum_of_products,
)

pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: ab != (0, 0))
factors = pairs.map(lambda ab: BinomialFactor(*ab))

polys = st.dictionaries(
    keys=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    values=st.integers(-4, 4),
    max_size=5,
).map(LaurentPoly)


def test_zero_factor_rejected():
    with pytest.raises(DomainError):
        BinomialFactor(0, 0)
    with pytest.raises(DomainError):
        FactoredRational(ONE, [(0, 0)])


def test_multiplicative_identity():
    x = FactoredRational(Q + T, [BinomialFactor(1, 0)])
    assert x * FactoredRational(ONE) == x


def test_sums_and_products_take_factored_rationals_only():
    x = FactoredRational(Q, [BinomialFactor(1, 0)])
    for other in (1, Q):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


def test_add_like_denominators():
    one_minus_q = (BinomialFactor(1, 0),)
    x = FactoredRational(ONE, one_minus_q)
    y = FactoredRational(-Q, one_minus_q)
    s = x + y
    # both operands sit over the shared factor, which is not duplicated
    assert s.numerator == ONE - Q
    assert s.denominator == one_minus_q
    assert s.to_poly() == ONE


def test_add_reciprocal_pair_is_one(same_value):
    # 1/(1-t/q) + 1/(1-q/t): clearing denominators by hand,
    # (1-q/t) + (1-t/q) = 2 - q/t - t/q = (1-t/q)(1-q/t), so the value is 1.
    x = FactoredRational(ONE, [BinomialFactor(-1, 1)])
    y = FactoredRational(ONE, [BinomialFactor(1, -1)])
    assert (x + y).to_poly() == ONE
    assert same_value(x + y, FactoredRational(ONE))


def test_mul_concatenates_denominators():
    f, g = BinomialFactor(1, 0), BinomialFactor(0, 1)
    x = FactoredRational(Q, [f])
    y = FactoredRational(T, [f, g])
    z = x * y
    assert z.numerator == Q * T
    assert z.denominator == tuple(sorted([f, f, g]))


def test_exact_divide_geometric():
    assert exact_divide(ONE - Q**2, BinomialFactor(1, 0)) == ONE + Q


def test_exact_divide_laurent_direction():
    # (1 - t/q) * (q^2 + q t) = q^2 + q t - q t - t^2 = q^2 - t^2, by hand
    assert exact_divide(Q**2 - T**2, BinomialFactor(-1, 1)) == Q**2 + Q * T


def test_exact_divide_failure():
    with pytest.raises(NotPolynomialError):
        exact_divide(ONE, BinomialFactor(1, 0))


def test_to_poly_non_terminating_case():
    with pytest.raises(NotPolynomialError):
        FactoredRational(ONE, [BinomialFactor(1, 0)]).to_poly()


def test_repeated_factor_division():
    f = BinomialFactor(1, 0)
    p = (ONE - Q) * (ONE - Q) * (Q + T)
    assert FactoredRational(p, [f, f]).to_poly() == Q + T


@given(polys, factors)
@settings(max_examples=150)
def test_divide_inverts_multiply(p, f):
    assert exact_divide(p * f.to_poly(), f) == p


@given(polys, polys, st.lists(factors, max_size=3), st.lists(factors, max_size=3))
@settings(max_examples=100)
def test_reduction_is_additive(p1, p2, d1, d2):
    # Build rationals whose exact values are p1 and p2, then check that
    # reduction commutes with addition.
    x = FactoredRational(p1 * _product(d1), d1)
    y = FactoredRational(p2 * _product(d2), d2)
    assert (x + y).to_poly() == p1 + p2


def _product(factors_list):
    out = ONE
    for f in factors_list:
        out = out * f.to_poly()
    return out


# -- the packed sum of products against the plain LaurentPoly product ---------

@st.composite
def factor_lists(draw):
    # a few distinct factors, repeated, so that coefficients grow past 2^32
    alphabet = draw(st.lists(pairs, min_size=1, max_size=4))
    length = draw(st.integers(0, 50))
    return draw(st.lists(st.sampled_from(alphabet), min_size=length, max_size=length))


rows_of_products = st.lists(
    st.tuples(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), factor_lists()), max_size=4
)


def _naive_sum(rows):
    total = LaurentPoly.zero()
    for (e, f), factors in rows:
        term = LaurentPoly.monomial(e, f)
        for alpha, beta in factors:
            term = term * (ONE - LaurentPoly.monomial(alpha, beta))
        total = total + term
    return total


# rows that share most of their factors, as the tableau plans do: each row
# misses one factor of a common list with a repeated factor and factors with
# k < 0, so the product tree multiplies their partial sums once per factor
_COMMON = [(1, 0), (0, 1), (-1, 1), (-1, 1), (0, -2), (2, -1), (1, 1)]
_SHARING_ROWS = [
    ((i % 3, -i), _COMMON[:i] + _COMMON[i + 1 :] + [(1, 1)] * (i % 2)) for i in range(7)
]


@given(rows_of_products)
@example([((0, 0), [])])
@example(_SHARING_ROWS)
@example(_SHARING_ROWS + [((1, 1), _COMMON), ((-1, 0), _COMMON), ((2, 2), [(-1, 1)] * 3)])
@example([((0, 0), [(1, 0)] * 3), ((1, 2), [(1, 0)] * 3), ((-1, 0), [(1, 0)] * 3)])
@example(
    [
        ((0, 0), [(0, 1)] * 4 + [(-2, 1)]),
        ((1, 0), [(0, 1)] * 2 + [(-2, 1)] * 3),
        ((0, 3), [(0, 1), (-2, 1)]),
    ]
)
@example([((-2, 5), [(1, 0)] * 40 + [(-1, 2)] * 10), ((3, -4), [(0, -1)] * 45), ((0, 0), [])])
@settings(max_examples=60, deadline=None)
def test_packed_sum_matches_naive_product(rows):
    assert sum_of_products(rows) == _naive_sum(rows)


def test_packed_sum_decodes_coefficients_past_32_bits():
    rows = [((-1, 2), [(1, 1)] * 48), ((0, -3), [(-1, 0)] * 50 + [(2, -3)])]
    got = sum_of_products(rows)
    assert max(abs(c) for c in got.terms().values()) > 2**45
    assert got == _naive_sum(rows)
    assert sum_of_products([]) == 0
    assert sum_of_products([((1, -2), [])]) == LaurentPoly.monomial(1, -2)


def test_packed_sum_of_far_apart_rows(run_capped):
    # one box around both rows would hold ~10^18 slots, their own boxes 4
    # and 12, so the kernel must pack the rows apart
    rows = [((0, 0), [(1, 0), (0, 1)]), ((10**9, 10**9), [(-1, 2), (1, 1)])]
    code = (
        "from qtcatalan.rational import sum_of_products; "
        f"print(sum_of_products({rows!r}).sorted_terms())"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{_naive_sum(rows).sorted_terms()}\n"


# -- the packed division against the chain of exact divisions -----------------

def _chain(p, factors_list):
    return reduce(exact_divide, factors_list, p)


def _is_dense(p):
    return PackedBox.around(p.terms()).slots <= rational.SLOTS_PER_TERM * len(p)


@given(polys)
@settings(max_examples=100)
def test_packed_box_round_trip(p):
    if not p:
        return
    box = PackedBox.around(p.terms())
    width = 8 * (max(abs(c) for c in p.terms().values()).bit_length() // 8 + 1)
    value = box.encode(p.terms(), width)
    assert box.decode(value, width) == p.terms()
    assert box.decode(box.widen(value, width, 2 * width), 2 * width) == p.terms()


# factors in both directions, some with |beta| above the t-span of polys
mixed_factors = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-9, 9)).filter(lambda ab: ab != (0, 0)).map(
        lambda ab: BinomialFactor(*ab)
    ),
    min_size=1,
    max_size=6,
)


@given(polys, mixed_factors)
@example(Q + T, [BinomialFactor(0, 9), BinomialFactor(1, -9), BinomialFactor(-2, 1)])
@settings(max_examples=150, deadline=None)
def test_packed_division_recovers_the_quotient(p, factors_list):
    n = p * _product(factors_list)
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        assert FactoredRational(n, factors_list).to_poly() == p
    if n and _is_dense(n):
        # proved by the packed division alone: no factor divided term by term
        assert not any(isinstance(c.args[0], LaurentPoly) for c in divide.call_args_list)
    assert _chain(n, factors_list) == p
    with pytest.raises(NotPolynomialError):
        FactoredRational(n + 1, factors_list).to_poly()


@given(rows_of_products, mixed_factors)
@settings(max_examples=60, deadline=None)
def test_divided_packed_sum_matches_the_chain(rows, factors_list):
    # every row carries the whole denominator, so the sum divides by it
    over = [((e, f), list(fs) + [tuple(g) for g in factors_list]) for (e, f), fs in rows]
    quotient = sum_of_products(rows)
    exponents = [ef for ef, _ in over]
    tree = ProductTree(fs for _, fs in over)
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        assert divide_sum_of_products(exponents, tree, factors_list) == quotient
    if isinstance(rational._pack_sum(exponents, tree), Packed):
        # the quotient's coefficients are below len(rows) * 2^m < 2^(w-1),
        # so the kernel's width proves it: no factor is divided term by term
        assert not any(isinstance(c.args[0], LaurentPoly) for c in divide.call_args_list)
    assert _chain(sum_of_products(over), factors_list) == quotient


def test_packed_division_runs_once_at_the_numerator_width():
    # the numerator's peak coefficient 6 sets the width to 8 bits, where the
    # quotient's peak 670 does not fit: the packed pass runs once, its proof
    # fails, and the chain of exact divisions finishes
    numerator = (ONE - Q**10) ** 4
    quotient = sum((Q**i for i in range(10)), LaurentPoly.zero()) ** 4
    assert max(numerator.terms().values()) == 6
    assert max(quotient.terms().values()) == 670
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        with mock.patch.object(
            PackedBox, "decode", autospec=True, side_effect=PackedBox.decode
        ) as decode:
            assert FactoredRational(numerator, [BinomialFactor(1, 0)] * 4).to_poly() == quotient
    assert [width for (_, _, width), _ in decode.call_args_list] == [8]
    assert [type(c.args[0]) for c in divide.call_args_list] == [Packed] * 4 + [LaurentPoly] * 4


def test_exact_divide_of_a_packed_polynomial():
    # modulo 2^(slots * width) the packed quotient's digits are those of
    # the exact quotient, in both directions of a factor
    quotient = (Q + 2 * T - 1) * (ONE + Q * T)
    factors_list = [BinomialFactor(1, 0), BinomialFactor(-1, 2), BinomialFactor(0, 1)]
    n = quotient * _product(factors_list)
    box = PackedBox.around(n.terms())
    packed = Packed(box, 16, box.encode(n.terms(), 16))
    assert len(packed) == box.slots
    assert reduce(exact_divide, factors_list, packed).unpack() == quotient
    with pytest.raises(DomainError):
        exact_divide(packed, BinomialFactor(1, -box.stride))


def test_non_divisible_numerator_is_refused():
    factors_list = [BinomialFactor(1, 0), BinomialFactor(-1, 2), BinomialFactor(0, 1)]
    n = (Q + T * T + 3) * _product(factors_list)
    assert FactoredRational(n, factors_list).to_poly() == Q + T * T + 3
    with pytest.raises(NotPolynomialError):
        FactoredRational(n + 1, factors_list).to_poly()
    with pytest.raises(NotPolynomialError):
        divide_sum_of_products([(0, 0), (1, 0)], ProductTree([[], [(1, 0)]]), [(1, 0)])


def test_a_change_in_the_dropped_slots_is_refused():
    # D spans the q-degrees -1..1, so Q lies one q-row above the bottom of
    # N's box, and the packed division drops N's lowest slot, which D Q
    # leaves empty; a numerator changed in that slot does not divide
    factors_list = [BinomialFactor(-1, 1), BinomialFactor(1, 0), BinomialFactor(0, 1)]
    n = (Q + T + 2) * (ONE + Q * T) * _product(factors_list)
    box = PackedBox.around(n.terms())
    bad = n + LaurentPoly.monomial(box.q_lo, box.t_lo)
    assert _is_dense(bad)
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        with pytest.raises(NotPolynomialError):
            FactoredRational(bad, factors_list).to_poly()
    assert isinstance(divide.call_args_list[0].args[0], Packed)


def test_sparse_far_apart_numerator_is_divided_by_its_terms(run_capped):
    # the numerator's box holds ~10^18 slots for 16 terms: it must be
    # divided factor by factor, not packed
    code = (
        "from qtcatalan import FactoredRational, LaurentPoly, ONE; "
        "from qtcatalan.rational import product_of_factors; "
        "d = [(1, 0), (0, 1), (-1, 2)]; "
        "quotient = ONE + LaurentPoly.monomial(10**9, 10**9); "
        "n = quotient * product_of_factors(d); "
        "assert len(n) == 16 and FactoredRational(n, d).to_poly() == quotient; "
        "print('ok')"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"

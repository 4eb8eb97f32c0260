"""Tableau enumeration, weights, and the defining F and H sums."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan import (
    BinomialFactor,
    DomainError,
    FactoredRational,
    LaurentPoly,
    NotPolynomialError,
    ONE,
    Q,
    T,
    StandardTableau,
    bracket,
    canonical_partition,
    combine_h_to_f,
    enumerate_syt,
    f_tableaux,
    f_tesler,
    h2,
    h3,
    h_tableaux,
    omega_at,
    positivity_premise_check,
    reduced_tableau_weight,
    tableau_weight,
)
from qtcatalan import rational, tableaux
from qtcatalan.rational import Packed, PackedBox, divide_sum_of_products


def test_non_integral_entries_rejected():
    # read as int(x), 1.5 was truncated to 1 and gave the value of (1,)
    with pytest.raises(DomainError):
        f_tableaux((1.5,))
    with pytest.raises(DomainError):
        h_tableaux((1, 0.5))
    with pytest.raises(DomainError):
        combine_h_to_f(h_tableaux, (2.0,))


def test_large_entries_cost_their_terms_not_their_span(run_capped):
    # F(a, 0) = [a + 1]_{q,t} has a + 1 terms but a q,t-span of a^2
    code = (
        "from qtcatalan import bracket, f_tableaux; "
        "assert f_tableaux((10**5, 0)) == bracket(10**5 + 1)"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    # one rule on both sides: F(11, 11, 11) has 2.3 slots per term of its
    # rows' own boxes and is summed on one box; F(10^4, 0) has 6e5 and is
    # summed row by row, each of its 2 head-like rows on its own box, the
    # other 2 being their transposes
    cases = [((11, 11, 11), 0, f_tesler((0, 11, 11, 11))), ((10**4, 0), 2, bracket(10**4 + 1))]
    for vec, per_row_sums, expected in cases:
        with mock.patch.object(rational, "sum_of_products", wraps=rational.sum_of_products) as rows:
            assert f_tableaux(vec) == expected
        assert rows.call_count == per_row_sums


# -- independent oracle: count SYT by the hook length formula ---------------

def _partitions_of(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def _hook_count(shape):
    n = sum(shape)
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    prod_hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            prod_hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(n) // prod_hooks


def _syt_count_oracle(n):
    return sum(_hook_count(shape) for shape in _partitions_of(n))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26)])
def test_syt_counts_frozen(n, count):
    tabs = enumerate_syt(n)
    assert len(tabs) == count
    assert len(set(tabs)) == count
    assert count == _syt_count_oracle(n)


def test_syt_counts_to_eight():
    for n in (6, 7, 8):
        assert len(enumerate_syt(n)) == _syt_count_oracle(n)


def test_syt_single_cell():
    (tab,) = enumerate_syt(1)
    assert tab.contents() == ((0, 0),)


def test_syt_order_is_lexicographic_in_growth_sequence():
    for n in (3, 4, 5):
        cells = [tab.cells for tab in enumerate_syt(n)]
        assert cells == sorted(cells)


def test_syt_size_bound():
    with pytest.raises(DomainError):
        enumerate_syt(9)
    with pytest.raises(DomainError):
        enumerate_syt(0)
    with pytest.raises(DomainError):
        enumerate_syt(2.5)


def test_known_content_vector_occurs():
    # the seven-cell tableau with z = (1, q, t, t^2, qt, q^2, q^3)
    target = ((0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (3, 0))
    assert any(tab.contents() == target for tab in enumerate_syt(7))


def test_growth_sequences_are_validated():
    with pytest.raises(DomainError):
        StandardTableau(((0, 1),))
    with pytest.raises(DomainError):
        StandardTableau(((0, 0), (1, 0), (2, 1)))
    with pytest.raises(DomainError):
        StandardTableau(((0, 0), (1, 0), (1, 1)))


def test_canonical_partition():
    assert canonical_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(DomainError):
        canonical_partition((1, 2))
    with pytest.raises(DomainError):
        canonical_partition((2, -1))


# -- the cross factor --------------------------------------------------------

def test_omega_at_one():
    # at x = 1 the factor (1 - x) vanishes and is dropped
    w = omega_at((0, 0))
    assert w.numerator == ONE - Q * T
    assert w.denominator == tuple(sorted([BinomialFactor(1, 0), BinomialFactor(0, 1)]))


def test_omega_at_inverse_qt():
    # at x = 1/(qt) the factor (1 - qtx) vanishes and is dropped
    w = omega_at((-1, -1))
    assert w.numerator == ONE - LaurentPoly.monomial(-1, -1)
    assert w.denominator == tuple(sorted([BinomialFactor(0, -1), BinomialFactor(-1, 0)]))


def test_omega_at_q():
    w = omega_at((1, 0))
    assert w.numerator == (ONE - Q) * (ONE - Q**2 * T)
    assert w.denominator == tuple(sorted([BinomialFactor(2, 0), BinomialFactor(1, 1)]))


# -- weights -----------------------------------------------------------------

def _tab_from_contents(contents):
    cells = tuple((r, c) for (c, r) in contents)
    return StandardTableau(cells)


def test_weight_n2_head_like():
    tab = _tab_from_contents([(0, 0), (1, 0)])
    w = tableau_weight(tab)
    assert w.numerator == ONE
    assert w.denominator == (BinomialFactor(-1, 1),)  # 1 / (1 - t/q)


def test_weight_n3_row():
    tab = _tab_from_contents([(0, 0), (1, 0), (2, 0)])
    w = tableau_weight(tab)
    assert w.numerator == ONE
    assert w.denominator == tuple(sorted([BinomialFactor(-1, 1), BinomialFactor(-2, 1)]))


def test_weight_n3_hook():
    tab = _tab_from_contents([(0, 0), (1, 0), (0, 1)])
    w = tableau_weight(tab)
    assert w.numerator == ONE
    assert w.denominator == tuple(sorted([BinomialFactor(-1, 1), BinomialFactor(2, -1)]))


def test_reduced_weights_n4_reference_values(same_value):
    # the five head-like reduced weights of size four, as exact rational values
    cases = {
        ((0, 0), (1, 0), (2, 0), (3, 0)): FactoredRational(
            ONE, [BinomialFactor(-2, 1), BinomialFactor(-3, 1)]
        ),
        ((0, 0), (1, 0), (2, 0), (0, 1)): FactoredRational(
            ONE, [BinomialFactor(-2, 1), BinomialFactor(3, -1)]
        ),
        ((0, 0), (1, 0), (0, 1), (2, 0)): FactoredRational(
            ONE - T,
            [BinomialFactor(-2, 2), BinomialFactor(2, -1), BinomialFactor(-1, 1)],
        ),
        ((0, 0), (1, 0), (0, 1), (0, 2)): FactoredRational(
            ONE, [BinomialFactor(2, -2), BinomialFactor(1, -1)]
        ),
        ((0, 0), (1, 0), (0, 1), (1, 1)): FactoredRational(
            ONE - Q,
            [BinomialFactor(2, -1), BinomialFactor(1, -1), BinomialFactor(-1, 1)],
        ),
    }
    seen = 0
    for tab in enumerate_syt(4):
        if not tab.is_head_like():
            continue
        seen += 1
        assert same_value(reduced_tableau_weight(tab), cases[tab.contents()])
    assert seen == len(cases) == 5


# -- F and H -----------------------------------------------------------------

def test_f_one_argument():
    assert f_tableaux((1,)) == Q + T
    for a in range(6):
        assert f_tableaux((a,)) == bracket(a + 1)


F_012_TERMS = [
    (8, 0, 1), (7, 1, 1), (6, 2, 1), (5, 3, 1), (4, 4, 1), (3, 5, 1),
    (2, 6, 1), (1, 7, 1), (0, 8, 1),
    (6, 1, 1), (5, 2, 1), (4, 3, 1), (3, 4, 1), (2, 5, 1), (1, 6, 1),
    (5, 1, 1), (4, 2, 2), (3, 3, 2), (2, 4, 2), (1, 5, 1),
    (4, 1, -1), (3, 2, -1), (2, 3, -1), (1, 4, -1),
]

F_02_TERMS = [
    (4, 0, 1), (3, 1, 1), (2, 2, 1), (1, 3, 1), (0, 4, 1),
    (2, 1, 1), (1, 2, 1), (1, 1, -1),
]


def test_f_012_golden():
    expected = LaurentPoly({(q, t): c for q, t, c in F_012_TERMS})
    assert f_tableaux((0, 1, 2)) == expected


def test_f_02_golden():
    expected = LaurentPoly({(q, t): c for q, t, c in F_02_TERMS})
    assert f_tableaux((0, 2)) == expected


def test_f_empty_vector_is_one():
    assert f_tableaux(()) == ONE


def test_h_examples():
    assert h_tableaux((3,)) == Q**3
    assert h_tableaux((1, 1)) == Q**3 + Q * T
    assert h_tableaux((2, -1)) == 0
    for a in range(-2, 4):
        assert h_tableaux((a,)) == h2(a)


def test_h_requires_two_cells():
    with pytest.raises(DomainError):
        h_tableaux(())


def test_h_depends_on_first_entry_monomially():
    for rest in [(0,), (2,), (1, 1), (2, 0, 1)]:
        base = h_tableaux((0,) + rest)
        for a2 in (-2, 1, 3):
            assert h_tableaux((a2,) + rest) == LaurentPoly.monomial(a2, 0) * base


def test_combine_h_to_f_monomial():
    # h = q^a in the two-cell case: combining gives the full bracket
    assert combine_h_to_f(lambda v: h2(v[0]), (1,)) == Q + T


def test_combine_h_to_f_n3():
    got = combine_h_to_f(lambda v: h3(*v), (1, 1))
    assert got == Q**3 + Q**2 * T + Q * T**2 + T**3 + Q * T


def test_combine_zero_is_zero():
    assert combine_h_to_f(lambda v: LaurentPoly.zero(), (1, 2)) == 0


def test_combine_matches_direct_sum():
    for vec in [(1,), (3,), (1, 1), (2, 1), (0, 2), (1, 1, 1), (2, 1, 2), (0, 1, 2)]:
        assert combine_h_to_f(h_tableaux, vec) == f_tableaux(vec)


def test_positivity_premise_check():
    assert positivity_premise_check(Q**3 + Q * T)
    assert not positivity_premise_check(Q + 2 * T)
    assert positivity_premise_check(LaurentPoly.zero())
    assert not positivity_premise_check(Q**2 - Q * T)


def test_positivity_premise_implies_nonnegative_f():
    vectors = list(product(range(0, 3), repeat=2)) + [
        (2, 1, 1), (3, 2, 0), (1, 1, 1), (0, 1, 2)
    ]
    premise_held = 0
    for vec in vectors:
        if positivity_premise_check(h_tableaux(vec)):
            premise_held += 1
            assert not f_tableaux(vec).has_negative_coefficient()
    assert premise_held > 0


def test_t_one_specialization_of_f111():
    # subpartitions of (3,2,1) binned by area: the 14-element lattice
    expected = LaurentPoly(
        {(6, 0): 1, (5, 0): 1, (4, 0): 2, (3, 0): 3, (2, 0): 3, (1, 0): 3, (0, 0): 1}
    )
    assert f_tableaux((1, 1, 1)).specialize_t_one() == expected


def test_trailing_zero_invariance():
    for vec in [(2,), (1, 1), (3, 2), (1, 1, 1), (2, 1, 0)]:
        assert f_tableaux(vec + (0,)) == f_tableaux(vec)


def test_qt_symmetry_on_monotone_vectors():
    for vec in [(2,), (2, 1), (3, 3), (2, 2, 1), (3, 1, 1)]:
        p = f_tableaux(vec)
        assert p.swap_qt() == p


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_always_reduces_to_polynomial(vec):
    f_tableaux(tuple(vec))  # NotPolynomialError would fail the test


@given(st.lists(st.integers(-2, 3), min_size=4, max_size=4))
@settings(max_examples=15, deadline=None)
def test_reduces_to_polynomial_n5(vec):
    f_tableaux(tuple(vec))


def test_vector_length_bound():
    with pytest.raises(DomainError):
        f_tableaux((1,) * 8)


def test_n8_tableau_sums_match_tesler():
    # the first sums over the 764 tableaux of size 8
    for vec in [(1,) * 7, (2, 0, 1, 1, 0, 1, 0)]:
        assert f_tableaux(vec) == f_tesler((0,) + vec)


def test_n7_tableau_plan_matches_tesler():
    for vec in [(1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 1, 0), (2, 1, 1, 0, 0), (2, 1, 1, 0, 0, 0)]:
        assert f_tableaux(vec) == f_tesler((0,) + vec)


# -- stdlib differential oracle: the defining sum at rational points -----------

def _oracle_weight(z, q, t, reduced):
    """wt(T), or (1 - t/q) wt(T), evaluated at the point (q, t) straight from
    the definition, dropping each factor (1 - q^0 t^0)."""

    def factor(alpha, beta):
        return 1 if alpha == beta == 0 else 1 - q**alpha * t**beta

    value = Fraction(1)
    for i in range(1, len(z)):
        value /= factor(-z[i][0], -z[i][1])
        value /= factor(z[i - 1][0] - z[i][0] + 1, z[i - 1][1] - z[i][1] + 1)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            a, b = z[i][0] - z[j][0], z[i][1] - z[j][1]
            value *= factor(a, b) * factor(a + 1, b + 1)
            value /= factor(a + 1, b) * factor(a, b + 1)
    return value * factor(-1, 1) if reduced else value


def _evaluate(p, q, t):
    return sum(c * q**qe * t**te for (qe, te), c in p.terms().items())


def test_tableau_sum_matches_fraction_oracle():
    # 2^a 3^b and (-3)^a 5^b equal 1 only at a = b = 0, so no kept factor
    # vanishes at these points
    points = [(Fraction(2), Fraction(3)), (Fraction(-3), Fraction(5))]
    # per point and size: (tail of z, wt, reduced weight or None) per tableau
    weights = {
        (q, t): {
            n: [
                (
                    tab.contents()[1:],
                    _oracle_weight(tab.contents(), q, t, False),
                    _oracle_weight(tab.contents(), q, t, True) if tab.is_head_like() else None,
                )
                for tab in enumerate_syt(n)
            ]
            for n in range(2, 7)
        }
        for q, t in points
    }
    vectors = [v for length in (1, 2, 3) for v in product(range(-1, 3), repeat=length)]
    vectors += [(1, 1, 1, 1), (2, -1, 0, 1), (0, 2, 1, -1), (1, 0, 1, 0, 1), (2, 1, -1, 1, 0)]
    for vec in vectors:
        f_poly, h_poly = f_tableaux(vec), h_tableaux(vec)
        for (q, t), by_size in weights.items():
            f_sum = h_sum = Fraction(0)
            for tail, wt, reduced in by_size[len(vec) + 1]:
                mono = math.prod(q ** (ai * zq) * t ** (ai * zt) for ai, (zq, zt) in zip(vec, tail))
                f_sum += mono * wt
                if reduced is not None:
                    h_sum += mono * reduced
            assert _evaluate(f_poly, q, t) == f_sum, (vec, q, t)
            assert _evaluate(h_poly, q, t) == h_sum, (vec, q, t)


# -- the plan's product tree and the division on the quotient's window --------

def _per_row_total(exponents, factor_lists, signs, box, width):
    # every row multiplied out on its own, as the kernel did before the tree
    total = 0
    for (e, f), factors, sign in zip(exponents, factor_lists, signs):
        x, offset = rational._times_factors(sign, factors, box.stride, width)
        total += x << ((box.slot(e, f) + offset) * width)
    return total


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("n", range(2, 8))
def test_plan_tree_packs_the_per_row_integer(n, reduced):
    # both sides are one polynomial in X evaluated at X = 2^width, so they
    # agree at any width; 8 bits keep the per-row side cheap.  The rows are
    # the ones the tree stores, each with its sign; F's transposed rows are
    # checked below.
    tails, units, tree, _ = tableaux._plan(n, reduced)
    assert set(tree.signs) <= {1, -1} and len(tree.signs) == len(tails)
    for vec in [(1,) * (n - 1), (2, -1, 0, 1, 1, -1, 0)[: n - 1]]:
        exponents = tableaux._row_exponents(vec, tails, units)
        corners = [
            (e + q_lo, e + q_hi, f + t_lo, f + t_hi)
            for (e, f), (q_lo, q_hi, t_lo, t_hi) in zip(exponents, tree.spans)
        ]
        q_los, q_his, t_los, t_his = zip(*corners)
        box = PackedBox(min(q_los), max(q_his), min(t_los), max(t_his))
        got = rational._evaluate(tree, exponents, box, 8)
        assert got == _per_row_total(exponents, tree.factors, tree.signs, box, 8)


@pytest.mark.parametrize(
    "vec", [(1, 2), (0, 1, 2), (2, 1, 1, 0), (1, 1, 1, 1, 1), (2, -1, 1, 0, 1)]
)
def test_each_tableau_sum_divides_once_per_factor_on_the_window(vec):
    for fn, reduced in ((f_tableaux, False), (h_tableaux, True)):
        tails, units, tree, common = tableaux._plan(len(vec) + 1, reduced)
        assert len(common) == PLAN_DENOMINATOR_FACTORS[len(vec) + 1][reduced]
        numerator = rational._pack_sum(tableaux._row_exponents(vec, tails, units), tree)
        assert isinstance(numerator, Packed)
        box = numerator.box
        d_q_lo, d_q_hi, _, _ = rational._span(common)
        window = box.slots - (d_q_hi - d_q_lo) * box.stride
        with mock.patch.object(rational, "exact_divide", wraps=rational.exact_divide) as divide:
            fn(vec)
        assert divide.call_count == len(common)
        for call in divide.call_args_list:
            assert isinstance(call.args[0], Packed) and len(call.args[0]) == window


def _whole_bytes(bits):
    return -(-bits // 8) * 8


def _sweep_vectors(length):
    # the benchmark's tableau vectors at this length: weakly decreasing
    # ones with small entries, one that is not, and a signed one
    top = 3 if length <= 4 else 1
    vectors = [v for v in product(range(top + 1), repeat=length) if list(v) == sorted(v, reverse=True)]
    return vectors + [(0,) * (length - 1) + (top,), (top,) * (length - 1) + (-1,)]


def test_kernel_and_proof_widths_are_the_byte_rounded_bits(monkeypatch):
    # fit_width(rows << max_m) is max_m + bit_length(rows) + 1 bits and
    # max(fit_width(max|Q| << m), w) is max(q_bits + m, w - 1) + 1 bits,
    # each rounded up to whole bytes: the widths every plan ran at before
    # one rule sized both packed engines
    evaluate, times_factors, packed_quotient = rational._evaluate, rational._times_factors, rational._packed_quotient
    proof_widths, seen = [], Counter()
    f_rows_at_6 = len(tableaux._plan(6, False)[0])

    def logged_evaluate(tree, exponents, box, width):
        rows = len(exponents) * (2 if tree.mirror else 1)
        max_m = max(len(factors) for factors in tree.factors)
        assert width == _whole_bytes(max_m + rows.bit_length() + 1)
        if tree.mirror and len(exponents) == f_rows_at_6:
            # 24 factors of D, 19 in the longest row, 76 rows: 27 bits
            assert width == 32
            seen["F at n = 6"] += 1
        seen["kernel"] += 1
        return evaluate(tree, exponents, box, width)

    def logged_times_factors(x, factors, stride, width):
        proof_widths.append(width)
        return times_factors(x, factors, stride, width)

    def logged_quotient(numerator, factors):
        proof_widths.clear()
        quotient = packed_quotient(numerator, factors)
        if quotient is not None:
            q_bits = max(map(abs, quotient.terms().values())).bit_length()
            width = numerator.width
            assert proof_widths == [max(_whole_bytes(max(q_bits + len(factors), width - 1) + 1), width)]
            seen["proof"] += 1
        return quotient

    monkeypatch.setattr(rational, "_evaluate", logged_evaluate)
    monkeypatch.setattr(rational, "_times_factors", logged_times_factors)
    monkeypatch.setattr(rational, "_packed_quotient", logged_quotient)
    vectors = [v for n in range(2, 8) for v in _sweep_vectors(n - 1)]
    nonzero = sum(bool(fn(vec)) for vec in vectors for fn in (f_tableaux, h_tableaux))
    # a zero sum, such as F(3, -1), has nothing to divide.  Each sum is one
    # kernel evaluation and one proof, but H(3, 3) and H(0, 3), whose rows'
    # unit monomials spread them past SLOTS_PER_TERM slots per term, sum
    # their 2 rows one at a time, one more evaluation each, and divide
    # term by term
    assert seen["kernel"] == 2 * len(vectors) + 2 and seen["proof"] == nonzero - 2 > 150
    assert seen["F at n = 6"] == len(_sweep_vectors(5))


def test_tableau_sum_over_a_wrong_denominator_is_refused():
    # F(1, 1, 1, 1) is q,t-Catalan and nonzero at q = 1, so (1 - q) does not divide it
    tails, units, tree, common = tableaux._plan(5, False)
    exponents = tableaux._row_exponents((1, 1, 1, 1), tails, units)
    assert divide_sum_of_products(exponents, tree, common) == f_tesler((0, 1, 1, 1, 1))
    with pytest.raises(NotPolynomialError):
        divide_sum_of_products(exponents, tree, common + ((1, 0),))


# -- the common denominator, reduced up to units ------------------------------

#: the factors of D, (F, H) per size: about half of the least common multiple
#: of the tableau denominators taken factor by factor, where (1 - x^v) and its
#: associate (1 - x^-v) counted as two (28, 46, 66, 100 and 20, 36, 54, 86 at
#: n = 5..8)
PLAN_DENOMINATOR_FACTORS = {
    2: (1, 0), 3: (3, 1), 4: (8, 5), 5: (14, 10), 6: (24, 19), 7: (36, 30), 8: (51, 44)
}


def _associates(v):
    # the class of (1 - x^v) up to units, keyed independently of the plan's choice
    return min(v, (-v[0], -v[1]))


def _unit_row(den, common):
    # (sign, (i, j), factors) with 1 / prod over den = sign q^i t^j factors /
    # prod over common, each factor of den matched to the factor of common
    # it equals or is the associate of: 1 / (1 - x^v) = -x^-v / (1 - x^-v)
    sign, i, j = 1, 0, 0
    cofactor = Counter(common)
    for (alpha, beta), m in den.items():
        if (alpha, beta) in common:
            cofactor[(alpha, beta)] -= m
        else:
            assert (-alpha, -beta) in common, (alpha, beta)
            cofactor[(-alpha, -beta)] -= m
            sign, i, j = sign * (-1) ** m, i - m * alpha, j - m * beta
    assert min(cofactor.values(), default=0) >= 0
    return sign, (i, j), cofactor


def _all_tableau_rows(n):
    # (tail of z, sign, unit monomial, factors) of every tableau of F's sum,
    # each worked out on its own over the plan's D
    common = tableaux._plan(n, False)[3]
    rows = []
    for tab in enumerate_syt(n):
        num, den = tableaux._weight_factors(tab.contents(), False)
        sign, unit, cofactor = _unit_row(den, common)
        rows.append((tab.contents()[1:], sign, unit, list((num + cofactor).elements())))
    return rows


@pytest.mark.parametrize("n", range(2, 8))
def test_f_plan_holds_the_head_like_tableaux_over_the_all_tableau_denominator(n):
    # D is the least common multiple, up to units, of every tableau's
    # denominator: per class {v, -v}, the largest count of v and -v together
    tails, units, tree, common = tableaux._plan(n, False)
    head_like = tuple(tab.contents()[1:] for tab in enumerate_syt(n) if tab.is_head_like())
    assert tails == head_like and 2 * len(tails) == len(enumerate_syt(n))
    assert tree.mirror and tableaux._plan(n, True)[2].mirror is None
    every_den = Counter()
    for tab in enumerate_syt(n):
        _, den = tableaux._weight_factors(tab.contents(), False)
        every_den |= Counter(_associates(v) for v in den.elements())
    assert Counter(_associates(v) for v in common) == every_den
    # one factor per class, and no (0, 0)
    assert len({_associates(v) for v in common}) == len(set(common)) and (0, 0) not in common
    assert len(common) == PLAN_DENOMINATOR_FACTORS[n][0]


#: F's kernel width in bits per size, 32, 56, 72 and 104 at n = 5..8 over
#: the unreduced D
F_KERNEL_WIDTH = {2: 8, 3: 8, 4: 16, 5: 16, 6: 32, 7: 40, 8: 56}


@pytest.mark.parametrize("n", range(2, 9))
def test_plan_denominator_sizes_are_pinned(n):
    assert tuple(len(tableaux._plan(n, reduced)[3]) for reduced in (False, True)) == PLAN_DENOMINATOR_FACTORS[n]
    tails, units, tree, _ = tableaux._plan(n, False)
    vec = (1,) * (n - 1)
    with mock.patch.object(rational, "_evaluate", wraps=rational._evaluate) as evaluate:
        rational._pack_sum(tableaux._row_exponents(vec, tails, units), tree)
    assert evaluate.call_args.args[3] == F_KERNEL_WIDTH[n]


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("n", range(2, 8))
def test_no_factor_of_the_denominator_divides_every_row(n, reduced):
    # D is fully reduced over the rows' binomials: for every factor g of D
    # some row, transposed rows included, holds neither g nor its associate,
    # so no unit multiple of (1 - x^g) could be taken out of every row's
    # factors and D alike.  A row may still be divisible by (1 - x^g)
    # through a factor (1 - x^kg), k >= 2, which would leave a non-binomial.
    _, _, tree, common = tableaux._plan(n, reduced)
    rows = list(tree.factors)
    if tree.mirror:
        rows += [[(beta, alpha) for alpha, beta in factors] for factors in tree.factors]
    for alpha, beta in set(common):
        assert any((alpha, beta) not in r and (-alpha, -beta) not in r for r in rows), (alpha, beta)


@pytest.mark.parametrize("n", range(2, 7))
def test_each_row_over_the_denominator_is_its_tableau_weight(n):
    # each row's sign, unit monomial and factors, over D, is its tableau's
    # weight at the oracle's points; F's transposed rows are the stored ones
    # swapped, times eps q^K t^-K
    points = [(Fraction(2), Fraction(3)), (Fraction(-3), Fraction(5))]
    for reduced in (False, True):
        tails, units, tree, common = tableaux._plan(n, reduced)
        by_tail = {tab.contents()[1:]: tab for tab in enumerate_syt(n)}
        for q, t in points:
            d = math.prod(1 - q**alpha * t**beta for alpha, beta in common)
            if tree.mirror:
                eps, k = tree.mirror
                assert math.prod(1 - t**alpha * q**beta for alpha, beta in common) == eps * q**-k * t**k * d
            for tail, (i, j), sign, factors in zip(tails, units, tree.signs, tree.factors):
                z = by_tail[tail].contents()
                row = sign * q**i * t**j * math.prod(1 - q**alpha * t**beta for alpha, beta in factors)
                assert row / d == _oracle_weight(z, q, t, reduced), (n, reduced, z, q, t)
                if tree.mirror:
                    swapped = sign * t**i * q**j * math.prod(1 - t**alpha * q**beta for alpha, beta in factors)
                    transposed = tuple((zt, zq) for zq, zt in z)
                    mirror_row = eps * q**k * t**-k * swapped
                    assert mirror_row / d == _oracle_weight(transposed, q, t, False), (n, transposed, q, t)


@pytest.mark.parametrize("n", range(2, 7))
def test_mirrored_sum_packs_the_all_tableau_integer(n):
    # the head-like rows' sum plus eps times its transpose is, digit for
    # digit, the integer of every tableau's signed and offset row multiplied
    # out on its own
    tails, units, tree, _ = tableaux._plan(n, False)
    all_tails, signs, row_units, factor_lists = zip(*_all_tableau_rows(n))
    for vec in [(1,) * (n - 1), (2, -1, 0, 1, 1, -1)[: n - 1], (3, 0, 2, 0, 1, 1)[: n - 1]]:
        packed = rational._pack_sum(tableaux._row_exponents(vec, tails, units), tree)
        assert isinstance(packed, Packed)
        exponents = tableaux._row_exponents(vec, all_tails, row_units)
        assert packed.value == _per_row_total(exponents, factor_lists, signs, packed.box, packed.width)

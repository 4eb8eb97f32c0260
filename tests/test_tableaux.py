"""Tableau enumeration, weights, and the defining F and H sums."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    omega_at,
    positivity_premise_check,
    reduced_tableau_weight,
    tableau_weight,
)
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
)
from qtcatalan import rational, tableaux
from qtcatalan.rational import Packed, PackedBox, divide_sum_of_products


def test_non_integral_entries_rejected():
    # read as int(x), 1.5 was truncated to 1 and gave the value of (1,)
    with pytest.raises(DomainError):
        f_tableaux((1.5,))
    with pytest.raises(DomainError):
        h_tableaux((1, 0.5))
    # operator.index(True) is 1, so True was read as 1 and gave F(1, 1)
    with pytest.raises(DomainError):
        f_tableaux((True, 1))
    for cells in [((0, 0), (0, 1.0)), ((0, 0), (True, 0)), ((0, 0), (0, 1.0), (True, 0))]:
        with pytest.raises(DomainError):
            StandardTableau(cells)


def test_large_entries_cost_their_terms_not_their_span(run_capped):
    # F(a, 0) = [a + 1]_{q,t} has a + 1 terms but a q,t-span of a^2
    code = (
        "from qtcatalan import bracket, f_tableaux; "
        "assert f_tableaux((10**5, 0)) == bracket(10**5 + 1)"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr
    # F sums H's rows, and one rule takes a side for each: H(20, 20, 20) has
    # 58.5 slots per term of its rows' own boxes and is summed row by row,
    # each of its 5 rows on its own box; H(11, 11, 11) has 20.6 and
    # H(10^4, 0) 3, and each is summed on one box
    cases = [
        ((20, 20, 20), 5, f_tesler((0, 20, 20, 20))),
        ((11, 11, 11), 0, f_tesler((0, 11, 11, 11))),
        ((10**4, 0), 0, bracket(10**4 + 1)),
    ]
    for vec, per_row_sums, expected in cases:
        with mock.patch.object(rational, "sum_of_products", wraps=rational.sum_of_products) as rows:
            assert f_tableaux(vec) == expected
        assert rows.call_count == per_row_sums


def test_a_quotient_box_past_the_limit_is_refused_before_any_sum():
    # F(a + 1, a) has about 1.5 a^2 terms in a box of (2a + 1)(a + 1) slots;
    # at a = 50000 the sum once ran to 1.4 GB before it was killed
    with mock.patch.object(rational, "_pack_sum") as pack:
        for h in (f_tableaux, h_tableaux):
            with pytest.raises(DomainError, match="a box of 5000150001 slots"):
                h((50001, 50000))
    assert pack.call_count == 0


def test_the_quotient_box_limit_sits_between_neighbours(monkeypatch):
    # the box of F(25, 24)'s quotient has 49 x 25 slots, F(26, 25)'s 51 x 26
    monkeypatch.setattr(rational, "MAX_QUOTIENT_SLOTS", 49 * 25)
    assert f_tableaux((25, 24)) == f_tesler((0, 25, 24))
    with pytest.raises(DomainError, match=f"1326 slots, more than the {49 * 25} allowed"):
        f_tableaux((26, 25))


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


def test_a_list_growth_sequence_is_stored_as_enumerate_syt_builds_it():
    # stored as given, a list of cells was unhashable and unequal to the tuple
    built = enumerate_syt(2)
    for cells in [[(0, 0), (0, 1)], ((0, 0), [0, 1]), [[0, 0], [0, 1]]]:
        tab = StandardTableau(cells)
        assert tab in built and hash(tab) == hash(built[0]) and tab == built[0]


def test_a_growth_sequence_has_no_negative_row():
    # (-1, 1) would read row 0's length as row -1's and be taken for a cell
    with pytest.raises(DomainError):
        StandardTableau(((0, 0), (-1, 1)))


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
    assert combine_h_to_f(h2(1)) == Q + T


def test_combine_h_to_f_n3():
    got = combine_h_to_f(h3(1, 1))
    assert got == Q**3 + Q**2 * T + Q * T**2 + T**3 + Q * T


def test_combine_zero_is_zero():
    assert combine_h_to_f(LaurentPoly.zero()) == 0


def test_combine_matches_direct_sum():
    # f_tableaux is this combination, so the other side is the Tesler route
    for vec in [(1,), (3,), (1, 1), (2, 1), (0, 2), (1, 1, 1), (2, 1, 2), (0, 1, 2)]:
        assert combine_h_to_f(h_tableaux(vec)) == f_tesler((0,) + vec)


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


def test_tableau_sums_of_lengths_5_to_7_match_tesler():
    # the digests pin tableau sums to length 4: here every weakly decreasing
    # 0/1 vector and (2, 0, ..., 0, 1) at lengths 5, 6 and 7, whose plans
    # hold the most factors turned forward, against Tesler, and F = 0 at
    # (1, ..., 1, -1)
    for length in (5, 6, 7):
        vectors = [(1,) * k + (0,) * (length - k) for k in range(length + 1)]
        for vec in vectors + [(2,) + (0,) * (length - 2) + (1,)]:
            assert f_tableaux(vec) == f_tesler((0,) + vec), vec
        assert f_tableaux((1,) * (length - 1) + (-1,)) == LaurentPoly.zero()


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


@pytest.mark.parametrize("n", range(2, 8))
def test_plan_tree_packs_the_per_row_integer(n):
    # both sides are one polynomial in X evaluated at X = 2^width, compared
    # at the tree's width.  The rows are the ones the tree stores, each with
    # its sign.
    columns, tree, _ = tableaux._plan(n)
    assert set(tree.signs) <= {1, -1} and len(tree.signs) == len(columns)
    for vec in [(1,) * (n - 1), (2, -1, 0, 1, 1, -1, 0)[: n - 1]]:
        exponents = tableaux._row_exponents(vec, columns)
        corners = [
            (e + q_lo, e + q_hi, f + t_lo, f + t_hi)
            for (e, f), (q_lo, q_hi, t_lo, t_hi) in zip(exponents, tree.spans)
        ]
        q_los, q_his, t_los, t_his = zip(*corners)
        box = PackedBox(min(q_los), max(q_his), min(t_los), max(t_his))
        got = rational._evaluate(tree, exponents, box)
        assert got == _per_row_total(exponents, tree.factors, tree.signs, box, tree.width)


@pytest.mark.parametrize(
    "vec", [(1, 2), (0, 1, 2), (2, 1, 1, 0), (1, 1, 1, 1, 1), (2, -1, 1, 0, 1)]
)
def test_each_tableau_sum_divides_once_per_factor_on_the_window(vec):
    # H divides its packed sum by each factor of D on the quotient's window;
    # F is that work plus one division of terms by (1 - t/q)
    columns, tree, common = tableaux._plan(len(vec) + 1)
    assert len(common) == PLAN_DENOMINATOR_FACTORS[len(vec) + 1]
    numerator = rational._pack_sum(tableaux._row_exponents(vec, columns), tree)
    assert isinstance(numerator, Packed)
    box = numerator.box
    d_q_lo, d_q_hi, _, _ = rational._span(common)
    window = box.slots - (d_q_hi - d_q_lo) * box.stride
    for fn, term_divisions in ((h_tableaux, 0), (f_tableaux, 1)):
        with (
            mock.patch.object(rational, "exact_divide", wraps=rational.exact_divide) as divide,
            mock.patch.object(tableaux, "exact_divide", wraps=tableaux.exact_divide) as by_terms,
        ):
            fn(vec)
        assert divide.call_count == len(common)
        for call in divide.call_args_list:
            assert isinstance(call.args[0], Packed) and len(call.args[0]) == window
        assert by_terms.call_count == term_divisions
        for call in by_terms.call_args_list:
            assert isinstance(call.args[0], LaurentPoly) and call.args[1] == (-1, 1)


def _whole_bytes(bits):
    return -(-bits // 8) * 8


def _sweep_vectors(length):
    # the benchmark's tableau vectors at this length: weakly decreasing
    # ones with small entries, one that is not, and a signed one
    top = 3 if length <= 4 else 1
    vectors = [v for v in product(range(top + 1), repeat=length) if list(v) == sorted(v, reverse=True)]
    return vectors + [(0,) * (length - 1) + (top,), (top,) * (length - 1) + (-1,)]


def test_kernel_and_proof_widths_are_the_byte_rounded_bits(monkeypatch):
    # fit_width(B_n) is bit_length(B_n) + 1 bits and
    # max(fit_width(max|Q| << m), w) is max(q_bits + m, w - 1) + 1 bits,
    # each rounded up to whole bytes.  B_n never exceeds the bound
    # rows * 2^max_m that holds for any rows, whose fit_width is
    # max_m + bit_length(rows) + 1 bits
    evaluate, times_factors, packed_quotient = rational._evaluate, rational._times_factors, rational._packed_quotient
    proof_widths, seen = [], Counter()
    size_of = {id(tableaux._plan(n)[1]): n for n in range(2, 8)}

    def logged_evaluate(tree, exponents, box):
        n, rows, width = size_of[id(tree)], len(exponents), tree.width
        max_m = max(len(factors) for factors in tree.factors)
        assert width == _whole_bytes(tableaux.ROW_NORM_BOUNDS[n].bit_length() + 1)
        assert width <= _whole_bytes(max_m + rows.bit_length() + 1)
        if n == 6:
            # B_6 = 1455 takes 11 bits; 38 rows of up to 15 factors would take 22
            assert width == 16
            seen["n = 6"] += 1
        seen["kernel"] += 1
        return evaluate(tree, exponents, box)

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
    nonzero = sum(bool(h_tableaux(vec)) for vec in vectors)
    for vec in vectors:
        f_tableaux(vec)
    # F and H each sum H's rows: one kernel evaluation and, unless H is 0,
    # one proof per call.  No vector here spreads its rows past
    # SLOTS_PER_TERM slots per term: H(3, 3) and H(0, 3), at 22.5, are
    # summed packed and divided on the box
    assert seen["kernel"] == 2 * len(vectors) and seen["proof"] == 2 * nonzero > 150
    assert seen["n = 6"] == 2 * len(_sweep_vectors(5))


def test_tableau_sum_over_a_wrong_denominator_is_refused():
    # H(1, 1, 1, 1) rebuilds F(1, 1, 1, 1), the q,t-Catalan number; H is
    # nonzero at q = 1, so (1 - q) does not divide it
    columns, tree, common = tableaux._plan(5)
    exponents = tableaux._row_exponents((1, 1, 1, 1), columns)
    h = divide_sum_of_products(exponents, tree, common)
    assert combine_h_to_f(h) == f_tesler((0, 1, 1, 1, 1))
    with pytest.raises(NotPolynomialError):
        divide_sum_of_products(exponents, tree, common + ((1, 0),))


# -- the common denominator, reduced up to units ------------------------------

#: the factors of D per size: about half of the least common multiple of the
#: head-like tableaux' denominators taken factor by factor, where (1 - x^v)
#: and its associate (1 - x^-v) counted as two (20, 36, 54 and 86 at
#: n = 5..8)
PLAN_DENOMINATOR_FACTORS = {2: 0, 3: 1, 4: 5, 5: 10, 6: 19, 7: 30, 8: 44}


def _tails(columns):
    # the content tails z[1:] of the plan's rows, from their columns
    return tuple(tuple(zip(zq, zt)) for _, zq, _, zt in columns)


def _associates(v):
    # the class of (1 - x^v) up to units, keyed independently of the plan's choice
    return min(v, (-v[0], -v[1]))


@pytest.mark.parametrize("n", range(2, 8))
def test_plan_holds_the_head_like_tableaux_over_their_denominator(n):
    # D is the least common multiple, up to units, of the head-like
    # tableaux' denominators: per class {v, -v}, the largest count of v and
    # -v together
    columns, tree, common = tableaux._plan(n)
    head_like = [tab for tab in enumerate_syt(n) if tab.is_head_like()]
    assert _tails(columns) == tuple(tab.contents()[1:] for tab in head_like)
    assert 2 * len(columns) == len(enumerate_syt(n))
    every_den = Counter()
    for tab in head_like:
        _, den = tableaux._weight_factors(tab.contents(), True)
        every_den |= Counter(_associates(v) for v in den.elements())
    assert Counter(_associates(v) for v in common) == every_den
    # one factor per class, and no (0, 0)
    assert len({_associates(v) for v in common}) == len(set(common)) and (0, 0) not in common
    assert len(common) == PLAN_DENOMINATOR_FACTORS[n]


#: the kernel width of H's plan in bits per size: fit_width(B_n)
KERNEL_WIDTH = {2: 8, 3: 8, 4: 8, 5: 8, 6: 16, 7: 24, 8: 32}


@pytest.mark.parametrize("n", range(2, tableaux.MAX_TABLEAU_SIZE + 1))
def test_row_norm_bound_is_the_exact_sum_of_the_row_norms(n):
    # the sum of ||P_r||_inf is what proves that no coefficient of the
    # packed sum exceeds B_n: each row product is rebuilt in full here, so a
    # wrong entry fails, and so does a size past the table until it grows
    _, tree, _ = tableaux._plan(n)
    norms = [max(map(abs, rational.sum_of_products([((0, 0), factors)]).terms().values())) for factors in tree.factors]
    assert tableaux.ROW_NORM_BOUNDS[n] == sum(norms)
    assert tree.width == rational.fit_width(sum(norms))


@pytest.mark.parametrize("n", range(2, 9))
def test_plan_denominator_sizes_are_pinned(n):
    columns, tree, common = tableaux._plan(n)
    assert len(common) == PLAN_DENOMINATOR_FACTORS[n]
    vec = (1,) * (n - 1)
    with mock.patch.object(rational, "_evaluate", wraps=rational._evaluate) as evaluate:
        rational._pack_sum(tableaux._row_exponents(vec, columns), tree)
    assert evaluate.call_args.args[0].width == KERNEL_WIDTH[n]


@pytest.mark.parametrize("n", range(2, tableaux.MAX_TABLEAU_SIZE + 1))
def test_plan_denominator_points_forward(n):
    # of each pair of associates, D holds the one whose first nonzero
    # exponent is positive, which the packed division takes as 1 - X^k with
    # k > 0 as given; a factor that points backward, such as (-1, 2), is
    # refused before any polynomial work
    columns, tree, common = tableaux._plan(n)
    assert all(alpha > 0 or (alpha == 0 and beta > 0) for alpha, beta in common)
    exponents = tableaux._row_exponents((1,) * (n - 1), columns)
    with (
        mock.patch.object(rational, "_pack_sum", wraps=rational._pack_sum) as pack,
        pytest.raises(DomainError, match="point forward"),
    ):
        divide_sum_of_products(exponents, tree, common + ((-1, 2),))
    assert not pack.called


@pytest.mark.parametrize("n", range(2, 8))
def test_no_factor_of_the_denominator_divides_every_row(n):
    # D is fully reduced over the rows' binomials: for every factor g of D
    # some row holds neither g nor its associate, so no unit multiple of
    # (1 - x^g) could be taken out of every row's factors and D alike.  A
    # row may still be divisible by (1 - x^g) through a factor (1 - x^kg),
    # k >= 2, which would leave a non-binomial.
    _, tree, common = tableaux._plan(n)
    for alpha, beta in set(common):
        assert any((alpha, beta) not in r and (-alpha, -beta) not in r for r in tree.factors), (alpha, beta)


@pytest.mark.parametrize("n", range(2, 7))
def test_each_row_over_the_denominator_is_its_tableau_weight(n):
    # each row's sign, unit monomial and factors, over D, is its tableau's
    # reduced weight at the oracle's points
    points = [(Fraction(2), Fraction(3)), (Fraction(-3), Fraction(5))]
    columns, tree, common = tableaux._plan(n)
    by_tail = {tab.contents()[1:]: tab for tab in enumerate_syt(n)}
    for q, t in points:
        d = math.prod(1 - q**alpha * t**beta for alpha, beta in common)
        for tail, (i, _, j, _), sign, factors in zip(_tails(columns), columns, tree.signs, tree.factors):
            z = by_tail[tail].contents()
            row = sign * q**i * t**j * math.prod(1 - q**alpha * t**beta for alpha, beta in factors)
            assert row / d == _oracle_weight(z, q, t, True), (n, z, q, t)

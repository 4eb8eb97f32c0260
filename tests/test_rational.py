"""Factored rationals: arithmetic, cancellation, and exact reduction."""

import random
from collections import Counter
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import encode
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
from qtcatalan.tableaux import _plan

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
    with pytest.raises(DomainError):
        exact_divide(Q, (0, 0))


def test_factor_exponents_must_be_integers():
    for alpha, beta in [(0.5, 0), (1, 0.0), (True, 0)]:
        with pytest.raises(DomainError):
            BinomialFactor(alpha, beta)


def test_multiplicative_identity():
    x = FactoredRational(Q + T, [BinomialFactor(1, 0)])
    assert x * FactoredRational(ONE) == x


def test_repr_shows_the_numerator_over_its_factors():
    assert repr(FactoredRational(Q, [BinomialFactor(1, 0)])) == "FactoredRational((q) / (1 - q^1 t^0))"
    assert repr(FactoredRational(Q)) == "FactoredRational((q) / 1)"


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
    assert sum_of_products([]) == 0 and ProductTree([]).root is None
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


# -- the product tree's shape ---------------------------------------------------

def _leaves(node, above=()):
    # (i, the factors on the path from the root down to leaf i) for each leaf
    factors, part = node
    path = above + factors
    if isinstance(part, int):
        return [(part, path)]
    sharing, rest = part
    return _leaves(sharing, path) + _leaves(rest, path)


# factor lists of sums of products: one row, rows sharing all but one
# factor, rows with all their factors common, and repeats beside a bare row
_TREE_ROWS = [
    [[]],
    [fs for _, fs in _SHARING_ROWS],
    [[(1, 0)] * 3, [(1, 0)] * 3, [(1, 0)] * 3],
    [[(0, 1)] * 4 + [(-2, 1)], [(0, 1)] * 2 + [(-2, 1)] * 3, [(0, 1), (-2, 1)], []],
]


@pytest.mark.parametrize("n_or_rows", [*range(2, 9), *_TREE_ROWS])
def test_each_row_is_one_leaf_below_its_own_factors(n_or_rows):
    # the tableau plans' trees at sizes 2..8, and sums of products: every
    # row index is exactly one leaf, and the factors met from the root down
    # to it are that row's multiset
    tree = _plan(n_or_rows)[1] if isinstance(n_or_rows, int) else ProductTree(n_or_rows)
    leaves = _leaves(tree.root)
    assert sorted(i for i, _ in leaves) == list(range(len(tree.factors)))
    for i, path in leaves:
        assert Counter(path) == Counter(tree.factors[i]), i


# -- the packed division against the chain of exact divisions -----------------

def _chain(p, factors_list):
    return reduce(exact_divide, factors_list, p)


def _divide_packed(n, factors_list):
    # n packed on its own box at the narrowest width of its coefficients,
    # over the denominator sorted as FactoredRational sorts it
    box = PackedBox.around(n.terms())
    width = rational.fit_width(max(abs(c) for c in n.terms().values()))
    packed = Packed(box, width, encode(box, n.terms(), width))
    return rational._exact_quotient(packed, tuple(sorted(factors_list)))


@given(polys)
@settings(max_examples=100)
def test_packed_box_round_trip(p):
    if not p:
        return
    box = PackedBox.around(p.terms())
    width = 8 * (max(abs(c) for c in p.terms().values()).bit_length() // 8 + 1)
    value = encode(box, p.terms(), width)
    assert box.decode(value, width) == p.terms()
    assert box.decode(rational.relayout(value, box.slots, box.stride, width, box.stride, 2 * width), 2 * width) == p.terms()


def test_digits_at_every_width_round_trip():
    # 1-, 2-, 4- and 8-byte digits are read by a cast, 3-byte ones padded to
    # 4, and wider ones by slices; extreme digits are the balanced ones
    box = PackedBox(-1, 1, 2, 4)
    for width in (8, 16, 24, 32, 64, 72, 128):
        top = (1 << (width - 1)) - 1
        for coeffs in ([top, -top, 1, 0, -1], [-top, 0, 5], [7], []):
            terms = {(e, f): c for (e, f), c in zip([(-1, 2), (0, 3), (1, 4), (1, 2), (0, 2)], coeffs) if c}
            value = encode(box, terms, width)
            assert box.decode(value, width) == terms
            norm = max(map(abs, terms.values()), default=0)
            assert rational.narrowest(value, box.slots, width) == (value, width, norm) or rational.fit_width(norm) < width
            wide = rational.relayout(value, box.slots, box.stride, width, box.stride, 2 * width)
            assert box.decode(wide, 2 * width) == terms
            narrow, narrow_width, got = rational.narrowest(wide, box.slots, 2 * width)
            assert got == norm and narrow_width == rational.fit_width(norm)
            assert box.decode(narrow, narrow_width) == terms


def _largest_digit(box, value, width):
    # the reference: every digit decoded, one at a time
    return max(map(abs, box.decode(value, width).values()), default=0)


def test_mask_test_agrees_with_a_digit_scan():
    # seeded values with digits of every size at 1-, 2-, 3-, 4-, 8- and
    # 9-byte widths and past them: the extreme balanced digits, norms in
    # the top quarter of the width's digit (where the bisection widens),
    # a negative top digit, zero, and one-slot boxes
    rng = random.Random(15)
    for box in (PackedBox(-1, 2, 0, 3), PackedBox(0, 0, 0, 0), PackedBox(3, 3, -2, -2)):
        for width in (8, 16, 24, 32, 64, 72, 128):
            top = (1 << (width - 1)) - 1
            masks = rational._masks(box.slots, width)
            for _ in range(40):
                norm = rng.choice([0, 1, top, top - 1, rng.randint(0, top), min(top, rng.randint(0, 300))])
                norm = rng.choice([norm, (1 << (width - 2)) + rng.randint(0, (1 << (width - 2)) - 1)])
                coeffs = [rng.randint(-norm, norm) for _ in range(box.slots)]
                coeffs[rng.randrange(box.slots)] = rng.choice([norm, -norm])
                if rng.random() < 0.3:
                    coeffs[-1] = -norm  # the top digit negative
                terms = {
                    (box.q_lo + i // box.stride, box.t_lo + i % box.stride): c
                    for i, c in enumerate(coeffs)
                    if c
                }
                value = encode(box, terms, width)
                expected = _largest_digit(box, value, width)
                narrow, narrow_width, got = rational.narrowest(value, box.slots, width)
                assert got == expected
                assert narrow_width == min(width, rational.fit_width(expected))
                assert box.decode(narrow, narrow_width) == terms
                for bound in {0, expected - 1, expected, rng.randint(0, top)}:
                    if 0 <= bound < 1 << (width - 2):
                        assert rational._within(value, masks, bound) == (expected <= bound)
            assert rational.narrowest(0, box.slots, width) == (0, 8, 0)


def test_relayout_narrows_digits_that_fit():
    # three rows of five digits at each width 16..128, re-packed at each
    # narrower width that holds them, at the same stride and at wider ones:
    # the extreme digits of the narrow width, a negative top digit among
    # them, read back the same
    rng = random.Random(23)
    box = PackedBox(-1, 1, 2, 6)
    for width in range(16, 136, 8):
        for new_width in range(8, width, 8):
            top = (1 << (new_width - 1)) - 1
            terms = {(e, f): rng.choice([top, -top, top - 1, 1, -1]) for e in range(-1, 2) for f in range(2, 7)}
            terms[(1, 6)] = -top  # the top digit negative
            value = encode(box, terms, width)
            for new_stride in (5, 6, 8, 13):
                wide = PackedBox(-1, 1, 2, 1 + new_stride)
                out = rational.relayout(value, box.slots, box.stride, width, new_stride, new_width)
                assert wide.decode(out, new_width) == terms, (width, new_width, new_stride)


def test_relayout_keeps_every_row_at_every_wider_stride_and_width():
    # three rows of five extreme digits, read at wider strides (one row of
    # slots past the digits, powers of two, and others) and widths: each
    # row keeps its digits, the slots past it stay empty, and the top row
    # is kept too
    rng = random.Random(19)
    box = PackedBox(-1, 1, 2, 6)
    for width in range(8, 136, 8):
        top = (1 << (width - 1)) - 1
        terms = {(e, f): rng.choice([top, -top, top - 1, 1, -1]) for e in range(-1, 2) for f in range(2, 7)}
        terms[(1, 6)] = -top  # the top digit negative
        value = encode(box, terms, width)
        for new_stride in (5, 6, 8, 13, 64):
            wide = PackedBox(-1, 1, 2, 1 + new_stride)
            for new_width in range(width, 136, 8):
                out = rational.relayout(value, box.slots, box.stride, width, new_stride, new_width)
                assert wide.decode(out, new_width) == terms


def test_relayout_refuses_a_narrower_stride():
    box = PackedBox(0, 1, 0, 3)
    value = encode(box, {(0, 0): 3, (1, 3): -2}, 8)
    with pytest.raises(DomainError, match="rows of 4 digits of 8 bits as rows of 2 digits of 8 bits"):
        rational.relayout(value, box.slots, box.stride, 8, 2, 8)
    with pytest.raises(DomainError, match="rows of 4 digits of 16 bits as rows of 2 digits of 8 bits"):
        rational.relayout(encode(box, {(0, 0): 3}, 16), box.slots, box.stride, 16, 2, 8)


def test_decode_reads_the_triangle_of_a_degree():
    # given a degree, decode reads the slots (i, j) with i + j <= degree from
    # the box's corner, and only those
    box = PackedBox(-1, 2, 3, 6)
    terms = {(e, f): 2 * e + f for e in range(-1, 3) for f in range(3, 7)}
    value = encode(box, terms, 16)
    for degree in range(-1, 9):
        inside = {(e, f): c for (e, f), c in terms.items() if e + 1 + f - 3 <= degree}
        assert box.decode(value, 16, degree) == inside
    assert box.decode(value, 16) == terms


def test_fit_width_is_the_narrowest_balanced_digit():
    # whole bytes, wide enough, and one byte less would not be
    bounds = list(range(600)) + [2**k + d for k in range(8, 130) for d in (-1, 0, 1)]
    for bound in bounds:
        width = rational.fit_width(bound)
        assert width % 8 == 0
        assert 1 << (width - 1) > bound
        assert width == 8 or 1 << (width - 9) <= bound


# factors in both directions, some with |beta| above the t-span of polys
mixed_factors = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-9, 9)).filter(lambda ab: ab != (0, 0)).map(
        lambda ab: BinomialFactor(*ab)
    ),
    min_size=1,
    max_size=6,
)


def _forward(factors_list):
    # each factor, or its associate where the factor points backward, as a
    # tableau plan's denominator holds it
    return [f if rational.forward(*f) else BinomialFactor(-f.alpha, -f.beta) for f in factors_list]


@given(polys, mixed_factors)
@example(Q + T, [BinomialFactor(0, 9), BinomialFactor(1, -9), BinomialFactor(-2, 1)])
@settings(max_examples=150, deadline=None)
def test_packed_division_recovers_the_quotient(p, factors_list):
    # the packed division takes the forward associates, here (2, -1) for
    # (-2, 1); the division of terms takes both directions
    ahead = _forward(factors_list)
    m = p * _product(ahead)
    if m:
        with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
            assert _divide_packed(m, ahead) == p
        # proved by the packed division alone: no factor divided term by term
        assert not any(isinstance(c.args[0], LaurentPoly) for c in divide.call_args_list)
    with pytest.raises(NotPolynomialError):
        _divide_packed(m + 1, ahead)
    n = p * _product(factors_list)
    assert FactoredRational(n, factors_list).to_poly() == p
    assert _chain(n, factors_list) == p
    with pytest.raises(NotPolynomialError):
        FactoredRational(n + 1, factors_list).to_poly()


@given(rows_of_products, mixed_factors)
@settings(max_examples=60, deadline=None)
def test_divided_packed_sum_matches_the_chain(rows, factors_list):
    # every row carries the whole denominator, so the sum divides by it:
    # packed over its forward associates, and by the chain as drawn
    ahead = [tuple(g) for g in _forward(factors_list)]
    over = [((e, f), list(fs) + ahead) for (e, f), fs in rows]
    quotient = sum_of_products(rows)
    exponents = [ef for ef, _ in over]
    tree = ProductTree(fs for _, fs in over)
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        assert divide_sum_of_products(exponents, tree, ahead) == quotient
    if isinstance(rational._pack_sum(exponents, tree), Packed):
        # the quotient's coefficients are below len(rows) * 2^m < 2^(w-1),
        # so the kernel's width proves it: no factor is divided term by term
        assert not any(isinstance(c.args[0], LaurentPoly) for c in divide.call_args_list)
    mixed = [((e, f), list(fs) + [tuple(g) for g in factors_list]) for (e, f), fs in rows]
    assert _chain(sum_of_products(mixed), factors_list) == quotient


def test_packed_division_runs_once_at_the_numerator_width():
    # the numerator's peak coefficient 6 sets the width to 8 bits, where the
    # quotient's peak 670 does not fit: the packed pass runs once, its proof
    # fails, and the chain of exact divisions finishes on the numerator's
    # terms: one decode of the quotient's window (41 - 4 slots), one of N
    numerator = (ONE - Q**10) ** 4
    quotient = sum((Q**i for i in range(10)), LaurentPoly.zero()) ** 4
    assert max(numerator.terms().values()) == 6
    assert max(quotient.terms().values()) == 670
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        with mock.patch.object(
            PackedBox, "decode", autospec=True, side_effect=PackedBox.decode
        ) as decode:
            assert _divide_packed(numerator, [BinomialFactor(1, 0)] * 4) == quotient
    assert [(box.slots, width) for (box, _, width), _ in decode.call_args_list] == [(37, 8), (41, 8)]
    assert [type(c.args[0]) for c in divide.call_args_list] == [Packed] * 4 + [LaurentPoly] * 4


def test_a_quotient_past_the_kernel_width_is_divided_term_by_term():
    # N = (1 - q^20)^3 has peak coefficient 3, so a tree that proves that
    # bound packs N at 8 bits, where Q = (1 + q + ... + q^19)^3, peak 300,
    # does not fit: the packed quotient's proof fails and the chain of exact
    # divisions on N's terms returns Q
    quotient = sum((Q**i for i in range(20)), LaurentPoly.zero()) ** 3
    assert max(quotient.terms().values()) == 300
    tree = ProductTree([[(20, 0)] * 3], norm_bound=3)
    assert tree.width == 8
    with mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide:
        assert divide_sum_of_products([(0, 0)], tree, [(1, 0)] * 3) == quotient
    assert [type(c.args[0]) for c in divide.call_args_list] == [Packed] * 3 + [LaurentPoly] * 3


def test_exact_divide_of_a_packed_polynomial():
    # modulo 2^(slots * width) the packed quotient's digits are those of
    # the exact quotient, for factors 1 - X^k with k = alpha * stride + beta
    # > 0; _packed_quotient passes forward factors that fit the box, each
    # with k > 0, so k <= 0 is refused
    quotient = (Q + 2 * T - 1) * (ONE + Q * T)
    factors_list = [BinomialFactor(1, 0), BinomialFactor(1, -2), BinomialFactor(0, 1)]
    n = quotient * _product(factors_list)
    box = PackedBox.around(n.terms())
    assert box.stride > 2
    packed = Packed(box, 16, encode(box, n.terms(), 16))
    assert len(packed) == box.slots
    assert reduce(exact_divide, factors_list, packed).unpack() == quotient
    for factor in (BinomialFactor(1, -box.stride), BinomialFactor(-1, 2)):
        with pytest.raises(DomainError):
            exact_divide(packed, factor)


def test_non_divisible_numerator_is_refused():
    factors_list = [BinomialFactor(1, 0), BinomialFactor(-1, 2), BinomialFactor(0, 1)]
    n = (Q + T * T + 3) * _product(factors_list)
    assert FactoredRational(n, factors_list).to_poly() == Q + T * T + 3
    with pytest.raises(NotPolynomialError):
        FactoredRational(n + 1, factors_list).to_poly()
    with pytest.raises(NotPolynomialError):
        divide_sum_of_products([(0, 0), (1, 0)], ProductTree([[], [(1, 0)]]), [(1, 0)])


def test_a_change_in_the_dropped_slots_is_refused():
    # D points forward and spans the q-degrees 0..2, so Q lies in N's box
    # less its top two q-rows, and the packed division drops those rows,
    # which it reads only in the proof; a numerator changed at (q_hi, t_lo)
    # does not divide, so the proof fails and the chain refuses it
    factors_list = [BinomialFactor(1, -1), BinomialFactor(1, 0), BinomialFactor(0, 1)]
    n = (Q + T + 2) * (ONE + Q * T) * _product(factors_list)
    box = PackedBox.around(n.terms())
    bad = n + LaurentPoly.monomial(box.q_hi, box.t_lo)
    assert PackedBox.around(bad.terms()).slots == box.slots
    packed_quotient, quotients = rational._packed_quotient, []

    def logged_quotient(numerator, factors):
        quotients.append(packed_quotient(numerator, factors))
        return quotients[-1]

    with (
        mock.patch.object(rational, "exact_divide", wraps=exact_divide) as divide,
        mock.patch.object(rational, "_packed_quotient", logged_quotient),
    ):
        with pytest.raises(NotPolynomialError):
            _divide_packed(bad, factors_list)
    assert isinstance(divide.call_args_list[0].args[0], Packed)
    assert quotients == [None]


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


def test_a_long_quotient_by_terms_is_refused_as_its_runs_are_counted():
    # (1 - q^N) / (1 - q) = [N] has N terms: one run, counted and refused
    # before any is written; a quotient as far apart but of two terms is not
    n = rational.MAX_QUOTIENT_SLOTS + 1
    with pytest.raises(DomainError, match=f"at least {n} terms"):
        exact_divide(ONE - LaurentPoly.monomial(n, 0), BinomialFactor(1, 0))
    sparse = ONE + LaurentPoly.monomial(10 * n, 0)
    assert exact_divide((ONE - Q) * sparse, BinomialFactor(1, 0)) == sparse

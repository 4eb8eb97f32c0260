"""Tesler matrices: enumeration against brute force, weights, and t = 1."""

from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from qtcatalan import (
    DomainError,
    LaurentPoly,
    ONE,
    Q,
    T,
    TeslerMatrix,
    bracket,
    enumerate_tesler,
    f2,
    f_tableaux,
    f_tesler,
    lambda_partition,
    subdiagram_area_gf,
    subpartitions,
    two_diagonal_subdiagrams,
)
from qtcatalan import tesler


# -- independent oracle: brute-force solve the hook-sum equations ------------

def _oracle_tesler(a):
    """Every upper-triangular matrix over 0..sum(a) satisfying the hook sums,
    found by exhaustive search over all entries (diagonal included)."""
    n = len(a)
    bound = sum(a)
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    out = set()
    for values in product(range(bound + 1), repeat=len(idx)):
        m = dict(zip(idx, values))
        ok = all(
            m[(i, i)]
            + sum(m[(j, i)] for j in range(i))
            - sum(m[(i, j)] for j in range(i + 1, n))
            == a[i]
            for i in range(n)
        )
        if ok:
            out.add(tuple(tuple(m[(i, j)] for j in range(i, n)) for i in range(n)))
    return out


def test_two_by_two_against_oracle():
    got = {m.rows for m in enumerate_tesler((1, 1))}
    assert got == _oracle_tesler((1, 1))
    assert got == {((1, 0), (1,)), ((2, 1), (0,))}


def test_three_by_three_count_frozen():
    got = {m.rows for m in enumerate_tesler((1, 1, 1))}
    assert got == _oracle_tesler((1, 1, 1))
    assert len(got) == 7


def test_oracle_agreement_more_vectors():
    for a in [(0,), (2, 0), (0, 2), (1, 0, 1), (2, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0)]:
        assert {m.rows for m in enumerate_tesler(a)} == _oracle_tesler(a)


def test_all_ones_counts_are_the_tesler_numbers():
    # OEIS A008608: the number of n x n Tesler matrices with hook sums (1, ..., 1)
    assert [len(enumerate_tesler((1,) * n)) for n in range(1, 6)] == [1, 2, 7, 40, 357]


def test_zero_vector():
    (m,) = enumerate_tesler((0,))
    assert m.rows == ((0,),)


def test_enumeration_order_is_lexicographic():
    ms = enumerate_tesler((1, 1, 1))
    vecs = [m.off_diagonal_vector() for m in ms]
    assert vecs == sorted(vecs)


def test_negative_entries_rejected():
    with pytest.raises(DomainError):
        enumerate_tesler((1, -1))
    with pytest.raises(DomainError):
        f_tesler((-2,))


def test_non_integral_entries_rejected():
    # read as int(x), 1.5 was truncated to 1 and gave the value of (0, 1)
    for a in [(0, 1.5), (0, 1.0), (2.5, 1), (0, "1")]:
        with pytest.raises(DomainError):
            f_tesler(a)
    with pytest.raises(DomainError):
        enumerate_tesler((1, 1.5))


def test_public_construction_is_validated():
    # enumerate_tesler builds its matrices unchecked; the constructor checks
    assert TeslerMatrix((1, 1), ((2, 1), (0,))).rows == ((2, 1), (0,))
    # a wrong hook sum, a negative entry, and two arrays of the wrong shape
    for rows in [((0, 1), (2,)), ((0, -1), (2,)), ((1, 0),), ((1,), (1,))]:
        with pytest.raises(DomainError):
            TeslerMatrix((1, 1), rows)
    built = enumerate_tesler((1, 1))
    assert built == [TeslerMatrix((1, 1), m.rows) for m in built]


def test_cumulative_form_holds():
    # the equivalent hook-sum form: diagonal suffix plus crossing entries
    for a in [(1, 1, 1), (2, 0, 1), (1, 1, 1, 1), (0, 3, 1)]:
        for m in enumerate_tesler(a):
            n = m.n
            for i in range(n):
                diag_suffix = sum(m.entry(k, k) for k in range(i, n))
                crossing = sum(
                    m.entry(j, k) for j in range(i) for k in range(i, n)
                )
                assert diag_suffix + crossing == sum(a[i:])


def test_single_entry_weight_sum():
    for k in range(4):
        assert f_tesler((k,)) == ONE


def test_weight_sum_two_entries_telescopes():
    # sum of B(0) + B(1) + B(2) telescopes to the three-term bracket
    for a1 in (0, 1, 5):
        assert f_tesler((a1, 2)) == bracket(3) == Q**2 + Q * T + T**2


def test_weight_sum_matches_f012_reference():
    assert f_tesler((1, 0, 1, 2)) == f_tableaux((0, 1, 2))


def test_first_entry_does_not_change_value():
    for tail in [(1, 1), (2, 0, 1), (1, 1, 1)]:
        vals = {f_tesler((x,) + tail) for x in (0, 1, 3)}
        assert len(vals) == 1


def test_agrees_with_tableaux_on_grid():
    for tail in product(range(3), repeat=3):
        expected = f_tableaux(tail)
        for x in (0, 3):
            assert f_tesler((x,) + tail) == expected


def test_matrix_weight_product_equals_streamed_sum():
    for a in [(1, 1), (1, 1, 1), (2, 0, 2)]:
        total = LaurentPoly.zero()
        for m in enumerate_tesler(a):
            total = total + m.weight()
        assert total == f_tesler(a)


# -- two-diagonal matrices and subdiagrams -----------------------------------

def test_two_diagonal_two_by_two():
    pairs = two_diagonal_subdiagrams((1, 1))
    assert len(pairs) == 2  # both matrices are two-diagonal here
    assert {mu for _, mu in pairs} == {(), (1,)}


def test_two_diagonal_single_entry():
    pairs = two_diagonal_subdiagrams((3,))
    assert len(pairs) == 1
    assert pairs[0][1] == ()


def test_two_diagonal_bijection_with_subdiagrams():
    # (1,1,1): five of the seven matrices are two-diagonal, and they hit the
    # five subdiagrams of (2,1) = {(), (1), (2), (1,1), (2,1)} exactly once
    pairs = two_diagonal_subdiagrams((1, 1, 1))
    images = [mu for _, mu in pairs]
    assert len(images) == 5
    assert set(images) == {(), (1,), (2,), (1, 1), (2, 1)}
    for a in [(1, 1), (2, 1, 1), (0, 2, 1), (1, 1, 1, 1)]:
        pairs = two_diagonal_subdiagrams(a)
        images = [mu for _, mu in pairs]
        assert len(images) == len(set(images))
        assert set(images) == set(subpartitions(lambda_partition(a[1:])))


def test_lambda_partition():
    assert lambda_partition((1, 1)) == (2, 1)
    assert lambda_partition((0, 1, 2)) == (3, 3, 2)
    assert lambda_partition(()) == ()


def test_subdiagram_gf_trivial():
    assert subdiagram_area_gf(()) == ONE
    assert subdiagram_area_gf((1,)) == ONE + Q


def test_subdiagram_gf_staircase():
    # direct listing of the 14 subpartitions of (3,2,1), binned by size
    by_size = {}
    for mu in subpartitions((3, 2, 1)):
        by_size[sum(mu)] = by_size.get(sum(mu), 0) + 1
    assert sum(by_size.values()) == 14
    expected = LaurentPoly({(6 - size, 0): k for size, k in by_size.items()})
    assert subdiagram_area_gf((3, 2, 1)) == expected
    assert expected == LaurentPoly(
        {(6, 0): 1, (5, 0): 1, (4, 0): 2, (3, 0): 3, (2, 0): 3, (1, 0): 3, (0, 0): 1}
    )


def test_t_one_specialization_identity():
    for a in [(1, 1), (0, 1, 2), (2, 2, 1), (1, 1, 1, 1), (3, 0, 2)]:
        lhs = f_tesler(a).specialize_t_one()
        assert lhs == subdiagram_area_gf(lambda_partition(a[1:]))


def test_trailing_zero_matrix_column():
    # appending a zero hook sum adds a zero column: same count, same value
    for a in [(1, 1), (2, 0, 1)]:
        assert len(enumerate_tesler(a + (0,))) == len(enumerate_tesler(a))
        assert f_tesler(a + (0,)) == f_tesler(a)


# -- the packed route against matrix enumeration ------------------------------

_WEIGHTS = {}


def _weight_key(m):
    """The superdiagonal entries and the entries further out, each as a
    multiset: all that the weight of m depends on."""
    return (
        tuple(sorted(row[1] for row in m.rows[:-1])),
        tuple(sorted(v for row in m.rows for v in row[2:])),
    )


@lru_cache(maxsize=None)
def _weight_tally(a):
    """(count, weight) per weight key over enumerate_tesler(a); each weight
    is m.weight() of the first matrix with its key."""
    counts = Counter()
    for m in enumerate_tesler(a):
        key = _weight_key(m)
        if key not in _WEIGHTS:
            _WEIGHTS[key] = m.weight()
        counts[key] += 1
    return [(k, _WEIGHTS[key]) for key, k in counts.items()]


def _enumerated_sum(a):
    total = LaurentPoly.zero()
    for k, weight in _weight_tally(a):
        total = total + weight * k
    return total


_GRID = [
    (x,) + tail
    for length in range(2, 6)
    for x in (0, 3)
    for tail in product(range(3), repeat=length - 1)
]


def test_packed_route_matches_matrix_enumeration():
    for a in _GRID:
        assert f_tesler(a) == _enumerated_sum(a), a


def test_matrix_enumeration_on_each_side_of_the_packed_cap():
    # D = 127 fits a 128 x 128 box; D = 128 needs 129 x 256 slots
    below, above = (0, 125, 1), (0, 126, 1)
    assert tesler._box(below).slots <= tesler.PACKED_SLOTS < tesler._box(above).slots
    for a in (below, above):
        assert f_tesler(a) == _enumerated_sum(a) == f2(a[1], a[2])


# -- premises of the packed sizes ---------------------------------------------

def _degree_bound(a):
    return sum((i - 1) * x for i, x in enumerate(a, start=1))


def test_weight_degrees_within_the_stride_bound():
    # both degrees of every weight are at most sum (i - 1) a_i, below the stride
    for a in _GRID:
        d = _degree_bound(a)
        assert tesler._box(a).q_hi == d < tesler._box(a).stride
        for _, weight in _weight_tally(a):
            assert all(qe <= d and te <= d for qe, te in weight.terms())


def test_l1_bound_covers_every_coefficient():
    for a in _GRID + [(0, 5, 6, 6), (0, 1, 1, 1, 1, 1, 1)]:
        total = sum(abs(c) for c in f_tesler(a).terms().values())
        assert tesler._l1_bound(a) >= total
    for a in _GRID:
        norms = (k * sum(map(abs, weight.terms().values())) for k, weight in _weight_tally(a))
        assert tesler._l1_bound(a) >= sum(norms)


def test_line_shaped_inputs_skip_the_packed_sum(run_capped):
    # F(1000) = [1001] fills 1001 of the 1001 x 1024 slots of its box, and
    # F(1000, 1) 2003 of 1003 x 1024: both take the LaurentPoly recursion
    for a in [(0, 1000), (0, 1000, 1)]:
        assert tesler._box(a).slots > tesler.PACKED_SLOTS
    code = (
        "from qtcatalan import bracket, f2, f_tesler; "
        "assert f_tesler((0, 1000)) == bracket(1001); "
        "assert f_tesler((0, 1000, 1)) == f2(1000, 1)"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_long_vectors_on_each_side_of_the_width_cap():
    # F(0, ..., 0, 1) = [n]: N(a) grows by about two bits an entry, so the
    # shorter vector packs at width 128 and the longer one needs 256
    packed, wide = (0,) * 40 + (1,), (0,) * 63 + (1,)
    assert tesler._width(packed) <= tesler.PACKED_WIDTH < tesler._width(wide)
    for a in (packed, wide):
        assert tesler._box(a).slots <= tesler.PACKED_SLOTS
        assert f_tesler(a) == bracket(len(a))


def test_long_zero_tails_need_no_deep_recursion():
    assert f_tesler((0,) * 1000) == ONE
    assert f_tesler((2,) + (0,) * 1000) == ONE
    assert f_tesler((0, 1) + (0,) * 1000) == bracket(2)

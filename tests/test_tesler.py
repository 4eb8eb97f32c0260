"""Tesler matrices: enumeration against brute force, weights, and t = 1."""

from itertools import product

import pytest

from qtcatalan import (
    DomainError,
    LaurentPoly,
    ONE,
    Q,
    T,
    bracket,
    enumerate_tesler,
    f_tableaux,
    f_tesler,
    lambda_partition,
    subdiagram_area_gf,
    subpartitions,
    two_diagonal_subdiagrams,
)


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

"""Tesler matrices: enumeration against brute force, weights, and t = 1."""

from collections import Counter
from functools import lru_cache
from itertools import product
from math import prod

import pytest

from oracles import (
    TeslerMatrix,
    enumerate_tesler,
    subpartitions,
    two_diagonal_subdiagrams,
)
from qtcatalan import (
    DomainError,
    LaurentPoly,
    ONE,
    Q,
    T,
    bracket,
    f2,
    f_tableaux,
    f_tesler,
    lambda_partition,
    subdiagram_area_gf,
)
from qtcatalan import rational, tesler
from qtcatalan.rational import PackedBox, relayout


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
    assert [len(enumerate_tesler((1,) * n)) for n in range(1, 7)] == [1, 2, 7, 40, 357, 4820]


def test_zero_vector():
    (m,) = enumerate_tesler((0,))
    assert m.rows == ((0,),)


def test_enumeration_order_is_lexicographic():
    for a in [(1, 1, 1), (0, 2, 0, 1, 4), (2, 0, 0, 1, 0), (1, 0, 1, 0, 0, 2), (0, 1, 0, 0, 1, 3)]:
        vecs = [m.off_diagonal_vector() for m in enumerate_tesler(a)]
        assert vecs == sorted(set(vecs)), a


def test_negative_entries_rejected():
    with pytest.raises(DomainError):
        enumerate_tesler((1, -1))
    with pytest.raises(DomainError):
        f_tesler((-2,))
    with pytest.raises(DomainError):
        lambda_partition((1, -1))
    with pytest.raises(DomainError):
        enumerate_tesler(())


def test_non_integral_entries_rejected():
    # read as int(x), 1.5 was truncated to 1 and gave the value of (0, 1)
    for a in [(0, 1.5), (0, 1.0), (2.5, 1), (0, "1")]:
        with pytest.raises(DomainError):
            f_tesler(a)
    with pytest.raises(DomainError):
        enumerate_tesler((1, 1.5))
    for hook_sums, rows in [((0, 1), ((0, 0.0), (1,))), ((0, 1.0), ((0, 0), (1,))), ((0, True), ((0, 0), (1,)))]:
        with pytest.raises(DomainError):
            TeslerMatrix(hook_sums, rows)


def test_public_construction_is_validated():
    # enumerate_tesler builds its matrices unchecked; the constructor checks
    assert TeslerMatrix((1, 1), ((2, 1), (0,))).rows == ((2, 1), (0,))
    # a wrong hook sum, a negative entry, and two arrays of the wrong shape
    for rows in [((0, 1), (2,)), ((0, -1), (2,)), ((1, 0),), ((1,), (1,))]:
        with pytest.raises(DomainError):
            TeslerMatrix((1, 1), rows)
    # hook sums enumerate_tesler refuses: (-1, 1) built, with weight q - 1 + t
    for hook_sums, rows in [((-1, 1), ((0, 1), (0,))), ((), ())]:
        with pytest.raises(DomainError, match="hook-sum vector must be nonempty|hook sums must be nonnegative"):
            TeslerMatrix(hook_sums, rows)
    built = enumerate_tesler((1, 1))
    assert built == [TeslerMatrix((1, 1), m.rows) for m in built]
    # lists are stored as the tuples enumerate_tesler builds: hashable, and equal
    for hook_sums, rows in [([1, 1], ((2, 1), (0,))), ((1, 1), [[2, 1], [0]])]:
        matrix = TeslerMatrix(hook_sums, rows)
        assert matrix in built and hash(matrix) == hash(built[-1]) and matrix == built[-1]
    with pytest.raises(IndexError):
        built[0].entry(1, 0)


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


def test_first_entry_and_trailing_zeros_share_one_value():
    # f_tesler reads a with a_1 = 0 and no trailing zero, and decodes F once
    # per such vector: every spelling gives the same immutable value
    for tail in [(1, 1), (2, 0, 1), (0, 2, 2, 1)]:
        values = [f_tesler((x,) + tail + zeros) for x in (0, 3, 7) for zeros in ((), (0,), (0, 0, 0))]
        assert all(v is values[0] for v in values), tail
        expected = f_tableaux(tail)
        assert values[0] == expected
        terms = values[0].terms()
        terms[(0, 0)] = terms.get((0, 0), 0) + 1
        terms[(99, 99)] = 5
        assert f_tesler((7,) + tail) == expected


def test_enumerated_weight_sum_ignores_a1():
    # f_tesler and its walk read a with a_1 = 0, so there the first entry is
    # ignored by construction; the matrices themselves do read it
    for tail in [(1,), (2, 0), (1, 1), (0, 2, 1), (1, 1, 1)]:
        sets, sums = [], []
        for x in (0, 3):
            matrices = enumerate_tesler((x,) + tail)
            sets.append({m.rows for m in matrices})
            total = LaurentPoly.zero()
            for m in matrices:
                total = total + m.weight()
            sums.append(total)
        assert sets[0] != sets[1], tail
        assert sums[0] == sums[1] == f_tableaux(tail), tail


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


def _listed_area_gf(lam):
    # the subpartitions listed one by one, independent of the row counts
    size = sum(lam)
    return LaurentPoly(((size - sum(mu), 0), 1) for mu in subpartitions(lam))


def test_subdiagram_count_equals_the_listing():
    lams = {lambda_partition(tail) for n in range(5) for tail in product(range(4), repeat=n)}
    for lam in sorted(lams) + [(15, 10, 5), (8, 6, 4, 2)]:
        assert subdiagram_area_gf(lam) == _listed_area_gf(lam), lam


def test_t_one_specialization_identity():
    for a in [(1, 1), (0, 1, 2), (2, 2, 1), (1, 1, 1, 1), (3, 0, 2)]:
        lhs = f_tesler(a).specialize_t_one()
        assert lhs == subdiagram_area_gf(lambda_partition(a[1:]))


def test_trailing_zero_matrix_column():
    # appending a zero hook sum adds a zero column: the same matrices, the
    # same value; the enumeration strips a zero tail before its recursion,
    # so a long one costs no depth
    for a in [(1, 1), (2, 0, 1), (0, 1) + (0,) * 600]:
        padded = [tuple(row + (0,) for row in m.rows) + ((0,),) for m in enumerate_tesler(a)]
        assert [m.rows for m in enumerate_tesler(a + (0,))] == padded
        assert f_tesler(a + (0,)) == f_tesler(a)
    assert len(enumerate_tesler((0, 1) + (0,) * 600)) == 2


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


def test_the_column_walk_is_a_few_frames_per_entry(run_capped):
    # each level of the walk and each smaller hook vector is one frame, so at
    # a recursion limit of 300 (212 suffice) it reaches a vector of length
    # 196, in a fresh process, with every cache cold; the tableau route's
    # product tree recurses once per split, 40 deep at size 8
    proc = run_capped(
        "-c",
        "import sys; from qtcatalan import bracket, f_tableaux, tesler; a = (0,) * 195 + (1,); "
        "sys.setrecursionlimit(300); "
        "box = tesler._box(a); value, width, *_ = tesler._packed_walk(a); "
        "assert box.decode(value, width) == bracket(196).terms(); "
        "assert tesler.f_tesler(a) == bracket(196); "
        "assert f_tableaux((1, 0, 0, 0, 0, 0, 1)) == tesler.f_tesler((0, 1, 0, 0, 0, 0, 0, 1))",
    )
    assert proc.returncode == 0, proc.stderr


def test_matrix_enumeration_on_each_side_of_the_packed_cap():
    # D = 255 fits a 256 x 256 box; D = 256 needs 257 x 512 slots
    below, above = (0, 253, 1), (0, 254, 1)
    assert (tesler._box(below).stride, tesler._box(above).stride) == (256, 512)
    for a in (below, above):
        assert f_tesler(a) == _enumerated_sum(a) == f2(a[1], a[2])


# -- premises of the packed sizes ---------------------------------------------

def _degree_bound(a):
    return sum((i - 1) * x for i, x in enumerate(a, start=1))


def test_weight_degrees_within_the_stride_bound():
    # both degrees of every weight are at most sum (i - 1) a_i, below the
    # stride, and so is their sum: F lies in the triangle that _decoded reads
    for a in _GRID:
        d = _degree_bound(a)
        assert tesler._box(a).q_hi == d < tesler._box(a).stride
        for _, weight in _weight_tally(a):
            assert all(qe <= d and te <= d and qe + te <= d for qe, te in weight.terms())


def _largest(p):
    return max(map(abs, p.terms().values()), default=0)


def _bound_by_columns(a):
    """The width bound of the module docstring, summed over the last
    columns one by one: prod ||coefficient||_1 * ||W(a')||_inf."""
    *rest, last = a
    total = 0
    for column in product(range(last + 1), repeat=len(rest)):
        if sum(column) > last:
            continue
        *inner, v = column
        weight = (2 * v + 1) * prod(4 * u if u else 1 for u in inner)
        total += weight * _largest(f_tesler(tuple(x + u for x, u in zip(rest, column))))
    return total


def test_exact_norm_bound_covers_every_coefficient():
    # each node of the packed walk holds the exact largest |coefficient| of
    # W(a), at the narrowest width whose balanced digit holds it, and the
    # bound it was summed under is the docstring's, which covers it
    for a in _GRID + [(0, 5, 6, 6), (0, 1, 1, 1, 1, 1, 1)]:
        if not any(a[1:]):
            continue  # W(a) = 1, with no last column to sum over
        a = tesler._key(a)  # the node the walk keeps: a_1 = 0, no trailing zero
        box = tesler._box(a)
        value, width, norm, _, bound, stride = tesler._packed_walk(a)
        assert stride == box.stride, a
        assert norm == _largest(f_tesler(a)), a
        assert bound == _bound_by_columns(a) >= norm, a
        assert 1 << (width - 1) > norm and (width == 8 or 1 << (width - 9) <= norm), a
        assert box.decode(value, width) == f_tesler(a).terms(), a


def test_a_node_reads_the_same_at_every_wider_stride_and_width():
    # a node of the walk, packed at its own stride S, re-laid out at each
    # stride a parent can have (powers of two from S to 512) and at each
    # width from its own to 128, decodes to the same terms
    for a in [(0, 2, 1, 1), (0, 0, 3), (0, 5), (0, 1, 1, 1, 1, 1, 1)]:
        value, width, *_, stride = tesler._packed_walk(a)
        box = tesler._box(a)
        slots = (box.q_hi + 1) * stride
        new_stride = stride
        while new_stride <= 512:
            wide = PackedBox(0, box.q_hi, 0, new_stride - 1)
            for new_width in range(width, 136, 8):
                out = relayout(value, slots, stride, width, new_stride, new_width)
                assert wide.decode(out, new_width) == f_tesler(a).terms(), (a, new_stride, new_width)
            new_stride *= 2


def test_line_shaped_inputs_pack_under_the_address_space_cap(run_capped):
    # F(1000) = [1001] fills 1001 of the 1001 x 1024 slots of its box, and
    # F(1000, 1) 2003 of 1003 x 1024: the packed walk shifts mostly empty
    # slots, within the cap
    code = (
        "from qtcatalan import bracket, f2, f_tesler; "
        "assert f_tesler((0, 1000)) == bracket(1001); "
        "assert f_tesler((0, 1000, 1)) == f2(1000, 1)"
    )
    proc = run_capped("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_long_vectors_pack_at_the_width_of_their_coefficients():
    # F(0, ..., 0, 1) = [n] has coefficients of 1, so the walk keeps it at
    # 8 bits however long the vector is
    for a in [(0,) * 40 + (1,), (0,) * 63 + (1,), (0,) * 127 + (1,)]:
        _, width, norm, *_, stride = tesler._packed_walk(a)
        assert (width, norm, stride) == (8, 1, tesler._box(a).stride)
        assert f_tesler(a) == bracket(len(a))


def test_the_walk_keeps_a_node_at_sixteen_bits():
    # F(0, 2, ..., 2) of length 8 is summed at 24 bits, the width of its
    # bound, and kept at 16, the width of its largest coefficient 210: a
    # node narrowed to more than 8 bits, checked against the tableau route
    a = (0,) + (2,) * 7
    _, width, norm, _, bound, _ = tesler._packed_walk(a)
    assert (width, norm, bound, rational.fit_width(bound)) == (16, 210, 34839, 24)
    assert f_tesler(a) == f_tableaux((2,) * 7)


def test_the_walk_keeps_one_node_per_distinct_f():
    # every walk key is F's normal form, so F((0,)*195 + (1,)) = [196] keeps
    # one node per length 1..196 and none that only passes a zero through;
    # trailing zeros or another a_1 name the same node and the same F
    tesler._packed_walk.cache_clear()
    tesler._decoded.cache_clear()
    a = (0,) * 195 + (1,)
    assert f_tesler(a) == bracket(196)
    assert tesler._packed_walk.cache_info().currsize == 196
    assert f_tesler(a + (0, 0)) is f_tesler((3,) + a[1:]) is f_tesler(a)
    assert tesler._packed_walk.cache_info().currsize == 196
    assert tesler._decoded.cache_info().currsize == 1


def test_long_zero_tails_need_no_deep_recursion():
    assert f_tesler((0,) * 1000) == ONE
    assert f_tesler((2,) + (0,) * 1000) == ONE
    assert f_tesler((0, 1) + (0,) * 1000) == bracket(2)


def test_a_box_past_the_slot_cap_is_refused_before_any_walk():
    # no node of the walk has a larger box than F's: (0, 3000)'s 3001 x 4096
    # slots, which the walk summed for more than a minute, and (0, 10^20)'s,
    # where the level-1 leaf raised OverflowError, are refused before any
    # node is built; (0, 1000, 1)'s 1003 x 1024 are admitted
    assert tesler._box((0, 1000, 1)).slots <= rational.MAX_QUOTIENT_SLOTS
    walked = tesler._packed_walk.cache_info().misses
    for a in [(0, 3000), (0, 10**20), (7, 0, 3000, 0)]:
        assert tesler._box(tesler._key(a)).slots > rational.MAX_QUOTIENT_SLOTS
        with pytest.raises(DomainError, match="slots, more than the 2097152 allowed"):
            f_tesler(a)
    assert tesler._packed_walk.cache_info().misses == walked

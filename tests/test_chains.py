"""Chain index sets, bijections, strings, chains, and the two formulas."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan import (
    ABCParams,
    CaseLabel,
    DomainError,
    LaurentPoly,
    ZERO,
    PositiveHeadIndex,
    PseudoheadIndex,
    QuasiheadIndex,
    TailIndex,
    appendage_of,
    area,
    canonical_partition,
    chain_of,
    classify,
    combine_h_to_f,
    decompose,
    enumerate_heads,
    enumerate_pseudoheads,
    enumerate_quasiheads,
    enumerate_tails,
    f3_recursive,
    f_chains,
    f_stat,
    h3,
    h_comb_poly,
    h_tableaux,
    hcomb_recursion_residual,
    lambda_partition,
    locate,
    locate_tail,
    omega_inv,
    omega_map,
    phi,
    phi_inv,
    psi,
    psi_inv,
    stat,
    string_of,
    subdiagram_area_gf,
    subpartitions,
    subpartitions3,
    sym_chain,
    theta,
    theta_inv,
    valid_triples,
)
from qtcatalan import chains
from qtcatalan.chains import _resolve, _resolved

P111 = ABCParams(1, 1, 1)
P112 = ABCParams(1, 1, 2)
P000 = ABCParams(0, 0, 0)


def _valid_params(maxval):
    for a in range(maxval + 1):
        for b in range(min(maxval, a + 1) + 1):
            for c in range(min(maxval, a + 1, b + 1) + 1):
                yield ABCParams(a, b, c)


# -- index sets ---------------------------------------------------------------

def _filtered_sorted(cls, p, key):
    # every valid index lies in the box [0, a+b+c]^2; search a wider one
    box = range(-1, p.leg + 2)
    return sorted((x for x in (cls(p, u, v) for u in box for v in box) if x.is_valid()), key=key)


def test_index_sets_in_order_on_a_grid():
    for p in _valid_params(8):
        pseudoheads = _filtered_sorted(PseudoheadIndex, p, lambda x: (x.i, x.j))
        assert enumerate_tails(p) == _filtered_sorted(TailIndex, p, lambda x: (x.E, x.F))
        assert enumerate_pseudoheads(p) == pseudoheads
        assert enumerate_heads(p) == [ph for ph in pseudoheads if ph.is_negative] + (
            _filtered_sorted(PositiveHeadIndex, p, lambda x: (x.k, x.l))
        )
        assert enumerate_quasiheads(p) == _filtered_sorted(QuasiheadIndex, p, lambda x: (x.s, x.t))


def test_enumerations_build_a_record_only_for_a_member(monkeypatch):
    built = Counter()

    def counting(base):
        class Counted(base):
            def __init__(self, *values):
                built[base.__name__] += 1
                super().__init__(*values)

        return Counted

    for base in (TailIndex, PseudoheadIndex, QuasiheadIndex):
        monkeypatch.setattr(chains, base.__name__, counting(base))
    for vec in valid_triples(6):
        p = ABCParams(*vec)
        for base, enumerate_family in [
            (TailIndex, enumerate_tails),
            (PseudoheadIndex, enumerate_pseudoheads),
            (QuasiheadIndex, enumerate_quasiheads),
        ]:
            built.clear()
            members = enumerate_family(p)
            assert built[base.__name__] == len(members) > 0
        built.clear()
        f_chains.__wrapped__(p)  # past the cache, so the sum runs
        assert built["QuasiheadIndex"] == 0


def test_quasiheads_111():
    got = [(q.s, q.t, q.area_range()) for q in enumerate_quasiheads(P111)]
    assert got == [(0, 0, (0, 6)), (1, 0, (1, 4)), (1, 1, (1, 3))]


def test_positive_heads_112():
    heads = enumerate_heads(P112)
    positives = [h for h in heads if isinstance(h, PositiveHeadIndex)]
    assert [(h.k, h.l, h.area_range()) for h in positives] == [(2, 2, (2, 5))]


def test_index_sets_000():
    assert [(t.E, t.F) for t in enumerate_tails(P000)] == [(0, 0)]
    assert [(p.i, p.j) for p in enumerate_pseudoheads(P000)] == [(0, 0)]
    assert [(q.s, q.t) for q in enumerate_quasiheads(P000)] == [(0, 0)]
    (h,) = enumerate_heads(P000)
    assert h.partition() == (0, 0, 0) and h.area_range() == (0, 0)


def test_tails_111_reference_values():
    tails = {(t.E, t.F): t.partition() for t in enumerate_tails(P111)}
    assert tails == {(0, 0): (3, 2, 1), (1, 0): (2, 2, 1), (0, 1): (3, 1, 1)}


def test_index_families_112_reference_values():
    assert sorted(t.partition() for t in enumerate_tails(P112)) == sorted(
        [(4, 3, 2), (3, 3, 2), (4, 2, 2), (3, 2, 2), (2, 2, 2)]
    )
    assert sorted(p.partition() for p in enumerate_pseudoheads(P112)) == sorted(
        [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 2, 1), (2, 2, 2)]
    )
    assert sorted(h.partition() for h in enumerate_heads(P112)) == sorted(
        [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 2)]
    )


# -- bijections ---------------------------------------------------------------

def test_psi_at_origin():
    assert psi(P111, 0, 0) == (0, 0)


def test_psi_tail_to_pseudohead_111():
    assert psi(P111, 1, 0) == (1, 0)  # tail (2,2,1) -> pseudohead (1,1,0)


def test_psi_roundtrip_grid():
    for E in range(10):
        for F in range(10):
            assert psi_inv(P112, *psi(P112, E, F)) == (E, F)


def test_theta_identity_on_negative():
    for ph in enumerate_pseudoheads(P112):
        if ph.is_negative:
            assert ph == chain_of(TailIndex(P112, *psi_inv(P112, ph.i, ph.j))).head


def test_theta_112():
    assert theta(P112, 2, 1) == (2, 2)  # pseudohead (2,2,1) -> head (2,2,0)


def test_theta_roundtrip():
    for p in _valid_params(5):
        for ph in enumerate_pseudoheads(p):
            assert theta_inv(p, *theta(p, ph.i, ph.j)) == (ph.i, ph.j)


def test_phi_identity_region():
    for i in range(4):
        for j in range(4):
            if 2 * i + j <= P112.leg:
                assert phi(P112, i, j) == (i, j)


def test_phi_roundtrip():
    for p in _valid_params(4):
        for i in range(6):
            for j in range(6):
                assert phi_inv(p, *phi(p, i, j)) == (i, j)


def test_omega_112():
    assert omega_map(2, 2) == (2, 0)  # head (2,2,0) -> quasihead (2,2,0)


def test_omega_roundtrip():
    for p in _valid_params(5):
        for h in enumerate_heads(p):
            if isinstance(h, PositiveHeadIndex):
                assert omega_inv(*omega_map(h.k, h.l)) == (h.k, h.l)


# -- strings, appendages, chains ------------------------------------------------

def test_string_111_third_chain():
    got = string_of(PseudoheadIndex(P111, 1, 1))
    assert got == [(1, 1, 1), (2, 1, 1), (3, 1, 1)]


def test_string_000():
    assert string_of(PseudoheadIndex(P000, 0, 0)) == [(0, 0, 0)]


def test_string_111_first_chain():
    got = string_of(PseudoheadIndex(P111, 0, 0))
    assert len(got) == 7
    assert got[0] == (0, 0, 0) and got[-1] == (3, 2, 1)


def test_appendage_112():
    assert appendage_of(PositiveHeadIndex(P112, 2, 2)) == [(2, 2, 0)]


def test_appendage_singleton_bound():
    # b + c - k = 3 here, but ceil((l - a)/2) = 1 caps the appendage at one cell
    head = PositiveHeadIndex(ABCParams(3, 4, 4), 5, 4)
    assert appendage_of(head) == [(5, 4, 0)]


def test_appendage_rejects_negative_head():
    with pytest.raises(DomainError):
        appendage_of(enumerate_pseudoheads(P111)[0])


CHAINS_111 = {
    (0, 6): [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1)],
    (1, 4): [(1, 1, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1)],
    (1, 3): [(1, 1, 1), (2, 1, 1), (3, 1, 1)],
}

CHAINS_112 = {
    (0, 9): [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0),
             (4, 1, 0), (4, 2, 0), (4, 3, 0), (4, 3, 1), (4, 3, 2)],
    (1, 7): [(1, 1, 0), (2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 3, 0), (3, 3, 1), (3, 3, 2)],
    (1, 6): [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 2, 2)],
    (2, 5): [(2, 2, 0), (2, 2, 1), (3, 2, 1), (3, 2, 2)],
    (3, 3): [(2, 2, 2)],
}


def test_chains_111_match_table():
    chains = decompose(P111)
    got = {ch.area_range: sorted(ch.members) for ch in chains}
    assert got == {rng: sorted(members) for rng, members in CHAINS_111.items()}


def test_chains_112_match_table():
    chains = decompose(P112)
    got = {ch.area_range: sorted(ch.members) for ch in chains}
    assert got == {rng: sorted(members) for rng, members in CHAINS_112.items()}


def test_chain_sizes():
    assert sorted(len(ch.members) for ch in decompose(P111)) == [3, 4, 7]
    assert sorted(len(ch.members) for ch in decompose(P112)) == [1, 4, 6, 7, 10]
    assert [len(ch.members) for ch in decompose(P000)] == [1]


def test_chain_members_increase_in_area():
    for p in (P111, P112):
        for ch in decompose(p):
            r, R = ch.area_range
            assert [area(p, m) for m in ch.members] == list(range(r, R + 1))


# -- classification, location, statistic ----------------------------------------

def test_classify_examples():
    assert classify(P112, (2, 2, 0)) is CaseLabel.CASE_2
    assert classify(P111, (1, 0, 0)) is CaseLabel.CASE_1A
    assert classify(P111, (3, 2, 1)) is CaseLabel.CASE_1BII


@pytest.mark.parametrize("bad", [1.5, "2"])
@pytest.mark.parametrize(
    "call",
    [
        lambda lam: area(P111, lam),
        lambda lam: stat(P111, lam),
        lambda lam: classify(P111, lam),
        lambda lam: locate_tail(P111, lam),
        lambda lam: locate(P111, lam),
        canonical_partition,
        lambda_partition,
        lambda lam: list(subpartitions(lam)),
        subdiagram_area_gf,
    ],
    ids=[
        "area", "stat", "classify", "locate_tail", "locate", "canonical_partition",
        "lambda_partition", "subpartitions", "subdiagram_area_gf",
    ],
)
def test_partition_inputs_refuse_non_integers(call, bad):
    # 1.5 used to give area 3.5 and stat 1.5; "2" raised TypeError, not DomainError
    with pytest.raises(DomainError, match="integers"):
        call((bad, 1, 0))


def test_classify_rejects_outside():
    with pytest.raises(DomainError):
        classify(P111, (4, 0, 0))
    with pytest.raises(DomainError):
        stat(P111, (1, 2, 0))
    with pytest.raises(DomainError):
        area(P111, (1, 1, 1, 1))


def test_locate_examples():
    assert locate(P112, (2, 2, 0)).area_range == (2, 5)
    assert locate(P111, (1, 0, 0)).area_range == (0, 6)
    assert locate(P111, (3, 2, 1)).tail.partition() == (3, 2, 1)


def test_stat_table_values():
    assert stat(P111, (1, 0, 0)) == 1
    assert stat(P111, (0, 0, 0)) == 0
    assert stat(P112, (2, 2, 0)) == 2


def _case_by_leg(ch):
    """Each member's case read off its chain: 2 on the appendage, and on the
    string's legs up to the tail (p, q, c), 1a while x < p, 1bi while
    x = p and y < q, and 1bii at x = p, y = q."""
    top, mid, _ = ch.tail.partition()
    cases = {}
    if isinstance(ch.head, PositiveHeadIndex):
        cases.update((m, CaseLabel.CASE_2) for m in appendage_of(ch.head))
    for x, y, z in string_of(ch.pseudohead):
        leg = CaseLabel.CASE_1A if x < top else CaseLabel.CASE_1BI if y < mid else CaseLabel.CASE_1BII
        cases[x, y, z] = leg
    return cases


def test_stat_matches_chain_arithmetic():
    # each member's tail, range and case come from its chain, not the
    # resolver; in particular the case is 2 exactly on the appendage
    for p in _valid_params(6):
        for ch in decompose(p):
            r, R = ch.area_range
            cases = _case_by_leg(ch)
            for m in ch.members:
                assert locate_tail(p, m) == ch.tail
                assert stat(p, m) == r + R - area(p, m)
                assert classify(p, m) is cases[m]


def test_monomials_match_tables():
    # every member carries the monomial q^area t^(r + R - area)
    for p, table in ((P111, CHAINS_111), (P112, CHAINS_112)):
        for ch in decompose(p):
            r, R = ch.area_range
            assert ch.members == tuple(table[(r, R)][::-1])
            for m in ch.members:
                assert (area(p, m), stat(p, m)) == (area(p, m), r + R - area(p, m))


# -- the formulas ---------------------------------------------------------------

def test_f_chains_111():
    assert f_chains(P111) == sym_chain(0, 6) + sym_chain(1, 4) + sym_chain(1, 3)


def test_f_chains_112():
    expected = ZERO
    for rng in CHAINS_112:
        expected = expected + sym_chain(*rng)
    assert f_chains(P112) == expected


def test_f_chains_000():
    assert f_chains(P000) == 1
    assert f_stat(P000) == 1


def test_f_stat_table_sizes():
    p = f_stat(P111)
    assert sum(c for _, c in p.terms().items()) == 14
    assert f_stat(P112) == f_chains(P112)


def test_the_resolved_table_is_resolve_member_by_member():
    for p in _valid_params(6):
        table = _resolved(p)
        assert isinstance(table, tuple)
        assert [row[0] for row in table] == subpartitions3(p)
        for lam, lam_area, E, F, s in table:
            assert lam_area == area(p, lam)
            assert _resolve(p, *lam)[1:] == (E, F, s)


def test_formulas_agree_with_recursion():
    for p in _valid_params(4):
        expected = f3_recursive(p)
        assert f_chains(p) == expected
        assert f_stat(p) == expected


def test_chain_partition_property_small():
    for p in _valid_params(4):
        seen = {}
        for t in enumerate_tails(p):
            ch = chain_of(t)
            for m in ch.members:
                assert m not in seen
                seen[m] = ch.area_range
        assert set(seen) == set(subpartitions3(p))


def test_string_appendage_dichotomy():
    # a subpartition lies in a string iff its third part is large enough
    # (classified away from case 2), and in an appendage iff not
    for p in _valid_params(5):
        in_string = set()
        in_appendage = set()
        for t in enumerate_tails(p):
            ch = chain_of(t)
            in_string.update(string_of(ch.pseudohead))
            if isinstance(ch.head, PositiveHeadIndex):
                in_appendage.update(appendage_of(ch.head))
        for lam in subpartitions3(p):
            if classify(p, lam) is CaseLabel.CASE_2:
                assert lam in in_appendage and lam not in in_string
            else:
                assert lam in in_string and lam not in in_appendage


def test_index_sets_equinumerous_with_preserved_ranges():
    for p in _valid_params(5):
        tails = enumerate_tails(p)
        assert len(tails) == len(enumerate_pseudoheads(p))
        assert len(tails) == len(enumerate_heads(p))
        assert len(tails) == len(enumerate_quasiheads(p))
        for t in tails:
            ch = chain_of(t)
            assert t.area_range() == ch.pseudohead.area_range()
            assert t.area_range() == ch.head.area_range()
            assert t.area_range() == ch.quasihead.area_range()


# -- h_comb ----------------------------------------------------------------------

def test_h_comb_initial_condition():
    p = ABCParams(1, 1, 0)
    assert h_comb_poly(p.a, p.b, p.c) == h3(1, 1) == LaurentPoly({(3, 0): 1, (1, 1): 1})
    for a in range(4):
        for b in range(a + 1):
            p = ABCParams(a, b, 0)
            assert h_comb_poly(p.a, p.b, p.c) == h3(a, b)


def test_h_comb_boundary_b_equals_a_plus_one():
    # at b = a + 1 the quasihead sum drops the q^a t^b term of the head-like
    # closed form, but that term combines to zero, so F is unaffected
    for a in range(4):
        b = a + 1
        p = ABCParams(a, b, 0)
        assert h_comb_poly(p.a, p.b, p.c) == h3(a, b) - LaurentPoly.monomial(a, b)
        assert combine_h_to_f(lambda v: h_comb_poly(*v), (a, b, 0)) == f3_recursive(
            ABCParams(a, b, 0)
        )


def test_h_comb_111():
    p = P111
    assert h_comb_poly(p.a, p.b, p.c) == LaurentPoly({(6, 0): 1, (4, 1): 1, (3, 1): 1})


def test_h_comb_empty_below_zero():
    assert h_comb_poly(3, 3, -1) == 0


def test_h_comb_on_raw_triples_matches_a_direct_listing():
    # outside the validated region too (c > b + 1, b > a + 1, c = -1), where
    # only the two-step residual's c - 2 call reaches it
    for a in range(6):
        for b in range(6):
            for c in range(-1, 6):
                A = a + 2 * b + 3 * c
                listed = LaurentPoly(
                    ((A - 2 * s - t, s + max(0, s + t - (b + c))), 1)
                    for t in range(c + 1)
                    for s in range(t, b + c + 1)
                    if 2 * s + 2 * t <= a + b + 2 * c - ((c - t) % 2)
                )
                assert h_comb_poly(a, b, c) == listed, (a, b, c)


def test_h_comb_combines_to_f_chains():
    for p in _valid_params(4):
        got = combine_h_to_f(lambda v: h_comb_poly(*v), (p.a, p.b, p.c))
        assert got == f_chains(p)


def test_h_comb_differs_from_h_tableaux_somewhere():
    # the quasihead monomial sum is NOT the head-like tableau sum in general
    diffs = [
        p for p in _valid_params(3) if h_comb_poly(p.a, p.b, p.c) != h_tableaux((p.a, p.b, p.c))
    ]
    assert diffs


def test_h_comb_recursion_residuals():
    for p in _valid_params(5):
        if p.c >= 1:
            assert hcomb_recursion_residual(p) == 0
    with pytest.raises(DomainError):
        hcomb_recursion_residual(ABCParams(1, 1, 0))


@given(st.integers(0, 7), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_partition_property_sampled(a, b, c):
    b = min(b, a + 1)
    c = min(c, a + 1, b + 1)
    p = ABCParams(a, b, c)
    seen = set()
    for t in enumerate_tails(p):
        ch = chain_of(t)
        r, R = ch.area_range
        assert [area(p, m) for m in ch.members] == list(range(r, R + 1))
        for m in ch.members:
            assert m not in seen
            seen.add(m)
    assert seen == set(subpartitions3(p))

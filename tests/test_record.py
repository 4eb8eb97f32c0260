"""Record: the frozen value type behind the package's small immutable classes.

It stands in for a frozen dataclass, so it must compare, hash, order and
show itself as one would."""

import pickle

import pytest

from oracles import enumerate_tesler
from qtcatalan import (
    ABCParams,
    BinomialFactor,
    DomainError,
    PseudoheadIndex,
    StandardTableau,
    TailIndex,
    decompose,
    enumerate_syt,
)


def test_repr_reads_as_a_frozen_dataclass():
    p = ABCParams(3, 1, 2)
    assert repr(p) == "ABCParams(a=3, b=1, c=2)"
    assert repr(TailIndex(p, 0, 1)) == "TailIndex(params=ABCParams(a=3, b=1, c=2), E=0, F=1)"
    assert repr(BinomialFactor(2, -1)) == "BinomialFactor(alpha=2, beta=-1)"


def test_equality_and_hash_are_those_of_the_field_tuple():
    p = ABCParams(2, 1, 1)
    assert p == ABCParams(2, 1, 1) and hash(p) == hash(ABCParams(2, 1, 1)) == hash((2, 1, 1))
    assert p != ABCParams(2, 1, 0)
    assert p != (2, 1, 1)
    # the same fields in another class are another value
    assert TailIndex(p, 0, 0) != PseudoheadIndex(p, 0, 0)
    assert len({BinomialFactor(1, 0), BinomialFactor(1, 0), BinomialFactor(0, 1)}) == 2
    # one field still hashes as a 1-tuple
    tab = enumerate_syt(2)[0]
    assert tab == StandardTableau(tab.cells) and hash(tab) == hash((tab.cells,))


def test_binomial_factors_sort_by_alpha_then_beta():
    factors = [BinomialFactor(1, 0), BinomialFactor(-1, 2), BinomialFactor(1, -1), BinomialFactor(0, 1)]
    assert [tuple(f) for f in sorted(factors)] == [(-1, 2), (0, 1), (1, -1), (1, 0)]
    assert BinomialFactor(0, 1) < BinomialFactor(1, -1) <= BinomialFactor(1, -1)
    assert BinomialFactor(2, 0) > BinomialFactor(1, 5) >= BinomialFactor(1, 5)
    with pytest.raises(TypeError):
        BinomialFactor(0, 1) < (0, 1)


def test_fields_cannot_be_assigned_or_deleted():
    p = ABCParams(1, 1, 1)
    with pytest.raises(AttributeError):
        p.a = 2
    with pytest.raises(AttributeError):
        del p.b
    with pytest.raises(AttributeError):
        p.extra = 0
    assert p == ABCParams(1, 1, 1)


def test_pickle_round_trips():
    p = ABCParams(3, 1, 2)
    records = [p, BinomialFactor(2, -1), enumerate_syt(3)[1], enumerate_tesler((0, 1, 1))[2], *decompose(p)]
    for record in records:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record and repr(back) == repr(record)


@pytest.mark.parametrize(
    "cls, values",
    [(ABCParams, (1, 1)), (ABCParams, (1, 1, 1, 1)), (BinomialFactor, (1,)), (StandardTableau, ())],
)
def test_the_wrong_field_count_raises_type_error(cls, values):
    with pytest.raises(TypeError):
        cls(*values)


def test_check_validates_the_fields():
    with pytest.raises(DomainError):
        ABCParams(0, 2, 0)
    with pytest.raises(DomainError):
        BinomialFactor(0, 0)
    with pytest.raises(DomainError):
        StandardTableau(((0, 0), (0, 2)))

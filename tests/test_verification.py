"""The sweep layer behind `qtc verify`: which checks run, and the pool."""

import dataclasses
import os
from collections import Counter

import pytest

from qtcatalan import ABCParams, DomainError, verification
from qtcatalan.chains import TailIndex, chain_of, decompose
from qtcatalan.verification import parallel_map, run_verify


@pytest.mark.parametrize(
    "n, maxval, expected",
    [
        (2, 3, {"methods-agree[n=2]": 4, "h-closed-form[n=2]": 4, "t1-subdiagram-count": 4,
                "trailing-zero": 4, "one-arg-reflection": 3}),
        (3, 2, {"methods-agree[n=3]": 9, "h-closed-form[n=3]": 9, "t1-subdiagram-count": 9,
                "trailing-zero": 9}),
        (4, 2, {"methods-agree[n=4]": 20, "t1-subdiagram-count": 20, "chain-partition[n=4]": 20,
                "unimodality[t=1/q]": 20, "hcomb-two-step-recursion": 12}),
        (5, 1, {"methods-agree[n=5]": 16, "t1-subdiagram-count": 16}),
    ],
)
def test_checks_per_identity(n, maxval, expected):
    report = run_verify(n, maxval, jobs=1)
    assert Counter(c.identity for c in report.cases) == expected
    assert not report.mismatches


@pytest.mark.parametrize("n, maxval", [(4, -1), (2, -3), (6, 1), (1, 0)])
def test_run_verify_refuses_a_sweep_it_cannot_run(n, maxval):
    # a negative max would build an empty grid and report 0 mismatches;
    # n outside 2..5 has no suite
    with pytest.raises(DomainError):
        run_verify(n, maxval, jobs=1)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs", [2, 10**6])
def test_parallel_map_clamps_workers_to_usable_cpus(monkeypatch, jobs):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(verification, "ProcessPoolExecutor", _InlinePool)
    assert parallel_map(abs, [-1, 2], jobs=jobs) == [1, 2]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    assert _InlinePool.sizes == [min(jobs, cpus)]


@pytest.mark.parametrize("jobs", [1, 0, -3])
def test_parallel_map_runs_inline_below_two_jobs(monkeypatch, jobs):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(verification, "ProcessPoolExecutor", _InlinePool)
    assert parallel_map(abs, [-1, 2], jobs=jobs) == [1, 2]
    assert _InlinePool.sizes == []


def test_chain_partition_refuses_a_locate_that_finds_another_chain(monkeypatch):
    # (3, 1, 2) has two chains with one area range: a resolver that returns
    # the other one's tail gives stat the right range, but not lam's chain
    real = verification._resolve

    def other_tail(p, *lam):
        case, E, F, s = real(p, *lam)
        found = chain_of(TailIndex(p, E, F))
        twins = [
            ch for ch in decompose(p)
            if ch.area_range == found.area_range and ch.members != found.members
        ]
        tail = twins[0].tail if twins else found.tail
        return case, tail.E, tail.F, s

    assert verification.check_chain_partition((3, 1, 2))[0].ok
    monkeypatch.setattr(verification, "_resolve", other_tail)
    (result,) = verification.check_chain_partition((3, 1, 2))
    assert not result.ok
    assert "finds another chain" in result.detail


def test_chain_partition_reports_a_stat_off_its_chain(monkeypatch):
    # one member's stat one too high breaks area + stat = r + R on its chain
    real = verification._resolve

    def one_off(p, *lam):
        case, E, F, s = real(p, *lam)
        return case, E, F, s + 1 if lam == (2, 1, 0) else s

    monkeypatch.setattr(verification, "_resolve", one_off)
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert result.detail == "stat((2, 1, 0)) disagrees with its chain"


def test_chain_partition_reports_a_member_outside_the_staircase(monkeypatch):
    # a chain that strays past the staircase is a mismatch, not an error
    real = verification.chain_of

    def stray(tail):
        ch = real(tail)
        return dataclasses.replace(ch, members=ch.members + ((9, 9, 9),))

    monkeypatch.setattr(verification, "chain_of", stray)
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert "outside the staircase: [(9, 9, 9)]" in result.detail


def test_chain_partition_reports_index_sets_of_different_sizes(monkeypatch):
    # one head fewer than tails breaks the bijections between the index sets
    real = verification.enumerate_heads
    tails = len(verification.enumerate_tails(ABCParams(1, 1, 1)))
    monkeypatch.setattr(verification, "enumerate_heads", lambda p: real(p)[1:])
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    sizes = {"tails": tails, "pseudoheads": tails, "heads": tails - 1, "quasiheads": tails}
    assert result.detail == f"index sets differ in size: {sizes}"


def test_chain_partition_reports_a_range_not_preserved_along_a_chain(monkeypatch):
    # a quasihead one step off has another area range than its chain
    real = verification.chain_of
    first = verification.enumerate_tails(ABCParams(1, 1, 1))[0]

    def shifted(tail):
        ch = real(tail)
        if tail != first:
            return ch
        return dataclasses.replace(ch, quasihead=dataclasses.replace(ch.quasihead, s=ch.quasihead.s + 1))

    monkeypatch.setattr(verification, "chain_of", shifted)
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert result.detail == f"range not preserved along chain of {first}"


def test_chain_partition_reports_a_subdiagram_no_chain_covers(monkeypatch):
    # a lattice with one partition more than the chains hold is not covered
    real = verification.subpartitions3
    monkeypatch.setattr(verification, "subpartitions3", lambda p: list(real(p)) + [(9, 9, 9)])
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert result.detail == "not covered: [(9, 9, 9)]..."

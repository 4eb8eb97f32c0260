"""The sweep layer behind `qtc verify`: which checks run, and the forked map."""

import os
import time
from collections import Counter

import pytest

from qtcatalan import ONE, ABCParams, ChainRecord, DomainError, QuasiheadIndex, verification
from qtcatalan.chains import TailIndex, chain_of, decompose
from qtcatalan.verification import CaseResult, parallel_map, run_verify


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
        # the benchmark's two grids: 454 and 162 checks
        (4, 5, {"methods-agree[n=4]": 96, "t1-subdiagram-count": 96, "chain-partition[n=4]": 96,
                "unimodality[t=1/q]": 96, "hcomb-two-step-recursion": 70}),
        (5, 2, {"methods-agree[n=5]": 81, "t1-subdiagram-count": 81}),
    ],
)
def test_checks_per_identity(n, maxval, expected):
    report = run_verify(n, maxval, jobs=1)
    assert Counter(c.identity for c in report.cases) == expected
    assert not report.mismatches


def test_run_verify_reads_no_environment(monkeypatch):
    # the worker count is the caller's argument; only the CLI reads QTC_JOBS
    monkeypatch.setenv("QTC_JOBS", "abc")
    report = run_verify(2, 1)
    assert len(report.cases) == 9 and not report.mismatches


@pytest.mark.parametrize("n, maxval", [(4, -1), (2, -3), (6, 1), (1, 0), (3, 10**10), (4, 10**20 - 1)])
def test_run_verify_refuses_a_sweep_it_cannot_run(n, maxval):
    # a negative max would build an empty grid and report 0 mismatches;
    # n outside 2..5 has no suite; 10^20 cubed at n = 4 overflowed range()
    # in the grid, and 10^10 squared at n = 3 ran out of memory
    with pytest.raises(DomainError):
        run_verify(n, maxval, jobs=1)


def test_the_largest_sweep_reads_max_sweep_vectors():
    # (max + 1)^(n - 1) vectors
    bound = verification.MAX_SWEEP_VECTORS
    verification.check_sweep(2, bound - 1)
    with pytest.raises(DomainError, match="at most"):
        verification.check_sweep(2, bound)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _with_pid(x):
    return x, os.getpid()


def _fail_at_3(x):
    if x == 3:
        raise DomainError(f"no value at {x}")
    return x


def _assert_no_child_left():
    # every worker was reaped: this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made, counted; a call past the usable CPUs raises
    instead of forking, so a broken clamp fails before it forks many."""
    calls = []
    real = os.fork

    def counted():
        if len(calls) >= _usable_cpus():
            raise AssertionError("forked more workers than there are usable CPUs")
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that jobs=2 maps one share here and forks one
    worker for the other on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_parallel_map_keeps_input_order(forks):
    items = list(range(-37, 30))  # uneven: the last chunk is short
    assert parallel_map(abs, items, jobs=2) == [abs(x) for x in items]
    assert parallel_map(abs, [], jobs=2) == []
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [2, 10**6])
def test_parallel_map_clamps_workers_to_usable_cpus(forks, jobs):
    # the calling process maps one share itself, so it forks one worker fewer
    items = list(range(8 * (_usable_cpus() + 1)))  # more chunks of 8 than CPUs
    out = parallel_map(_with_pid, items, jobs=jobs)
    assert [x for x, _ in out] == items
    pids = {pid for _, pid in out}
    assert os.getpid() in pids
    assert len(pids) == min(jobs, _usable_cpus())
    assert len(forks) == min(jobs, _usable_cpus()) - 1
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 0, -3])
def test_parallel_map_runs_inline_below_two_jobs(monkeypatch, jobs):
    def no_fork():
        raise AssertionError("forked below two jobs")

    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel_map(_with_pid, [-1, 2], jobs=jobs) == [(-1, os.getpid()), (2, os.getpid())]


def test_parallel_map_runs_inline_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    items = list(range(20))
    assert parallel_map(_with_pid, items, jobs=2) == [(x, os.getpid()) for x in items]


def test_parallel_map_raises_a_worker_exception(two_cpus, forks):
    # the failing item opens the calling process's first chunk, then the
    # forked worker's: either way the exception is raised and the worker reaped
    for failing in (0, 8):
        items = [3 if x == failing else x + 100 for x in range(40)]
        with pytest.raises(DomainError) as raised:
            parallel_map(_fail_at_3, items, jobs=2)
        assert type(raised.value) is DomainError
        assert str(raised.value) == "no value at 3"
        _assert_no_child_left()
    assert len(forks) == 2


def test_parallel_map_kills_a_busy_worker_when_this_process_raises(two_cpus, forks):
    caller = os.getpid()

    def fail_here_sleep_there(x):
        if os.getpid() == caller:
            raise DomainError("no value in the calling process")
        time.sleep(30)

    start = time.perf_counter()
    with pytest.raises(DomainError, match="calling process"):
        parallel_map(fail_here_sleep_there, list(range(16)), jobs=2)
    assert time.perf_counter() - start < 10  # the worker was killed, not waited for
    _assert_no_child_left()


def test_parallel_map_refuses_a_worker_that_exits_without_results(two_cpus, forks):
    caller = os.getpid()

    def exit_in_a_child(x):
        if os.getpid() != caller:
            os._exit(x)
        return x

    with pytest.raises(RuntimeError, match="without sending its results"):
        parallel_map(exit_in_a_child, [3] * 20, jobs=2)
    _assert_no_child_left()


@pytest.mark.parametrize("n, maxval", [(4, 3), (5, 1)])
def test_pooled_verify_reports_as_the_inline_one(n, maxval):
    def text(jobs):
        return run_verify(n, maxval, jobs=jobs).to_text().rsplit(", ", 1)[0]

    assert text(2) == text(1)


@pytest.mark.parametrize("n, maxval", [(4, 5), (5, 2)])
def test_pooled_verify_runs_each_vectors_checks_in_one_worker(two_cpus, monkeypatch, n, maxval):
    # a vector's checks share one worker's caches (f_chains, _resolved): each
    # result carries the pid of the process that checked it
    real = verification._run_case

    def tagged(case):
        return [CaseResult(r.identity, r.vector, r.ok, str(os.getpid())) for r in real(case)]

    monkeypatch.setattr(verification, "_run_case", tagged)
    pids_of = {}  # vector -> the pids that checked it; t1 reports (0,) + vector
    for c in run_verify(n, maxval, jobs=2).cases:
        assert c.ok
        pids_of.setdefault(c.vector[-(n - 1) :], set()).add(c.detail)
    assert all(len(pids) == 1 for pids in pids_of.values())
    assert len(set().union(*pids_of.values())) == 2
    _assert_no_child_left()


def test_chain_partition_refuses_a_locate_that_finds_another_chain(monkeypatch):
    # (3, 1, 2) has two chains with one area range: a table that gives the
    # other one's tail gives stat the right range, but not lam's chain
    real = verification._resolved

    def other_tail(row, p):
        lam, lam_area, E, F, s = row
        found = chain_of(TailIndex(p, E, F))
        twins = [
            ch for ch in decompose(p)
            if ch.area_range == found.area_range and ch.members != found.members
        ]
        tail = twins[0].tail if twins else found.tail
        return lam, lam_area, tail.E, tail.F, s

    assert verification.check_chain_partition((3, 1, 2))[0].ok
    monkeypatch.setattr(verification, "_resolved", lambda p: tuple(other_tail(row, p) for row in real(p)))
    (result,) = verification.check_chain_partition((3, 1, 2))
    assert not result.ok
    assert "finds another chain" in result.detail


def test_chain_partition_reports_a_stat_off_its_chain(monkeypatch):
    # one member's stat one too high breaks area + stat = r + R on its chain
    real = verification._resolved

    def one_off(row):
        return row[:4] + (row[4] + 1,) if row[0] == (2, 1, 0) else row

    monkeypatch.setattr(verification, "_resolved", lambda p: tuple(map(one_off, real(p))))
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert result.detail == "stat((2, 1, 0)) disagrees with its chain"


def test_chain_partition_reports_a_member_outside_the_staircase(monkeypatch):
    # a chain that strays past the staircase is a mismatch, not an error
    real = verification.chain_of

    def stray(tail):
        ch = real(tail)
        members = ch.members + ((9, 9, 9),)
        return ChainRecord(ch.tail, ch.pseudohead, ch.head, ch.quasihead, members, ch.area_range)

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
        q = ch.quasihead
        shifted_q = QuasiheadIndex(q.params, q.s + 1, q.t)
        return ChainRecord(ch.tail, ch.pseudohead, ch.head, shifted_q, ch.members, ch.area_range)

    monkeypatch.setattr(verification, "chain_of", shifted)
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert result.detail == f"range not preserved along chain of {first}"


def test_chain_partition_reports_a_subdiagram_no_chain_covers(monkeypatch):
    # a table with one partition more than the chains hold is not covered
    real = verification._resolved
    monkeypatch.setattr(verification, "_resolved", lambda p: real(p) + (((9, 9, 9), 0, 0, 0, 0),))
    (result,) = verification.check_chain_partition((1, 1, 1))
    assert not result.ok
    assert result.detail == "not covered: [(9, 9, 9)]..."


def test_the_reflection_check_reads_the_tableau_sum(monkeypatch):
    # f1(-a) is defined by the reflection, so the check can fail only through
    # the tableau sum at the negative entry -a
    real = verification.f_tableaux
    monkeypatch.setattr(verification, "f_tableaux", lambda a: real(a) + ONE if a == (-2,) else real(a))
    (result,) = verification.check_reflection((2,))
    assert not result.ok
    assert result.detail == "f1 = -q^-1 t^-1; tableaux = 1 - q^-1 t^-1"
    assert all(r.ok for a in (1, 3) for r in verification.check_reflection((a,)))

"""Sharded suite runs: the report of a run split over worker processes
is the report of a run in one process, failures included; a sharded run
that raises or loses a worker runs again in one process, and no worker
outlives a run.

Blocks are made small (_BLOCK = 4) and the shard count is forced, so
these runs fork on a host with any number of CPUs."""

import errno
import fcntl
import math
import os
import signal
import threading
import time
from fractions import Fraction

import pytest
from helpers import SMALL, drop_last_term

from forest_bialg import dualprod, verify
from forest_bialg.coalgebra import counit
from forest_bialg.forest import parse_forest
from forest_bialg.verify import SUITE_NAMES, RunConfig, run_suite


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _as_text(report):
    """The text report without its wall time line."""
    return report.render_text().rsplit("\n", 1)[0]


def _as_json(report):
    doc = report.to_json()
    doc.pop("wall_time")
    return doc


def _count_runs(monkeypatch):
    """The shard count of every _run call, in call order."""
    runs = []
    real = verify._run

    def run(cases_of, config, count):
        runs.append(count)
        return real(cases_of, config, count)

    monkeypatch.setattr(verify, "_run", run)
    return runs


@pytest.fixture(params=[2, 3])
def shards(request, monkeypatch):
    """Blocks of 4 cases over request.param shards. run(suite, cfg) runs
    a suite once in one process and once sharded, and returns both
    reports and the number of workers forked."""
    n = request.param
    monkeypatch.setattr(verify, "_BLOCK", 4)
    forks = []
    real = verify._Workers.fork

    def fork(self, block):
        forks.append(block)
        return real(self, block)

    monkeypatch.setattr(verify._Workers, "fork", fork)

    def run(suite, cfg):
        monkeypatch.setattr(verify, "_shard_count", lambda: 1)
        serial = run_suite(suite, cfg)
        assert not forks
        monkeypatch.setattr(verify, "_shard_count", lambda: n)
        sharded = run_suite(suite, cfg)
        _no_child_left()
        forked = len(forks)
        forks.clear()
        return serial, sharded, forked

    run.n = n
    return run


# in these three, runs == [1, shards.n]: the serial run, then the sharded
# run with no rerun in one process, which would give the same report
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_sharded_run_reports_as_a_serial_run(shards, monkeypatch, suite):
    runs = _count_runs(monkeypatch)
    serial, sharded, forked = shards(suite, RunConfig(max_vertices=3))
    assert serial.ok and forked == shards.n - 1 and runs == [1, shards.n]
    assert _as_json(sharded) == _as_json(serial)


@pytest.mark.parametrize("suite", ["star-census", "duality", "star-assoc"])
def test_a_sharded_run_fails_as_a_serial_run_under_a_star_mutant(
        shards, monkeypatch, suite):
    mutant = drop_last_term(dualprod.star)
    monkeypatch.setattr(dualprod, "star", mutant)
    monkeypatch.setattr(verify, "star", mutant)
    runs = _count_runs(monkeypatch)
    serial, sharded, forked = shards(suite, RunConfig(alphabet=SMALL,
                                                      max_vertices=3))
    assert not serial.ok and forked == shards.n - 1
    assert runs == [1, shards.n]
    assert _as_json(sharded) == _as_json(serial)
    assert _as_text(sharded) == _as_text(serial)


def test_a_sharded_run_fails_as_a_serial_run_under_a_phi_at_mutant(
        shards, monkeypatch):
    real = verify.phi_at
    monkeypatch.setattr(verify, "phi_at",
                        lambda x, nu: real(x, math.floor(nu)))
    runs = _count_runs(monkeypatch)
    serial, sharded, forked = shards("phi-laws", RunConfig(alphabet=SMALL,
                                                           max_vertices=3))
    assert len(serial.failures) == 8 and forked == shards.n - 1
    assert runs == [1, shards.n]
    assert _as_json(sharded) == _as_json(serial)
    assert _as_text(sharded) == _as_text(serial)


def _probe(monkeypatch, check, cases=40):
    """Install a suite "probe" of cases i = 0..cases-1, each checked by
    check(i)."""
    section = ("i={}", check, verify._fixed, 0,
               tuple((i,) for i in range(cases)))
    monkeypatch.setitem(verify._SUITES, "probe", (0, (section,)))


def test_each_block_runs_in_exactly_one_process(shards, monkeypatch):
    # every case fails with the pid of the process that ran it
    parent = os.getpid()
    _probe(monkeypatch, lambda i: (os.getpid(), None))
    serial, sharded, forked = shards("probe", RunConfig())
    assert sharded.cases == 40 and forked == shards.n - 1
    failed = [int(f["case"][2:]) for f in sharded.failures]
    assert failed == list(range(40))
    pids = {}
    for i, f in zip(failed, sharded.failures):
        pids.setdefault(i // 4, set()).add(int(f["lhs"]))
    assert sorted(pids) == list(range(10))
    assert all(len(p) == 1 for p in pids.values())
    assert pids[0] == {parent}
    # block k, 0 < k < shards.n, is worker k's first block
    workers = [pids[k] for k in range(1, shards.n)]
    assert parent not in set.union(*workers)
    assert len(set.union(*workers)) == shards.n - 1
    assert len(set.union(*pids.values())) <= shards.n


@pytest.mark.parametrize("cases", [4, 5, 8, 9, 12])
def test_a_run_of_b_blocks_forks_min_of_b_and_n_less_one_workers(
        shards, monkeypatch, cases):
    # worker k forks when the parent's loop first reaches block k
    _probe(monkeypatch, lambda i: (i, i % 3), cases)
    serial, sharded, forked = shards("probe", RunConfig())
    assert forked == min(math.ceil(cases / 4), shards.n) - 1
    assert _as_json(sharded) == _as_json(serial)


def test_contended_claims_run_each_block_once(monkeypatch):
    # eight processes on however many CPUs claim blocks of one case: a
    # lost update on the counter would run a case twice or never
    monkeypatch.setattr(verify, "_BLOCK", 1)
    monkeypatch.setattr(verify, "_shard_count", lambda: 8)
    _probe(monkeypatch, lambda i: (os.getpid(), None), cases=400)
    t0 = time.monotonic()
    rep = run_suite("probe", RunConfig())
    assert time.monotonic() - t0 < 10
    _no_child_left()
    assert [f["case"] for f in rep.failures] == [f"i={i}" for i in range(400)]
    assert len({f["lhs"] for f in rep.failures}) <= 8


def test_a_case_raising_in_a_workers_block_is_that_cases_failure(
        shards, monkeypatch):
    def check(i):
        if i in (5, 9, 14):
            raise ValueError(f"boom {i}")
        return i, i

    _probe(monkeypatch, check)
    serial, sharded, _ = shards("probe", RunConfig())
    assert [f["case"] for f in serial.failures] == ["i=5", "i=9", "i=14"]
    assert serial.failures[0]["lhs"] == "ValueError: boom 5"
    assert _as_json(sharded) == _as_json(serial)


class _Unprintable:
    """A value whose rendering raises error: the error escapes the
    case."""

    def __init__(self, error):
        self.error = error

    def __str__(self):
        raise self.error


@pytest.mark.parametrize("pole, unprintable", [(5, 9), (9, 5), (13, 6)])
def test_the_first_error_in_stream_order_ends_a_sharded_run(
        shards, monkeypatch, pole, unprintable):
    # a pole in _norm and an error in rendering, each in some shard's
    # block: the run raises the one a serial run meets first
    value = counit(parse_forest("a", SMALL))

    def check(i):
        if i == pole:
            return value, value
        if i == unprintable:
            return _Unprintable(LookupError(f"cannot print case {i}")), None
        return i, i

    _probe(monkeypatch, check)
    runs = _count_runs(monkeypatch)
    cfg = RunConfig(eval_lam=Fraction(0))
    seen = []
    for count in (1, shards.n):
        monkeypatch.setattr(verify, "_shard_count", lambda: count)
        with pytest.raises((ZeroDivisionError, LookupError)) as info:
            run_suite("probe", cfg)
        _no_child_left()
        seen.append((type(info.value), str(info.value)))
    assert seen[0] == seen[1]
    assert seen[0][0] is (ZeroDivisionError if pole < unprintable
                          else LookupError)
    # the serial run, then the sharded run and its rerun in one process
    assert runs == [1, shards.n, 1]


def test_an_error_in_the_parents_block_makes_the_run_start_again(
        shards, monkeypatch):
    # block n, cases 4n..4n+3, is the parent's: its first claim, made
    # before its first fork
    where = 4 * shards.n + 1

    def check(i):
        if i == where:
            return _Unprintable(LookupError(f"cannot print case {i}")), None
        return i, i % 7

    _probe(monkeypatch, check)
    monkeypatch.setattr(verify, "_shard_count", lambda: 1)
    with pytest.raises(LookupError) as serial:
        run_suite("probe", RunConfig())
    runs = _count_runs(monkeypatch)
    monkeypatch.setattr(verify, "_shard_count", lambda: shards.n)
    with pytest.raises(LookupError) as sharded:
        run_suite("probe", RunConfig())
    assert str(sharded.value) == str(serial.value)
    assert runs == [shards.n, 1]
    _no_child_left()


# case 5 is in block 1, a worker's; case 25 in block 6, which the parent
# claims while every worker sleeps in its first block
@pytest.mark.parametrize("where", [5, 25], ids=["worker", "parent"])
def test_no_worker_outlives_an_interrupted_run(shards, monkeypatch, where):
    # interrupted in its own block, the parent does not wait for the
    # workers, which are still busy with their first case
    parent = os.getpid()

    def check(i):
        if i == where:
            raise KeyboardInterrupt
        if where == 25 and i in (4, 8) and os.getpid() != parent:
            time.sleep(20)
        return i, i

    _probe(monkeypatch, check)
    monkeypatch.setattr(verify, "_shard_count", lambda: shards.n)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite("probe", RunConfig())
    assert time.monotonic() - t0 < 10
    _no_child_left()


def test_a_lost_worker_makes_the_run_start_again_serially(shards,
                                                          monkeypatch):
    # a worker runs its first block, block k at cases 4k..4k+3, and is
    # killed at its last case
    parent = os.getpid()

    def check(i):
        if os.getpid() != parent and i % 4 == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return i, i % 7

    _probe(monkeypatch, check)
    runs = _count_runs(monkeypatch)
    serial, sharded, forked = shards("probe", RunConfig())
    assert runs == [1, shards.n, 1] and forked == shards.n - 1
    assert len(serial.failures) == 33
    assert _as_json(sharded) == _as_json(serial)


@pytest.mark.parametrize("error", ["pole", "local"])
def test_an_error_in_a_workers_block_makes_the_run_start_again(
        shards, monkeypatch, error):
    # case 5 is in block 1, a worker's: a pole in _norm, whose error
    # pickles, or an error of a class defined in this function, which
    # does not; either way the worker ends without its result
    class Local(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    value = counit(parse_forest("a", SMALL))

    def check(i):
        if i == 5:
            if error == "pole":
                return value, value
            return _Unprintable(Local("case 5")), None
        return i, i

    _probe(monkeypatch, check)
    runs = _count_runs(monkeypatch)
    monkeypatch.setattr(verify, "_shard_count", lambda: shards.n)
    expected, match = ((ZeroDivisionError, None) if error == "pole"
                       else (Local, "case 5"))
    with pytest.raises(expected, match=match):
        run_suite("probe", RunConfig(eval_lam=Fraction(0)))
    assert runs == [shards.n, 1]
    _no_child_left()


def test_a_failing_fork_makes_the_run_start_again(monkeypatch):
    # three shards: the first fork succeeds, the second fails
    monkeypatch.setattr(verify, "_BLOCK", 4)
    _probe(monkeypatch, lambda i: (i, i % 7))
    monkeypatch.setattr(verify, "_shard_count", lambda: 1)
    serial = run_suite("probe", RunConfig())
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "no process left")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    runs = _count_runs(monkeypatch)
    monkeypatch.setattr(verify, "_shard_count", lambda: 3)
    sharded = run_suite("probe", RunConfig())
    assert runs == [3, 1] and len(forks) == 2
    assert len(serial.failures) == 33
    assert _as_json(sharded) == _as_json(serial)
    _no_child_left()


def test_a_worker_killed_while_it_holds_the_claim_lock(shards,
                                                        monkeypatch):
    # a worker claims its second block at the end of its first, and is
    # killed right after it takes the counter's lock: the kernel releases
    # the lock, so the run neither hangs nor leaves a child, and starts
    # again in one process
    parent = os.getpid()
    real = fcntl.lockf

    def lockf(fd, cmd, *args):
        real(fd, cmd, *args)
        if cmd == fcntl.LOCK_EX and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(fcntl, "lockf", lockf)
    _probe(monkeypatch, lambda i: (i, i % 7))
    runs = _count_runs(monkeypatch)
    t0 = time.monotonic()
    serial, sharded, forked = shards("probe", RunConfig())
    assert time.monotonic() - t0 < 10
    assert runs == [1, shards.n, 1] and forked == shards.n - 1
    assert len(serial.failures) == 33
    assert _as_json(sharded) == _as_json(serial)


def test_a_run_of_one_block_or_beside_a_thread_never_forks(monkeypatch):
    forks = []
    monkeypatch.setattr(verify._Workers, "fork",
                        lambda self, block: forks.append(block))
    monkeypatch.setattr(verify, "_shard_count", lambda: 2)
    # exactly one block: the loop ends at the first block boundary
    _probe(monkeypatch, lambda i: (i, i), cases=verify._BLOCK)
    rep = run_suite("probe", RunConfig())
    assert rep.ok and rep.cases == verify._BLOCK and not forks
    cfg = RunConfig(alphabet=SMALL, max_vertices=3)
    monkeypatch.setattr(verify, "_BLOCK", 4)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rep = run_suite("star-census", cfg)
    finally:
        release.set()
        other.join()
    assert rep.ok and rep.cases > 4 and not forks

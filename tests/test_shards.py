"""Sharded suite runs: the report of a run split over worker processes
is the report of a run in one process, failures included; a sharded run
that raises or loses a worker runs again in one process, and no worker
outlives a run.

Blocks are made small (_BLOCK = 4) and the shard count is forced, so
these runs fork on a host with any number of CPUs."""

import errno
import math
import os
import signal
import threading
import time
from fractions import Fraction

import pytest

from forest_bialg import dualprod, verify
from forest_bialg.coalgebra import counit
from forest_bialg.forest import Alphabet, parse_forest
from forest_bialg.verify import SUITE_NAMES, RunConfig, run_suite

SMALL = Alphabet(omega=("a",), xset=("x",))


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


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_sharded_run_reports_as_a_serial_run(shards, suite):
    serial, sharded, forked = shards(suite, RunConfig(max_vertices=3))
    assert serial.ok and forked == shards.n - 1
    assert _as_json(sharded) == _as_json(serial)


def _drop_last_term(real):
    def star(F, G):
        terms = dict(real(F, G).terms)
        terms.popitem()
        return verify.LinComb(terms)
    return star


@pytest.mark.parametrize("suite", ["star-census", "duality", "star-assoc"])
def test_a_sharded_run_fails_as_a_serial_run_under_a_star_mutant(
        shards, monkeypatch, suite):
    mutant = _drop_last_term(dualprod.star)
    monkeypatch.setattr(dualprod, "star", mutant)
    monkeypatch.setattr(verify, "star", mutant)
    serial, sharded, forked = shards(suite, RunConfig(alphabet=SMALL,
                                                      max_vertices=3))
    assert not serial.ok and forked == shards.n - 1
    assert _as_json(sharded) == _as_json(serial)
    assert _as_text(sharded) == _as_text(serial)


def test_a_sharded_run_fails_as_a_serial_run_under_a_phi_at_mutant(
        shards, monkeypatch):
    real = verify.phi_at
    monkeypatch.setattr(verify, "phi_at",
                        lambda x, nu: real(x, math.floor(nu)))
    serial, sharded, forked = shards("phi-laws", RunConfig(alphabet=SMALL,
                                                           max_vertices=3))
    assert len(serial.failures) == 8 and forked == shards.n - 1
    assert _as_json(sharded) == _as_json(serial)
    assert _as_text(sharded) == _as_text(serial)


def _probe(monkeypatch, check, cases=40):
    """Install a suite "probe" of cases i = 0..cases-1, each checked by
    check(i)."""
    section = ("i={}", check, verify._fixed, 0,
               tuple((i,) for i in range(cases)))
    monkeypatch.setitem(verify._SUITES, "probe", (0, (section,)))


def test_each_block_runs_in_its_shards_process(shards, monkeypatch):
    parent = os.getpid()
    _probe(monkeypatch, lambda i: (os.getpid(), parent))
    serial, sharded, forked = shards("probe", RunConfig())
    assert serial.ok and sharded.cases == 40 and forked == shards.n - 1
    failed = [int(f["case"][2:]) for f in sharded.failures]
    assert failed == [i for i in range(40) if i // 4 % shards.n]
    pids = {}
    for f in sharded.failures:
        pids.setdefault(int(f["case"][2:]) // 4 % shards.n, set()).add(
            f["lhs"])
    assert len(pids) == shards.n - 1
    assert all(len(p) == 1 for p in pids.values())
    assert len(set.union(*pids.values())) == shards.n - 1


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


def _count_runs(monkeypatch):
    """The shard count of every _run call, in call order."""
    runs = []
    real = verify._run

    def run(cases_of, config, count):
        runs.append(count)
        return real(cases_of, config, count)

    monkeypatch.setattr(verify, "_run", run)
    return runs


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
    # block n, cases 4n..4n+3, is the parent's, after every fork
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


# case 5 is in block 1, a worker's; case 25 in block 6, the parent's
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
    parent = os.getpid()

    def check(i):
        if os.getpid() != parent:
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


def test_a_run_of_one_block_or_beside_a_thread_never_forks(monkeypatch):
    forks = []
    monkeypatch.setattr(verify._Workers, "fork",
                        lambda self, block: forks.append(block))
    monkeypatch.setattr(verify, "_shard_count", lambda: 2)
    cfg = RunConfig(alphabet=SMALL, max_vertices=3)
    rep = run_suite("star-census", cfg)
    assert rep.ok and rep.cases <= verify._BLOCK and not forks
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

"""Verification runner: determinism, evaluation points, report shapes."""

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from forest_bialg import forest, verify
from forest_bialg.forest import Alphabet
from forest_bialg.verify import (SUITE_NAMES, RunConfig, SuiteReport,
                                 run_suite)

SMALL = Alphabet(omega=("a",), xset=("x",))


@pytest.fixture
def sweeps(monkeypatch):
    """Lists the intern-table sweeps run while the test runs: "forests"
    for the forest and tree tables, "coefficients" for the coefficient
    table and its memos."""
    calls = []

    def counted(module, name, kind):
        real = getattr(module, name)

        def sweep():
            calls.append(kind)
            real()

        monkeypatch.setattr(module, name, sweep)

    counted(forest, "sweep_interned", "forests")
    counted(verify, "sweep_coefficients", "coefficients")
    return calls


def _without_wall_time(report):
    doc = report.to_json()
    doc.pop("wall_time")
    return doc


def test_all_suite_names_are_runnable():
    assert len(SUITE_NAMES) == 15
    for name in SUITE_NAMES:
        rep = run_suite(name, RunConfig(alphabet=SMALL, max_vertices=2))
        assert rep.ok, (name, rep.failures[:1])
        assert rep.suite == name
        assert rep.cases > 0


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("coassociativity")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_vertices=-1)
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_suites_pass_at_rational_points():
    cfg = RunConfig(alphabet=SMALL, max_vertices=3,
                    eval_lam=Fraction(2, 3), eval_mu=Fraction(-1, 5),
                    eval_nu=Fraction(7))
    for name in ("coassoc", "derivation", "duality", "phi-laws", "prelie"):
        rep = run_suite(name, cfg)
        assert rep.ok, (name, rep.failures[:1])


def test_counit_suite_requires_invertible_lambda():
    with pytest.raises(ZeroDivisionError):
        run_suite("counit", RunConfig(alphabet=SMALL, max_vertices=2,
                                      eval_lam=Fraction(0)))


def test_workers_do_not_change_the_report(monkeypatch, sweeps):
    # a sweep is due before each run; one worker sweeps, four never do
    monkeypatch.setattr(forest, "_sweep_at", 0)
    base = run_suite("rec-vs-biideal",
                     RunConfig(alphabet=SMALL, max_vertices=4, workers=1))
    assert set(sweeps) == {"forests", "coefficients"}
    sweeps.clear()
    monkeypatch.setattr(forest, "_sweep_at", 0)
    parallel = run_suite("rec-vs-biideal",
                         RunConfig(alphabet=SMALL, max_vertices=4, workers=4))
    assert not sweeps
    assert _without_wall_time(base) == _without_wall_time(parallel)


@pytest.mark.parametrize("suite, bound", [("star-census", 3),
                                          ("star-assoc", 4)])
def test_workers_do_not_change_the_star_reports(suite, bound):
    # four threads share star's memo of the last F's regraftings
    reports = [_without_wall_time(run_suite(suite, RunConfig(
        alphabet=SMALL, max_vertices=bound, workers=workers)))
        for workers in (1, 4)]
    assert reports[0]["ok"] and reports[0]["cases"] > 0
    assert reports[0] == reports[1]


def test_report_json_shape():
    rep = run_suite("examples-golden", RunConfig())
    doc = rep.to_json()
    assert set(doc) == {"suite", "cases", "failures", "ok", "wall_time"}
    assert doc["suite"] == "examples-golden"
    assert doc["ok"] is True and doc["failures"] == []
    assert isinstance(doc["wall_time"], float)
    json.dumps(doc)  # must be serializable as-is


def test_report_text_rendering():
    rep = run_suite("counit", RunConfig(alphabet=SMALL, max_vertices=2))
    text = rep.render_text()
    assert "suite: counit" in text
    assert f"cases: {rep.cases}" in text
    assert "ok: true" in text


def test_failure_rendering_lists_counterexamples():
    rep = SuiteReport(suite="demo", cases=3,
                      failures=[{"case": "F=x", "lhs": "0", "rhs": "1"}],
                      wall_time=0.01)
    assert not rep.ok
    text = rep.render_text()
    assert "smallest counterexample" in text
    assert "F=x" in text
    doc = rep.to_json()
    assert doc["ok"] is False
    assert doc["failures"] == [{"case": "F=x", "lhs": "0", "rhs": "1"}]


@pytest.mark.parametrize("suite, bound", [
    ("star-census", 3), ("star-assoc", 4), ("duality", 3), ("coassoc", 4)])
def test_sweeping_does_not_change_the_report(monkeypatch, sweeps, suite,
                                             bound):
    cfg = RunConfig(alphabet=Alphabet(omega=("a",), xset=("x", "y")),
                    max_vertices=bound)
    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    kept = run_suite(suite, cfg)
    assert not sweeps
    monkeypatch.setattr(forest, "_SWEEP_FLOOR", 64)
    monkeypatch.setattr(forest, "_sweep_at", 64)
    swept = run_suite(suite, cfg)
    assert set(sweeps) == {"forests", "coefficients"}
    assert _without_wall_time(swept) == _without_wall_time(kept)


def test_run_suite_restores_the_collector_thresholds(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "sweep_if_due",
                        lambda: seen.append(gc.get_threshold()))
    old = gc.get_threshold()
    try:
        gc.set_threshold(555, 7, 9)
        run_suite("coassoc", RunConfig(alphabet=SMALL, max_vertices=2))
        assert gc.get_threshold() == (555, 7, 9)
        assert seen and set(seen) == {verify._GC_THRESHOLDS}
        with pytest.raises(ZeroDivisionError):
            run_suite("counit", RunConfig(alphabet=SMALL, max_vertices=2,
                                          eval_lam=Fraction(0)))
        assert gc.get_threshold() == (555, 7, 9)
    finally:
        gc.set_threshold(*old)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_star_census_memory_stays_bounded():
    # without the sweep the intern tables keep every grafted forest, and
    # this run peaks at ~130 MB. VmHWM is the peak of this process's own
    # address space; ru_maxrss would start from the peak of the forking
    # test process, which carries over exec on Linux
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from forest_bialg import Alphabet, RunConfig, run_suite\n"
        "ab = Alphabet(omega=('a',), xset=('x', 'y'))\n"
        "rep = run_suite('star-census', RunConfig(alphabet=ab, max_vertices=4))\n"
        "assert rep.ok and rep.cases == 139129, rep.cases\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= 100, f"peak RSS {peak_mb:.0f} MB"

"""Verification runner: determinism, evaluation points, report shapes."""

import gc
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from forest_bialg import dualprod, forest, verify
from forest_bialg.forest import Alphabet
from forest_bialg.freemod import LinComb
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
    # a sweep is reported due after every case; each must be followed by
    # one young-generation collection, and no automatic one may run
    seen, collections = [], []

    def due():
        seen.append((gc.isenabled(), gc.get_threshold()))
        return True

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(verify, "sweep_if_due", due)
    monkeypatch.setattr(verify, "sweep_coefficients", lambda: None)
    old, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.callbacks.append(on_gc)
    try:
        gc.enable()
        gc.set_threshold(555, 7, 9)
        rep = run_suite("coassoc", RunConfig(alphabet=SMALL, max_vertices=2))
        assert gc.isenabled() and gc.get_threshold() == (555, 7, 9)
        assert len(seen) == rep.cases and set(seen) == {(False, (555, 7, 9))}
        assert collections == [0] * rep.cases
        with pytest.raises(ZeroDivisionError):
            run_suite("counit", RunConfig(alphabet=SMALL, max_vertices=2,
                                          eval_lam=Fraction(0)))
        assert gc.isenabled() and gc.get_threshold() == (555, 7, 9)
        # a caller that turned collection off gets it back off
        gc.disable()
        run_suite("coassoc", RunConfig(alphabet=SMALL, max_vertices=2))
        assert not gc.isenabled() and gc.get_threshold() == (555, 7, 9)
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*old)
        if was_enabled:
            gc.enable()


def test_run_suite_beside_another_thread_leaves_the_collector_alone(
        monkeypatch, sweeps):
    seen = []
    real = verify.sweep_if_due

    def due():
        seen.append(gc.isenabled())
        return real()

    monkeypatch.setattr(verify, "sweep_if_due", due)
    monkeypatch.setattr(forest, "_sweep_at", 0)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert gc.isenabled()
        rep = run_suite("coassoc", RunConfig(alphabet=SMALL, max_vertices=2))
    finally:
        release.set()
        other.join()
    assert rep.ok and seen and all(seen)
    assert not sweeps


def _drop_last_term(real):
    def star(F, G):
        terms = dict(real(F, G).terms)
        terms.popitem()
        return LinComb(terms)
    return star


def _labels(report):
    return len(report.failures), [f["case"] for f in report.failures[:3]]


def test_failure_labels_under_a_star_mutant(monkeypatch):
    # recorded when every case still built its label with an f-string
    mutant = _drop_last_term(dualprod.star)
    monkeypatch.setattr(dualprod, "star", mutant)
    monkeypatch.setattr(verify, "star", mutant)

    def run(suite, bound):
        return run_suite(suite, RunConfig(alphabet=SMALL, max_vertices=bound))

    census = run("star-census", 2)
    assert census.cases == 81
    assert _labels(census) == (81, ["F=1 G=1", "F=1 G=a", "F=1 G=x"])
    duality = run("duality", 2)
    assert duality.cases == 81
    assert _labels(duality) == (
        23, ["x=1 y=1 z=1", "x=a y=1 z=1", "x=x y=1 z=1"])
    assoc = run("star-assoc", 3)
    assert assoc.cases == 220
    assert _labels(assoc) == (4, ["star x=a y=a z=a", "star x=a y=x z=a",
                                  "star x=x y=a z=a"])


def test_failure_labels_under_a_phi_at_mutant(monkeypatch):
    # phi_at truncates nu to an integer: of the composition points only
    # (1/2, 1/2) tells, so every failure carries a rational label
    real = verify.phi_at
    monkeypatch.setattr(verify, "phi_at",
                        lambda x, nu: real(x, math.floor(nu)))
    rep = run_suite("phi-laws", RunConfig(alphabet=SMALL, max_vertices=3))
    assert rep.cases == 94
    assert _labels(rep) == (8, ["compose nu=1/2 nu'=1/2 F=a",
                                "compose nu=1/2 nu'=1/2 F=x",
                                "compose nu=1/2 nu'=1/2 F=a a"])
    assert rep.failures[0] == {"case": "compose nu=1/2 nu'=1/2 F=a",
                               "lhs": "(1) a", "rhs": "(1) 1 ; (1) a",
                               "size": 1}


def _extra_term_on(text):
    """A coproduct that gains the term H (x) H on the one forest H."""
    real = verify.coproduct

    def coproduct(F):
        d = real(F)
        if str(F) == text:
            d = d + LinComb.single((F, F))
        return d
    return coproduct


def _brute_force_smallest(suite, cfg):
    """Every failing case of suite as (vertices, label) in stream order,
    its vertices counted by walking each forest argument, and the first
    failure of least vertices."""
    fails = []
    for fmt, fn, args in verify._SUITES[suite](cfg):
        got, want = fn(*args)
        if got != want:
            n = sum(len(a.paths) for a in args if isinstance(a, forest.Forest))
            fails.append((n, fmt.format(*args)))
    return fails, min(fails, key=lambda f: f[0])


@pytest.mark.parametrize("suite, bound, mutant", [
    ("derivation", 4, "coproduct"), ("star-assoc", 4, "star")])
def test_smallest_counterexample_is_the_least_failure(monkeypatch, suite,
                                                      bound, mutant):
    if mutant == "star":
        patched = _drop_last_term(dualprod.star)
        monkeypatch.setattr(dualprod, "star", patched)
        monkeypatch.setattr(verify, "star", patched)
    else:
        # the pair (a, x a[a]) fails in stream order before the smaller
        # (x, a[a]), whose concatenation is the forest that gained a term
        monkeypatch.setattr(verify, "coproduct", _extra_term_on("x a[a]"))
    cfg = RunConfig(alphabet=SMALL, max_vertices=bound)
    rep = run_suite(suite, cfg)
    fails, (size, label) = _brute_force_smallest(suite, cfg)
    assert [(f["size"], f["case"]) for f in rep.failures] == fails
    assert f"smallest counterexample: {label}\n" in rep.render_text()
    if mutant == "coproduct":
        assert rep.failures[0]["case"] == "F=a G=x a[a]"
        assert label == "F=x G=a[a]" and size == 3


def test_smallest_counterexample_without_sizes_is_the_first():
    rep = SuiteReport(suite="demo", cases=3, wall_time=0.0, failures=[
        {"case": "F=a a", "lhs": "0", "rhs": "1"},
        {"case": "F=x", "lhs": "0", "rhs": "1"}])
    assert "smallest counterexample: F=a a\n" in rep.render_text()


def test_a_sweep_releases_the_star_memo_first(monkeypatch, sweeps):
    # a forest that only star's memo holds must go in the same sweep:
    # key is its tree tuple, which holds the trees but not the forest
    F = forest.parse_forest("a[a[a[x x x]]] a[x] a a x a", SMALL)
    key = F.trees
    dualprod.star(F, forest.parse_forest("a[x] a", SMALL))
    assert F in dualprod._memo
    del F
    assert key in forest.Forest._intern
    monkeypatch.setattr(forest, "_sweep_at", 0)
    rep = run_suite("coassoc", RunConfig(alphabet=SMALL, max_vertices=2))
    assert rep.ok and sweeps[:2] == ["forests", "coefficients"]
    assert not dualprod._memo
    assert key not in forest.Forest._intern


def test_star_assoc_regrafts_each_f_and_first_tree_once(monkeypatch):
    # with no sweep due, the memo holds every F of the run, whichever
    # operand of star varies between calls
    seen = []
    real = dualprod._regrafted

    def regrafted(trees, first):
        seen.append((trees, first))
        return real(trees, first)

    monkeypatch.setattr(dualprod, "_regrafted", regrafted)
    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    dualprod._memo.clear()
    rep = run_suite("star-assoc", RunConfig(alphabet=SMALL, max_vertices=4))
    assert rep.ok and rep.cases == 1080
    assert seen and len(seen) <= len(set(seen))


def test_suites_leave_no_cyclic_garbage():
    # the run pauses automatic collection and collects only at intern
    # sweeps, which is safe only while no case makes reference cycles.
    # A fresh interpreter, so that no cache filled by an earlier test
    # hides a cold path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import gc\n"
        "from fractions import Fraction as Q\n"
        "from forest_bialg import Alphabet, RunConfig, run_suite\n"
        "from forest_bialg.verify import SUITE_NAMES\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "gc.set_debug(gc.DEBUG_SAVEALL)\n"
        "ab = Alphabet(omega=('a', 'b'), xset=('x',))\n"
        "cfgs = [(n, RunConfig(alphabet=ab, max_vertices=3))\n"
        "        for n in SUITE_NAMES]\n"
        "cfgs.append(('phi-laws', RunConfig(alphabet=ab, max_vertices=3,\n"
        "    eval_lam=Q(2, 3), eval_mu=Q(-1, 5), eval_nu=Q(7, 3))))\n"
        "for name, cfg in cfgs:\n"
        "    assert run_suite(name, cfg).ok, name\n"
        "    gc.collect()\n"
        "    kinds = sorted({type(o).__name__ for o in gc.garbage})\n"
        "    assert not gc.garbage, (name, len(gc.garbage), kinds)\n"
        "print('clean')\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["clean"]


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_biideal_census_memory_stays_bounded():
    # the enumerated forests live as long as the process, so anything a
    # forest keeps stays too: when each forest cached its text, encoding,
    # paths, postorder and path index, this run peaked at ~90 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from forest_bialg import Alphabet, RunConfig, run_suite\n"
        "ab = Alphabet(omega=('a', 'b'), xset=('x',))\n"
        "rep = run_suite('biideal-count', RunConfig(alphabet=ab, max_vertices=6))\n"
        "assert rep.ok and rep.cases == 42823, rep.cases\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= 50, f"peak RSS {peak_mb:.0f} MB"

"""Verification runner: determinism, evaluation points, report shapes."""

import gc
import hashlib
import importlib
import json
import math
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import SMALL, drop_last_term, fresh_env

from forest_bialg import cli, coalgebra, dualprod, forest, freemod, verify
from forest_bialg.forest import Alphabet
from forest_bialg.freemod import LinComb
from forest_bialg.verify import (SUITE_NAMES, RunConfig, SuiteReport,
                                 run_suite)

# the package exports the function prelie under the module's name
prelie = importlib.import_module("forest_bialg.prelie")


@pytest.fixture
def sweeps(monkeypatch):
    """Lists the intern sweeps run while the test runs, one entry each:
    forest.sweep_interned clears every registered cache and forgets what
    only the intern tables hold, coefficients included."""
    calls = []
    real = forest.sweep_interned

    def sweep():
        calls.append("sweep")
        real()

    monkeypatch.setattr(forest, "sweep_interned", sweep)
    return calls


def _without_wall_time(report):
    doc = report.to_json()
    doc.pop("wall_time")
    return doc


# every suite's case stream at bounds 0, 1 and 3 on Omega={a,b}, X={x,y}:
# the case count and the first 16 hex digits of a sha256 over each case's
# label and size, in stream order; recorded from the hand-written suite
# generators that the sections replaced
STREAMS = {
    "coassoc": (
        (1, "a3eeb0a02854f79e"), (5, "f7b511726f673398"),
        (205, "c6d63c6db412bcfb")),
    "derivation": (
        (1, "dd19fff530cc6dbd"), (9, "0c6e6e4a077473ad"),
        (617, "76a7c3fcd3fafcef")),
    "cocycle": (
        (2, "699ef46d40f0f940"), (10, "0a9ed18264c05f36"),
        (410, "536ff1a6514bda3c")),
    "counit": (
        (4, "f0df82b213b4d1dc"), (12, "c570af4b020c57e9"),
        (484, "cbc35fcaaba51a55")),
    "rec-vs-biideal": (
        (1, "a3eeb0a02854f79e"), (5, "f7b511726f673398"),
        (205, "c6d63c6db412bcfb")),
    "biideal-count": (
        (1, "a3eeb0a02854f79e"), (5, "f7b511726f673398"),
        (205, "c6d63c6db412bcfb")),
    "duality": (
        (1, "8d69f0c22db3f180"), (5, "f25e720c44dc73fe"),
        (172405, "1cf5df7b8c9c4429")),
    "star-assoc": (
        (2, "da734fc6747318d9"), (14, "d881f4776165eb0a"),
        (1434, "f661cb96c4d43079")),
    "star-census": (
        (1, "dd19fff530cc6dbd"), (25, "bc7c11405be1cf54"),
        (42025, "0bb4e833573205b8")),
    "prelie": (
        (1, "8d69f0c22db3f180"), (13, "f828373c86f4e4bd"),
        (1301, "fe0c8bbcac8084bc")),
    "jacobi": (
        (1, "8d69f0c22db3f180"), (13, "f828373c86f4e4bd"),
        (1301, "fe0c8bbcac8084bc")),
    "prelie-closed-form": (
        (1, "dd19fff530cc6dbd"), (9, "0c6e6e4a077473ad"),
        (617, "76a7c3fcd3fafcef")),
    "phi-laws": (
        (8, "13e554d23cbb27d2"), (12, "df1531ca3c23f491"),
        (408, "a8391d645d4d6b47")),
    "theta-laws": (
        (2, "9e66987d1deec224"), (6, "0a0ddbeb5997c574"),
        (1046, "4c20980a21d3e89d")),
    "examples-golden": (
        (33, "e87c6b2437751637"), (33, "e87c6b2437751637"),
        (33, "e87c6b2437751637")),
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suites_case_stream_is_pinned(suite):
    cfg = RunConfig(alphabet=Alphabet(omega=("a", "b"), xset=("x", "y")))
    _, sections = verify._SUITES[suite]
    seen = []
    for bound in (0, 1, 3):
        digest, count = hashlib.sha256(), 0
        for fmt, fn, args in verify._stream(sections, cfg, bound):
            size = sum(a.nvertices for a in args
                       if isinstance(a, forest.Forest))
            digest.update(f"{fmt.format(*args)}\t{size}\n".encode())
            count += 1
        seen.append((count, digest.hexdigest()[:16]))
    assert tuple(seen) == STREAMS[suite]


def test_the_readme_lists_every_suite_with_its_default_bound():
    # the bound column's leading number is the suite's default bound
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Verification suites", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| [^|]* \| (\d+)", table, re.M)
    assert [name for name, _ in rows] == list(SUITE_NAMES)
    assert [int(bound) for _, bound in rows] == [
        verify._SUITES[name][0] for name in SUITE_NAMES]


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


@pytest.mark.parametrize("field", ["eval_lam", "eval_mu", "eval_nu"])
@pytest.mark.parametrize("value", [0.1, "1/2", 0.5 + 0j],
                         ids=["float", "str", "complex"])
def test_a_config_refuses_a_point_that_is_no_int_or_fraction(field, value):
    # refused when the config is made, since a suite whose values carry
    # no coefficient (biideal-count, star-census) never evaluates one
    # and would report ok
    with pytest.raises(TypeError, match="evaluation point"):
        RunConfig(max_vertices=2, **{field: value})
    assert getattr(RunConfig(**{field: 2}), field) == 2
    assert getattr(RunConfig(**{field: Fraction(2, 3)}), field) == \
        Fraction(2, 3)


@pytest.mark.parametrize("bound", [2.5, 2.0, True, "3"])
def test_a_config_refuses_a_bound_that_is_no_int(bound):
    with pytest.raises(TypeError, match="max_vertices"):
        RunConfig(max_vertices=bound)
    assert RunConfig(max_vertices=0).max_vertices == 0


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


def test_the_witness_fails_a_counit_multiplicative_at_lambda_1(monkeypatch):
    # the sign flip +mu^n / lambda^(n+1) is multiplicative at lambda = 1,
    # so the non-multiplicativity witness must fail
    def flipped(F):
        n = F.nvertices
        return freemod.Coefficient.monomial(1, a=-(n + 1), b=n)

    monkeypatch.setattr(coalgebra, "counit", flipped)
    monkeypatch.setattr(verify, "counit", flipped)
    rep = run_suite("counit", RunConfig(alphabet=SMALL, max_vertices=2))
    assert "non-multiplicativity witness at lambda=1" in [
        f["case"] for f in rep.failures]


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
    assert sweeps
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


def _labels(report):
    return len(report.failures), [f["case"] for f in report.failures[:3]]


def test_failure_labels_under_a_star_mutant(monkeypatch):
    # recorded when every case still built its label with an f-string
    mutant = drop_last_term(dualprod.star)
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
    _, sections = verify._SUITES[suite]
    for fmt, fn, args in verify._stream(sections, cfg, cfg.max_vertices):
        got, want = fn(*args)
        if got != want:
            n = sum(len(forest._preorder(a)[2]) for a in args
                    if isinstance(a, forest.Forest))
            fails.append((n, fmt.format(*args)))
    return fails, min(fails, key=lambda f: f[0])


@pytest.mark.parametrize("suite, bound, mutant", [
    ("derivation", 4, "coproduct"), ("star-assoc", 4, "star")])
def test_smallest_counterexample_is_the_least_failure(monkeypatch, suite,
                                                      bound, mutant):
    if mutant == "star":
        patched = drop_last_term(dualprod.star)
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


def test_an_exception_in_a_case_is_that_cases_failure(monkeypatch, capsys):
    # star raises on a first forest of two trees: each such case fails
    # with the exception as its lhs, and the run goes on to the end
    real = verify.star

    def star(F, G):
        if F.breadth == 2:
            raise forest.DecorationError("internal vertex 'x' must be "
                                         "Omega-decorated")
        return real(F, G)

    monkeypatch.setattr(verify, "star", star)
    cfg = RunConfig(alphabet=SMALL, max_vertices=2)
    rep = run_suite("star-census", cfg)
    assert rep.cases == 81
    universe = list(forest.enumerate_forests(2, SMALL))
    assert [(f["case"], f["size"]) for f in rep.failures] == [
        (f"F={F} G={G}", F.nvertices + G.nvertices)
        for F in universe if F.breadth == 2 for G in universe]
    assert rep.failures[0] == {
        "case": "F=a a G=1", "size": 2, "rhs": "",
        "lhs": "DecorationError: internal vertex 'x' must be Omega-decorated"}
    code = cli.main(["verify", "star-census", "--omega", "a", "--xset", "x",
                     "--max-vertices", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "smallest counterexample: F=a a G=1\n" in out


def test_an_exception_in_dualitys_product_fails_its_cases(monkeypatch,
                                                          capsys):
    # duality makes y star_{l,m} z inside the cases of (y, z): when it
    # raises, every case of that (y, z) fails with the exception as its
    # lhs, and the other cases still run and pass
    real = verify.star_weighted

    def star_weighted(y, z, ab):
        if y.breadth == 2:
            raise forest.DecorationError("internal vertex 'x' must be "
                                         "Omega-decorated")
        return real(y, z, ab)

    monkeypatch.setattr(verify, "star_weighted", star_weighted)
    assert run_suite("duality", RunConfig(alphabet=SMALL,
                                          max_vertices=2)).cases == 81
    rep = run_suite("duality", RunConfig(alphabet=SMALL, max_vertices=3))
    xs = list(forest.enumerate_forests(3, SMALL))
    yz = list(forest.enumerate_forests(2, SMALL))
    assert rep.cases == len(yz) ** 2 * len(xs) == 81 * 31
    assert [(f["case"], f["size"]) for f in rep.failures] == [
        (f"x={x} y={y} z={z}", x.nvertices + y.nvertices + z.nvertices)
        for y in yz if y.breadth == 2 for z in yz for x in xs]
    assert rep.failures[0] == {
        "case": "x=1 y=a a z=1", "size": 2, "rhs": "",
        "lhs": "DecorationError: internal vertex 'x' must be Omega-decorated"}
    code = cli.main(["verify", "duality", "--omega", "a", "--xset", "x",
                     "--max-vertices", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "smallest counterexample: x=1 y=a a z=1\n" in out


def test_a_pole_at_the_evaluation_point_ends_the_run(capsys):
    # the golden counit values have negative lambda powers: evaluating
    # them at lambda = 0 raises in the comparison, not in a case
    cfg = RunConfig(eval_lam=Fraction(0))
    with pytest.raises(ZeroDivisionError):
        run_suite("examples-golden", cfg)
    code = cli.main(["verify", "examples-golden", "--eval-lambda", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "lambda must be invertible" in captured.err


def test_a_float_evaluation_point_ends_the_run():
    # 0.1 is no rational: evaluated at its binary value, 3602879701896397
    # / 36028797018963968, the run would report ok
    with pytest.raises(TypeError, match="evaluation point"):
        run_suite("counit", RunConfig(max_vertices=2, eval_lam=0.1))


def test_an_error_in_a_suites_setup_ends_the_run():
    # the counit suite refuses lambda = 0 before its first case
    cfg = RunConfig(alphabet=SMALL, max_vertices=2, eval_lam=Fraction(0))
    with pytest.raises(ZeroDivisionError, match="pole at lambda = 0"):
        run_suite("counit", cfg)


def test_smallest_counterexample_without_sizes_is_the_first():
    rep = SuiteReport(suite="demo", cases=3, wall_time=0.0, failures=[
        {"case": "F=a a", "lhs": "0", "rhs": "1"},
        {"case": "F=x", "lhs": "0", "rhs": "1"}])
    assert "smallest counterexample: F=a a\n" in rep.render_text()


def test_a_sweep_releases_the_star_memo_first(monkeypatch, sweeps):
    # a forest that only star's held prefixes hold must go in the same
    # sweep: key is its tree tuple, which holds the trees but not the
    # forest
    F = forest.parse_forest("a[a[a[x x x]]] a[x] a a x a", SMALL)
    key = F.trees
    dualprod.star(F, forest.parse_forest("a[x] a", SMALL))
    assert (dualprod._regrafted, F) in freemod._HELD
    del F
    assert key in forest.Forest._intern
    monkeypatch.setattr(forest, "_sweep_at", 0)
    rep = run_suite("coassoc", RunConfig(alphabet=SMALL, max_vertices=2))
    assert rep.ok and sweeps
    assert not freemod._HELD
    assert key not in forest.Forest._intern


def test_star_assoc_regrafts_each_f_and_first_tree_once(monkeypatch):
    # with no sweep due, the held rows keep every F of the run, whichever
    # operand of star varies between calls
    seen = []
    real = dualprod._regrafted

    def regrafted(trees, first):
        seen.append((trees, first))
        return real(trees, first)

    monkeypatch.setattr(dualprod, "_regrafted", regrafted)
    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    freemod._HELD.clear()
    rep = run_suite("star-assoc", RunConfig(alphabet=SMALL, max_vertices=4))
    assert rep.ok and rep.cases == 1080
    assert seen and len(seen) <= len(set(seen))


def test_a_restored_regrafting_leaves_no_stale_prefixes(monkeypatch):
    # star holds its prefixes under the _regrafted that made them, so the
    # run after a mutant is undone regrafts afresh, though no sweep
    # released the mutant's rows in between
    real = dualprod._regrafted

    def regrafted(trees, first):
        prefixes, cut = real(trees, first)
        return (prefixes[:-1] if len(prefixes) > 1 else prefixes), cut

    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    cfg = RunConfig(alphabet=SMALL, max_vertices=2)
    with monkeypatch.context() as patch:
        patch.setattr(dualprod, "_regrafted", regrafted)
        assert not run_suite("star-census", cfg).ok
    rep = run_suite("star-census", cfg)
    assert rep.ok and rep.cases == 81, rep.failures[:1]


@pytest.mark.parametrize("suite, module, name", [
    ("star-assoc", dualprod, "star"), ("jacobi", prelie, "prelie")],
    ids=["star-assoc", "jacobi"])
def test_held_images_never_outlive_a_replaced_product(monkeypatch, suite,
                                                      module, name):
    # the bilinear extensions hold each image under the product that made
    # it, so the run after a mutant is undone reads none of the mutant's
    # images, though no sweep released them in between
    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    cfg = RunConfig(alphabet=SMALL, max_vertices=3)
    with monkeypatch.context() as patch:
        patch.setattr(module, name, drop_last_term(getattr(module, name)))
        assert not run_suite(suite, cfg).ok
    rep = run_suite(suite, cfg)
    assert rep.ok, rep.failures[:1]


def test_nested_products_make_each_basis_product_once(monkeypatch):
    # with no sweep due, a pair that the bilinear extensions made before
    # is a lookup of its held image. star-assoc's own star(x, y) and
    # star(y, z) go through verify.star, unheld and uncounted here
    def counted(module, name):
        seen = []
        real = getattr(module, name)

        def product(F, G):
            seen.append((F, G))
            return real(F, G)
        monkeypatch.setattr(module, name, product)
        return seen

    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    stars = counted(dualprod, "star")
    rep = run_suite("star-assoc", RunConfig(alphabet=SMALL, max_vertices=4))
    assert rep.ok and rep.cases == 1080
    assert stars and len(stars) == len(set(stars))
    prelies = counted(prelie, "prelie")
    rep = run_suite("jacobi", RunConfig(alphabet=SMALL, max_vertices=4))
    assert rep.ok and rep.cases == 897
    assert len(prelies) == len(set(prelies)) == 393


def test_suites_leave_no_cyclic_garbage():
    # the run pauses automatic collection and collects only at intern
    # sweeps, which is safe only while no case makes reference cycles.
    # A fresh interpreter, so that no cache filled by an earlier test
    # hides a cold path
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
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["clean"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_star_census_memory_stays_bounded():
    # without the sweep the intern tables keep every grafted forest, and
    # this run peaks at ~130 MB; with a trigger that counted forests
    # alone, from 65,536 up, at 29-33 MB, and with one that counts every
    # intern table from 16,384 entries up, at 16-20 MB (Python 3.10 to
    # 3.13). VmHWM is the peak of this process's own address space;
    # ru_maxrss would start from the peak of the forking test process,
    # which carries over exec on Linux
    code = (
        "from forest_bialg import Alphabet, RunConfig, run_suite\n"
        "ab = Alphabet(omega=('a',), xset=('x', 'y'))\n"
        "rep = run_suite('star-census', RunConfig(alphabet=ab, max_vertices=4))\n"
        "assert rep.ok and rep.cases == 139129, rep.cases\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, check=True)
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= 25, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_biideal_census_memory_stays_bounded():
    # the enumerated forests live as long as the process, so anything a
    # forest keeps stays too: when each forest cached its text, encoding,
    # paths, postorder and path index, this run peaked at ~90 MB
    code = (
        "from forest_bialg import Alphabet, RunConfig, run_suite\n"
        "ab = Alphabet(omega=('a', 'b'), xset=('x',))\n"
        "rep = run_suite('biideal-count', RunConfig(alphabet=ab, max_vertices=6))\n"
        "assert rep.ok and rep.cases == 42823, rep.cases\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(l.split()[1] for l in f if l.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, check=True)
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= 50, f"peak RSS {peak_mb:.0f} MB"

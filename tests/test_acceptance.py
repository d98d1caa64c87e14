"""Acceptance gate: every shipped claim, one pass/fail line each.

Each criterion runs the corresponding verification suite(s) at the stated
bounds and must finish inside its time budget. Bounds live in the suite
defaults (the bound column of verify._SUITES); alphabets are set per
criterion.
"""

import time

import pytest

from forest_bialg.forest import Alphabet
from forest_bialg.verify import RunConfig, run_suite

AB2 = Alphabet(omega=("a", "b"), xset=("x",))
AB1 = Alphabet(omega=("a",), xset=("x",))


@pytest.fixture
def announce(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)
    return emit


def gate(announce, num, budget, desc, suites, alphabet):
    t0 = time.perf_counter()
    reports = [run_suite(name, RunConfig(alphabet=alphabet)) for name in suites]
    dt = time.perf_counter() - t0
    ok = all(r.ok for r in reports) and dt < budget
    cases = sum(r.cases for r in reports)
    verdict = "PASS" if ok else "FAIL"
    announce(f"criterion {num:02d} {verdict} [{dt:.1f}s <= {budget}s, "
             f"{cases} cases] {desc}")
    for r in reports:
        assert r.ok, (r.suite, r.failures[:3])
    assert dt < budget, f"criterion {num} exceeded budget: {dt:.1f}s"


def test_criterion_01_golden_examples(announce):
    gate(announce, 1, 1, "worked displays reproduced bit-exactly",
         ["examples-golden"], AB2)


def test_criterion_02_coassociativity(announce):
    gate(announce, 2, 60, "coassociativity, all forests <= 5 vertices",
         ["coassoc"], AB2)


def test_criterion_03_derivation_and_cocycle(announce):
    gate(announce, 3, 60, "weighted derivation on pairs <= 5, cocycle <= 4",
         ["derivation", "cocycle"], AB2)


def test_criterion_04_recursive_vs_biideal(announce):
    gate(announce, 4, 120, "recursive = biideal coproduct, forests <= 6",
         ["rec-vs-biideal"], AB2)


def test_criterion_05_counit(announce):
    gate(announce, 5, 30,
         "counit laws <= 5, multiplicativity at l=-1, witness at l=1",
         ["counit"], AB2)


def test_criterion_06_biideal_census(announce):
    gate(announce, 6, 30, "n+1 biideals forming a chain, forests <= 6",
         ["biideal-count"], AB2)


def test_criterion_07_duality(announce):
    gate(announce, 7, 120, "coproduct adjoint to weighted star, x <= 4",
         ["duality"], AB1)


def test_criterion_08_star_census(announce):
    gate(announce, 8, 60, "star has C(m+n, n) distinct terms, F, G <= 4",
         ["star-census"], AB2)


def test_criterion_09_star_associativity(announce):
    gate(announce, 9, 120, "star associative <= 5, weighted star <= 4",
         ["star-assoc"], AB1)


def test_criterion_10_phi_laws(announce):
    gate(announce, 10, 120,
         "phi subset expansion, composition, coproduct intertwining",
         ["phi-laws"], AB2)


def test_criterion_11_theta_laws(announce):
    gate(announce, 11, 30, "theta multiplicative and intertwining, <= 4",
         ["theta-laws"], AB2)


def test_criterion_12_prelie(announce):
    gate(announce, 12, 300,
         "pre-Lie identity, Jacobi, sandwich = closed form, total <= 5",
         ["prelie", "jacobi", "prelie-closed-form"], AB1)

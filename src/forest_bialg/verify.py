"""Exhaustive verification suites over small forest universes.

Every algebraic law in the library has a suite that checks it on all
forests (or pairs, or triples) up to a vertex bound, symbolically in the
coefficient ring. A suite is a deterministic stream of cases; each case
produces two values that must be equal. Reports are reproducible: two
runs with the same RunConfig differ at most in wall time. Failures are
listed in stream order. In a suite over single forests that order runs
by vertex count, but suites over pairs and triples order by the first
forest rather than by total size, and suites with several sections
(counit, star-assoc, phi-laws, theta-laws) start each section from the
smallest forests again, so the first failure need not be the smallest.
Each failure therefore records its size, the total vertex count of the
case's forest arguments (0 if it has none), and the smallest
counterexample a report names is the failure of least size, the first
in stream order among equals (SuiteReport.render_text).

Per-suite default bounds (used when RunConfig.max_vertices is None) are
chosen so the heaviest suites stay in the minutes range on one core:

    coassoc 5        derivation 5 (pair total)    cocycle 4
    counit 5         rec-vs-biideal 6             biideal-count 6
    duality 4        star-assoc 5 (triple total)  star-census 4 (each)
    prelie 5         jacobi 5 (triple total)      prelie-closed-form 5
    phi-laws 5       theta-laws 4                 examples-golden (fixed)

Suites that mix ranges derive the secondary bound from the primary one:
counit checks multiplicativity at lambda = -1 on pairs totalling at most
max-1; duality bounds the right tensor legs by max-1; star-assoc checks
the weighted product on triples totalling at most max-1; phi-laws runs
composition, identity-at-zero and the coproduct intertwining at max-1;
theta-laws checks multiplicativity on pairs of forests each at most max-1.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from typing import Iterator, Optional

from .coalgebra import (coproduct, coproduct_biideal, coproduct_left,
                        coproduct_lin, coproduct_rec, coproduct_right,
                        counit, counit_left, counit_right)
from .dualprod import pairing, star, star_lin, star_weighted
from .forest import (EMPTY_FOREST, KIND_X, Alphabet, Forest,
                     _biideal_chain, _postorder_paths, _preorder, concat,
                     enumerate_forests, graft, sweep_if_due)
from .freemod import (LAM, MU, NU, ONE, Coefficient, LinComb, act_left,
                      act_right, sweep_coefficients)
from .golden import golden_cases
from .morphisms import lc_concat, phi, phi_at, phi_subsets, theta
from .prelie import bracket_lin, prelie, prelie_lin, prelie_sandwich

__all__ = ["RunConfig", "SuiteReport", "SUITE_NAMES", "run_suite"]

DEFAULT_ALPHABET = Alphabet(omega=("a", "b"), xset=("x",))

_DEFAULT_MAX = {
    "coassoc": 5, "derivation": 5, "cocycle": 4, "counit": 5,
    "rec-vs-biideal": 6, "biideal-count": 6, "duality": 4,
    "star-assoc": 5, "star-census": 4, "prelie": 5, "jacobi": 5,
    "prelie-closed-form": 5, "phi-laws": 5, "theta-laws": 4,
    "examples-golden": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a suite run depends on.

    eval_* are optional rational evaluation points substituted into both
    sides of every comparison (None keeps the variable symbolic).
    """

    alphabet: Alphabet = DEFAULT_ALPHABET
    max_vertices: Optional[int] = None
    eval_lam: Optional[Fraction] = None
    eval_mu: Optional[Fraction] = None
    eval_nu: Optional[Fraction] = None

    def __post_init__(self):
        if self.max_vertices is not None and self.max_vertices < 0:
            raise ValueError("max_vertices must be >= 0")

    @property
    def has_eval(self):
        return (self.eval_lam is not None or self.eval_mu is not None
                or self.eval_nu is not None)


@dataclass
class SuiteReport:
    suite: str
    cases: int
    failures: list
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "cases": self.cases,
                "failures": self.failures, "ok": self.ok,
                "wall_time": round(self.wall_time, 3)}

    def render_text(self, max_failures: int = 10) -> str:
        lines = []
        for f in self.failures[:max_failures]:
            lines.append(f"FAIL {f['case']}")
            lines.append(f"  lhs: {f['lhs']}")
            lines.append(f"  rhs: {f['rhs']}")
        if len(self.failures) > max_failures:
            lines.append(f"(and {len(self.failures) - max_failures} more failures)")
        if self.failures:
            # least size, the first in stream order among equals; a
            # failure without a size (a hand-built report) counts as 0
            least = min(self.failures, key=lambda f: f.get("size", 0))
            lines.append(f"smallest counterexample: {least['case']}")
        lines.append(f"suite: {self.suite}")
        lines.append(f"cases: {self.cases}")
        lines.append(f"failures: {len(self.failures)}")
        lines.append(f"ok: {'true' if self.ok else 'false'}")
        lines.append(f"wall time: {self.wall_time:.3f}s")
        return "\n".join(lines)


# ------------------------------------------------------------------ plumbing

def _max_for(cfg: RunConfig, suite: str) -> int:
    if cfg.max_vertices is not None:
        return cfg.max_vertices
    return _DEFAULT_MAX[suite]


def _forests(cfg: RunConfig, nmax: int) -> Iterator[Forest]:
    return enumerate_forests(nmax, cfg.alphabet)


def _pairs(cfg: RunConfig, total: int):
    for F in enumerate_forests(total, cfg.alphabet):
        for G in enumerate_forests(total - F.nvertices, cfg.alphabet):
            yield F, G


def _triples(cfg: RunConfig, total: int):
    for F in enumerate_forests(total, cfg.alphabet):
        left = total - F.nvertices
        for G in enumerate_forests(left, cfg.alphabet):
            for H in enumerate_forests(left - G.nvertices, cfg.alphabet):
                yield F, G, H


def _norm(v, cfg: RunConfig):
    """v at cfg's evaluation point; called only when cfg.has_eval."""
    if isinstance(v, Coefficient):
        return v.subst_partial(lam=cfg.eval_lam, mu=cfg.eval_mu, nu=cfg.eval_nu)
    if isinstance(v, LinComb):
        return v.map_coeff(lambda c: c.subst_partial(
            lam=cfg.eval_lam, mu=cfg.eval_mu, nu=cfg.eval_nu))
    if isinstance(v, tuple):
        return tuple(_norm(x, cfg) for x in v)
    return v


def _render(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    return str(v).replace("\n", " ; ")


# ------------------------------------------------------------------- suites
#
# A suite is a generator of cases (fmt, fn, args): fn(*args) -> (got, want),
# and fmt.format(*args) is the case's label, built only for a failure.
# Each suite defines its check functions once, outside its loops.

def _suite_coassoc(cfg):
    def check(F):
        d = coproduct(F)
        return coproduct_left(d), coproduct_right(d)

    for F in _forests(cfg, _max_for(cfg, "coassoc")):
        yield "F={}", check, (F,)


def _suite_derivation(cfg):
    def check(F, G):
        lhs = coproduct(concat(F, G))
        rhs = (act_left(F, coproduct(G)) + act_right(coproduct(F), G)
               + LinComb.single((F, G), LAM))
        return lhs, rhs

    for FG in _pairs(cfg, _max_for(cfg, "derivation")):
        yield "F={} G={}", check, FG


def _suite_cocycle(cfg):
    ab = cfg.alphabet

    def check(w, F):
        dec = ab.decoration(w)
        T = graft(dec, F).as_forest()
        d = coproduct(F)
        rhs = (LinComb.single((T, EMPTY_FOREST), -LAM)
               + LinComb.single((F, EMPTY_FOREST), MU)
               + d.map_basis(
                   lambda legs: (legs[0], graft(dec, legs[1]).as_forest())))
        return coproduct(T), rhs

    for F in _forests(cfg, _max_for(cfg, "cocycle")):
        for w in ab.omega:
            yield "w={} F={}", check, (w, F)


def _suite_counit(cfg):
    # eps(F) = -mu^n / lambda^(n+1): evaluating this suite needs lambda
    # invertible even where the two sides of an identity cancel the poles
    if cfg.eval_lam == 0:
        raise ZeroDivisionError("the counit has a pole at lambda = 0")
    m = _max_for(cfg, "counit")

    def left(F):
        return counit_left(coproduct(F)), LinComb.single(F)

    def right(F):
        return counit_right(coproduct(F)), LinComb.single(F)

    for F in _forests(cfg, m):
        yield "(eps x id) D F={}", left, (F,)
        yield "(id x eps) D F={}", right, (F,)

    def mult(F, G):
        lhs = counit(concat(F, G)).subst_partial(lam=Fraction(-1))
        rhs = (counit(F) * counit(G)).subst_partial(lam=Fraction(-1))
        return lhs, rhs

    for FG in _pairs(cfg, max(m - 1, 0)):
        yield "multiplicative at lambda=-1 F={} G={}", mult, FG

    def witness():
        # eps is not an algebra morphism away from lambda = -1; at
        # lambda = 1 already the empty pair separates the two sides
        for F, G in _pairs(cfg, max(m - 1, 0)):
            lhs = counit(concat(F, G)).subst_partial(lam=Fraction(1))
            rhs = (counit(F) * counit(G)).subst_partial(lam=Fraction(1))
            if lhs != rhs:
                return f"F={F} G={G}", "F=1 G=1"
        return "none", "F=1 G=1"

    yield "non-multiplicativity witness at lambda=1", witness, ()


def _suite_rec_vs_biideal(cfg):
    def check(F):
        return coproduct_rec(F), coproduct_biideal(F)

    for F in _forests(cfg, _max_for(cfg, "rec-vs-biideal")):
        yield "F={}", check, (F,)


def _path_leq(p, q) -> bool:
    """p <= q in the vertex order: q is a descendant or lies more left."""
    if p == q:
        return True
    for a, b in zip(p, q):
        if a != b:
            return b < a
    return len(p) < len(q)


def _cmp_desc(u, v) -> int:
    if u.path == v.path:
        return 0
    return -1 if _path_leq(v.path, u.path) else 1


def _suite_biideal_count(cfg):
    # listing correctness is re-derived from the definitional comparator
    # on index paths, independently of the postorder kernel. One preorder
    # walk feeds both: the kernel route turns its parents into the vertex
    # order that biideals and vertex_order compute, the comparator route
    # sorts its paths
    def check(F):
        parents, _, paths = _preorder(F)
        order = _postorder_paths(parents, paths)
        ideals = _biideal_chain(F, order)
        chain = all(ideals[k].members < ideals[k + 1].members
                    for k in range(len(ideals) - 1))
        got = (len(ideals), list(order), chain)
        want = (F.nvertices + 1,
                sorted(paths, key=cmp_to_key(_cmp_desc)), True)
        return got, want

    for F in _forests(cfg, _max_for(cfg, "biideal-count")):
        yield "F={}", check, (F,)


def _suite_duality(cfg):
    ab = cfg.alphabet
    m = _max_for(cfg, "duality")
    yz = max(m - 1, 0)
    xs = list(_forests(cfg, m))

    # p = y star_{l,m} z, made once per (y, z) and passed to each x's
    # case; the label's format takes the first three arguments only
    def check(x, y, z, p):
        lhs = pairing((y, z), coproduct(x))
        return lhs, pairing(x, p)

    for y in _forests(cfg, yz):
        for z in _forests(cfg, yz):
            p = star_weighted(y, z, ab)
            for x in xs:
                yield "x={} y={} z={}", check, (x, y, z, p)


def _suite_star_assoc(cfg):
    ab = cfg.alphabet
    m = _max_for(cfg, "star-assoc")

    def plain(x, y, z):
        return star_lin(star(x, y), z), star_lin(x, star(y, z))

    for xyz in _triples(cfg, m):
        yield "star x={} y={} z={}", plain, xyz

    def weighted(x, y, z):
        lhs = star_weighted(star_weighted(x, y, ab), z, ab)
        rhs = star_weighted(x, star_weighted(y, z, ab), ab)
        return lhs, rhs

    for xyz in _triples(cfg, max(m - 1, 0)):
        yield "star-weighted x={} y={} z={}", weighted, xyz


def _left_path_len(G: Forest) -> int:
    """Graft positions along G's leftmost path, from the definition."""
    if not G.trees:
        return 0
    t, n = G.trees[0], 0
    while True:
        if t.deco.kind == KIND_X:
            break
        n += 1
        if not t.children:
            break
        t = t.children[0]
    return n


def _suite_star_census(cfg):
    m = _max_for(cfg, "star-census")
    # n = the length of G's left path, counted once per G
    gs = [(G, _left_path_len(G)) for G in _forests(cfg, m)]

    def check(F, G, n):
        prod = star(F, G)
        distinct = all(c == ONE for c in prod.terms.values())
        return ((len(prod.terms), distinct),
                (comb(F.breadth + n, n), True))

    for F in _forests(cfg, m):
        for G, n in gs:
            yield "F={} G={}", check, (F, G, n)


def _suite_prelie(cfg):
    def check(x, y, z):
        ux, uy, uz = (LinComb.single(v) for v in (x, y, z))
        lhs = (prelie_lin(prelie_lin(ux, uy), uz)
               - prelie_lin(ux, prelie_lin(uy, uz)))
        rhs = (prelie_lin(prelie_lin(uy, ux), uz)
               - prelie_lin(uy, prelie_lin(ux, uz)))
        return lhs, rhs

    for xyz in _triples(cfg, _max_for(cfg, "prelie")):
        yield "x={} y={} z={}", check, xyz


def _suite_jacobi(cfg):
    def check(x, y, z):
        ux, uy, uz = (LinComb.single(v) for v in (x, y, z))
        got = (bracket_lin(bracket_lin(ux, uy), uz)
               + bracket_lin(bracket_lin(uy, uz), ux)
               + bracket_lin(bracket_lin(uz, ux), uy))
        return got, LinComb.zero()

    for xyz in _triples(cfg, _max_for(cfg, "jacobi")):
        yield "x={} y={} z={}", check, xyz


def _suite_prelie_closed_form(cfg):
    def check(F, G):
        return prelie(F, G), prelie_sandwich(F, G)

    for FG in _pairs(cfg, _max_for(cfg, "prelie-closed-form")):
        yield "F={} G={}", check, FG


_COMPOSE_POINTS = (
    (Fraction(-2), Fraction(1)), (Fraction(-1), Fraction(-1)),
    (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
)


def _suite_phi_laws(cfg):
    m = _max_for(cfg, "phi-laws")
    sub = max(m - 1, 0)

    def equiv(F):
        return phi(F), phi_subsets(F)

    for F in _forests(cfg, m):
        yield "recursive = subsets F={}", equiv, (F,)

    def compose(nu1, nu2, F):
        return phi_at(phi_at(F, nu2), nu1), phi_at(F, nu1 + nu2)

    for F in _forests(cfg, sub):
        for nu1, nu2 in _COMPOSE_POINTS:
            yield "compose nu={} nu'={} F={}", compose, (nu1, nu2, F)

    def at_zero(F):
        return phi_at(F, Fraction(0)), LinComb.single(F)

    for F in _forests(cfg, sub):
        yield "identity at nu=0 F={}", at_zero, (F,)

    shift = MU - LAM * NU

    def intertwine(F):
        lhs = coproduct_lin(phi(F)).map_coeff(lambda c: c.subst_mu(shift))
        rhs = coproduct(F).apply(
            lambda legs: phi(legs[0]).tensor(phi(legs[1])))
        return lhs, rhs

    for F in _forests(cfg, sub):
        yield "coproduct intertwining F={}", intertwine, (F,)


def _suite_theta_laws(cfg):
    m = _max_for(cfg, "theta-laws")
    scaled = MU * NU

    def intertwine(F):
        lhs = coproduct_lin(theta(F))
        d = coproduct(F).map_coeff(lambda c: c.subst_mu(scaled))
        rhs = LinComb({
            legs: c * Coefficient.monomial(
                1, c=legs[0].nvertices + legs[1].nvertices)
            for legs, c in d.terms.items()})
        return lhs, rhs

    for F in _forests(cfg, m):
        yield "coproduct intertwining F={}", intertwine, (F,)
    sub = max(m - 1, 0)

    def mult(F, G):
        return theta(concat(F, G)), lc_concat(theta(F), theta(G))

    for F in _forests(cfg, sub):
        for G in _forests(cfg, sub):
            yield "multiplicative F={} G={}", mult, (F, G)


def _suite_examples_golden(cfg):
    # a golden label is final text: escape it as a format string
    for label, thunk in golden_cases():
        yield label.replace("{", "{{").replace("}", "}}"), thunk, ()


_SUITES = {
    "coassoc": _suite_coassoc,
    "derivation": _suite_derivation,
    "cocycle": _suite_cocycle,
    "counit": _suite_counit,
    "rec-vs-biideal": _suite_rec_vs_biideal,
    "biideal-count": _suite_biideal_count,
    "duality": _suite_duality,
    "star-assoc": _suite_star_assoc,
    "star-census": _suite_star_census,
    "prelie": _suite_prelie,
    "jacobi": _suite_jacobi,
    "prelie-closed-form": _suite_prelie_closed_form,
    "phi-laws": _suite_phi_laws,
    "theta-laws": _suite_theta_laws,
    "examples-golden": _suite_examples_golden,
}

SUITE_NAMES = tuple(_SUITES)

def run_suite(name: str, config: RunConfig = RunConfig()) -> SuiteReport:
    """Run one suite to completion and report deterministically.

    The intern tables are swept between cases once they have grown
    enough (forest.sweep_if_due for forests and trees, which first
    releases star's memo of regrafted prefixes; each such sweep also
    runs freemod.sweep_coefficients for coefficients and their sum and
    product memos), so memory stays bounded by what the suite and the
    caches hold rather than by everything the run ever built.

    A call that starts on the process's only thread also turns automatic
    garbage collection off for its length, runs one young-generation
    collection right after each intern sweep, and restores the old
    enabled state on the way out, whether it returns or raises; the
    thresholds are never changed. Forests and trees are acyclic and are
    freed by reference counting, but the suites allocate them by the
    hundred thousand, so automatic collections would keep scanning them
    and free next to nothing. This is safe because no suite's case makes
    reference cycles (tests/test_verify.py runs every suite under
    gc.DEBUG_SAVEALL and finds no cyclic garbage). Calls that start beside
    other threads leave the collector alone, and neither sweep nor
    collect, so that concurrent calls cannot restore each other's setting.
    """
    gen = _SUITES.get(name)
    if gen is None:
        raise ValueError(
            f"unknown suite {name!r}; expected one of: {', '.join(SUITE_NAMES)}")
    if threading.active_count() != 1:
        return _run(name, gen, config)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(name, gen, config)
    finally:
        if enabled:
            gc.enable()


def _run(name, gen, config) -> SuiteReport:
    t0 = time.perf_counter()
    evaluate = config.has_eval
    cases, failures = 0, []
    for fmt, fn, args in gen(config):
        cases += 1
        got, want = fn(*args)
        if evaluate:
            got, want = _norm(got, config), _norm(want, config)
        if got != want:
            size = sum(a.nvertices for a in args if isinstance(a, Forest))
            failures.append({"case": fmt.format(*args),
                             "lhs": _render(got), "rhs": _render(want),
                             "size": size})
        if sweep_if_due():
            sweep_coefficients()
            gc.collect(0)
    return SuiteReport(name, cases, failures, time.perf_counter() - t0)

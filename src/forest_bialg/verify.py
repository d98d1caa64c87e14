"""Exhaustive verification suites over small forest universes.

Every algebraic law in the library has a suite that checks it on all
forests (or pairs, or triples) up to a vertex bound, symbolically in the
coefficient ring. A suite is a deterministic stream of cases; each case
produces two values that must be equal. Reports are reproducible: two
runs with the same RunConfig differ at most in wall time, and the worker
count never changes the report because results are merged in enumeration
order, not completion order. The first failure in stream order is the
smallest counterexample.

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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from typing import Callable, Iterator, Optional

from .coalgebra import (coproduct, coproduct_biideal, coproduct_left,
                        coproduct_lin, coproduct_rec, coproduct_right,
                        counit, counit_left, counit_right)
from .dualprod import pairing, star, star_lin, star_weighted
from .forest import (EMPTY_FOREST, KIND_X, Alphabet, Forest, biideals,
                     concat, enumerate_forests, graft, sweep_if_due,
                     vertex_order)
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
    workers: int = 1

    def __post_init__(self):
        if self.max_vertices is not None and self.max_vertices < 0:
            raise ValueError("max_vertices must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

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
            lines.append(f"smallest counterexample: {self.failures[0]['case']}")
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


def _ordered_map(fn: Callable, items, workers: int):
    """Map fn over items preserving order; workers only add concurrency."""
    if workers <= 1:
        for it in items:
            yield fn(it)
        return
    window = max(64, 8 * workers)
    buf: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for it in items:
            buf.append(ex.submit(fn, it))
            if len(buf) >= window:
                yield buf.popleft().result()
        while buf:
            yield buf.popleft().result()


# ------------------------------------------------------------------- suites
#
# A suite is a generator of (label, thunk); thunk() -> (got, want).

def _suite_coassoc(cfg):
    for F in _forests(cfg, _max_for(cfg, "coassoc")):
        def thunk(F=F):
            d = coproduct(F)
            return coproduct_left(d), coproduct_right(d)
        yield f"F={F}", thunk


def _suite_derivation(cfg):
    for F, G in _pairs(cfg, _max_for(cfg, "derivation")):
        def thunk(F=F, G=G):
            lhs = coproduct(concat(F, G))
            rhs = (act_left(F, coproduct(G)) + act_right(coproduct(F), G)
                   + LinComb.single((F, G), LAM))
            return lhs, rhs
        yield f"F={F} G={G}", thunk


def _suite_cocycle(cfg):
    ab = cfg.alphabet
    for F in _forests(cfg, _max_for(cfg, "cocycle")):
        for w in ab.omega:
            def thunk(F=F, w=w):
                dec = ab.decoration(w)
                T = graft(dec, F).as_forest()
                d = coproduct(F)
                rhs = (LinComb.single((T, EMPTY_FOREST), -LAM)
                       + LinComb.single((F, EMPTY_FOREST), MU)
                       + d.map_basis(
                           lambda legs: (legs[0], graft(dec, legs[1]).as_forest())))
                return coproduct(T), rhs
            yield f"w={w} F={F}", thunk


def _suite_counit(cfg):
    # eps(F) = -mu^n / lambda^(n+1): evaluating this suite needs lambda
    # invertible even where the two sides of an identity cancel the poles
    if cfg.eval_lam == 0:
        raise ZeroDivisionError("the counit has a pole at lambda = 0")
    m = _max_for(cfg, "counit")
    for F in _forests(cfg, m):
        def left(F=F):
            return counit_left(coproduct(F)), LinComb.single(F)

        def right(F=F):
            return counit_right(coproduct(F)), LinComb.single(F)

        yield f"(eps x id) D F={F}", left
        yield f"(id x eps) D F={F}", right
    for F, G in _pairs(cfg, max(m - 1, 0)):
        def mult(F=F, G=G):
            lhs = counit(concat(F, G)).subst_partial(lam=Fraction(-1))
            rhs = (counit(F) * counit(G)).subst_partial(lam=Fraction(-1))
            return lhs, rhs
        yield f"multiplicative at lambda=-1 F={F} G={G}", mult

    def witness():
        # eps is not an algebra morphism away from lambda = -1; at
        # lambda = 1 already the empty pair separates the two sides
        for F, G in _pairs(cfg, max(m - 1, 0)):
            lhs = counit(concat(F, G)).subst_partial(lam=Fraction(1))
            rhs = (counit(F) * counit(G)).subst_partial(lam=Fraction(1))
            if lhs != rhs:
                return f"F={F} G={G}", "F=1 G=1"
        return "none", "F=1 G=1"

    yield "non-multiplicativity witness at lambda=1", witness


def _suite_rec_vs_biideal(cfg):
    for F in _forests(cfg, _max_for(cfg, "rec-vs-biideal")):
        def thunk(F=F):
            return coproduct_rec(F), coproduct_biideal(F)
        yield f"F={F}", thunk


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
    # on index paths, independently of the postorder kernel
    for F in _forests(cfg, _max_for(cfg, "biideal-count")):
        def thunk(F=F):
            ideals = biideals(F)
            chain = all(ideals[k].members < ideals[k + 1].members
                        for k in range(len(ideals) - 1))
            got = (len(ideals), list(vertex_order(F)), chain)
            want = (F.nvertices + 1,
                    sorted(F.paths, key=cmp_to_key(_cmp_desc)), True)
            return got, want
        yield f"F={F}", thunk


def _suite_duality(cfg):
    ab = cfg.alphabet
    m = _max_for(cfg, "duality")
    yz = max(m - 1, 0)
    xs = list(_forests(cfg, m))
    for y in _forests(cfg, yz):
        for z in _forests(cfg, yz):
            cell = {}
            for x in xs:
                def thunk(x=x, y=y, z=z, cell=cell):
                    if "p" not in cell:
                        cell["p"] = star_weighted(y, z, ab)
                    lhs = pairing(coproduct(x), LinComb.single((y, z)))
                    rhs = pairing(x, cell["p"])
                    return lhs, rhs
                yield f"x={x} y={y} z={z}", thunk


def _suite_star_assoc(cfg):
    ab = cfg.alphabet
    m = _max_for(cfg, "star-assoc")
    for x, y, z in _triples(cfg, m):
        def plain(x=x, y=y, z=z):
            return star_lin(star(x, y), z), star_lin(x, star(y, z))
        yield f"star x={x} y={y} z={z}", plain
    for x, y, z in _triples(cfg, max(m - 1, 0)):
        def weighted(x=x, y=y, z=z):
            lhs = star_weighted(star_weighted(x, y, ab), z, ab)
            rhs = star_weighted(x, star_weighted(y, z, ab), ab)
            return lhs, rhs
        yield f"star-weighted x={x} y={y} z={z}", weighted


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
    gs = list(_forests(cfg, m))
    for F in _forests(cfg, m):
        for G in gs:
            def thunk(F=F, G=G):
                prod = star(F, G)
                distinct = all(c == ONE for c in prod.terms.values())
                n = _left_path_len(G)
                return ((len(prod.terms), distinct),
                        (comb(F.breadth + n, n), True))
            yield f"F={F} G={G}", thunk


def _suite_prelie(cfg):
    for x, y, z in _triples(cfg, _max_for(cfg, "prelie")):
        def thunk(x=x, y=y, z=z):
            ux, uy, uz = (LinComb.single(v) for v in (x, y, z))
            lhs = (prelie_lin(prelie_lin(ux, uy), uz)
                   - prelie_lin(ux, prelie_lin(uy, uz)))
            rhs = (prelie_lin(prelie_lin(uy, ux), uz)
                   - prelie_lin(uy, prelie_lin(ux, uz)))
            return lhs, rhs
        yield f"x={x} y={y} z={z}", thunk


def _suite_jacobi(cfg):
    for x, y, z in _triples(cfg, _max_for(cfg, "jacobi")):
        def thunk(x=x, y=y, z=z):
            ux, uy, uz = (LinComb.single(v) for v in (x, y, z))
            got = (bracket_lin(bracket_lin(ux, uy), uz)
                   + bracket_lin(bracket_lin(uy, uz), ux)
                   + bracket_lin(bracket_lin(uz, ux), uy))
            return got, LinComb.zero()
        yield f"x={x} y={y} z={z}", thunk


def _suite_prelie_closed_form(cfg):
    for F, G in _pairs(cfg, _max_for(cfg, "prelie-closed-form")):
        def thunk(F=F, G=G):
            return prelie(F, G), prelie_sandwich(F, G)
        yield f"F={F} G={G}", thunk


_COMPOSE_POINTS = (
    (Fraction(-2), Fraction(1)), (Fraction(-1), Fraction(-1)),
    (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
)


def _suite_phi_laws(cfg):
    m = _max_for(cfg, "phi-laws")
    sub = max(m - 1, 0)
    for F in _forests(cfg, m):
        def equiv(F=F):
            return phi(F), phi_subsets(F)
        yield f"recursive = subsets F={F}", equiv
    for F in _forests(cfg, sub):
        for nu1, nu2 in _COMPOSE_POINTS:
            def compose(F=F, nu1=nu1, nu2=nu2):
                return (phi_at(phi_at(F, nu2), nu1),
                        phi_at(F, nu1 + nu2))
            yield f"compose nu={nu1} nu'={nu2} F={F}", compose
    for F in _forests(cfg, sub):
        def at_zero(F=F):
            return phi_at(F, Fraction(0)), LinComb.single(F)
        yield f"identity at nu=0 F={F}", at_zero
    shift = MU - LAM * NU
    for F in _forests(cfg, sub):
        def intertwine(F=F):
            lhs = coproduct_lin(phi(F)).map_coeff(lambda c: c.subst_mu(shift))
            rhs = coproduct(F).apply(
                lambda legs: phi(legs[0]).tensor(phi(legs[1])))
            return lhs, rhs
        yield f"coproduct intertwining F={F}", intertwine


def _suite_theta_laws(cfg):
    m = _max_for(cfg, "theta-laws")
    scaled = MU * NU
    for F in _forests(cfg, m):
        def intertwine(F=F):
            lhs = coproduct_lin(theta(F))
            d = coproduct(F).map_coeff(lambda c: c.subst_mu(scaled))
            rhs = LinComb({
                legs: c * Coefficient.monomial(
                    1, c=legs[0].nvertices + legs[1].nvertices)
                for legs, c in d.terms.items()})
            return lhs, rhs
        yield f"coproduct intertwining F={F}", intertwine
    sub = max(m - 1, 0)
    for F in _forests(cfg, sub):
        for G in _forests(cfg, sub):
            def mult(F=F, G=G):
                return theta(concat(F, G)), lc_concat(theta(F), theta(G))
            yield f"multiplicative F={F} G={G}", mult


def _suite_examples_golden(cfg):
    yield from golden_cases()


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

# collector thresholds while a suite runs (CPython's defaults are
# 700, 10, 10 up to 3.12 and 2000, 10, 10 in 3.13)
_GC_THRESHOLDS = (20_000, 50, 100)


def run_suite(name: str, config: RunConfig = RunConfig()) -> SuiteReport:
    """Run one suite to completion and report deterministically.

    On one worker, the intern tables are swept between cases once they
    have grown enough (forest.sweep_if_due for forests and trees; each
    such sweep also runs freemod.sweep_coefficients for coefficients and
    their sum and product memos), so memory stays bounded by what the
    suite and the caches hold rather than by everything the run ever
    built.

    A call that starts on the process's only thread also raises the
    collector's thresholds to _GC_THRESHOLDS for its length and restores
    the old ones on the way out, whether it returns or raises. Forests and
    trees are acyclic and are freed by reference counting, but the suites
    allocate them by the hundred thousand, and at the default thresholds
    every 700 to 2,000 allocations start a collection that scans them and
    frees next to nothing. The generation-0 threshold stays moderate because
    the coproduct suites do make short-lived cycles: at 100,000 their
    peak memory rose by about 1 MB. Calls that start beside other threads
    leave the collector alone, so that concurrent calls cannot restore
    each other's raised setting.
    """
    gen = _SUITES.get(name)
    if gen is None:
        raise ValueError(
            f"unknown suite {name!r}; expected one of: {', '.join(SUITE_NAMES)}")
    if threading.active_count() != 1:
        return _run(name, gen, config)
    thresholds = gc.get_threshold()
    gc.set_threshold(*_GC_THRESHOLDS)
    try:
        return _run(name, gen, config)
    finally:
        gc.set_threshold(*thresholds)


def _run(name, gen, config) -> SuiteReport:
    t0 = time.perf_counter()
    evaluate = config.has_eval

    def check(case):
        label, thunk = case
        got, want = thunk()
        if evaluate:
            got, want = _norm(got, config), _norm(want, config)
        if got == want:
            return None
        return {"case": label, "lhs": _render(got), "rhs": _render(want)}

    sweep = config.workers == 1
    cases, failures = 0, []
    for res in _ordered_map(check, gen(config), config.workers):
        cases += 1
        if res is not None:
            failures.append(res)
        if sweep and sweep_if_due():
            sweep_coefficients()
    return SuiteReport(name, cases, failures, time.perf_counter() - t0)

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

One table, _SUITES, names every suite once with its default vertex
bound m, which run_suite uses when RunConfig.max_vertices is None, and
its sections. A section (label, check, shape, offset, params) runs at
bound max(m - offset, 0), where its shape lists its cases' arguments:

- _each: every forest after each params tuple, the forest in the outer
  loop;
- _pairs, _triples: pairs and triples of total at most the bound, each
  triple a pair of _pairs followed by a forest that fits;
- _pairs_each: pairs of forests each at most the bound;
- _duality_cases: (x, y, z) for each pair (y, z) of _pairs_each at the
  bound minus 1 and each x of at most the bound, x innermost;
- _fixed: a fixed list (examples-golden, and counit's witness).

counit's non-multiplicativity witness is one fixed case, the empty pair:
eps(FG) = -lambda eps(F) eps(G), so at lambda = 1 every pair is a
witness and the first pair of any search is (1, 1).

One builder, _stream, turns a suite's sections into its stream of
cases. It is the only code here that enumerates forests, and every
shape takes its forests from the forests(n) that _stream passes in.

A case whose check raises is a failure of that case: its lhs is the
exception's type and message, its rhs is empty, and the run goes on, so
a program defect gives a report that names the case instead of ending
the run. An error in a suite's own setup (the counit at lambda = 0) or a
pole at the evaluation point still propagates.

A run of more than _BLOCK cases splits its blocks of cases over the
CPUs the process may use, one forked process per CPU, and merges the
failures by case index, so its report is the report of a run in one
process (run_suite, _run). A sharded run that raises or loses a worker
runs again in one process, which raises the first error in stream order
or gives the whole report. Each process sweeps its own intern tables
and caches and collects its own garbage by the one policy run_suite
describes, so memory is bounded per process.

Sections at offset 1 run one vertex lower than the suite: counit's
multiplicativity at lambda = -1, star-assoc's weighted product,
phi-laws' composition, identity at zero and coproduct intertwining, and
theta-laws' multiplicativity.
"""

from __future__ import annotations

import gc
import marshal
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from typing import Optional

from .coalgebra import (coproduct, coproduct_biideal, coproduct_left,
                        coproduct_lin, coproduct_rec, coproduct_right,
                        counit, counit_left, counit_right)
from .dualprod import pairing, star, star_lin, star_weighted
from .forest import (EMPTY_FOREST, KIND_X, Alphabet, Forest,
                     _biideal_chain, _order_and_paths, concat,
                     enumerate_forests, graft, sweep_if_due)
from .freemod import (LAM, MU, NU, ONE, Coefficient, LinComb, _check_points,
                      act_left, act_right)
from .golden import golden_cases
from .morphisms import lc_concat, phi, phi_at, phi_subsets, theta
from .prelie import bracket_lin, prelie, prelie_lin, prelie_sandwich

__all__ = ["RunConfig", "SuiteReport", "SUITE_NAMES", "run_suite"]

DEFAULT_ALPHABET = Alphabet(omega=("a", "b"), xset=("x",))

@dataclass(frozen=True)
class RunConfig:
    """Everything a suite run depends on.

    eval_* are optional rational evaluation points substituted into both
    sides of every comparison (None keeps the variable symbolic); each
    must be an int or a Fraction, and max_vertices an int, or the
    config raises TypeError when it is made.
    """

    alphabet: Alphabet = DEFAULT_ALPHABET
    max_vertices: Optional[int] = None
    eval_lam: Optional[Fraction] = None
    eval_mu: Optional[Fraction] = None
    eval_nu: Optional[Fraction] = None

    def __post_init__(self):
        # checked here, since a suite whose values carry no coefficient
        # never meets the evaluation point, and a float bound would run
        _check_points(self.eval_lam, self.eval_mu, self.eval_nu)
        n = self.max_vertices
        if n is not None:
            if type(n) is bool or not isinstance(n, int):
                raise TypeError("max_vertices must be an int or None, not "
                                f"{type(n).__name__}")
            if n < 0:
                raise ValueError("max_vertices must be >= 0")

    @property
    def has_eval(self):
        return (self.eval_lam is not None or self.eval_mu is not None
                or self.eval_nu is not None)


# how many failures SuiteReport.render_text writes out in full
_SHOWN_FAILURES = 10


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

    def render_text(self) -> str:
        """The report as text, with the first _SHOWN_FAILURES failures in
        full."""
        lines = []
        for f in self.failures[:_SHOWN_FAILURES]:
            lines.append(f"FAIL {f['case']}")
            lines.append(f"  lhs: {f['lhs']}")
            lines.append(f"  rhs: {f['rhs']}")
        if len(self.failures) > _SHOWN_FAILURES:
            lines.append(
                f"(and {len(self.failures) - _SHOWN_FAILURES} more failures)")
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

def _norm(v, cfg: RunConfig):
    """v at cfg's evaluation point; called only when cfg.has_eval."""
    if isinstance(v, tuple):
        return tuple(_norm(x, cfg) for x in v)
    if isinstance(v, (Coefficient, LinComb)):
        return v.subst_partial(cfg.eval_lam, cfg.eval_mu, cfg.eval_nu)
    return v


def _render(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    return str(v).replace("\n", " ; ")


# ------------------------------------------------------------------- shapes
#
# A shape lists the argument tuples of one section's cases at bound m. It
# reads the forests of at most n vertices from forests(n), which _stream
# passes in, and the section's params.

def _each(forests, m, params):
    """Each params tuple followed by a forest of at most m vertices, with
    the forest in the outer loop."""
    for F in forests(m):
        for p in params:
            yield p + (F,)


def _pairs(forests, m, params):
    """(F, G) of at most m vertices in all."""
    for F in forests(m):
        for G in forests(m - F.nvertices):
            yield F, G


def _triples(forests, m, params):
    """(F, G, H) of at most m vertices in all: each pair of _pairs,
    followed by every H that fits."""
    for F, G in _pairs(forests, m, params):
        for H in forests(m - F.nvertices - G.nvertices):
            yield F, G, H


def _pairs_each(forests, m, params):
    """(F, G) of at most m vertices each."""
    universe = tuple(forests(m))
    for F in universe:
        for G in universe:
            yield F, G


def _duality_cases(forests, m, params):
    """(x, y, z) with (y, z) a pair of _pairs_each at bound m - 1 and x of
    at most m vertices, x in the inner loop."""
    xs = tuple(forests(m))
    for y, z in _pairs_each(forests, max(m - 1, 0), params):
        for x in xs:
            yield x, y, z


def _fixed(forests, m, params):
    """The params tuples themselves, whatever the bound."""
    return params


# ------------------------------------------------------------------- checks
#
# A check takes a case's arguments and returns (got, want). The checks
# below read no config; a section that needs the config, or a memo that
# lives for one run, is made by a function of the config further down.

def _coassoc(F):
    d = coproduct(F)
    return coproduct_left(d), coproduct_right(d)


def _derivation(F, G):
    lhs = coproduct(concat(F, G))
    rhs = (act_left(F, coproduct(G)) + act_right(coproduct(F), G)
           + LinComb.single((F, G), LAM))
    return lhs, rhs


def _cocycle(dec, F):
    T = graft(dec, F).as_forest()
    rhs = (LinComb.single((T, EMPTY_FOREST), -LAM)
           + LinComb.single((F, EMPTY_FOREST), MU)
           + coproduct(F).map_basis(
               lambda legs: (legs[0], graft(dec, legs[1]).as_forest())))
    return coproduct(T), rhs


def _counit_side(side, F):
    d = coproduct(F)
    got = counit_left(d) if side == "eps x id" else counit_right(d)
    return got, LinComb.single(F)


def _counit_mult(F, G):
    lhs = counit(concat(F, G)).subst_partial(lam=Fraction(-1))
    rhs = (counit(F) * counit(G)).subst_partial(lam=Fraction(-1))
    return lhs, rhs


def _counit_witness(F, G):
    # eps is not an algebra morphism away from lambda = -1: the case
    # passes when the two sides differ at lambda = 1
    lhs = counit(concat(F, G)).subst_partial(lam=Fraction(1))
    rhs = (counit(F) * counit(G)).subst_partial(lam=Fraction(1))
    return lhs != rhs, True


def _rec_vs_biideal(F):
    return coproduct_rec(F), coproduct_biideal(F)


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


def _biideal_count(F):
    # listing correctness is re-derived from the definitional comparator
    # on index paths, independently of the postorder kernel. One preorder
    # walk (forest._order_and_paths) feeds both: the kernel route gets the
    # vertex order that biideals and vertex_order compute, the comparator
    # route sorts the paths
    order, paths = _order_and_paths(F)
    ideals = _biideal_chain(F, order)
    chain = all(ideals[k].members < ideals[k + 1].members
                for k in range(len(ideals) - 1))
    got = (len(ideals), list(order), chain)
    want = (F.nvertices + 1, sorted(paths, key=cmp_to_key(_cmp_desc)), True)
    return got, want


def _star_assoc(x, y, z):
    return star_lin(star(x, y), z), star_lin(x, star(y, z))


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


def _star_census(F, G):
    n = _left_path_len(G)
    prod = star(F, G)
    distinct = all(c == ONE for c in prod.terms.values())
    return (len(prod.terms), distinct), (comb(F.breadth + n, n), True)


def _prelie(x, y, z):
    lhs = prelie_lin(prelie_lin(x, y), z) - prelie_lin(x, prelie_lin(y, z))
    rhs = prelie_lin(prelie_lin(y, x), z) - prelie_lin(y, prelie_lin(x, z))
    return lhs, rhs


def _jacobi(x, y, z):
    got = (bracket_lin(bracket_lin(x, y), z)
           + bracket_lin(bracket_lin(y, z), x)
           + bracket_lin(bracket_lin(z, x), y))
    return got, LinComb()


def _prelie_closed_form(F, G):
    return prelie(F, G), prelie_sandwich(F, G)


_COMPOSE_POINTS = (
    (Fraction(-2), Fraction(1)), (Fraction(-1), Fraction(-1)),
    (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
)


def _phi_equiv(F):
    return phi(F), phi_subsets(F)


def _phi_compose(nu1, nu2, F):
    return phi_at(phi_at(F, nu2), nu1), phi_at(F, nu1 + nu2)


def _phi_at_zero(F):
    return phi_at(F, Fraction(0)), LinComb.single(F)


def _phi_intertwine(F):
    shift = MU - LAM * NU
    lhs = coproduct_lin(phi(F)).map_coeff(lambda c: c.subst_mu(shift))
    rhs = coproduct(F).apply(lambda legs: phi(legs[0]).tensor(phi(legs[1])))
    return lhs, rhs


def _theta_intertwine(F):
    scaled = MU * NU
    lhs = coproduct_lin(theta(F))
    d = coproduct(F).map_coeff(lambda c: c.subst_mu(scaled))
    rhs = LinComb({
        legs: c * Coefficient.monomial(
            1, c=legs[0].nvertices + legs[1].nvertices)
        for legs, c in d.terms.items()})
    return lhs, rhs


def _theta_mult(F, G):
    return theta(concat(F, G)), lc_concat(theta(F), theta(G))


# ----------------------------------------------------------------- sections
#
# A section is (label, check, shape, offset, params): its cases are
# check(*args) for each args of shape at bound max(m - offset, 0), and
# label.format(*args) is a case's label, built only for a failure. A
# section that depends on the config is a function of the config that
# returns the section; _stream calls it when the run reaches it.

def _cocycle_section(cfg):
    # a Decoration prints as its symbol, so the label shows w's symbol
    ab = cfg.alphabet
    return ("w={} F={}", _cocycle, _each, 0,
            tuple((ab.decoration(w),) for w in ab.omega))


def _counit_sides(cfg):
    # eps(F) = -mu^n / lambda^(n+1): evaluating this suite needs lambda
    # invertible even where the two sides of an identity cancel the poles
    if cfg.eval_lam == 0:
        raise ZeroDivisionError("the counit has a pole at lambda = 0")
    return ("({}) D F={}", _counit_side, _each, 0,
            (("eps x id",), ("id x eps",)))


def _duality_section(cfg):
    ab = cfg.alphabet
    # y, z and y star_{l,m} z for the last (y, z) whose product was made:
    # the cases of one (y, z) run in a row, so each product is made once,
    # inside a case, where an exception fails that case
    slot = [None, None, None]

    def check(x, y, z):
        if slot[0] is not y or slot[1] is not z:
            slot[:] = y, z, star_weighted(y, z, ab)
        return pairing((y, z), coproduct(x)), pairing(x, slot[2])

    return "x={} y={} z={}", check, _duality_cases, 0, ()


def _star_weighted_section(cfg):
    ab = cfg.alphabet

    def check(x, y, z):
        lhs = star_weighted(star_weighted(x, y, ab), z, ab)
        rhs = star_weighted(x, star_weighted(y, z, ab), ab)
        return lhs, rhs

    return "star-weighted x={} y={} z={}", check, _triples, 1, ()


def _golden_section(cfg):
    # each case is (label, thunk), and the thunk is its check
    return "{}", lambda label, thunk: thunk(), _fixed, 0, golden_cases()


_NONE = ((),)   # the params of a section with one case per forest

# suite -> (default bound, sections). run_suite runs the sections at the
# bound when RunConfig.max_vertices is None; the defaults keep the
# heaviest suites in the minutes range on one core. examples-golden
# ignores it
_SUITES = {
    "coassoc": (5, (("F={}", _coassoc, _each, 0, _NONE),)),
    "derivation": (5, (("F={} G={}", _derivation, _pairs, 0, ()),)),
    "cocycle": (4, (_cocycle_section,)),
    "counit": (5, (
        _counit_sides,
        ("multiplicative at lambda=-1 F={} G={}", _counit_mult, _pairs, 1,
         ()),
        ("non-multiplicativity witness at lambda=1", _counit_witness,
         _fixed, 0, ((EMPTY_FOREST, EMPTY_FOREST),)))),
    "rec-vs-biideal": (6, (("F={}", _rec_vs_biideal, _each, 0, _NONE),)),
    "biideal-count": (6, (("F={}", _biideal_count, _each, 0, _NONE),)),
    "duality": (4, (_duality_section,)),
    "star-assoc": (5, (("star x={} y={} z={}", _star_assoc, _triples, 0, ()),
                       _star_weighted_section)),
    "star-census": (4, (("F={} G={}", _star_census, _pairs_each, 0, ()),)),
    "prelie": (5, (("x={} y={} z={}", _prelie, _triples, 0, ()),)),
    "jacobi": (5, (("x={} y={} z={}", _jacobi, _triples, 0, ()),)),
    "prelie-closed-form": (5, (
        ("F={} G={}", _prelie_closed_form, _pairs, 0, ()),)),
    "phi-laws": (5, (
        ("recursive = subsets F={}", _phi_equiv, _each, 0, _NONE),
        ("compose nu={} nu'={} F={}", _phi_compose, _each, 1,
         _COMPOSE_POINTS),
        ("identity at nu=0 F={}", _phi_at_zero, _each, 1, _NONE),
        ("coproduct intertwining F={}", _phi_intertwine, _each, 1, _NONE))),
    "theta-laws": (4, (
        ("coproduct intertwining F={}", _theta_intertwine, _each, 0, _NONE),
        ("multiplicative F={} G={}", _theta_mult, _pairs_each, 1, ()))),
    "examples-golden": (0, (_golden_section,)),
}

SUITE_NAMES = tuple(_SUITES)


def _stream(sections, cfg: RunConfig, m: int):
    """The cases (fmt, fn, args) of sections at bound m, section by
    section; the one place a suite reads its forest universe."""
    ab = cfg.alphabet

    def forests(n):
        return enumerate_forests(n, ab)

    for section in sections:
        if callable(section):
            section = section(cfg)
        label, check, shape, offset, params = section
        for args in shape(forests, max(m - offset, 0), params):
            yield label, check, args


def run_suite(name: str, config: RunConfig = RunConfig()) -> SuiteReport:
    """Run one suite to completion and report deterministically.

    A run of more than _BLOCK cases splits over the CPUs this process may
    use (os.sched_getaffinity), one process per CPU, with no option to
    set: _run forks the workers at block boundaries and merges their
    failures by case index, so the report is the one a run in one
    process gives. One rule covers every way a sharded run can fail to
    finish: if _run raises an Exception (an error in this process's own
    blocks, a lost worker, a failing os.pipe or os.fork), the suite runs
    again in this process alone. That run raises the first error in
    stream order, or gives the whole report, so a report is never
    partial; its wall_time counts both attempts. A BaseException that is
    not an Exception, such as KeyboardInterrupt, propagates at once.

    The intern tables are swept between cases once they have grown
    enough, through forest.sweep_if_due. forest.sweep_interned follows
    one rule: it clears every registered cache, in any order, then
    forgets the forests, trees and coefficients that only the intern
    tables hold, one pass per table. So memory stays bounded by what the
    suite holds and by the enumerated universes, which live as long as
    the process, rather than by everything the run ever built.

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
    other threads leave the collector alone, neither sweep nor collect,
    so that concurrent calls cannot restore each other's setting, and
    run in one process. A worker inherits the collector's state and the
    caches as they are at its fork, and the sweep trigger, the releases
    and the collections then apply in each process on its own, so each
    process's memory stays bounded the same way.
    """
    entry = _SUITES.get(name)
    if entry is None:
        raise ValueError(
            f"unknown suite {name!r}; expected one of: {', '.join(SUITE_NAMES)}")
    bound, sections = entry
    if config.max_vertices is not None:
        bound = config.max_vertices
    alone = threading.active_count() == 1
    enabled = gc.isenabled()
    if alone:
        gc.disable()
    shards = _shard_count() if alone else 1
    t0 = time.perf_counter()
    try:
        try:
            cases, failures = _run(_stream(sections, config, bound),
                                   config, shards)
        except Exception:
            if shards == 1:
                raise
            # the one recovery path: a run in one process raises the
            # first error in stream order, or gives the whole report
            cases, failures = _run(_stream(sections, config, bound),
                                   config, 1)
    finally:
        if alone and enabled:
            gc.enable()
    return SuiteReport(name, cases, failures, time.perf_counter() - t0)


# cases per block: block b of a run goes to shard b mod the shard count
_BLOCK = 1024


def _shard_count() -> int:
    """The CPUs this process may use, or 1 where os.fork or
    os.sched_getaffinity is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _Workers:
    """The worker processes of one sharded run, each with the read end
    of the pipe it sends its result on, in fork order."""

    def __init__(self):
        self.pipes: dict = {}   # pid -> read end, as a binary file
        self.out = None         # in a worker: the write end

    def fork(self, block: int) -> int:
        """Fork the worker that runs block's shard; return block in the
        worker and 0 in the parent."""
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid:
            os.close(w)
            self.pipes[pid] = open(r, "rb")
            return 0
        os.close(r)
        for pipe in self.pipes.values():
            pipe.close()
        self.pipes, self.out = {}, w
        return block

    def leave(self, found: list) -> None:
        """Send found, the worker's (index, failure) pairs, to the parent
        and end this worker without running any exit handler or flushing
        any buffer it inherited."""
        with open(self.out, "wb") as f:
            f.write(marshal.dumps(found))
        os._exit(0)

    def results(self) -> list:
        """Every worker's (index, failure) pairs, in fork order, once
        each has ended; ChildProcessError if one ended without them."""
        out = []
        for pid, pipe in list(self.pipes.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del self.pipes[pid]
            # a worker exits 0 only from leave, once its result is sent
            if status:
                raise ChildProcessError(
                    f"worker {pid} ended with status {status}")
            out.append(marshal.loads(data))
        return out

    def close(self) -> None:
        """Kill and reap every worker that results did not reap."""
        if not self.pipes:
            return
        import signal
        for pid, pipe in self.pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        for pid in list(self.pipes):
            os.waitpid(pid, 0)
            del self.pipes[pid]


def _run(cases_of, config, shards: int):
    """Run a suite's cases; return the case count and the failures in
    stream order.

    With shards > 1 the stream is cut into blocks of _BLOCK consecutive
    cases, and block b is run by shard b mod shards. This process is
    shard 0; it forks shard b the first time its loop reaches block b,
    for 0 < b < shards, so the worker takes over the live generator and
    the warm caches at that exact case. Each process runs only its own
    blocks but counts every case. A worker sends its (index, failure)
    pairs through a pipe and ends, never leaving this call by a return
    or a raise: one that raises ends with status 1. The parent merges
    the failures by index. An error in the parent's own blocks, a worker
    that ended without its result (ChildProcessError) and a failing
    os.pipe or os.fork (OSError) raise here, and run_suite runs the
    suite again in one process; no worker outlives the call.
    """
    evaluate = config.has_eval
    cases, found = 0, []
    workers = _Workers() if shards > 1 else None
    # the index of the next block boundary (-1: never) and, while the
    # current block is another shard's, mine is False
    edge, shard, mine = (_BLOCK if workers else -1), 0, True
    try:
        for fmt, fn, args in cases_of:
            if cases == edge:
                block, edge = cases // _BLOCK, edge + _BLOCK
                if not shard and block < shards:
                    shard = workers.fork(block)
                    if shard:
                        found = []
                mine = block % shards == shard
            if not mine:
                cases += 1
                continue
            try:
                got, want = fn(*args)
            except Exception as e:
                # a defect that raises inside a case fails that case and
                # the run goes on; an error of the suite's setup or a
                # pole in _norm still ends the run
                failed = f"{type(e).__name__}: {e}", ""
            else:
                if evaluate:
                    got, want = _norm(got, config), _norm(want, config)
                failed = ((_render(got), _render(want)) if got != want
                          else None)
            if failed:
                size = sum(a.nvertices for a in args
                           if isinstance(a, Forest))
                found.append((cases, {
                    "case": fmt.format(*args), "lhs": failed[0],
                    "rhs": failed[1], "size": size}))
            if sweep_if_due():
                gc.collect(0)
            cases += 1
        if shard:
            workers.leave(found)
        if workers is not None:
            for result in workers.results():
                found += result
            found.sort(key=lambda f: f[0])
    finally:
        if shard:
            # a worker leaves only through leave; one that raised, or
            # failed to send, ends here without its result
            os._exit(1)
        if workers is not None:
            workers.close()
    return cases, [f for _, f in found]

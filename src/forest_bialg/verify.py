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

One table, _SUITES, names every suite once and gives its generator and
its default vertex bound, which run_suite passes to the generator when
RunConfig.max_vertices is None. A case whose check raises is a failure
of that case: its lhs is the exception's type and message, its rhs is
empty, and the run goes on, so a program defect gives a report that
names the case instead of ending the run. An error in a suite's own
setup (the counit at lambda = 0) or a pole at the evaluation point still
propagates.

A run of more than _BLOCK cases splits its blocks of cases over the
CPUs the process may use, one forked process per CPU, and merges the
failures by case index, so its report is the report of a run in one
process (run_suite, _run). A sharded run that raises or loses a worker
runs again in one process, which raises the first error in stream order
or gives the whole report. Each process sweeps its own intern tables
and caches and collects its own garbage by the one policy run_suite
describes, so memory is bounded per process.

Suites that mix ranges derive the secondary bound from the primary one:
counit checks multiplicativity at lambda = -1 on pairs totalling at most
max-1; duality bounds the right tensor legs by max-1; star-assoc checks
the weighted product on triples totalling at most max-1; phi-laws runs
composition, identity-at-zero and the coproduct intertwining at max-1;
theta-laws checks multiplicativity on pairs of forests each at most max-1.
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
from typing import Iterator, Optional

from .coalgebra import (coproduct, coproduct_biideal, coproduct_left,
                        coproduct_lin, coproduct_rec, coproduct_right,
                        counit, counit_left, counit_right)
from .dualprod import pairing, star, star_lin, star_weighted
from .forest import (EMPTY_FOREST, KIND_X, Alphabet, Forest,
                     _biideal_chain, _order_and_paths, concat,
                     enumerate_forests, graft, sweep_if_due)
from .freemod import (LAM, MU, NU, ONE, Coefficient, LinComb, act_left,
                      act_right)
from .golden import golden_cases
from .morphisms import lc_concat, phi, phi_at, phi_subsets, theta
from .prelie import bracket_lin, prelie, prelie_lin, prelie_sandwich

__all__ = ["RunConfig", "SuiteReport", "SUITE_NAMES", "run_suite"]

DEFAULT_ALPHABET = Alphabet(omega=("a", "b"), xset=("x",))

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
    if isinstance(v, tuple):
        return tuple(_norm(x, cfg) for x in v)
    if isinstance(v, (Coefficient, LinComb)):
        return v.subst_partial(cfg.eval_lam, cfg.eval_mu, cfg.eval_nu)
    return v


def _render(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    return str(v).replace("\n", " ; ")


# ------------------------------------------------------------------- suites
#
# A suite is a generator of cases (fmt, fn, args) over a config and a
# vertex bound m: fn(*args) -> (got, want), and fmt.format(*args) is the
# case's label, built only for a failure. Each suite defines its check
# functions once, outside its loops.

def _suite_coassoc(cfg, m):
    def check(F):
        d = coproduct(F)
        return coproduct_left(d), coproduct_right(d)

    for F in _forests(cfg, m):
        yield "F={}", check, (F,)


def _suite_derivation(cfg, m):
    def check(F, G):
        lhs = coproduct(concat(F, G))
        rhs = (act_left(F, coproduct(G)) + act_right(coproduct(F), G)
               + LinComb.single((F, G), LAM))
        return lhs, rhs

    for FG in _pairs(cfg, m):
        yield "F={} G={}", check, FG


def _suite_cocycle(cfg, m):
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

    for F in _forests(cfg, m):
        for w in ab.omega:
            yield "w={} F={}", check, (w, F)


def _suite_counit(cfg, m):
    # eps(F) = -mu^n / lambda^(n+1): evaluating this suite needs lambda
    # invertible even where the two sides of an identity cancel the poles
    if cfg.eval_lam == 0:
        raise ZeroDivisionError("the counit has a pole at lambda = 0")

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


def _suite_rec_vs_biideal(cfg, m):
    def check(F):
        return coproduct_rec(F), coproduct_biideal(F)

    for F in _forests(cfg, m):
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


def _suite_biideal_count(cfg, m):
    # listing correctness is re-derived from the definitional comparator
    # on index paths, independently of the postorder kernel. One preorder
    # walk (forest._order_and_paths) feeds both: the kernel route gets the
    # vertex order that biideals and vertex_order compute, the comparator
    # route sorts the paths
    def check(F):
        order, paths = _order_and_paths(F)
        ideals = _biideal_chain(F, order)
        chain = all(ideals[k].members < ideals[k + 1].members
                    for k in range(len(ideals) - 1))
        got = (len(ideals), list(order), chain)
        want = (F.nvertices + 1,
                sorted(paths, key=cmp_to_key(_cmp_desc)), True)
        return got, want

    for F in _forests(cfg, m):
        yield "F={}", check, (F,)


def _suite_duality(cfg, m):
    ab = cfg.alphabet
    yz = max(m - 1, 0)
    xs = list(_forests(cfg, m))

    # y, z and y star_{l,m} z for the last (y, z) whose product was made:
    # the cases of one (y, z) run in a row, so each product is made once,
    # inside a case, where an exception fails that case
    slot = [None, None, None]

    def check(x, y, z):
        if slot[0] is not y or slot[1] is not z:
            slot[:] = y, z, star_weighted(y, z, ab)
        return pairing((y, z), coproduct(x)), pairing(x, slot[2])

    for y in _forests(cfg, yz):
        for z in _forests(cfg, yz):
            for x in xs:
                yield "x={} y={} z={}", check, (x, y, z)


def _suite_star_assoc(cfg, m):
    ab = cfg.alphabet

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


def _suite_star_census(cfg, m):
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


def _suite_prelie(cfg, m):
    def check(x, y, z):
        ux, uy, uz = (LinComb.single(v) for v in (x, y, z))
        lhs = (prelie_lin(prelie_lin(ux, uy), uz)
               - prelie_lin(ux, prelie_lin(uy, uz)))
        rhs = (prelie_lin(prelie_lin(uy, ux), uz)
               - prelie_lin(uy, prelie_lin(ux, uz)))
        return lhs, rhs

    for xyz in _triples(cfg, m):
        yield "x={} y={} z={}", check, xyz


def _suite_jacobi(cfg, m):
    def check(x, y, z):
        ux, uy, uz = (LinComb.single(v) for v in (x, y, z))
        got = (bracket_lin(bracket_lin(ux, uy), uz)
               + bracket_lin(bracket_lin(uy, uz), ux)
               + bracket_lin(bracket_lin(uz, ux), uy))
        return got, LinComb()

    for xyz in _triples(cfg, m):
        yield "x={} y={} z={}", check, xyz


def _suite_prelie_closed_form(cfg, m):
    def check(F, G):
        return prelie(F, G), prelie_sandwich(F, G)

    for FG in _pairs(cfg, m):
        yield "F={} G={}", check, FG


_COMPOSE_POINTS = (
    (Fraction(-2), Fraction(1)), (Fraction(-1), Fraction(-1)),
    (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
)


def _suite_phi_laws(cfg, m):
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


def _suite_theta_laws(cfg, m):
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


def _suite_examples_golden(cfg, m):
    # a golden label is final text: escape it as a format string
    for label, thunk in golden_cases():
        yield label.replace("{", "{{").replace("}", "}}"), thunk, ()


# suite -> (generator, default bound). run_suite passes the bound when
# RunConfig.max_vertices is None; the defaults keep the heaviest suites
# in the minutes range on one core. A bound caps each forest's vertices,
# or a pair's or triple's total where noted; examples-golden ignores it
_SUITES = {
    "coassoc": (_suite_coassoc, 5),
    "derivation": (_suite_derivation, 5),                  # pair total
    "cocycle": (_suite_cocycle, 4),
    "counit": (_suite_counit, 5),
    "rec-vs-biideal": (_suite_rec_vs_biideal, 6),
    "biideal-count": (_suite_biideal_count, 6),
    "duality": (_suite_duality, 4),
    "star-assoc": (_suite_star_assoc, 5),                  # triple total
    "star-census": (_suite_star_census, 4),
    "prelie": (_suite_prelie, 5),                          # triple total
    "jacobi": (_suite_jacobi, 5),                          # triple total
    "prelie-closed-form": (_suite_prelie_closed_form, 5),  # pair total
    "phi-laws": (_suite_phi_laws, 5),
    "theta-laws": (_suite_theta_laws, 4),
    "examples-golden": (_suite_examples_golden, 0),
}

SUITE_NAMES = tuple(_SUITES)

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
    enough, through forest.sweep_if_due. The sweep first runs every
    registered release, newest first: the held pre-Lie products, the phi
    cache, the held star products and star's memo of regrafted prefixes,
    the coproduct and counit caches, freemod's sum, product and
    evaluation memos with the coefficients nothing else holds, and last
    the encoding cache forest._ENC_INTERN. It then drops
    the forests and trees that only the intern tables hold. So memory
    stays bounded by what the suite holds and by the enumerated
    universes, which live as long as the process, rather than by
    everything the run ever built.

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
    gen, bound = entry
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
            cases, failures = _run(gen(config, bound), config, shards)
        except Exception:
            if shards == 1:
                raise
            # the one recovery path: a run in one process raises the
            # first error in stream order, or gives the whole report
            cases, failures = _run(gen(config, bound), config, 1)
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

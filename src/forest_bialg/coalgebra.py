"""The two-parameter coproduct on decorated planar rooted forests.

Two independent implementations are kept side by side on purpose:

* coproduct_rec is the defining recursion: base cases on single vertices,
  the cocycle step through grafting, and the derivation-style step on
  concatenations. It is the oracle.
* coproduct_biideal is the closed combinatorial form: splitting along the
  chain of forest biideals,

      D(F) = -l * sum_{k=0..n} F|I_k (x) F|J_k
             + m * sum_{k=1..n} F|I_{k-1} (x) F|J_k,

  the fast path used by the verification suites.

Their pointwise equality is a standing regression gate (suite
rec-vs-biideal), never assumed. The counit is F -> -m^n / l^(n+1), a
Laurent coefficient, so no evaluation is required to state the counit laws.
"""

from __future__ import annotations

from . import _kernel
from .forest import EMPTY_FOREST, Forest, forest_from_encoding, graft
from .freemod import LAM, MU, ZERO, Coefficient, LinComb, act_left, act_right

__all__ = [
    "coproduct", "coproduct_rec", "coproduct_biideal", "coproduct_lin",
    "coproduct_left", "coproduct_right", "counit", "counit_lin",
    "counit_left", "counit_right",
]

_REC_CACHE: dict = {}
_BIID_CACHE: dict = {}


def coproduct_rec(F: Forest) -> LinComb:
    """Coproduct by the defining recursion.

    D(1) = -l (1 (x) 1)
    D(.d) = m (1 (x) 1) - l (.d (x) 1 + 1 (x) .d)      for a single vertex
    D(B+_w(Fbar)) = -l B+_w(Fbar) (x) 1 + m Fbar (x) 1 + (id (x) B+_w) D(Fbar)
    D(T1 F') = T1 . D(F') + D(T1) . F' + l (T1 (x) F')  for breadth >= 2
    """
    hit = _REC_CACHE.get(F)
    if hit is not None:
        return hit
    if not F.trees:
        out = LinComb.single((EMPTY_FOREST, EMPTY_FOREST), -LAM)
    elif len(F.trees) == 1:
        t = F.trees[0]
        tf = t.as_forest()
        if not t.children:
            out = (LinComb.single((EMPTY_FOREST, EMPTY_FOREST), MU)
                   + LinComb.single((tf, EMPTY_FOREST), -LAM)
                   + LinComb.single((EMPTY_FOREST, tf), -LAM))
        else:
            bar = Forest.make(t.children)
            w = t.deco
            regrafted = coproduct_rec(bar).map_basis(
                lambda legs: (legs[0], graft(w, legs[1]).as_forest()))
            out = (LinComb.single((tf, EMPTY_FOREST), -LAM)
                   + LinComb.single((bar, EMPTY_FOREST), MU)
                   + regrafted)
    else:
        t1 = F.trees[0].as_forest()
        rest = Forest.make(F.trees[1:])
        out = (act_left(t1, coproduct_rec(rest))
               + act_right(coproduct_rec(t1), rest)
               + LinComb.single((t1, rest), LAM))
    _REC_CACHE[F] = out
    return out


def coproduct_biideal(F: Forest) -> LinComb:
    """Coproduct by restriction along the biideal chain (closed form)."""
    hit = _BIID_CACHE.get(F)
    if hit is not None:
        return hit
    parents, decos = F.encoding
    splits = _kernel.biideal_splits(parents, F.postorder)
    acc: dict = {}
    prev_first = None
    for k, (ki, pi, kj, pj) in enumerate(splits):
        first = forest_from_encoding(pi, tuple(decos[i] for i in ki))
        second = forest_from_encoding(pj, tuple(decos[i] for i in kj))
        key = (first, second)
        c = acc.get(key, ZERO) - LAM
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
        if k >= 1:
            key = (prev_first, second)
            c = acc.get(key, ZERO) + MU
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        prev_first = first
    out = LinComb(acc)
    _BIID_CACHE[F] = out
    return out


# the fast path; equality with coproduct_rec is enforced by a suite, not here
coproduct = coproduct_biideal


def coproduct_lin(x: LinComb, cop=None) -> LinComb:
    """Linear extension of the coproduct to LinComb<Forest>."""
    cop = cop or coproduct
    return x.apply(cop)


def coproduct_left(t: LinComb, cop=None) -> LinComb:
    """(D (x) id) on a pair tensor, producing triple tensors.

    Maps leg 0 of every term in one pass, through LinComb.apply_leg.
    """
    return t.apply_leg(0, cop or coproduct)


def coproduct_right(t: LinComb, cop=None) -> LinComb:
    """(id (x) D) on a pair tensor, producing triple tensors.

    Maps leg 1 of every term in one pass, through LinComb.apply_leg.
    """
    return t.apply_leg(1, cop or coproduct)


def counit(F: Forest) -> Coefficient:
    """eps(F) = -m^n / l^(n+1) with n = n_F; eps(1) = -1/l."""
    n = F.nvertices
    return Coefficient.monomial(-1, a=-(n + 1), b=n)


def counit_lin(x: LinComb) -> Coefficient:
    out = ZERO
    for F, c in x.terms.items():
        out = out + c * counit(F)
    return out


def counit_left(t: LinComb) -> LinComb:
    """(eps (x) id): pair tensors down to LinComb<Forest>."""
    return t.apply(lambda legs: LinComb.single(legs[1], counit(legs[0])))


def counit_right(t: LinComb) -> LinComb:
    """(id (x) eps)."""
    return t.apply(lambda legs: LinComb.single(legs[0], counit(legs[1])))

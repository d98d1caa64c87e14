"""The two-parameter coproduct on decorated planar rooted forests.

Two independent implementations are kept side by side on purpose:

* coproduct_rec is the defining recursion: base cases on single vertices,
  the cocycle step through grafting, and the derivation-style step on
  concatenations. It is the oracle.
* coproduct_biideal is the closed combinatorial form: splitting along the
  chain of forest biideals,

      D(F) = -l * sum_{k=0..n} F|I_k (x) F|J_k
             + m * sum_{k=1..n} F|I_{k-1} (x) F|J_k,

  the fast path used by the verification suites. I_k, the first k
  vertices in postorder, is closed under descendants and its complement
  J_k under ancestors, so one walk over the nested trees lists every
  pair (F|I_k, F|J_k): the whole subtrees before the cut, and F with
  them cut off (_kernel.biideal_splits). The 2n + 1 keys of the two sums
  are pairwise distinct, so each term keeps its constant coefficient -l
  or m and the sum is built without coefficient arithmetic.

Their pointwise equality is a standing regression gate (suite
rec-vs-biideal), never assumed. The counit is F -> -m^n / l^(n+1), a
Laurent coefficient, so no evaluation is required to state the counit laws.
"""

from __future__ import annotations

from . import _kernel
from .forest import _BEFORE_SWEEP, EMPTY_FOREST, Forest, graft
from .freemod import (LAM, MU, Coefficient, LinComb, _as_lincomb,
                      _trusted_lincomb, act_left, act_right)

__all__ = [
    "coproduct", "coproduct_rec", "coproduct_biideal", "coproduct_lin",
    "coproduct_left", "coproduct_right", "counit", "counit_left",
    "counit_right",
]

# forest -> its coproduct by each route, and vertex count -> counit;
# each lives until the next intern sweep, which releases all three
_REC_CACHE: dict = {}
_BIID_CACHE: dict = {}
_COUNIT_CACHE: dict = {}


def _release() -> None:
    _REC_CACHE.clear()
    _BIID_CACHE.clear()
    _COUNIT_CACHE.clear()


_BEFORE_SWEEP.append(_release)

# coefficients are immutable, so every biideal term shares these
_NEG_LAM = -LAM


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
    """Coproduct by splitting along the biideal chain (closed form).

    _kernel.biideal_splits lists the pairs (F|I_k, F|J_k) for k = 0..n in
    one walk over the nested trees. The term (F|I_k, F|J_k) gets -l and
    the term (F|I_{k-1}, F|J_k) gets m. No two of these 2n + 1 keys are
    equal: the legs of a -l key hold n vertices in all and those of an m
    key n - 1, and within each sum the first leg of the k-th key has a
    different vertex count. So every coefficient is a constant and no
    arithmetic or zero check is needed.
    """
    hit = _BIID_CACHE.get(F)
    if hit is not None:
        return hit
    acc: dict = {}
    prev = None
    for first, second in _kernel.biideal_splits(F):
        acc[first, second] = _NEG_LAM
        if prev is not None:
            acc[prev, second] = MU
        prev = first
    out = _BIID_CACHE[F] = _trusted_lincomb(acc)
    return out


# the fast path; equality with coproduct_rec is enforced by a suite, not here
coproduct = coproduct_biideal


def coproduct_lin(x) -> LinComb:
    """Linear extension of the coproduct to LinComb<Forest>; a Forest
    operand is its single term (freemod._as_lincomb)."""
    return _as_lincomb(x).apply(coproduct)


def coproduct_left(t: LinComb) -> LinComb:
    """(D (x) id) on a pair tensor, producing triple tensors.

    Maps leg 0 of every term in one pass, through LinComb.apply_leg.
    """
    return t.apply_leg(0, coproduct)


def coproduct_right(t: LinComb) -> LinComb:
    """(id (x) D) on a pair tensor, producing triple tensors.

    Maps leg 1 of every term in one pass, through LinComb.apply_leg.
    """
    return t.apply_leg(1, coproduct)


def counit(F: Forest) -> Coefficient:
    """eps(F) = -m^n / l^(n+1) with n = n_F; eps(1) = -1/l.

    One shared Coefficient per vertex count, since coefficients are
    immutable.
    """
    n = F.nvertices
    c = _COUNIT_CACHE.get(n)
    if c is None:
        c = _COUNIT_CACHE[n] = Coefficient.monomial(-1, a=-(n + 1), b=n)
    return c


def counit_left(t: LinComb) -> LinComb:
    """(eps (x) id): pair tensors down to LinComb<Forest>."""
    return t.apply(lambda legs: LinComb.single(legs[1], counit(legs[0])))


def counit_right(t: LinComb) -> LinComb:
    """(id (x) eps)."""
    return t.apply(lambda legs: LinComb.single(legs[0], counit(legs[1])))

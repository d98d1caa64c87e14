"""The two-parameter coproduct on decorated planar rooted forests.

Two independent implementations are kept side by side on purpose:

* coproduct_rec is the defining recursion: its value -l 1 (x) 1 at 1,
  the cocycle rule at a grafting B+_w(Fbar) (a single vertex is
  B+_w(1)), and the derivation rule at a concatenation, folded over F by
  forest._fold. It is the oracle. Each rule builds its value in one
  dict, with no LinComb per part: the graft rule's three parts never
  share a key, and the derivation rule adds D(T) . R and l (T (x) R)
  into T . D(R) through freemod._added, the module's one cancelling sum.
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

coproduct_biideal and the counit cache their results, and coproduct_rec
only what its fold reads back (the values at child forests, first trees
and proper suffixes, never the value it returns), in module dicts
registered in forest._CACHES: an intern sweep clears every registered
cache, then forgets what only the intern tables hold. Suite
rec-vs-biideal reads neither of its values again, so it compares
coproduct_rec with the closed form computed afresh by _biideal.
"""

from __future__ import annotations

from . import _kernel
from .forest import _CACHES, EMPTY_FOREST, Forest, Tree, _fold
from .freemod import (LAM, MU, Coefficient, LinComb, _added, _as_lincomb,
                      _trusted_lincomb)

__all__ = [
    "coproduct", "coproduct_rec", "coproduct_biideal", "coproduct_lin",
    "coproduct_left", "coproduct_right", "counit", "counit_left",
    "counit_right",
]

# forest -> its coproduct by each route (by the recursion, only for the
# parts a fold reads back), and vertex count -> counit; each lives until
# the next intern sweep, which clears all three
_REC_CACHE: dict = {}
_BIID_CACHE: dict = {}
_COUNIT_CACHE: dict = {}
_CACHES.extend((_REC_CACHE, _BIID_CACHE, _COUNIT_CACHE))

# coefficients are immutable, so every biideal term shares these
_NEG_LAM = -LAM


def _rec_graft(w, bar: Forest, inner: LinComb) -> LinComb:
    # (id (x) B+_w) D(Fbar), then -l B+_w(Fbar) (x) 1 and m Fbar (x) 1,
    # in one dict with no sum: B+_w is injective, so the regrafted keys
    # are distinct, each has a one-tree right leg where the last two
    # have 1, and those two differ in their left leg's vertex count
    acc = {(left, Tree.make(w, right.trees).as_forest()): c
           for (left, right), c in inner.terms.items()}
    acc[Tree.make(w, bar.trees).as_forest(), EMPTY_FOREST] = _NEG_LAM
    acc[bar, EMPTY_FOREST] = MU
    return _trusted_lincomb(acc)


def _rec_concat(T: Forest, dT: LinComb, R: Forest, dR: LinComb) -> LinComb:
    # T . D(R) + D(T) . R + l (T (x) R) in one dict. Concatenating T on
    # the left is injective, so the T . D(R) keys are distinct; the
    # D(T) . R terms and l (T (x) R) can land on them (D(a b) meets the
    # key (a, b) three times), so freemod._added adds those
    head, tail = T.trees, R.trees
    acc = {(Forest.make(head + left.trees), right): c
           for (left, right), c in dR.terms.items()}
    added = [((left, Forest.make(right.trees + tail)), c)
             for (left, right), c in dT.terms.items()]
    added.append(((T, R), LAM))
    return _added(acc, added)


_REC_ONE = LinComb.single((EMPTY_FOREST, EMPTY_FOREST), _NEG_LAM)


def coproduct_rec(F: Forest) -> LinComb:
    """Coproduct by the defining recursion, its three rules folded over
    the ways F is built (forest._fold):

    D(1) = -l (1 (x) 1)
    D(B+_w(Fbar)) = -l B+_w(Fbar) (x) 1 + m Fbar (x) 1 + (id (x) B+_w) D(Fbar)
    D(T1 F') = T1 . D(F') + D(T1) . F' + l (T1 (x) F')  for a tree T1, F' != 1

    A single vertex .d is B+_d(1), an X leaf included, so it needs no
    rule of its own. Only the nesting recurses: the trees of a wide
    forest are folded in a loop.
    """
    return _fold(F, _REC_CACHE, _REC_ONE, _rec_graft, _rec_concat)


def _biideal(F: Forest) -> LinComb:
    # coproduct_biideal's closed form, uncached
    acc: dict = {}
    prev = None
    for first, second in _kernel.biideal_splits(F):
        acc[first, second] = _NEG_LAM
        if prev is not None:
            acc[prev, second] = MU
        prev = first
    return _trusted_lincomb(acc)


def coproduct_biideal(F: Forest) -> LinComb:
    """Coproduct by splitting along the biideal chain (closed form),
    held in _BIID_CACHE.

    _kernel.biideal_splits lists the pairs (F|I_k, F|J_k) for k = 0..n in
    one walk over the nested trees. The term (F|I_k, F|J_k) gets -l and
    the term (F|I_{k-1}, F|J_k) gets m. No two of these 2n + 1 keys are
    equal: the legs of a -l key hold n vertices in all and those of an m
    key n - 1, and within each sum the first leg of the k-th key has a
    different vertex count. So every coefficient is a constant and no
    arithmetic or zero check is needed.
    """
    out = _BIID_CACHE.get(F)
    if out is None:
        out = _BIID_CACHE[F] = _biideal(F)
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
    """(eps (x) id): pair tensors down to LinComb<Forest>, each term
    c (F (x) G) giving c eps(F) G, summed through freemod._added.

    It takes pair tensors, as coproduct values are, and only those reach
    it in the package; a tensor of more or fewer legs raises ValueError."""
    return _added({}, [(G, counit(F) * c) for (F, G), c in t.terms.items()])


def counit_right(t: LinComb) -> LinComb:
    """(id (x) eps): c (F (x) G) gives c eps(G) F, as counit_left."""
    return _added({}, [(F, counit(G) * c) for (F, G), c in t.terms.items()])

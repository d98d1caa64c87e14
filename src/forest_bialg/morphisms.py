"""The morphism families phi_nu and theta_nu.

phi is the unique algebra endomorphism with

    phi(B+_w(F)) = B+_w(phi(F)) + nu phi(F),    phi(.x) = .x + nu 1,

computed here by those rules, with phi(1) = 1 and multiplicativity on
concatenations, folded over the forest by forest._fold (.x is B+_x(1),
so the graft rule covers it) and with nu a first-class indeterminate.
Each rule builds its value in one dict: the graft rule adds nu phi(Fbar)
into the grafted terms, with which it can share keys, through
freemod._added, the module's one cancelling sum; the concat rule is
lc_concat, one pass of freemod._basis_products over the pairs of terms.
Neither makes a LinComb per term or per pair.
phi_subsets is the independent closed form

    phi(F) = sum over all I subseteq V(F) of nu^{|V(F)\\I|} F|I,

and the two must agree everywhere (suite phi-laws). phi_subsets takes
every F|I from forest._restrictor, so the flat vertex encoding that
restriction runs on stays inside the forest module. Composition obeys
phi_nu . phi_nu' = phi_{nu+nu'}, and phi intertwines the coproduct up to
the substitution mu -> mu - lambda nu.

theta rescales by the grading, theta(F) = nu^{n_F} F; it intertwines the
coproduct up to mu -> mu nu. phi and theta take a Forest or a LinComb.

phi_forest caches in _PHI_CACHE only the images its fold reads back
(those of child forests, first trees and proper suffixes, never the
image it returns), registered in forest._CACHES: an intern sweep clears
every registered cache, then forgets what only the intern tables hold.
"""

from __future__ import annotations

from .forest import (_CACHES, EMPTY_FOREST, Forest, Tree, _fold,
                     _restrictor, concat)
from .freemod import (NU, Coefficient, LinComb, _added, _as_lincomb,
                      _basis_products, _trusted_lincomb)

__all__ = ["phi", "phi_forest", "phi_subsets", "phi_at", "theta",
           "lc_concat"]

# forest -> phi_forest of it, for the parts a fold reads back, until the
# next intern sweep clears it
_PHI_CACHE: dict = {}
_CACHES.append(_PHI_CACHE)


def lc_concat(x: LinComb, y: LinComb) -> LinComb:
    """Concatenation product extended bilinearly to LinComb<Forest>."""
    return _basis_products(x, y, concat)


def _phi_graft(w, bar: Forest, inner: LinComb) -> LinComb:
    # B+_w phi(Fbar) + nu phi(Fbar) in one dict. B+_w is injective, so
    # the grafted keys are distinct; a nu-scaled term can land on one of
    # them (phi(a[a]) has 2 nu a), so freemod._added adds those
    terms = inner.terms.items()
    return _added({Tree.make(w, G.trees).as_forest(): c for G, c in terms},
                  [(G, c * NU) for G, c in terms])


def _phi_concat(T: Forest, pT: LinComb, R: Forest, pR: LinComb) -> LinComb:
    # lc_concat is read at call time, so a replaced one is called
    return lc_concat(pT, pR)


_PHI_ONE = LinComb.single(EMPTY_FOREST)


def phi_forest(F: Forest) -> LinComb:
    """phi on a basis forest, by the defining recursion folded over the
    ways F is built (forest._fold): phi(1) = 1,
    phi(B+_w(Fbar)) = B+_w(phi(Fbar)) + nu phi(Fbar), which gives
    phi(.x) = .x + nu 1 for a single vertex, and phi(T F') = phi(T) phi(F').
    Only the nesting recurses: the trees of a wide forest are folded in
    a loop."""
    return _fold(F, _PHI_CACHE, _PHI_ONE, _phi_graft, _phi_concat)


def phi(x) -> LinComb:
    """Linear extension of phi_forest; accepts a Forest or a LinComb."""
    if isinstance(x, Forest):
        return phi_forest(x)
    return _as_lincomb(x).apply(phi_forest)


def phi_subsets(F: Forest) -> LinComb:
    """phi by the all-subsets closed form (independent of the recursion)."""
    n = F.nvertices
    nu_pow = [Coefficient.monomial(1, c=k) for k in range(n + 1)]
    # nu^{|V(F)\I|} F|I summed over the subsets I (kept preorder indices,
    # one per mask); every coefficient is a positive multiple of a power
    # of nu, so no term cancels
    restricted = _restrictor(F)
    acc: dict = {}
    for mask in range(1 << n):
        keep = tuple(i for i in range(n) if mask >> i & 1)
        G = restricted(keep)
        c = nu_pow[n - len(keep)]
        s = acc.get(G)
        acc[G] = c if s is None else s + c
    return _trusted_lincomb(acc)


def phi_at(x, nu):
    """phi with the indeterminate nu evaluated at a rational."""
    return phi(x).subst_partial(nu=nu)


def theta(x) -> LinComb:
    """theta(F) = nu^{n_F} F, extended linearly; accepts a Forest or a
    LinComb. A product of nonzero coefficients is nonzero, so every
    term survives."""
    return _trusted_lincomb({
        F: c * Coefficient.monomial(1, c=F.nvertices)
        for F, c in _as_lincomb(x).terms.items()})

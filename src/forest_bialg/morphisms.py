"""The morphism families phi_nu and theta_nu.

phi is the unique algebra endomorphism with

    phi(B+_w(F)) = B+_w(phi(F)) + nu phi(F),    phi(.x) = .x + nu 1,

computed here by that recursion with nu a first-class indeterminate.
phi_subsets is the independent closed form

    phi(F) = sum over all I subseteq V(F) of nu^{|V(F)\\I|} F|I,

and the two must agree everywhere (suite phi-laws). phi_subsets takes
every F|I from forest._restrictor, so the flat vertex encoding that
restriction runs on stays inside the forest module. Composition obeys
phi_nu . phi_nu' = phi_{nu+nu'}, and phi intertwines the coproduct up to
the substitution mu -> mu - lambda nu.

theta rescales by the grading, theta(F) = nu^{n_F} F; it intertwines the
coproduct up to mu -> mu nu. phi and theta take a Forest or a LinComb.
"""

from __future__ import annotations

from .forest import _BEFORE_SWEEP, Forest, _restrictor, graft
from .freemod import (NU, ONE, Coefficient, LinComb, _add_products,
                      _as_lincomb, _trusted_lincomb)

__all__ = ["phi", "phi_forest", "phi_subsets", "phi_at", "theta",
           "lc_concat"]

# forest -> phi_forest of it, until the next intern sweep releases it
_PHI_CACHE: dict = {}
_BEFORE_SWEEP.append(_PHI_CACHE.clear)


def _concat_basis(F: Forest, G: Forest) -> LinComb:
    # made as freemod._tensor_basis makes its term, without a call to
    # LinComb.single
    return _trusted_lincomb({F * G: ONE})


def lc_concat(x: LinComb, y: LinComb) -> LinComb:
    """Concatenation product extended bilinearly to LinComb<Forest>."""
    return _add_products({}, x, y, _concat_basis)


def phi_forest(F: Forest) -> LinComb:
    """phi on a basis forest, by the defining recursion."""
    hit = _PHI_CACHE.get(F)
    if hit is not None:
        return hit
    if not F.trees:
        out = LinComb.single(F)
    elif len(F.trees) == 1:
        t = F.trees[0]
        if not t.children:
            # single vertex of either kind: phi(.d) = .d + nu 1
            out = LinComb.single(t.as_forest()) + LinComb.single(
                Forest.make(()), NU)
        else:
            w = t.deco
            inner = phi_forest(Forest.make(t.children))
            out = inner.map_basis(lambda G: graft(w, G).as_forest()) \
                + inner.scale(NU)
    else:
        # phi is multiplicative: fold the trees' images in a loop, so the
        # recursion follows the nesting only and a wide forest costs no
        # depth
        out = phi_forest(F.trees[-1].as_forest())
        for t in reversed(F.trees[:-1]):
            out = lc_concat(phi_forest(t.as_forest()), out)
    _PHI_CACHE[F] = out
    return out


def phi(x) -> LinComb:
    """Linear extension of phi_forest; accepts a Forest or a LinComb."""
    if isinstance(x, Forest):
        return phi_forest(x)
    return _as_lincomb(x).apply(phi_forest)


def phi_subsets(F: Forest) -> LinComb:
    """phi by the all-subsets closed form (independent of the recursion)."""
    n = F.nvertices
    nu_pow = [Coefficient.monomial(1)]
    for _ in range(n):
        nu_pow.append(nu_pow[-1] * NU)
    # the formal sum of the subsets I (kept preorder indices), each weighted
    # nu^{|V(F)\I|}, mapped along I -> F|I
    keeps = [tuple(i for i in range(n) if mask >> i & 1)
             for mask in range(1 << n)]
    subsets = LinComb({keep: nu_pow[n - len(keep)] for keep in keeps})
    return subsets.map_basis(_restrictor(F))


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

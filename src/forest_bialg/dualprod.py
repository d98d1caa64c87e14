"""Graded-dual pairing and the dual products.

The pairing <F, G> = delta_{F,G} identifies the graded dual of the
coalgebra with the algebra carried by the same forests. Under it the
coproduct dualizes to products:

* star = star_{-1,0}: F star G sums, over weakly increasing maps sigma
  from F's trees to positions 0..n along the leftmost path of G, the
  forest obtained by grafting T_m, ..., T_1 each "most possible on the
  left" of its target (0 = prepend as a new leftmost root). The path
  excludes the terminal leaf exactly when it is X-decorated, so grafting
  never lands under an X-vertex. The sum is built top-down along the
  path, one level at a time, so each regrafted path vertex is made once
  for all the sigma that agree above it; the forests made are those of
  grafting sigma by sigma. Everything but the final forests depends only
  on F and on G's first tree, and a one-slot memo keeps it for the last
  F seen (see star).
* star_{l,m}: x star_{l,m} y = -l x star y + m sum_{d in X + Omega}
  x star .d star y, which needs the alphabet to be finite.

Duality: <D_{l,m}(x), y (x) z> = <x, y star_{l,m} z>.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .forest import (KIND_X, Alphabet, Forest, Tree, VertexId, leaf)
from .freemod import LAM, MU, ONE, ZERO, Coefficient, LinComb

__all__ = ["LeftPath", "pairing", "left_path", "star", "star_lin",
           "star_weighted"]


class LeftPath(NamedTuple):
    """Vertices of the leftmost root-to-leaf chain, X-terminal excluded."""

    vertices: tuple[VertexId, ...]

    def __len__(self):
        return len(self.vertices)


def pairing(x, y) -> Coefficient:
    """Bilinear extension of <F, G> = delta_{F,G}.

    Works on any equal-rank pair of LinCombs (single forests or tensor
    tuples compare leg-wise through key equality). A Forest paired with
    a LinComb is a lookup of its coefficient.
    """
    if isinstance(x, Forest) and isinstance(y, LinComb):
        return y.terms.get(x, ZERO)
    x, y = _as_lincomb(x), _as_lincomb(y)
    if len(y.terms) < len(x.terms):
        x, y = y, x
    out = ZERO
    for b, c in x.terms.items():
        d = y.terms.get(b)
        if d is not None:
            out = out + c * d
    return out


def _as_lincomb(x) -> LinComb:
    if isinstance(x, LinComb):
        return x
    if isinstance(x, Forest):
        return LinComb.single(x)
    if isinstance(x, Tree):
        return LinComb.single(x.as_forest())
    raise TypeError(f"expected Forest or LinComb, got {type(x).__name__}")


def _spine(first: Optional[Tree]) -> list[Tree]:
    """Tree nodes along the leftmost chain from a forest's first tree,
    X-decorated terminal dropped."""
    if first is None:
        return []
    chain = [first]
    while chain[-1].children:
        chain.append(chain[-1].children[0])
    if chain[-1].deco.kind == KIND_X:
        chain.pop()
    return chain


def left_path(G: Forest) -> LeftPath:
    n = len(_spine(G.trees[0] if G.trees else None))
    return LeftPath(tuple(VertexId((0,) * (i + 1)) for i in range(n)))


def _regrafted(trees: tuple, first: Optional[Tree]):
    """The prefixes trees[:hi] + sub of every grafting of trees along the
    spine from first, in sigma order, and the number of G's trees they
    replace (1 when the spine is not empty, else 0)."""
    level = [(len(trees), ())]
    for node in reversed(_spine(first)):
        level = [(lo, (Tree.make(node.deco, trees[lo:hi] + sub
                                 + node.children[len(sub):]),))
                 for hi, sub in level for lo in range(hi + 1)]
    return [trees[:hi] + sub for hi, sub in level], len(level[0][1])


# (F, {first tree of G or None: _regrafted(F.trees, first)}) for the last
# F passed to star; one tuple, so that threads never pair a dict with
# another thread's F (see star)
_last = (None, {})


def star(F: Forest, G: Forest) -> LinComb:
    """F star G: all C(m+n, n) left-graftings of F's trees along G's path.

    The graftings are built top-down along the spine (roots drawn at the
    bottom), one level at a time. An entry (hi, sub) of a level stands
    for every sigma that sends exactly trees[hi:] to the spine nodes
    already rebuilt, and sub holds the last node rebuilt (none at the
    start). Going down one node, each choice of lo <= hi sends the block
    trees[lo:hi] to that node: it goes in front of the node's child list,
    ahead of sub, which replaces the old spine child. So each regrafted
    node is made once for all the sigma that agree above it, and the
    forests made are exactly those of the sigma-by-sigma construction.

    The spine, and so every prefix trees[:hi] + sub and the count of G's
    trees that sub replaces, depend only on F and on G's first tree;
    each term is that prefix followed by the rest of G's trees. The
    prefixes are memoised per first tree for the last F passed in, until
    a call with another F replaces the memo: F in the outer loop, as in
    the star suites and star_lin, regrafts each (F, first tree) once.
    The same forests are made as without the memo; it keeps that one F
    and its regrafted trees alive until the next F, and nothing else.
    It lives in a single module slot holding an (F, dict) tuple, read
    once per call and replaced whole, so concurrent callers with
    different F never mix their entries; two callers with the same F
    store equal values.

    Grafting adds and drops no vertex, so every term has
    F.nvertices + G.nvertices vertices; the terms are made with
    Forest._sized and that count instead of recounting each one.
    """
    global _last
    owner, memo = _last
    if owner is not F:
        memo = {}
        _last = (F, memo)
    gtrees = G.trees
    first = gtrees[0] if gtrees else None
    hit = memo.get(first)
    if hit is None:
        hit = memo[first] = _regrafted(F.trees, first)
    prefixes, cut = hit
    rest = gtrees[cut:]
    sized, n = Forest._sized, F.nvertices + G.nvertices
    acc: dict = {}
    for prefix in prefixes:
        H = sized(prefix + rest, n)
        c = acc.get(H)
        acc[H] = ONE if c is None else c + ONE
    out = LinComb.__new__(LinComb)
    out.terms = acc
    return out


def star_lin(x, y) -> LinComb:
    """Bilinear extension of star."""
    x, y = _as_lincomb(x), _as_lincomb(y)
    return x.apply(lambda F: y.apply(lambda G: star(F, G)))


def star_weighted(x, y, alphabet: Alphabet) -> LinComb:
    """x star_{l,m} y = -l x star y + m sum_{d in X + Omega} x star .d star y."""
    x, y = _as_lincomb(x), _as_lincomb(y)
    dots = LinComb({leaf(d): MU for d in alphabet.decorations()})
    return star_lin(star_lin(x, dots), y) - star_lin(x, y).scale(LAM)

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
  on F and on G's first tree: star holds it in freemod's one table of
  held rows (freemod._HELD), keyed on (_regrafted, F) and then on that
  tree, until the next intern sweep releases the table (see star).
* star_{l,m}: x star_{l,m} y = -l x star y + m sum_{d in X + Omega}
  x star .d star y, which needs the alphabet to be finite.

star_lin and star_weighted extend star bilinearly with
freemod._add_products: every term of every product goes straight into
one sum. Their left operands are often fresh products, so star sees a
new F on most calls there; the table keeps every F's prefixes, so each
(F, first tree of G) is still regrafted once between sweeps. pairing,
star_lin and star_weighted take each operand as a Forest or a LinComb,
through freemod._as_lincomb; a Tree is neither.

The images star_lin and star_weighted compute are held in the same
table (freemod._HELD), keyed on (star, F) and then G, until the next
intern sweep: the identity suites nest these products (star-assoc makes
y star z again for every x), so a pair made before costs one lookup.
star, and _regrafted within it, are read from this module at call time,
so a replaced one (a test's mutant, a tracer's wrapper) is called and
keyed as itself, and its rows are never read once it is undone. A
direct call of star holds nothing beyond its prefixes: star-census makes
each of its pairs once, and a held image per pair only took memory
there. The CLI's star command calls star for that reason; cli.main
releases the table after each command, since one query's pairs rarely
recur in the next.

Duality: <D_{l,m}(x), y (x) z> = <x, y star_{l,m} z>.
"""

from __future__ import annotations

from typing import Optional

from .forest import KIND_X, Alphabet, Forest, Tree, leaf
from .freemod import (_HELD, LAM, MU, ONE, ZERO, Coefficient, LinComb,
                      _add_products, _as_lincomb, _trusted_lincomb)

__all__ = ["pairing", "star", "star_lin", "star_weighted"]


def pairing(x, y) -> Coefficient:
    """Bilinear extension of <F, G> = delta_{F,G}.

    Works on any equal-rank pair of LinCombs (single forests or tensor
    tuples compare leg-wise through key equality). A basis element (a
    Forest, or a tuple of forests for a tensor basis) paired with a
    LinComb is a lookup of its coefficient.
    """
    if isinstance(x, (Forest, tuple)) and isinstance(y, LinComb):
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
    prefixes are held in freemod._HELD, in the row (_regrafted, F) under
    the first tree, so each (F, first tree) is regrafted once between
    sweeps, whichever operand varies: F in the outer loop (star-census,
    star_lin) and F varying from call to call (star_lin(star(x, y), z),
    the outer products of star_weighted) alike. The rows follow the
    table's rules: a sweep releases them before it counts what only the
    intern tables hold, and cli.main releases them after each command.
    Suites and cli.main reach that sweep through forest.sweep_if_due; a
    library loop that never calls it keeps the rows, like every other
    forest cache, until it does. The same forests are made as without
    the table. Each F has its own row, so concurrent callers with
    different F never mix their entries; two callers with the same F
    store equal values.

    Grafting adds and drops no vertex, so every term has
    F.nvertices + G.nvertices vertices.
    """
    row = _HELD.get((_regrafted, F))
    if row is None:
        row = _HELD.setdefault((_regrafted, F), {})
    gtrees = G.trees
    first = gtrees[0] if gtrees else None
    hit = row.get(first)
    if hit is None:
        hit = row[first] = _regrafted(F.trees, first)
    prefixes, cut = hit
    rest = gtrees[cut:]
    make = Forest.make
    acc: dict = {}
    for prefix in prefixes:
        H = make(prefix + rest)
        c = acc.get(H)
        acc[H] = ONE if c is None else c + ONE
    return _trusted_lincomb(acc)


def star_lin(x, y) -> LinComb:
    """Bilinear extension of star, in one accumulation pass with the
    terms of x in the outer loop (freemod._add_products), each image
    held until the next sweep."""
    return _add_products({}, _as_lincomb(x), _as_lincomb(y), star,
                         held=True)


_NEG_LAM = -LAM


def star_weighted(x, y, alphabet: Alphabet) -> LinComb:
    """x star_{l,m} y = -l x star y + m sum_{d in X + Omega} x star .d star y.

    x star (m sum .d) is made first; -l x star y and (x star m sum .d)
    star y then go into one sum, so no scaled, negated or partial sum is
    copied. freemod._HELD holds the prefixes of each F of x, and of each
    term of x star .d, until the next sweep, so the outer products
    regraft each (F, first tree of G) once there; it holds every image
    of the three sums too, so a pair that an earlier call made is not
    grafted again.
    """
    x, y = _as_lincomb(x), _as_lincomb(y)
    dots = LinComb({leaf(d): MU for d in alphabet.decorations()})
    xdots = _add_products({}, x, dots, star, held=True)
    acc: dict = {}
    _add_products(acc, x, y, star, _NEG_LAM, held=True)
    return _add_products(acc, xdots, y, star, held=True)

"""Decorated planar rooted forests and their combinatorics.

A forest is an ordered (planar) sequence of rooted trees; the empty forest
1 is the unit of noncommutative concatenation. Internal vertices carry
decorations from an alphabet Omega, leaves from Omega or from a disjoint
alphabet X. Grafting B+_w attaches all roots of a forest under a new
w-decorated root, so B+_w(1) = .w is the single w-vertex.

Vertices of a fixed forest are totally ordered by "higher or more on the
left": descendants sit above their ancestors, and of two hanging branches
the more-left one is the greater. The decreasing listing of this order is
the left-to-right postorder walk, its prefixes are exactly the n_F + 1
upward-closed vertex sets (forest biideals, a chain under inclusion), and
restricting a forest to a vertex subset keeps the induced ancestry with
contraction through deleted vertices. Postorder and restriction run on the
flat preorder encoding through the pure-Python routines of _kernel; there
is one implementation of each and no backend switch.

A forest stores its trees and its vertex count, nothing else. Its vertex
views (the preorder encoding, the index paths, the postorder) are built
per call from one explicit-stack preorder walk, _preorder, and are not
kept; so a forest held for the whole process, as every enumerated one
is, costs its tuple of trees and no more.

Trees and forests are canonical: Tree.make and Forest.make intern every
instance, so two structurally equal forests are the same object. Equality
and hash are therefore plain object identity (no Python-level __eq__ or
__hash__), and pickle and copy return the interned instance rather than
a second copy. make stores a new instance with dict.setdefault, so library
callers whose threads race on one new key still share one instance.

Each tree and forest stores its vertex count; depth is computed on
demand by Forest.depth. Every new forest is created in Forest._sized,
which trusts the count its caller passes. Forest.make counts the trees
of a tuple it has not seen and then takes that path. Only the callers
below pass a count of their own, each exact by construction:

* concat and Forest.__mul__ (and so freemod's act_left and act_right):
  the trees of FG are those of F followed by those of G, so
  n_FG = n_F + n_G.
* dualprod.star: grafting moves F's trees onto G and adds or drops no
  vertex, so every term of F star G has n_F + n_G vertices.
* _kernel.biideal_splits: F|I_k is the restriction to the first k
  vertices in postorder and F|J_k to the other n_F - k.

The intern tables forget. sweep_interned drops every entry that nothing
but its table refers to; verify.run_suite calls it through sweep_if_due
between cases, only while its thread is the process's only one, and
once Forest._intern has grown to max(2**16, twice its size after the last
sweep). Before it counts anything, it releases the caches of other
modules that registered in _BEFORE_SWEEP (dualprod's star memo, which
holds forests and regrafted trees), so what only they held goes in the
same sweep. This module imports none of them; each registers itself at
import. Identity semantics survive because a dropped instance is
unobservable: no object, cache or frame refers to it, so no comparison
can meet it again, and the next make of that structure builds the one
instance anything can then hold. An instance that anything holds, a
coproduct cache key, a pickled copy's target or a local variable, keeps
its entry. Between sweeps the tables keep everything, so the hit path of
make costs nothing extra.

Text form: "1" for the empty forest, "a[x b[y]] c" style otherwise; leaves
render bare, children go in brackets separated by spaces.
"""

from __future__ import annotations

import re
import sys
import threading
from typing import Iterator, NamedTuple

from . import _kernel

__all__ = [
    "KIND_OMEGA", "KIND_X", "Decoration", "Alphabet", "Tree", "Forest",
    "VertexId", "VertexSet", "EMPTY_FOREST", "ForestSyntaxError",
    "DecorationError", "parse_forest", "render_forest", "concat", "graft",
    "depth", "breadth", "nvertices", "vertex_order", "biideals", "restrict",
    "enumerate_forests", "forest_from_encoding", "leaf", "sweep_interned",
    "sweep_if_due",
]

KIND_OMEGA = "omega"
KIND_X = "x"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ForestSyntaxError(ValueError):
    """Malformed forest text; pos is the 0-based offending offset."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class DecorationError(ValueError):
    """Decoration discipline violated (X-kind symbol on an internal vertex)."""


class Decoration(NamedTuple):
    symbol: str
    kind: str

    def __str__(self):
        return self.symbol


class Alphabet:
    """Finite ordered decoration alphabets, Omega disjoint from X.

    Omega-symbols may decorate any vertex; X-symbols only leaves. The
    declared order fixes deterministic sums over X + Omega and enumeration
    output. Instances are immutable and hashable.
    """

    __slots__ = ("omega", "xset", "_by_symbol")

    def __init__(self, omega, xset=()):
        self.omega = tuple(omega)
        self.xset = tuple(xset)
        if not self.omega:
            raise ValueError("Omega must be nonempty")
        if len(set(self.omega)) != len(self.omega) or len(set(self.xset)) != len(self.xset):
            raise ValueError("duplicate symbol in alphabet")
        by = {}
        for sym in self.omega:
            _check_symbol(sym)
            by[sym] = Decoration(sym, KIND_OMEGA)
        for sym in self.xset:
            _check_symbol(sym)
            if sym in by:
                raise ValueError(f"symbol {sym!r} occurs in both Omega and X")
            by[sym] = Decoration(sym, KIND_X)
        self._by_symbol = by

    def get(self, symbol):
        return self._by_symbol.get(symbol)

    def decoration(self, symbol) -> Decoration:
        d = self._by_symbol.get(symbol)
        if d is None:
            raise DecorationError(f"unknown symbol {symbol!r}")
        return d

    def decorations(self) -> tuple[Decoration, ...]:
        """All decorations in X + Omega order (the order of sums over X ⊔ Omega)."""
        return tuple(self._by_symbol[s] for s in self.xset + self.omega)

    def __eq__(self, other):
        return (isinstance(other, Alphabet)
                and self.omega == other.omega and self.xset == other.xset)

    def __hash__(self):
        return hash((self.omega, self.xset))

    def __repr__(self):
        return f"Alphabet(omega={list(self.omega)}, xset={list(self.xset)})"


def _check_symbol(sym):
    if not isinstance(sym, str) or not _IDENT.fullmatch(sym):
        raise ValueError(f"bad symbol {sym!r}: need [A-Za-z_][A-Za-z0-9_]*")


class Tree:
    """Planar rooted tree, canonical: construct only through Tree.make.

    Tree.make interns on (decoration, children), so structurally equal
    trees are one object and equality and hash are object identity.
    pickle and copy go back through Tree.make and return that object.
    Tree._intern forgets a tree only in sweep_interned, and only once no
    forest, parent tree or other object refers to it (module docstring).

    A tree stores its vertex count, summed from its children's counts in
    one loop when it is made. Depth is not stored; Forest.depth computes
    it on demand.
    """

    __slots__ = ("deco", "children", "nvertices")

    _intern: dict = {}

    @classmethod
    def make(cls, deco: Decoration, children: tuple["Tree", ...] = ()) -> "Tree":
        children = tuple(children)
        key = (deco, children)
        hit = cls._intern.get(key)
        if hit is not None:
            return hit
        if children and deco.kind != KIND_OMEGA:
            raise DecorationError(
                f"internal vertex {deco.symbol!r} must be Omega-decorated")
        n = 1
        for c in children:
            n += c.nvertices
        t = object.__new__(cls)
        t.deco = deco
        t.children = children
        t.nvertices = n
        # setdefault is one C call, so threads racing on a new key all
        # get the instance stored first
        return cls._intern.setdefault(key, t)

    def __reduce__(self):
        return Tree.make, (self.deco, self.children)

    def __str__(self):
        if not self.children:
            return self.deco.symbol
        return f"{self.deco.symbol}[{' '.join(map(str, self.children))}]"

    def __repr__(self):
        return f"Tree({str(self)!r})"

    def as_forest(self) -> "Forest":
        return Forest.make((self,))


class Forest:
    """Ordered sequence of trees; () is the empty forest 1.

    Canonical like Tree: Forest.make interns on the tree tuple, equality
    and hash are identity, and pickle and copy return the interned object.
    Forest._intern forgets a forest only in sweep_interned, at a point
    where nothing else refers to it, so no one can tell it was dropped.

    Every new forest is created in Forest._sized, which takes its vertex
    count from the caller instead of recounting it; make counts the trees
    of a tuple it has not seen and then takes that path. Only callers
    whose count is exact by construction call _sized (module docstring).

    The trees and the vertex count are all a forest stores. Depth, text,
    encoding and paths are computed on demand, each call anew.
    """

    __slots__ = ("trees", "nvertices")

    _intern: dict = {}

    @classmethod
    def make(cls, trees=()) -> "Forest":
        trees = tuple(trees)
        hit = cls._intern.get(trees)
        if hit is not None:
            return hit
        n = 0
        for t in trees:
            n += t.nvertices
        return cls._sized(trees, n)

    @classmethod
    def _sized(cls, trees: tuple, n: int) -> "Forest":
        """The forest of the tuple trees, whose vertex count must be n.

        n is trusted, not checked: a wrong n makes a forest that reports
        a wrong nvertices for as long as it is interned.
        """
        hit = cls._intern.get(trees)
        if hit is not None:
            return hit
        f = object.__new__(cls)
        f.trees = trees
        f.nvertices = n
        return cls._intern.setdefault(trees, f)

    @property
    def breadth(self):
        return len(self.trees)

    @property
    def depth(self):
        """Most Omega vertices on one root-to-leaf path: X-leaves sit at
        depth 0 and each Omega vertex adds one level. An explicit-stack
        walk, so no nesting reaches the recursion limit."""
        best = 0
        stack = [(t, 1) for t in self.trees if t.deco.kind == KIND_OMEGA]
        while stack:
            t, d = stack.pop()
            if d > best:
                best = d
            for c in t.children:
                if c.deco.kind == KIND_OMEGA:
                    stack.append((c, d + 1))
        return best

    def __reduce__(self):
        return Forest.make, (self.trees,)

    def __mul__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return Forest._sized(self.trees + other.trees,
                             self.nvertices + other.nvertices)

    def __str__(self):
        return " ".join(map(str, self.trees)) if self.trees else "1"

    def __repr__(self):
        return f"Forest({str(self)!r})"

    def __bool__(self):
        return bool(self.trees)

    @property
    def encoding(self):
        """(parents, decorations) in preorder; the kernel's flat form."""
        parents, decos, _ = _preorder(self)
        return parents, decos

    @property
    def paths(self) -> tuple["VertexId", ...]:
        """VertexIds in preorder, aligned with encoding indices."""
        return _preorder(self)[2]


EMPTY_FOREST = Forest.make(())


# ------------------------------------------------------ forgetting interns

def _lone_refs():
    # the count an entry shows when only its table holds it differs
    # between CPython versions, so read it off a probe entry the two ways
    # the sweep reads entries: by key, and in a pass over items()
    table, key = {None: object()}, None
    by_key = sys.getrefcount(table[key])
    in_items = {k: sys.getrefcount(v) for k, v in table.items()}[key]
    return by_key, in_items


_LONE_BY_KEY, _LONE_IN_ITEMS = _lone_refs()
_SWEEP_FLOOR = 1 << 16
_sweep_at = _SWEEP_FLOOR
# what sweep_interned calls before it counts: caches of other modules
# that hold forests or trees release them here (dualprod's star memo
# appends its clear at import), so the sweep frees what they held
_BEFORE_SWEEP: list = []


def _forget_unheld(table):
    # for tables whose values refer to no other value of the table
    # (forests, and freemod's coefficients): one pass reads every final
    # count; nearly every entry goes, and rebuilding beats deleting them
    # one by one
    keep = {key: v for key, v in table.items()
            if sys.getrefcount(v) != _LONE_IN_ITEMS}
    table.clear()
    table.update(keep)


def _forget_trees(table):
    # newest first: a tree is interned after its children, so a dropped
    # parent releases its children before they are reached; each key
    # leaves the snapshot as it is read, since a key holds the children
    keys = list(table)
    while keys:
        key = keys.pop()
        if sys.getrefcount(table[key]) == _LONE_BY_KEY:
            del table[key]


def sweep_interned() -> None:
    """Release the caches registered in _BEFORE_SWEEP, then drop every
    Forest._intern entry, then every Tree._intern entry, that nothing
    but its table refers to.

    Call it only where no other thread can take a reference between the
    count and the drop; run_suite does, through sweep_if_due. The caches
    go first, so that what only they held is dropped by this sweep and
    not the next; forests go before trees, since a dropped forest
    releases its trees.
    """
    global _sweep_at
    for release in _BEFORE_SWEEP:
        release()
    _forget_unheld(Forest._intern)
    _forget_trees(Tree._intern)
    _sweep_at = max(_SWEEP_FLOOR, 2 * len(Forest._intern))


def sweep_if_due() -> bool:
    """Run sweep_interned if Forest._intern has reached its trigger size
    and the calling thread is the only one; return whether it ran."""
    if len(Forest._intern) >= _sweep_at and threading.active_count() == 1:
        sweep_interned()
        return True
    return False


def leaf(deco: Decoration) -> Forest:
    """The one-vertex forest .d"""
    return Tree.make(deco).as_forest()


class VertexId(NamedTuple):
    """Root-to-vertex index path: (tree index, child index, ...).

    Valid only relative to one specific host forest. Tuple order equals
    preorder position, which keeps listings reproducible.
    """

    path: tuple[int, ...]

    def __str__(self):
        return "/".join(map(str, self.path))


def _preorder(F: Forest):
    """(parents, decorations, paths) of F's vertices in preorder.

    parents[i] is the preorder index of vertex i's parent, -1 for a root,
    and paths[i] its VertexId. One explicit-stack walk, so no nesting
    reaches the recursion limit.
    """
    parents, decos, paths = [], [], []
    # children go on reversed, so the leftmost is popped first
    stack = [(t, -1, (i,)) for i, t in enumerate(F.trees)]
    stack.reverse()
    while stack:
        t, parent, path = stack.pop()
        idx = len(parents)
        parents.append(parent)
        decos.append(t.deco)
        paths.append(VertexId(path))
        kids = t.children
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], idx, path + (i,)))
    return tuple(parents), tuple(decos), tuple(paths)


class VertexSet:
    """A set of vertices of one host forest."""

    __slots__ = ("host", "members")

    def __init__(self, host: Forest, members):
        self.host = host
        self.members = frozenset(members)
        paths = set(_preorder(host)[2])
        for v in self.members:
            if v not in paths:
                raise ValueError(f"vertex {v} is not in the host forest")

    @classmethod
    def _trusted(cls, host: Forest, members) -> "VertexSet":
        """A VertexSet of members taken from host's own vertices; unlike
        VertexSet(...), not checked against host."""
        s = object.__new__(cls)
        s.host = host
        s.members = frozenset(members)
        return s

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __contains__(self, v):
        return v in self.members

    def __eq__(self, other):
        return (isinstance(other, VertexSet)
                and self.host == other.host and self.members == other.members)

    def __hash__(self):
        return hash((self.host, self.members))

    def __repr__(self):
        inner = ", ".join(str(v) for v in self)
        return f"VertexSet({str(self.host)!r}, {{{inner}}})"


# ---------------------------------------------------------------- text form

def parse_forest(text: str, alphabet: Alphabet) -> Forest:
    """Parse the grammar  forest := "1" | tree (WS tree)* ;
    tree := IDENT | IDENT "[" forest "]".

    Every identifier must occur in the alphabet; X-kind symbols may not
    carry a child list. parse_forest(render_forest(F)) = F.
    """
    toks = _tokenize(text)
    forest, i = _parse_forest_at(toks, 0, alphabet, text)
    if i != len(toks):
        raise ForestSyntaxError("trailing input", toks[i][2])
    return forest


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if ch == "[":
            toks.append(("[", "[", i))
            i += 1
        elif ch == "]":
            toks.append(("]", "]", i))
            i += 1
        elif ch == "1":
            toks.append(("one", "1", i))
            i += 1
        else:
            m = _IDENT.match(text, i)
            if not m:
                raise ForestSyntaxError(f"unexpected character {ch!r}", i)
            toks.append(("ident", m.group(), i))
            i = m.end()
    if not toks:
        raise ForestSyntaxError("empty input", 0)
    return toks


def _parse_forest_at(toks, i, alphabet, text):
    if i < len(toks) and toks[i][0] == "one":
        return EMPTY_FOREST, i + 1
    trees = []
    while i < len(toks) and toks[i][0] == "ident":
        t, i = _parse_tree_at(toks, i, alphabet, text)
        trees.append(t)
    if not trees:
        pos = toks[i][2] if i < len(toks) else len(text)
        raise ForestSyntaxError("expected a tree or '1'", pos)
    return Forest.make(trees), i


def _parse_tree_at(toks, i, alphabet, text):
    kind, sym, pos = toks[i]
    assert kind == "ident"
    deco = alphabet.get(sym)
    if deco is None:
        raise ForestSyntaxError(f"unknown symbol {sym!r}", pos)
    i += 1
    children = EMPTY_FOREST
    if i < len(toks) and toks[i][0] == "[":
        open_pos = toks[i][2]
        children, i = _parse_forest_at(toks, i + 1, alphabet, text)
        if i >= len(toks) or toks[i][0] != "]":
            raise ForestSyntaxError("unbalanced '['", open_pos)
        i += 1
        if children.trees and deco.kind == KIND_X:
            raise ForestSyntaxError(
                f"X-kind symbol {sym!r} cannot decorate an internal vertex", pos)
    return Tree.make(deco, children.trees), i


def render_forest(F: Forest) -> str:
    """Canonical text; round-trips through parse_forest. 1 renders as "1"."""
    return str(F)


# ------------------------------------------------------------- basic algebra

def concat(F: Forest, G: Forest) -> Forest:
    """Noncommutative concatenation FG; 1 is the two-sided unit."""
    return Forest._sized(F.trees + G.trees, F.nvertices + G.nvertices)


def graft(omega: Decoration, F: Forest) -> Tree:
    """B+_w(F): the tree with new root w over the trees of F; B+_w(1) = .w"""
    if omega.kind != KIND_OMEGA:
        raise DecorationError(f"cannot graft under X-kind symbol {omega.symbol!r}")
    return Tree.make(omega, F.trees)


def depth(F: Forest) -> int:
    return F.depth


def breadth(F: Forest) -> int:
    return F.breadth


def nvertices(F: Forest) -> int:
    return F.nvertices


# ------------------------------------------- order, biideals, restriction

def vertex_order(F: Forest) -> tuple[VertexId, ...]:
    """All vertices in strictly decreasing total order (u_1 maximal).

    Decreasing "higher or more on the left" is the left-to-right postorder
    walk: within a tree the children forest is listed before the root, and
    the leftmost tree of a forest is listed first. The root of each tree is
    that tree's minimum.
    """
    parents, _, paths = _preorder(F)
    return _postorder_paths(parents, paths)


def _postorder_paths(parents, paths) -> tuple[VertexId, ...]:
    """vertex_order from a _preorder walk's parents and paths."""
    return tuple(paths[i] for i in _kernel.postorder_indices(parents))


def biideals(F: Forest) -> tuple[VertexSet, ...]:
    """The n_F + 1 forest biideals I_0 ⊂ I_1 ⊂ ... ⊂ I_{n_F}.

    I_k holds the k largest vertices, so the sequence is the full chain of
    upward-closed vertex sets. Their members come from F's own vertex
    order, so they are not checked again.
    """
    return _biideal_chain(F, vertex_order(F))


def _biideal_chain(F: Forest, order) -> tuple[VertexSet, ...]:
    """biideals from F's vertex order."""
    trusted = VertexSet._trusted
    return tuple(trusted(F, order[:k]) for k in range(len(order) + 1))


def restrict(F: Forest, I: VertexSet) -> Forest:
    """F|I: the forest induced on I with ancestry contracted through
    deleted vertices; siblings and roots keep their preorder order.
    restrict(F, empty) = 1 and restrict(F, V(F)) = F.
    """
    if not isinstance(I, VertexSet):
        raise TypeError("restrict needs a VertexSet")
    if I.host is not F:
        raise ValueError("VertexSet belongs to a different forest")
    parents, decos, paths = _preorder(F)
    idx = {p: i for i, p in enumerate(paths)}
    keep = tuple(sorted(idx[v] for v in I.members))
    return forest_from_encoding(_kernel.restrict_parents(parents, keep),
                                tuple(decos[i] for i in keep))


_ENC_INTERN: dict = {}


def forest_from_encoding(parents, decos) -> Forest:
    """Rebuild a Forest from a flat preorder encoding (cached)."""
    key = (parents, decos)
    hit = _ENC_INTERN.get(key)
    if hit is not None:
        return hit
    n = len(parents)
    kids = [[] for _ in range(n)]
    roots = []
    for i in range(n):
        p = parents[i]
        (kids[p] if p >= 0 else roots).append(i)
    # in preorder every child comes after its parent, so building from the
    # last index down makes each subtree before the tree that holds it
    built = [None] * n
    for i in range(n - 1, -1, -1):
        built[i] = Tree.make(decos[i], tuple(built[c] for c in kids[i]))
    f = Forest.make(tuple(built[r] for r in roots))
    _ENC_INTERN[key] = f
    return f


# ---------------------------------------------------------------- streams

_ENUM_FORESTS: dict = {}
_ENUM_TREES: dict = {}


def _forests_exact(n: int, alphabet: Alphabet) -> tuple[Forest, ...]:
    key = (n, alphabet)
    hit = _ENUM_FORESTS.get(key)
    if hit is not None:
        return hit
    if n == 0:
        out = (EMPTY_FOREST,)
    else:
        acc = []
        for k in range(1, n + 1):
            for t in _trees_exact(k, alphabet):
                for rest in _forests_exact(n - k, alphabet):
                    acc.append(Forest.make((t,) + rest.trees))
        acc.sort(key=str)
        out = tuple(acc)
    _ENUM_FORESTS[key] = out
    return out


def _trees_exact(n: int, alphabet: Alphabet) -> tuple[Tree, ...]:
    key = (n, alphabet)
    hit = _ENUM_TREES.get(key)
    if hit is not None:
        return hit
    if n == 1:
        out = tuple(Tree.make(d) for d in alphabet.decorations())
    else:
        out = tuple(Tree.make(alphabet.decoration(w), f.trees)
                    for w in alphabet.omega
                    for f in _forests_exact(n - 1, alphabet))
    _ENUM_TREES[key] = out
    return out


def enumerate_forests(n_max: int, alphabet: Alphabet) -> Iterator[Forest]:
    """Every forest with at most n_max vertices, exactly once, ordered by
    vertex count then lexicographically on canonical text."""
    for n in range(n_max + 1):
        yield from _forests_exact(n, alphabet)

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
is one implementation of each and no backend switch. No other module of
the package reads a forest's encoding: _order_and_paths turns it into
the vertex order, and _restricted into restrictions, which restrict and
morphisms.phi_subsets (through _restrictor) both take from it.

A forest stores its trees and its vertex count, nothing else. Its vertex
views (the index paths, the postorder, the restrictions) are built
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
demand by Forest.depth. Tree.make and Forest.make are the only places a
count is set: when either makes an instance it has not seen, it sums
the counts of its parts (a tree's root and children, a forest's trees).
No other module passes or computes a count for a forest it makes.

The intern tables forget. sweep_interned drops every entry that nothing
but its table refers to. It runs through sweep_if_due, only while the
calling thread is the process's only one, and once the intern tables
together (every table in _INTERNS) hold max(2**14, twice what they kept
after the last sweep) entries. The trigger counts every table, so a
loop that makes only new trees (deep inputs) or only new coefficients
(new evaluation points) reaches it as surely as one that makes forests.
run_suite calls it between cases and cli.main after each command, so
library and CLI loops are bounded by the same trigger as the suites.

One release policy covers every module-level cache that holds forests,
trees or coefficients: it lives until the next intern sweep, and
sweep_interned is the one place that releases it, whichever entry point
reached the sweep, save that cli.main also clears freemod's held rows
after each command. A sweep follows one rule. Each module registers its
caches as data at import, appending each dict to _CACHES (this module's
_ENC_INTERN; freemod's held rows and its sum, product and evaluation
memos; coalgebra's coproduct and counit caches; morphisms' phi cache),
and each intern table to _INTERNS (Forest._intern and Tree._intern
here, freemod's coefficient table there). The sweep clears every cache
in place, in any order, then forgets each intern table in list order
by one pass, _forget, that reads its entries newest first: forests go
before trees, since a dropped forest releases its trees, and a dropped
tree releases its children before they are read. So whatever only the
caches held goes in the same sweep, and no module has to order itself
around another. The enumerated universe, _ENUM_FORESTS, is the one
exception: it holds what enumerate_forests has listed for the rest of
the process, since every suite walks it again; a tree of k vertices is
held there as a one-tree forest of k. This module imports none of the
others.

Identity semantics survive a sweep because a dropped instance is
unobservable: no object, cache or frame refers to it, so no comparison
can meet it again, and the next make of that structure builds the one
instance anything can then hold. An instance that anything holds, an
enumerated forest, a pickled copy's target or a local variable, keeps
its entry. A sweep never empties a table while Python code can run, so
a finalizer that a collection starts mid-sweep still finds every live
instance in it. Between sweeps the tables keep everything, so the hit
path of make costs nothing extra.

Text form: "1" for the empty forest, "a[x b[y]] c" style otherwise; leaves
render bare, children go in brackets separated by spaces. Text is not
stored: one explicit-stack walk, _tree_text, makes it through a memo
that is local to the call, so within one render each distinct subtree
is walked once and a repeat costs a copy of its text. str(tree) and
str(forest) each start a fresh memo; a caller that renders many forests
sharing trees passes one memo to _forest_text for all of them.
"""

from __future__ import annotations

import re
import sys
import threading
from functools import partial
from typing import Iterator, NamedTuple

from . import _kernel

__all__ = [
    "KIND_OMEGA", "KIND_X", "Decoration", "Alphabet", "Tree", "Forest",
    "VertexId", "VertexSet", "EMPTY_FOREST", "ForestSyntaxError",
    "DecorationError", "parse_forest", "concat", "graft", "vertex_order",
    "biideals", "restrict", "enumerate_forests", "leaf", "sweep_interned",
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
        raise ValueError(f"bad symbol {sym!r}: need {_IDENT.pattern}")


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
        return _tree_text(self, {})

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

    Forest.make is the one constructor, and the vertex count is summed
    from the trees when a tuple is first seen (module docstring).

    The trees and the vertex count are all a forest stores. Depth is
    computed on demand, each call anew. Text is made by one walk,
    _tree_text, through a memo local to the call: str makes a fresh one,
    and a caller rendering many forests at once (freemod's LinComb
    output, the sort of an enumeration, cli's enumerate listing) passes
    one memo to all of them.
    """

    __slots__ = ("trees", "nvertices")

    _intern: dict = {}

    @classmethod
    def make(cls, trees=()) -> "Forest":
        """The forest of the trees, the one constructor of Forest.

        On a miss it does one intern lookup, counts the new forest's
        vertices from its trees and stores it with setdefault, so
        threads racing on one new tuple all get the instance stored
        first.
        """
        trees = tuple(trees)
        hit = cls._intern.get(trees)
        if hit is not None:
            return hit
        n = 0
        for t in trees:
            n += t.nvertices
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
        """Noncommutative concatenation FG, also spelled concat(F, G); 1 is
        the two-sided unit."""
        if other.__class__ is not Forest:
            raise TypeError(
                f"cannot concatenate a Forest and a {type(other).__name__}")
        return Forest.make(self.trees + other.trees)

    def __str__(self):
        return _forest_text(self, {})

    def __repr__(self):
        return f"Forest({str(self)!r})"

    def __bool__(self):
        return bool(self.trees)


EMPTY_FOREST = Forest.make(())


# ------------------------------------------------------ forgetting interns

def _lone_refs():
    # the count an entry's value shows when only its table holds it may
    # differ between CPython versions, so read it off a probe entry the
    # way _forget reads entries
    table = {None: object()}
    values = list(table.values())
    return sys.getrefcount(values.pop())


_LONE = _lone_refs()
_SWEEP_FLOOR = 1 << 14
_sweep_at = _SWEEP_FLOOR
# what sweep_interned releases: every module-level cache that holds
# forests, trees or coefficients, cleared in place, and every intern
# table, forgotten with _forget in list order; each module appends its
# own at import (module docstring)
_CACHES: list = []
_INTERNS: list = [Forest._intern, Tree._intern]


def _forget(table):
    # newest first: a structure is interned after its parts, so a dropped
    # one releases its parts before they are reached; each key and value
    # leaves its snapshot as it is read, since either may hold the parts.
    # Rebuilding from the survivors keeps later misses from probing the
    # slots of deleted entries; kept holds every survivor while the table
    # is empty, so the clear frees nothing and no finalizer can run then
    keys, values = list(table), list(table.values())
    while keys:
        key = keys.pop()
        if sys.getrefcount(values.pop()) == _LONE:
            del table[key]
    kept = dict(table)
    table.clear()
    table.update(kept)


def sweep_interned() -> None:
    """Clear every cache in _CACHES, then drop every entry of each table
    in _INTERNS, in list order, that nothing but its table refers to.

    Call it only where no other thread can take a reference between the
    count and the drop; sweep_if_due checks that. The caches go first,
    so that what only they held is dropped by this sweep and not the
    next; forests go before trees, since a dropped forest releases its
    trees.
    """
    global _sweep_at
    for cache in _CACHES:
        cache.clear()
    kept = 0
    for table in _INTERNS:
        _forget(table)
        kept += len(table)
    _sweep_at = max(_SWEEP_FLOOR, 2 * kept)


def sweep_if_due() -> bool:
    """Run sweep_interned if the tables in _INTERNS together have
    reached the trigger size and the calling thread is the only one;
    return whether it ran."""
    # run between every two cases: sum the lengths inline, with no call
    size = 0
    for table in _INTERNS:
        size += len(table)
    if size >= _sweep_at and threading.active_count() == 1:
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

def _tree_text(t: Tree, memo: dict) -> str:
    """The canonical text of t, through memo.

    memo belongs to one render and maps a tree it has met to the tree's
    text, or, while the tree has been met only inside a larger one, to
    (pieces, start, end): the span of that tree's piece list that spells
    it, joined into a text the next time the tree is met. Each distinct
    subtree is therefore walked once per memo, and the work stays linear
    in the length of the text however deep the nesting. One
    explicit-stack walk, so no nesting reaches the recursion limit.
    """
    out = []
    # a tree; the text " " between two children; or (tree, start), which
    # closes the tree whose pieces begin at out[start]
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Tree:
            kids = u.children
            if not kids:
                out.append(u.deco.symbol)
                continue
            text = memo.get(u)
            if text is not None:
                if text.__class__ is not str:
                    pieces, start, end = text
                    text = memo[u] = "".join(pieces[start:end])
                out.append(text)
                continue
            stack.append((u, len(out)))
            out.append(u.deco.symbol + "[")
            for i in range(len(kids) - 1, 0, -1):
                stack.append(kids[i])
                stack.append(" ")
            stack.append(kids[0])
        elif u.__class__ is str:
            out.append(u)
        else:
            out.append("]")
            memo[u[0]] = (out, u[1], len(out))
    text = memo[t] = "".join(out)
    return text


def _forest_text(F: Forest, memo: dict) -> str:
    """The canonical text of F, its trees rendered through memo (see
    _tree_text), which is read inline for the trees it already spells."""
    if not F.trees:
        return "1"
    texts = []
    for t in F.trees:
        text = memo.get(t)
        if text.__class__ is not str:
            text = _tree_text(t, memo)
        texts.append(text)
    return " ".join(texts)


# a token: "[", "]" or "1" (group 1), an identifier (group 2), or any
# other character but a space (group 3), which is an error
_TOKEN = re.compile(rf"([\[\]1])|({_IDENT.pattern})|([^ ])")


def parse_forest(text: str, alphabet: Alphabet) -> Forest:
    """Parse the grammar  forest := "1" | tree (WS tree)* ;
    tree := IDENT | IDENT "[" forest "]".

    Every identifier must occur in the alphabet; X-kind symbols may not
    carry a child list. parse_forest(str(F)) = F.

    One regex pass lists the tokens, so an illegal character is reported
    before any error of structure. One explicit-stack loop then reads
    them left to right, so no nesting reaches the recursion limit. A
    ForestSyntaxError gives the offset of the offending token: of the
    "[" of a child list left open, of the symbol of an X-kind vertex
    given children, and len(text) where the input ends too soon.
    """
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 3:
            raise ForestSyntaxError(f"unexpected character {m[0]!r}", m.start())
        toks.append((m.lastindex, m[0], m.start()))
    if not toks:
        raise ForestSyntaxError("empty input", 0)
    toks.append((0, "", len(text)))
    # per open "[": the trees read before its tree, the tree's decoration
    # and the offsets of the two
    stack = []
    trees = []          # of the forest being read
    start = True        # that forest has neither a tree nor "1" yet
    i = 0
    while True:
        kind, tok, pos = toks[i]
        if kind == 2:
            deco = alphabet.get(tok)
            if deco is None:
                raise ForestSyntaxError(f"unknown symbol {tok!r}", pos)
            i += 1
            if toks[i][1] == "[":
                stack.append((trees, deco, pos, toks[i][2]))
                trees, start = [], True
                i += 1
            else:
                trees.append(Tree.make(deco))
                start = False
            continue
        if start:
            if tok != "1":
                raise ForestSyntaxError("expected a tree or '1'", pos)
            i += 1
            _, tok, pos = toks[i]
        # the forest being read ends before tok
        if not stack:
            if tok:
                raise ForestSyntaxError("trailing input", pos)
            return Forest.make(trees)
        kids, (trees, deco, deco_pos, open_pos) = trees, stack.pop()
        if tok != "]":
            raise ForestSyntaxError("unbalanced '['", open_pos)
        if kids and deco.kind == KIND_X:
            raise ForestSyntaxError(
                f"X-kind symbol {deco.symbol!r} cannot decorate an internal "
                "vertex", deco_pos)
        trees.append(Tree.make(deco, tuple(kids)))
        start = False
        i += 1


# ------------------------------------------------------------- basic algebra

# concat(F, G) is F * G
concat = Forest.__mul__


def graft(omega: Decoration, F: Forest) -> Tree:
    """B+_w(F): the tree with new root w over the trees of F; B+_w(1) = .w"""
    if omega.kind != KIND_OMEGA:
        raise DecorationError(f"cannot graft under X-kind symbol {omega.symbol!r}")
    return Tree.make(omega, F.trees)


# ------------------------------------------- order, biideals, restriction

def vertex_order(F: Forest) -> tuple[VertexId, ...]:
    """All vertices in strictly decreasing total order (u_1 maximal).

    Decreasing "higher or more on the left" is the left-to-right postorder
    walk: within a tree the children forest is listed before the root, and
    the leftmost tree of a forest is listed first. The root of each tree is
    that tree's minimum.
    """
    return _order_and_paths(F)[0]


def _order_and_paths(F: Forest):
    """(vertex_order(F), the VertexIds of F in preorder), from one walk."""
    parents, _, paths = _preorder(F)
    return tuple(paths[i] for i in _kernel.postorder_indices(parents)), paths


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
    # one walk gives both the encoding and the kept indices, ascending
    parents, decos, paths = _preorder(F)
    members = I.members
    return _restricted(parents, decos, tuple(
        i for i, p in enumerate(paths) if p in members))


def _restrictor(F: Forest):
    """The map from a tuple keep of ascending preorder indices of F's
    vertices to F|keep; one preorder walk of F serves every keep
    (morphisms.phi_subsets)."""
    return partial(_restricted, *_preorder(F)[:2])


def _restricted(parents, decos, keep: tuple) -> Forest:
    """F|keep from the parents and decorations of F's preorder walk.

    restrict and _restrictor both restrict through it, so the flat
    (parents, decorations) encoding is read in this module alone.
    """
    return forest_from_encoding(_kernel.restrict_parents(parents, keep),
                                tuple(decos[i] for i in keep))


# (parents, decorations) -> forest, until the next intern sweep
_ENC_INTERN: dict = {}
_CACHES.append(_ENC_INTERN)


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

# (n, alphabet) -> every forest of n vertices: the one forest-holding
# cache that no intern sweep releases (module docstring)
_ENUM_FORESTS: dict = {}


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
            # the first tree holds k vertices: one vertex of any
            # decoration, or an Omega root over a forest of k - 1
            if k == 1:
                firsts = [Tree.make(d) for d in alphabet.decorations()]
            else:
                firsts = [Tree.make(alphabet.decoration(w), f.trees)
                          for w in alphabet.omega
                          for f in _forests_exact(k - 1, alphabet)]
            for t in firsts:
                for rest in _forests_exact(n - k, alphabet):
                    acc.append(Forest.make((t,) + rest.trees))
        # one text memo for the whole sort, since the forests share trees
        memo: dict = {}
        acc.sort(key=lambda f: _forest_text(f, memo))
        out = tuple(acc)
    _ENUM_FORESTS[key] = out
    return out


def enumerate_forests(n_max: int, alphabet: Alphabet) -> Iterator[Forest]:
    """Every forest with at most n_max vertices, exactly once, ordered by
    vertex count then lexicographically on canonical text."""
    for n in range(n_max + 1):
        yield from _forests_exact(n, alphabet)

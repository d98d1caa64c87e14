"""Forests: parsing, rendering, structure, order, biideals, restriction."""

import copy
import pickle
import sys
import threading

import pytest

from forest_bialg._kernel import postorder_indices
from forest_bialg.coalgebra import coproduct
from forest_bialg.dualprod import star
from forest_bialg.forest import (EMPTY_FOREST, Alphabet, DecorationError,
                                 Forest, ForestSyntaxError, Tree, VertexId,
                                 VertexSet, biideals, breadth, concat, depth,
                                 enumerate_forests, forest_from_encoding,
                                 graft, leaf, nvertices, parse_forest,
                                 render_forest, restrict, sweep_interned,
                                 vertex_order)

AB = Alphabet(omega=("a", "b"), xset=("x", "y"))
AB4 = Alphabet(omega=("a", "b", "c", "d"), xset=("x",))


def F(text, ab=AB):
    return parse_forest(text, ab)


# ------------------------------------------------------------ alphabets

def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(omega=())
    with pytest.raises(ValueError):
        Alphabet(omega=("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(omega=("a",), xset=("a",))
    with pytest.raises(ValueError):
        Alphabet(omega=("3bad",))


def test_alphabet_decoration_lookup():
    assert AB.decoration("a").kind == "omega"
    assert AB.decoration("x").kind == "x"
    with pytest.raises(DecorationError):
        AB.decoration("z")
    # sum order over X + Omega is xset then omega, each in declared order
    assert [d.symbol for d in AB.decorations()] == ["x", "y", "a", "b"]


# ------------------------------------------------------- parse and render

@pytest.mark.parametrize("text", [
    "1", "x", "a", "a[x]", "a[x b]", "a[b[x]] y", "b a[x]",
    "a[y b[x]]", "a[a[a[a]]]", "x y x", "a[x] a[x]",
])
def test_round_trip(text):
    f = F(text)
    assert render_forest(f) == text
    assert parse_forest(render_forest(f), AB) is f


def test_parse_normalizes_whitespace_and_empty_brackets():
    assert F("a[ x  b ]") is F("a[x b]")
    # a bracketed empty forest is the same vertex as a bare leaf
    assert F("a[1]") is F("a")


def test_parse_errors_carry_positions():
    with pytest.raises(ForestSyntaxError) as ei:
        parse_forest("a[[x]", AB)
    assert ei.value.pos == 2
    with pytest.raises(ForestSyntaxError):
        parse_forest("a[x", AB)
    with pytest.raises(ForestSyntaxError):
        parse_forest("a]", AB)
    with pytest.raises(ForestSyntaxError):
        parse_forest("", AB)
    with pytest.raises(ForestSyntaxError):
        parse_forest("z", AB)
    with pytest.raises(ForestSyntaxError):
        parse_forest("a[x] ?", AB)


@pytest.mark.parametrize("text, pos", [
    ("a[", 2), ("a b[", 4),    # input ends where a tree is expected
    ("a[[x]", 2), ("a[]", 2),  # a token stands where a tree is expected
])
def test_missing_tree_reports_where_one_is_expected(text, pos):
    with pytest.raises(ForestSyntaxError) as ei:
        parse_forest(text, AB)
    assert ei.value.pos == pos


def test_x_symbols_must_be_leaves():
    with pytest.raises(ForestSyntaxError):
        parse_forest("x[a]", AB)
    with pytest.raises(DecorationError):
        Tree.make(AB.decoration("x"), (Tree.make(AB.decoration("a")),))


# ------------------------------------------------------------- structure

def test_vertex_counts_depth_breadth():
    f = F("a[x b] y")
    assert nvertices(f) == 4
    assert breadth(f) == 2
    assert depth(f) == 2
    # X-leaves sit at depth 0, Omega-vertices add one level each
    assert depth(F("x")) == 0
    assert depth(F("a")) == 1
    assert depth(F("a[x]")) == 1
    assert depth(F("a[b]")) == 2
    assert depth(EMPTY_FOREST) == 0
    assert nvertices(EMPTY_FOREST) == 0


def test_interning_makes_equal_forests_identical():
    assert F("a[x b] y") is F("a[x b] y")
    assert concat(F("a"), F("x")) is F("a x")
    assert concat(EMPTY_FOREST, F("a")) is F("a")
    assert F("a") * F("x") is F("a x")


def test_pickle_and_copy_return_the_interned_instance():
    for f in enumerate_forests(4, AB):
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        for t in f.trees:
            assert pickle.loads(pickle.dumps(t)) is t
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
    # keys hash by identity, so == holds only if every leg comes back
    # as the interned forest
    cop = coproduct(F("a[x b[y]] b"))
    assert pickle.loads(pickle.dumps(cop)) == cop
    assert copy.deepcopy(cop) == cop


def test_every_construction_route_returns_the_interned_instance():
    g = F("a[x] b")
    for f in enumerate_forests(4, AB):
        assert parse_forest(str(f), AB) is f
        assert forest_from_encoding(*f.encoding) is f
        assert restrict(f, biideals(f)[-1]) is f
        assert concat(f, EMPTY_FOREST) is f
        for h in star(f, g).terms:
            assert parse_forest(str(h), AB) is h


def test_threads_racing_on_new_forests_get_one_instance():
    # equality is identity, so two threads that both miss the intern
    # table on one key must still end up holding the same object
    def build(ab, out):
        leaves = [Tree.make(d) for d in ab.decorations()]
        trees = [Tree.make(ab.decoration(o), (c, d))
                 for o in ab.omega for c in leaves for d in leaves]
        out.extend(Forest.make((s, t)) for s in trees for t in trees)
        out.extend(trees)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(5):
            # fresh symbols each round, so every key is new to the tables
            ab = Alphabet(omega=(f"race{r}a", f"race{r}b"),
                          xset=(f"race{r}x", f"race{r}y"))
            results = [[] for _ in range(6)]
            barrier = threading.Barrier(len(results))

            def run(out, ab=ab, barrier=barrier):
                barrier.wait()
                build(ab, out)

            threads = [threading.Thread(target=run, args=(out,))
                       for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            first = results[0]
            assert first
            for other in results[1:]:
                assert len(other) == len(first)
                assert all(a is b for a, b in zip(first, other))
    finally:
        sys.setswitchinterval(old)


def _assert_canonical(forests=(), trees=()):
    for f in forests:
        assert Forest.make(f.trees) is f, str(f)
    for t in trees:
        assert Tree.make(t.deco, t.children) is t, str(t)


def test_sweep_forgets_only_what_nothing_else_holds():
    # fresh symbols, so every instance below is new to the tables
    ab = Alphabet(omega=("swa", "swb"), xset=("swx",))
    a, b = ab.decoration("swa"), ab.decoration("swb")
    base = list(enumerate_forests(3, ab))
    # held only in local lists
    local = [h for f in base[:12] for g in base[:12] for h in star(f, g).terms]
    lone_trees = [graft(a, h) for h in local[::7]]
    # held only as legs of a cached coproduct
    cached = [F("swa[swb[swx swa] swx] swb[swa[swx]] swx", ab),
              F("swb[swa[swa[swb swx]]] swa", ab)]
    for f in cached:
        coproduct(f)
    # returned by pickle.loads
    unpickled = pickle.loads(pickle.dumps(
        [graft(b, h).as_forest() for h in local[::5]]))
    # garbage: forests and trees nothing holds once made
    for f in base[-20:]:
        for g in base[-20:]:
            star(f, g)
    gone = F("swb[swb[swb[swb[swa swx]]]] swa swx", ab).trees
    n_forests, n_trees = len(Forest._intern), len(Tree._intern)

    sweep_interned()

    assert len(Forest._intern) < n_forests
    assert len(Tree._intern) < n_trees
    # a forest only the table held is forgotten; the trees it shares
    # with the held tuple stay
    assert gone not in Forest._intern
    legs = [leg for f in cached for pair in coproduct(f).terms for leg in pair]
    held = base + local + legs + unpickled
    _assert_canonical(held, lone_trees + list(gone)
                      + [t for f in held for t in f.trees])
    _assert_canonical(list(Forest._intern.values()),
                      list(Tree._intern.values()))


def test_graft():
    t = graft(AB.decoration("a"), F("x b"))
    assert render_forest(t.as_forest()) == "a[x b]"
    assert graft(AB.decoration("b"), EMPTY_FOREST).as_forest() is F("b")
    with pytest.raises(DecorationError):
        graft(AB.decoration("x"), F("a"))


def test_encoding_round_trip():
    for text in ["1", "x", "a[x b[y]] a", "b a[x]"]:
        f = F(text)
        parents, decos = f.encoding
        assert forest_from_encoding(parents, decos) is f


# ------------------------------------------------- vertex order / biideals

def test_vertex_order_is_postorder():
    # decreasing "higher or more left": leftmost tree first, children
    # before their root
    f = F("a[x b] y")
    assert [str(v) for v in vertex_order(f)] == ["0/0", "0/1", "0", "1"]
    f2 = F("b a[x]")
    assert [str(v) for v in vertex_order(f2)] == ["0", "1/0", "1"]


def test_postorder_shape():
    # one explicit trace: a[x b] x has preorder (root, x, b, x-root)
    f = F("a[x b] x")
    parents, _ = f.encoding
    assert parents == (-1, 0, 0, -1)
    assert postorder_indices(parents) == (1, 2, 0, 3)


def test_postorder_of_a_deep_path_needs_no_recursion():
    n = 5000
    parents = (-1,) + tuple(range(n - 1))
    assert n > sys.getrecursionlimit()
    assert postorder_indices(parents) == tuple(range(n - 1, -1, -1))


def test_biideals_chain():
    f = F("b a[x]")
    ideals = biideals(f)
    assert len(ideals) == 4
    assert len(ideals[0]) == 0
    for k, ideal in enumerate(ideals):
        assert len(ideal) == k
        if k:
            assert ideals[k - 1].members < ideal.members


def test_vertexset_validates_membership():
    f = F("a[x]")
    with pytest.raises(ValueError):
        VertexSet(f, [VertexId((5,))])
    with pytest.raises(ValueError):
        restrict(f, VertexSet(F("a b"), []))
    with pytest.raises(TypeError):
        restrict(f, {VertexId((0,))})


# ------------------------------------------------------------- restriction

def test_restriction_16_subset_table():
    # d[b[a] c]: vertex k below is the k-th entry of the decreasing
    # listing, so 1 = a (the maximum), 2 = b, 3 = c, 4 = d (the root)
    f = parse_forest("d[b[a] c]", AB4)
    order = vertex_order(f)
    assert f.nvertices == 4
    table = {
        (): "1",
        (1,): "a", (2,): "b", (3,): "c", (4,): "d",
        (1, 2): "b[a]", (1, 3): "a c", (1, 4): "d[a]",
        (2, 3): "b c", (2, 4): "d[b]", (3, 4): "d[c]",
        (1, 2, 3): "b[a] c", (1, 2, 4): "d[b[a]]",
        (1, 3, 4): "d[a c]", (2, 3, 4): "d[b c]",
        (1, 2, 3, 4): "d[b[a] c]",
    }
    for picks, expected in table.items():
        I = VertexSet(f, [order[k - 1] for k in picks])
        assert render_forest(restrict(f, I)) == expected, picks


def _restrict_reference(f, keep_paths):
    """Edge-induced restriction recomputed from index paths only."""
    kept = set(keep_paths)
    idx = {v.path: i for i, v in enumerate(f.paths)}
    decos = f.encoding[1]

    def parent_of(p):
        q = p[:-1]
        while q and q not in kept:
            q = q[:-1]
        return q or None

    kids = {p: [] for p in kept}
    roots = []
    for p in sorted(kept, key=lambda p: idx[p]):
        a = parent_of(p)
        (kids[a] if a is not None else roots).append(p)

    def build(p):
        return Tree.make(decos[idx[p]], tuple(build(c) for c in kids[p]))

    return Forest.make(tuple(build(r) for r in roots))


def test_restriction_matches_edge_induced_reference():
    ab = Alphabet(omega=("a", "b"), xset=("x",))
    for f in enumerate_forests(4, ab):
        paths = [v.path for v in f.paths]
        for mask in range(1 << f.nvertices):
            chosen = [paths[i] for i in range(f.nvertices) if mask >> i & 1]
            got = restrict(f, VertexSet(f, [VertexId(p) for p in chosen]))
            assert got is _restrict_reference(f, chosen)


def test_restriction_boundary_cases():
    f = F("a[y b[x]]")
    assert restrict(f, VertexSet(f, [])) is EMPTY_FOREST
    assert restrict(f, VertexSet(f, f.paths)) is f
    assert restrict(EMPTY_FOREST, VertexSet(EMPTY_FOREST, [])) is EMPTY_FOREST


# ------------------------------------------------------------- enumeration

def test_enumeration_counts_two_omega_one_x():
    ab = Alphabet(omega=("a", "b"), xset=("x",))
    counts = {}
    for f in enumerate_forests(5, ab):
        counts[f.nvertices] = counts.get(f.nvertices, 0) + 1
    assert [counts[n] for n in range(6)] == [1, 3, 15, 93, 645, 4791]


def test_enumeration_counts_one_omega_one_x():
    ab = Alphabet(omega=("a",), xset=("x",))
    counts = {}
    for f in enumerate_forests(5, ab):
        counts[f.nvertices] = counts.get(f.nvertices, 0) + 1
    assert [counts[n] for n in range(6)] == [1, 2, 6, 22, 90, 394]


def test_enumeration_counts_catalan_without_x():
    # one Omega letter and no X: planar forests are counted by Catalan
    ab = Alphabet(omega=("a",))
    counts = {}
    for f in enumerate_forests(5, ab):
        counts[f.nvertices] = counts.get(f.nvertices, 0) + 1
    assert [counts[n] for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_enumeration_is_sorted_and_duplicate_free():
    ab = Alphabet(omega=("a", "b"), xset=("x",))
    out = list(enumerate_forests(3, ab))
    assert len(set(out)) == len(out)
    for prev, cur in zip(out, out[1:]):
        assert (prev.nvertices, str(prev)) < (cur.nvertices, str(cur))


def test_leaf():
    assert leaf(AB.decoration("x")) is F("x")

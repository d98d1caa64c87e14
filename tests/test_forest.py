"""Forests: parsing, rendering, structure, order, biideals, restriction."""

import collections
import copy
import gc
import importlib
import pickle
import pkgutil
import random
import re
import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from forest_bialg import coalgebra, dualprod, freemod, morphisms
from forest_bialg._kernel import postorder_indices
from forest_bialg.coalgebra import coproduct
from forest_bialg.dualprod import star
from forest_bialg.forest import (_CACHES, _ENUM_FORESTS, _INTERNS,
                                 EMPTY_FOREST, Alphabet, DecorationError,
                                 Forest, ForestSyntaxError, Tree, VertexId,
                                 VertexSet, _forest_text, _preorder,
                                 biideals, concat, enumerate_forests,
                                 forest_from_encoding, graft, leaf,
                                 parse_forest, restrict, sweep_interned,
                                 vertex_order)

# the package exports the function prelie under the module's name
prelie = importlib.import_module("forest_bialg.prelie")

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
    assert str(f) == text
    assert parse_forest(str(f), AB) is f


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


# the recursive-descent parser that parse_forest's token pass and stack
# loop replace, kept as the reference for its forests and its errors
_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _ref_tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if ch in "[]":
            toks.append((ch, ch, i))
            i += 1
        elif ch == "1":
            toks.append(("one", "1", i))
            i += 1
        else:
            m = _REF_IDENT.match(text, i)
            if not m:
                raise ForestSyntaxError(f"unexpected character {ch!r}", i)
            toks.append(("ident", m.group(), i))
            i = m.end()
    if not toks:
        raise ForestSyntaxError("empty input", 0)
    return toks


def _ref_forest_at(toks, i, alphabet, text):
    if i < len(toks) and toks[i][0] == "one":
        return EMPTY_FOREST, i + 1
    trees = []
    while i < len(toks) and toks[i][0] == "ident":
        t, i = _ref_tree_at(toks, i, alphabet, text)
        trees.append(t)
    if not trees:
        pos = toks[i][2] if i < len(toks) else len(text)
        raise ForestSyntaxError("expected a tree or '1'", pos)
    return Forest.make(trees), i


def _ref_tree_at(toks, i, alphabet, text):
    _, sym, pos = toks[i]
    deco = alphabet.get(sym)
    if deco is None:
        raise ForestSyntaxError(f"unknown symbol {sym!r}", pos)
    i += 1
    children = EMPTY_FOREST
    if i < len(toks) and toks[i][0] == "[":
        open_pos = toks[i][2]
        children, i = _ref_forest_at(toks, i + 1, alphabet, text)
        if i >= len(toks) or toks[i][0] != "]":
            raise ForestSyntaxError("unbalanced '['", open_pos)
        i += 1
        if children.trees and deco.kind == "x":
            raise ForestSyntaxError(
                f"X-kind symbol {sym!r} cannot decorate an internal vertex",
                pos)
    return Tree.make(deco, children.trees), i


def _ref_parse(text, alphabet):
    toks = _ref_tokenize(text)
    forest, i = _ref_forest_at(toks, 0, alphabet, text)
    if i != len(toks):
        raise ForestSyntaxError("trailing input", toks[i][2])
    return forest


def _outcome(parse, text):
    try:
        return parse(text, AB)
    except ForestSyntaxError as e:
        return str(e), e.pos


def test_parse_agrees_with_the_recursive_parser_on_random_text():
    # one mix of the grammar's own characters, and one with unknown
    # symbols (z, a_, b9) and illegal characters (a tab, 2, é) besides
    rng = random.Random(17)
    seen = collections.Counter()
    for mix in ("ab xy[[]] 1 ", "abz[] 1\t2é_9"):
        for _ in range(150_000):
            text = "".join(rng.choices(mix, k=rng.randrange(14)))
            got = _outcome(parse_forest, text)
            assert got == _outcome(_ref_parse, text), text
            kind = ("forest" if isinstance(got, Forest)
                    else " ".join(got[0].split()[:2]))
            seen[kind] += 1
    # a forest and each of the seven errors, hundreds of times each
    assert len(seen) == 8 and min(seen.values()) > 500, seen


def test_parse_of_a_deep_forest_needs_no_recursion():
    n = 5000
    assert n > sys.getrecursionlimit()
    text = "a[" * n + "b[x] y" + "]" * n + " x"
    f = parse_forest(text, AB)
    assert f.nvertices == n + 4 and f.depth == n + 1
    assert str(f) == text
    assert parse_forest(str(f), AB) is f


# ------------------------------------------------------------- structure

def test_vertex_counts_depth_breadth():
    f = F("a[x b] y")
    assert f.nvertices == 4
    assert f.breadth == 2
    assert f.depth == 2
    # X-leaves sit at depth 0, Omega-vertices add one level each
    assert F("x").depth == 0
    assert F("a").depth == 1
    assert F("a[x]").depth == 1
    assert F("a[b]").depth == 2
    assert EMPTY_FOREST.depth == 0
    assert EMPTY_FOREST.nvertices == 0


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
        assert forest_from_encoding(*_preorder(f)[:2]) is f
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
    # held only as legs of coproducts in a local list, since the sweep
    # releases the coproduct cache itself
    cached = [coproduct(F("swa[swb[swx swa] swx] swb[swa[swx]] swx", ab)),
              coproduct(F("swb[swa[swa[swb swx]]] swa", ab))]
    # returned by pickle.loads
    unpickled = pickle.loads(pickle.dumps(
        [graft(b, h).as_forest() for h in local[::5]]))
    # garbage: forests and trees nothing holds once made
    for f in base[-20:]:
        for g in base[-20:]:
            star(f, g)
    gone = F("swb[swb[swb[swb[swa swx]]]] swa swx", ab).trees
    # a forest nothing holds, whose trees only it holds: the forests'
    # pass must come first for them to go in the same sweep
    only = Alphabet(omega=("ffa",), xset=("ffx",))
    F("ffa[ffa[ffx] ffx] ffa", only)
    n_forests, n_trees = len(Forest._intern), len(Tree._intern)

    sweep_interned()

    assert len(Forest._intern) < n_forests
    assert len(Tree._intern) < n_trees
    assert [t for t in Tree._intern.values()
            if t.deco.symbol in ("ffa", "ffx")] == []
    # a forest only the table held is forgotten; the trees it shares
    # with the held tuple stay
    assert gone not in Forest._intern
    legs = [leg for d in cached for pair in d.terms for leg in pair]
    held = base + local + legs + unpickled
    _assert_canonical(held, lone_trees + list(gone)
                      + [t for f in held for t in f.trees])
    _assert_canonical(list(Forest._intern.values()),
                      list(Tree._intern.values()))


def test_one_sweep_forgets_a_deep_unheld_chain():
    # fresh symbols; each tree of a chain is held by its parent alone, so
    # the sweep must walk the tree table newest first, parents before
    # children, to forget a whole unheld chain in one pass
    ab = Alphabet(omega=("dca", "dcb"), xset=("dcx", "dcy"))
    depth = 5000
    held = F("dcb[" * depth + "dcy" + "]" * depth, ab)
    F("dca[" * depth + "dcx" + "]" * depth, ab)

    def chain_trees(symbols):
        return [t for t in Tree._intern.values() if t.deco.symbol in symbols]

    assert len(chain_trees({"dca", "dcx"})) == depth + 1
    sweep_interned()
    assert chain_trees({"dca", "dcx"}) == []
    trees = [held.trees[0]]
    while trees[-1].children:
        trees.append(trees[-1].children[0])
    assert len(trees) == depth + 1
    _assert_canonical([held], trees)


def test_identity_survives_a_collection_during_a_sweep():
    # a collection may start at any allocation of a sweep, or between
    # any two bytecodes on Python 3.12 and later, and run a finalizer
    # that makes structures: each table must then still hold every live
    # instance, so that make returns it and not a second one
    ab = Alphabet(omega=("gca", "gcb"), xset=("gcx",))
    held = F("gca[gcb[gcx] gcx] gcb", ab)
    t = held.trees[0]
    c = freemod.Coefficient.monomial(Fraction(3, 7), 2, 1, 0)
    checks = []
    armed = [True]

    class Cyclic:
        def __init__(self):
            self.me = self

        def __del__(self):
            checks.append((
                Forest.make(held.trees) is held,
                Tree.make(t.deco, t.children) is t,
                freemod.Coefficient.monomial(Fraction(3, 7), 2, 1, 0) is c))
            if armed[0]:
                Cyclic()

    base = list(enumerate_forests(3, ab))
    for f in base[-12:]:
        for g in base[-12:]:
            star(f, g)
    thresholds, enabled = gc.get_threshold(), gc.isenabled()
    try:
        Cyclic()
        gc.enable()
        gc.set_threshold(1)
        sweep_interned()
        armed[0] = False
        gc.collect()
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()
    assert checks
    assert all(all(check) for check in checks), checks


# module-level dicts that hold static data or live for the process, so
# no sweep registers them
UNSWEPT = ("forest._ENUM_FORESTS", "verify._SUITES", "cli._FLAGS",
           "cli._COMMANDS")


def _module_dicts():
    # every module-level dict of every forest_bialg module, by name
    package = importlib.import_module("forest_bialg")
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"forest_bialg.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, dict) and not name.startswith("__"):
                found[f"{info.name}.{name}"] = value
    return found


def test_a_sweep_releases_every_registered_cache():
    ab = Alphabet(omega=("rla", "rlb"), xset=("rlx",))
    fs = [F("rla[rlb[rlx rla] rlx] rlb", ab), F("rlb[rla[rla]] rlx rla", ab)]
    g = F("rla[rlx] rlb", ab)

    def results():
        return ([coalgebra.coproduct_rec(f) for f in fs]
                + [coalgebra.coproduct_biideal(f) for f in fs]
                + [coalgebra.counit(f) for f in fs]
                + [morphisms.phi_at(f, Fraction(2, 3)) for f in fs]
                + [dualprod.star(f, g) for f in fs]
                + [dualprod.star_lin(f, g) for f in fs]
                + [prelie.bracket_lin(f, g) for f in fs]
                + [forest_from_encoding(*_preorder(f)[:2]) for f in fs])

    # what a sweep releases is data: dicts, never a callable
    assert all(type(table) is dict for table in _CACHES + _INTERNS)
    # the list order is the sweep order: forests release their trees
    assert list(map(id, _INTERNS)) == list(
        map(id, (Forest._intern, Tree._intern, freemod._INTERN)))
    found = _module_dicts()
    known = _CACHES + _INTERNS + [found[name] for name in UNSWEPT]
    # every module-level dict is a registered cache, a registered intern
    # table or a static one, so a cache added without registration fails
    assert [name for name, table in found.items()
            if not any(table is t for t in known)] == []
    caches = {name: table for name, table in found.items()
              if any(table is c for c in _CACHES)}
    assert all(any(c is t for t in caches.values()) for c in _CACHES)
    before = results()
    assert [name for name, c in caches.items() if not c] == []
    # the one table of held rows holds both products' images and star's
    # regrafted prefixes
    assert {f for f, _ in freemod._HELD} == {
        dualprod.star, dualprod._regrafted, prelie.prelie}
    sweep_interned()
    assert [name for name, c in caches.items() if c] == []
    assert results() == before


def test_a_sweep_releases_caches_before_it_counts_coefficients():
    # phi of eleven lone vertices gives C(11, 5) nu^6 = 462 nu^6, a value
    # that only the phi cache and the ring memos hold once the result is
    # dropped; the caches are cleared before any table is counted, so it
    # goes in the same sweep
    ab = Alphabet(omega=("rca",))
    lc = morphisms.phi_forest(F(" ".join(["rca"] * 11), ab))
    key = frozenset(lc.coeff_of(F(" ".join(["rca"] * 5), ab)).terms.items())
    assert key == frozenset({((0, 0, 6), 462)})
    del lc
    assert key in freemod._INTERN
    sweep_interned()
    assert key not in freemod._INTERN


# ------------------------------------------------------------ vertex counts

def _tuples_of_trees(n, ab, memo):
    # every tuple of trees with n vertices in all, made without a Forest,
    # so the forests that the splits below produce are new to the table
    hit = memo.get(n)
    if hit is None:
        hit = [()] if n == 0 else [
            (t,) + rest for k in range(1, n + 1)
            for t in _trees_of(k, ab, memo)
            for rest in _tuples_of_trees(n - k, ab, memo)]
        memo[n] = hit
    return hit


def _trees_of(k, ab, memo):
    if k == 1:
        return [Tree.make(d) for d in ab.decorations()]
    return [Tree.make(ab.decoration(w), kids) for w in ab.omega
            for kids in _tuples_of_trees(k - 1, ab, memo)]


def _make_forests_by_every_route():
    """Make forests and trees by every route the package has, on symbols
    new to the intern tables; return what they made."""
    one = Alphabet(omega=("vca",), xset=("vcx", "vcy"))
    a = one.decoration("vca")
    made = [parse_forest(text, one) for text in (
        "vca[vcx vca[vcy]] vcx", "vca[vca[vca[vcx]]]", "vcx vcy vca")]
    made += [leaf(d) for d in one.decorations()]
    small = list(enumerate_forests(3, one))
    made += [graft(a, f) for f in small]
    made += [dualprod.star(f, g) for f in small for g in small]
    made += [concat(f, g) for f in small for g in small]
    made += [f * g for f in small for g in small]
    tiny = list(enumerate_forests(2, one))
    made += [dualprod.star_weighted(f, g, one) for f in tiny for g in tiny]
    for f in small:
        paths = _preorder(f)[2]
        for mask in range(1 << len(paths)):
            keep = [p for i, p in enumerate(paths) if mask >> i & 1]
            made.append(restrict(f, VertexSet(f, keep)))
    made += [morphisms.phi_subsets(f) for f in small]
    # largest first, so the splits of the largest forests are made by
    # biideal_splits, not found in the table from an earlier make
    two = Alphabet(omega=("vca", "vcb"), xset=("vcx",))
    memo = {}
    for n in range(5, -1, -1):
        made += [coalgebra.coproduct_biideal(Forest.make(trees))
                 for trees in _tuples_of_trees(n, two, memo)]
    return made


def _miscounted():
    bad = [repr(f) for f in list(Forest._intern.values())
           if f.nvertices != sum(t.nvertices for t in f.trees)]
    bad += [repr(t) for t in list(Tree._intern.values())
            if t.nvertices != 1 + sum(c.nvertices for c in t.children)]
    return bad


def test_every_interned_forest_and_tree_holds_its_exact_vertex_count():
    made = _make_forests_by_every_route()
    assert made
    assert _miscounted() == []


def _depth_rec(t):
    if t.deco.kind == "x":
        return 0
    return 1 + max((_depth_rec(c) for c in t.children), default=0)


def test_depth_matches_the_recursive_definition():
    ab = Alphabet(omega=("a", "b"), xset=("x",))
    for f in enumerate_forests(5, ab):
        assert f.depth == max(map(_depth_rec, f.trees), default=0), str(f)


def test_depth_of_a_deep_path_needs_no_recursion():
    n = 5000
    assert n > sys.getrecursionlimit()
    a, x = AB.decoration("a"), AB.decoration("x")
    t = Tree.make(x)
    for _ in range(n - 1):
        t = Tree.make(a, (t,))
    f = t.as_forest()
    assert f.nvertices == n
    assert f.depth == n - 1
    assert (f * F("b[a]")).depth == n - 1
    assert (F("b[a]") * f * F("x")).depth == n - 1


def _text_rec(t):
    # the recursive definition the explicit-stack walk of Tree.__str__
    # replaces
    if not t.children:
        return t.deco.symbol
    return f"{t.deco.symbol}[{' '.join(map(_text_rec, t.children))}]"


def test_text_matches_the_recursive_definition():
    for f in enumerate_forests(5, Alphabet(omega=("a", "b"), xset=("x",))):
        assert str(f) == (" ".join(map(_text_rec, f.trees)) or "1")


def test_text_through_one_shared_memo_matches_the_recursive_definition():
    # as a LinComb's output and an enumeration's sort render: one memo for
    # many forests, so a subtree first met inside a larger tree is met
    # again on its own and inside other trees
    memo = {}
    forests = list(enumerate_forests(5, Alphabet(omega=("a", "b"),
                                                 xset=("x",))))
    for f in forests + forests[::-1]:
        assert _forest_text(f, memo) == (" ".join(map(_text_rec, f.trees))
                                         or "1")


def test_text_of_a_deep_tree_needs_no_recursion():
    n = 5000
    assert n > sys.getrecursionlimit()
    a, b, x, y = (AB.decoration(s) for s in "abxy")
    # every level has a sibling on alternating sides, so separators and
    # closing brackets of every nesting depth are written
    t = Tree.make(x)
    for i in range(n):
        t = Tree.make(a, (t, Tree.make(y)) if i % 2 else (Tree.make(b), t))
    prefix = suffix = ""
    for i in range(n - 1, -1, -1):
        prefix += "a[" if i % 2 else "a[b "
        suffix = (" y]" if i % 2 else "]") + suffix
    assert str(t) == prefix + "x" + suffix
    assert str(F("b") * t.as_forest()) == "b " + prefix + "x" + suffix


def test_graft():
    t = graft(AB.decoration("a"), F("x b"))
    assert str(t.as_forest()) == "a[x b]"
    assert graft(AB.decoration("b"), EMPTY_FOREST).as_forest() is F("b")
    with pytest.raises(DecorationError):
        graft(AB.decoration("x"), F("a"))


def test_encoding_round_trip():
    for text in ["1", "x", "a[x b[y]] a", "b a[x]"]:
        f = F(text)
        parents, decos = _preorder(f)[:2]
        assert forest_from_encoding(parents, decos) is f


def _preorder_reference(f):
    # the recursive definitions the explicit-stack walks replace
    parents, decos, paths = [], [], []

    def walk(t, parent, path):
        idx = len(parents)
        parents.append(parent)
        decos.append(t.deco)
        paths.append(VertexId(path))
        for i, c in enumerate(t.children):
            walk(c, idx, path + (i,))

    for i, t in enumerate(f.trees):
        walk(t, -1, (i,))
    return (tuple(parents), tuple(decos)), tuple(paths)


def test_encoding_and_paths_follow_the_recursive_preorder():
    for f in enumerate_forests(5, Alphabet(omega=("a", "b"), xset=("x",))):
        parents, decos, paths = _preorder(f)
        assert ((parents, decos), paths) == _preorder_reference(f)
        assert _preorder(f)[:2] == (parents, decos)
        assert forest_from_encoding(*_preorder(f)[:2]) is f


def test_encoding_and_paths_of_a_deep_path_need_no_recursion():
    n = 5000
    assert n > sys.getrecursionlimit()
    a, x = AB.decoration("a"), AB.decoration("x")
    t = Tree.make(x)
    for _ in range(n - 1):
        t = Tree.make(a, (t,))
    f = F("b") * t.as_forest()
    parents, decos = _preorder(f)[:2]
    assert parents == (-1, -1) + tuple(range(1, n))
    assert decos == (AB.decoration("b"),) + (a,) * (n - 1) + (x,)
    paths = _preorder(f)[2]
    assert len(paths) == n + 1
    assert paths[0].path == (0,) and paths[-1].path == (1,) + (0,) * (n - 1)
    assert [len(p.path) for p in paths[1:]] == list(range(1, n + 1))
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
    parents, _ = _preorder(f)[:2]
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
        assert str(restrict(f, I)) == expected, picks


def _restrict_reference(f, keep_paths):
    """Edge-induced restriction recomputed from index paths only."""
    kept = set(keep_paths)
    idx = {v.path: i for i, v in enumerate(_preorder(f)[2])}
    decos = _preorder(f)[1]

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
        paths = [v.path for v in _preorder(f)[2]]
        for mask in range(1 << f.nvertices):
            chosen = [paths[i] for i in range(f.nvertices) if mask >> i & 1]
            got = restrict(f, VertexSet(f, [VertexId(p) for p in chosen]))
            assert got is _restrict_reference(f, chosen)


def test_restriction_boundary_cases():
    f = F("a[y b[x]]")
    assert restrict(f, VertexSet(f, [])) is EMPTY_FOREST
    assert restrict(f, VertexSet(f, _preorder(f)[2])) is f
    assert restrict(EMPTY_FOREST, VertexSet(EMPTY_FOREST, [])) is EMPTY_FOREST


# ------------------------------------------------------------- enumeration

def _closed_form_counts(n_omega, n_x, n_max):
    """[f_0, ..., f_n_max], f_n the number of forests of n vertices over
    |Omega| = n_omega and |X| = n_x, from no enumeration: a forest of n
    vertices with j leaves is a planar tree of n edges with j leaves,
    which the Narayana number N(n, j) = C(n, j) C(n, j - 1) / n counts,
    and a leaf takes any symbol, an internal vertex one of Omega."""
    counts = [1]
    for n in range(1, n_max + 1):
        counts.append(sum(
            comb(n, j) * comb(n, j - 1) // n
            * (n_omega + n_x) ** j * n_omega ** (n - j)
            for j in range(1, n + 1)))
    return counts


def test_the_closed_form_gives_the_recorded_counts():
    assert _closed_form_counts(2, 1, 5) == [1, 3, 15, 93, 645, 4791]
    assert _closed_form_counts(1, 1, 5) == [1, 2, 6, 22, 90, 394]
    # one Omega letter and no X: planar forests are counted by Catalan
    assert _closed_form_counts(1, 0, 5) == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("n_omega, n_x, n_max", [
    (1, 0, 7), (1, 1, 6), (2, 1, 6), (1, 2, 5), (2, 2, 5), (3, 0, 5),
    (3, 2, 4)])
def test_enumeration_counts_match_the_closed_form(n_omega, n_x, n_max):
    # fresh symbols, so that the universe is enumerated here and not read
    # back from an earlier test; it is dropped again afterwards
    ab = Alphabet(omega=[f"cfo{i}" for i in range(n_omega)],
                  xset=[f"cfx{i}" for i in range(n_x)])
    try:
        counts = collections.Counter(
            f.nvertices for f in enumerate_forests(n_max, ab))
    finally:
        for n in range(n_max + 1):
            _ENUM_FORESTS.pop((n, ab), None)
    assert ([counts[n] for n in range(n_max + 1)]
            == _closed_form_counts(n_omega, n_x, n_max))


def test_enumeration_is_sorted_and_duplicate_free():
    ab = Alphabet(omega=("a", "b"), xset=("x",))
    out = list(enumerate_forests(3, ab))
    assert len(set(out)) == len(out)
    for prev, cur in zip(out, out[1:]):
        assert (prev.nvertices, str(prev)) < (cur.nvertices, str(cur))


def test_leaf():
    assert leaf(AB.decoration("x")) is F("x")

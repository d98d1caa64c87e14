"""Pairing, left grafting products, and the duality with the coproduct."""

import itertools
import random
import sys
import threading
from bisect import bisect_left
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_bialg.coalgebra import coproduct
from forest_bialg.dualprod import pairing, star, star_lin, star_weighted
from forest_bialg.forest import (EMPTY_FOREST, KIND_X, Alphabet, Forest,
                                 Tree, enumerate_forests, leaf,
                                 parse_forest)
from forest_bialg.freemod import LAM, MU, ONE, ZERO, Coefficient, LinComb
from forest_bialg.verify import _left_path_len

AB = Alphabet(omega=("a", "b"), xset=("x",))
AXY = Alphabet(omega=("a",), xset=("x", "y"))


def F(text):
    return parse_forest(text, AB)


def test_pairing_is_orthonormal():
    small = list(enumerate_forests(3, AB))
    for f, g in itertools.product(small, repeat=2):
        assert pairing(f, g) == (ONE if f is g else ZERO)


def test_pairing_a_forest_with_a_lincomb_reads_its_coefficient():
    x = LinComb.single(F("a"), MU) + LinComb.single(F("b[x]"), -LAM)
    for text in ("a", "b[x]", "b", "1"):
        assert pairing(F(text), x) is x.coeff_of(F(text))
    assert pairing(F("b"), x) is ZERO
    assert pairing(F("a"), LinComb()) is ZERO
    assert pairing(F("a"), LinComb.single((F("a"), F("1")))) is ZERO


def test_pairing_a_tensor_basis_with_a_lincomb_reads_its_coefficient():
    a, bx, one = F("a"), F("b[x]"), F("1")
    t = coproduct(F("a[b[x]]"))
    for y, z in itertools.product((a, bx, one, F("a[b[x]]"), F("x")), repeat=2):
        assert pairing((y, z), t) is pairing(LinComb.single((y, z)), t)
        assert pairing((y, z), t) is t.coeff_of((y, z))
    assert pairing((bx, a), t) is -LAM
    assert pairing((a, bx), t) is ZERO
    assert pairing((a, one), LinComb()) is ZERO


def test_operands_are_forests_or_lincombs():
    # a Tree is neither: its forest is spelled t.as_forest()
    t = F("a[x]").trees[0]
    for call in (lambda: pairing(t, F("a")), lambda: star_lin(F("a"), t),
                 lambda: star_weighted(t, F("a"), AB)):
        with pytest.raises(TypeError):
            call()
    assert star_lin(t.as_forest(), F("a")) == star(F("a[x]"), F("a"))


def test_pairing_is_bilinear_on_tensors():
    x = LinComb.single((F("a"), F("x")), MU) + LinComb.single((F("b"), F("1")), -LAM)
    y = LinComb.single((F("a"), F("x")), LAM)
    assert pairing(x, y) == MU * LAM
    assert pairing(x, LinComb.single((F("b"), F("1")))) == -LAM


def test_left_path_lengths():
    # the count of graft positions that star-census checks star against
    assert _left_path_len(EMPTY_FOREST) == 0
    assert _left_path_len(F("x")) == 0  # X terminal is not a graft target
    assert _left_path_len(F("a")) == 1
    assert _left_path_len(F("a[x]")) == 1
    assert _left_path_len(F("a[b[x] a] b")) == 2
    assert _left_path_len(F("a[b]")) == 2


def test_star_units():
    for text in ("1", "x", "a[x b]", "a b"):
        f = F(text)
        assert star(f, EMPTY_FOREST) == LinComb.single(f)
        assert star(EMPTY_FOREST, f) == LinComb.single(f)


def test_star_term_census_instances():
    cases = [("a b", "a[b[x]]"), ("x a", "b"), ("a b x", "a[b]")]
    for ftext, gtext in cases:
        f, g = F(ftext), F(gtext)
        prod = star(f, g)
        m, n = f.breadth, _left_path_len(g)
        assert len(prod.terms) == comb(m + n, n)
        assert all(c == ONE for c in prod.terms.values())


def star_by_sigma(f, g):
    """Reference star: one grafting per weakly increasing sigma.

    Trees sent to target j form the slice trees[lo:hi] found by bisect on
    sigma; each spine node is regrafted from the bottom of the path up.
    """
    spine = []
    node = g.trees[0] if g.trees else None
    while node is not None:
        spine.append(node)
        node = node.children[0] if node.children else None
    if spine and spine[-1].deco.kind == KIND_X:
        spine.pop()
    trees = f.trees
    acc = {}
    for sigma in itertools.combinations_with_replacement(
            range(len(spine) + 1), len(trees)):
        hi, sub = len(trees), ()
        for j in range(len(spine), 0, -1):
            lo = bisect_left(sigma, j, 0, hi)
            node = spine[j - 1]
            sub = (Tree.make(node.deco,
                             trees[lo:hi] + sub + node.children[len(sub):]),)
            hi = lo
        H = Forest.make(trees[:hi] + sub + g.trees[len(sub):])
        acc[H] = acc.get(H, ZERO) + ONE
    return LinComb(acc)


@pytest.mark.parametrize("ab", [AB, AXY], ids=["ab-x", "a-xy"])
def test_star_matches_sigma_by_sigma_grafting(ab):
    small = list(enumerate_forests(3, ab))
    for f, g in itertools.product(small, repeat=2):
        got, want = star(f, g), star_by_sigma(f, g)
        assert got == want, (str(f), str(g))
        assert str(got) == str(want)


def _star_pairs(ab):
    """Every pair of forests of <= 3 vertices with its reference product,
    G in the outer loop so that consecutive calls change F."""
    small = list(enumerate_forests(3, ab))
    return [(f, g, star_by_sigma(f, g)) for g in small for f in small]


@pytest.mark.parametrize("ab", [AB, AXY], ids=["ab-x", "a-xy"])
def test_star_memo_survives_a_new_f_on_every_call(ab):
    pairs = _star_pairs(ab)
    for f, g, want in pairs:
        assert star(f, g) == want, (str(f), str(g))
    random.Random(10).shuffle(pairs)
    for f, g, want in pairs:
        assert star(f, g) == want, (str(f), str(g))


@pytest.mark.parametrize("ab", [AB, AXY], ids=["ab-x", "a-xy"])
def test_star_memo_is_safe_across_threads(ab):
    pairs = _star_pairs(ab)
    wrong, finished = [], []

    def run(seed):
        mine = list(pairs)
        random.Random(seed).shuffle(mine)
        wrong.extend((str(f), str(g)) for f, g, want in mine
                     if star(f, g) != want)
        finished.append(seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("ftext, gtext, nterms", [
    ("1", "1", 1),
    ("a b", "x", 1),
    ("a b", "a[x]", 3),
    ("a b a b a", "a[a[a[a[a[x]]]]]", 252),
    ("a x b[x] a[b] x b", "b", 7),
])
def test_star_edge_cases_match_sigma_by_sigma(ftext, gtext, nterms):
    f, g = F(ftext), F(gtext)
    got, want = star(f, g), star_by_sigma(f, g)
    assert got == want
    assert str(got) == str(want)
    assert len(got.terms) == nterms
    assert all(c == ONE for c in got.terms.values())


def test_star_single_graft_instance():
    # a star b ranges over target slots: in front of b or under it
    assert star(F("a"), F("b")) == \
        LinComb.single(F("a b")) + LinComb.single(F("b[a]"))


def test_star_respects_existing_children():
    # grafted trees land in front of the target's child list
    prod = star(F("a"), F("b[x]"))
    assert prod.coeff_of(F("b[a x]")) == ONE
    assert prod.coeff_of(F("b[x a]")) == ZERO


def test_weighted_star_of_units():
    want = LinComb.single(EMPTY_FOREST, -LAM)
    for d in ("x", "a", "b"):
        want = want + LinComb.single(F(d), MU)
    assert star_weighted(EMPTY_FOREST, EMPTY_FOREST, AB) == want


def test_star_associativity_instances():
    triples = [("a", "b", "a"), ("x", "a[x]", "b"), ("a b", "a", "x")]
    for tx, ty, tz in triples:
        x, y, z = F(tx), F(ty), F(tz)
        assert star_lin(star(x, y), z) == star_lin(x, star(y, z))


def test_coproduct_duality_small():
    # <D(x), y (x) z> = <x, y star_{l,m} z>
    ambient = list(enumerate_forests(3, AB))
    legs = list(enumerate_forests(2, AB))
    for y, z in itertools.product(legs, repeat=2):
        prod = star_weighted(y, z, AB)
        for x in ambient:
            lhs = pairing(coproduct(x), LinComb.single((y, z)))
            assert lhs == pairing(x, prod)


def test_star_accepts_lincomb_arguments():
    x = LinComb.single(F("a"), MU)
    assert star_lin(x, F("b")) == star_lin(F("a"), F("b")).scale(MU)
    assert star_lin(leaf(AB.decoration("a")), F("b")) == star(F("a"), F("b"))


def _star_lin_reference(x, y):
    """Bilinear extension of star by nested running sums."""
    out = LinComb()
    for f, c in x.terms.items():
        for g, d in y.terms.items():
            out = out + star(f, g).scale(c * d)
    return out


def _star_weighted_reference(x, y, ab):
    out = _star_lin_reference(x, y).scale(-LAM)
    for deco in ab.decorations():
        dot = LinComb.single(leaf(deco), MU)
        out = out + _star_lin_reference(_star_lin_reference(x, dot), y)
    return out


SMALL2 = list(enumerate_forests(2, AB))
# opposite coefficients on overlapping forests make images cancel
signed = st.sampled_from([MU, -MU, LAM, -LAM, ONE, -ONE,
                          Coefficient.monomial(2, a=1, b=1)])
lincombs = st.lists(st.tuples(st.sampled_from(SMALL2), signed), max_size=4).map(
    lambda pairs: sum((LinComb.single(f, c) for f, c in pairs), LinComb()))


@settings(max_examples=200)
@given(lincombs, lincombs)
def test_star_products_match_nested_sums(x, y):
    got = star_lin(x, y)
    assert got == _star_lin_reference(x, y)
    assert all(got.terms.values())
    got = star_weighted(x, y, AB)
    assert got == _star_weighted_reference(x, y, AB)
    assert all(got.terms.values())


def test_star_products_drop_terms_that_cancel_across_pairs():
    # (1 - g) star (g + 1) = g + 1 - g star g - g: the pairs (1, g) and
    # (g, 1) both give g, with opposite signs
    g = F("a[x]")
    one = LinComb.single(EMPTY_FOREST)
    x = one - LinComb.single(g)
    y = LinComb.single(g) + one
    got = star_lin(x, y)
    assert got == one - star(g, g)
    assert g not in got.terms
    assert all(got.terms.values())
    # the -l part cancels g the same way; every m term has 1, 3 or 5
    # vertices, so g is gone from the weighted product too
    got = star_weighted(x, y, AB)
    assert got == _star_weighted_reference(x, y, AB)
    assert g not in got.terms
    assert all(got.terms.values())

"""Coproduct axioms and counit values on small forests."""

import itertools

import pytest

from forest_bialg._kernel import biideal_splits
from forest_bialg.coalgebra import (coproduct, coproduct_biideal,
                                    coproduct_left, coproduct_lin,
                                    coproduct_rec, coproduct_right, counit,
                                    counit_left, counit_right)
from forest_bialg.forest import (EMPTY_FOREST, Alphabet, VertexSet, _preorder,
                                 biideals, concat, enumerate_forests, graft,
                                 parse_forest, restrict)
from forest_bialg.freemod import LAM, MU, Coefficient, LinComb, act_left, act_right
from forest_bialg.morphisms import phi

AB = Alphabet(omega=("a", "b"), xset=("x",))
ABXY = Alphabet(omega=("a", "b"), xset=("x", "y"))


def F(text):
    return parse_forest(text, AB)


def test_empty_forest_coproduct():
    want = LinComb.single((EMPTY_FOREST, EMPTY_FOREST), -LAM)
    assert coproduct_rec(EMPTY_FOREST) == want
    assert coproduct_biideal(EMPTY_FOREST) == want


def test_single_vertex_coproduct():
    for text in ("x", "a"):
        f = F(text)
        want = (LinComb.single((EMPTY_FOREST, EMPTY_FOREST), MU)
                + LinComb.single((f, EMPTY_FOREST), -LAM)
                + LinComb.single((EMPTY_FOREST, f), -LAM))
        assert coproduct(f) == want


def test_grafting_cocycle_instance():
    # D(B(F)) = -l B(F) (x) 1 + m F (x) 1 + (id (x) B) D(F) with F = x b
    f = F("x b")
    t = graft(AB.decoration("a"), f).as_forest()
    lifted = coproduct(f).map_basis(
        lambda legs: (legs[0], graft(AB.decoration("a"), legs[1]).as_forest()))
    want = (LinComb.single((t, EMPTY_FOREST), -LAM)
            + LinComb.single((f, EMPTY_FOREST), MU)
            + lifted)
    assert coproduct(t) == want


def test_product_derivation_instance():
    f, g = F("a"), F("b[x]")
    fg = concat(f, g)
    want = (act_left(f, coproduct(g)) + act_right(coproduct(f), g)
            + LinComb.single((f, g), LAM))
    assert coproduct(fg) == want


def test_rec_and_biideal_agree_small():
    for h in enumerate_forests(4, AB):
        assert coproduct_rec(h) == coproduct_biideal(h)


SPLIT_EDGE_CASES = [
    EMPTY_FOREST,
    F("x"),
    F("a[" * 60 + "x" + "]" * 60),
    F("x a b[x] a[x x] b x a[b] x b[a[x]] a x b"),
    parse_forest("a[b[x y] x] b[x]", ABXY),
]


def test_biideal_splits_match_restriction():
    for h in itertools.chain(enumerate_forests(5, AB), SPLIT_EDGE_CASES):
        splits = biideal_splits(h)
        ideals = biideals(h)
        everything = frozenset(_preorder(h)[2])
        assert len(splits) == len(ideals) == h.nvertices + 1
        for (first, second), ideal in zip(splits, ideals):
            rest = VertexSet(h, everything - ideal.members)
            assert first is restrict(h, ideal)
            assert second is restrict(h, rest)


def test_coproduct_biideal_term_shape():
    # 2n + 1 distinct keys, so no coefficient is ever summed
    neg_lam = -LAM
    for h in enumerate_forests(5, AB):
        n = h.nvertices
        coeffs = list(coproduct_biideal(h).terms.values())
        assert len(coeffs) == 2 * n + 1
        assert sum(c == neg_lam for c in coeffs) == n + 1
        assert sum(c == MU for c in coeffs) == n


def test_coassociativity_small():
    for h in enumerate_forests(4, AB):
        cop = coproduct(h)
        assert coproduct_left(cop) == coproduct_right(cop)


def _leg_map_reference(t, i, f):
    """f on leg i of pair tensors by one tensor per term, then apply."""
    if i == 0:
        return t.apply(lambda legs: f(legs[0]).tensor(LinComb.single(legs[1])))
    return t.apply(lambda legs: LinComb.single(legs[0]).tensor(f(legs[1])))


def test_apply_leg_matches_tensor_then_apply():
    # coproduct images are pairs (triple keys), phi images forests (pair keys)
    for h in enumerate_forests(4, AB):
        t = coproduct(h)
        for f in (coproduct, phi):
            for i in (0, 1):
                got = t.apply_leg(i, f)
                assert got == _leg_map_reference(t, i, f)
                assert all(got.terms.values())
        assert coproduct_left(t) == t.apply_leg(0, coproduct)
        assert coproduct_right(t) == t.apply_leg(1, coproduct)


def test_counit_values():
    assert counit(EMPTY_FOREST) == Coefficient.monomial(-1, a=-1)
    assert counit(F("x")) == Coefficient.monomial(-1, a=-2, b=1)
    assert counit(F("a[b] x")) == Coefficient.monomial(-1, a=-4, b=3)
    assert str(counit(F("x"))) == "-m*l^-2"


def test_counit_is_two_sided():
    for h in enumerate_forests(4, AB):
        cop = coproduct(h)
        one = LinComb.single(h)
        assert counit_left(cop) == one
        assert counit_right(cop) == one


def test_counit_multiplicative_only_at_minus_one():
    # e(FG) = e(F) e(G) after setting l = -1; the unit pair witnesses
    # failure at l = +1.
    small = list(enumerate_forests(2, AB))
    for f, g in itertools.product(small, repeat=2):
        lhs = counit(concat(f, g)).subst_partial(lam=-1)
        rhs = (counit(f) * counit(g)).subst_partial(lam=-1)
        assert lhs == rhs
    lhs = counit(EMPTY_FOREST).subst_partial(lam=1)
    rhs = (counit(EMPTY_FOREST) * counit(EMPTY_FOREST)).subst_partial(lam=1)
    assert lhs != rhs


def test_coproduct_is_memoized():
    f = F("a[x b]")
    assert coproduct(f) is coproduct(f)
    assert coproduct_rec(f) is coproduct_rec(f)


def test_coproduct_lin_extends_linearly():
    x = LinComb.single(F("a"), MU) + LinComb.single(F("x"), -LAM)
    want = coproduct(F("a")).scale(MU) + coproduct(F("x")).scale(-LAM)
    assert coproduct_lin(x) == want


def test_coproduct_lin_takes_a_forest_as_its_single_term():
    f = F("a[x b]")
    assert coproduct_lin(f) == coproduct(f)
    for bad in (f.trees[0], "a[x b]"):
        with pytest.raises(TypeError):
            coproduct_lin(bad)

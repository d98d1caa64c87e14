"""Pre-Lie product values, the left pre-Lie law, and the induced bracket."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_bialg import freemod
from forest_bialg.forest import EMPTY_FOREST, Alphabet, enumerate_forests, parse_forest
from forest_bialg.freemod import LAM, MU, Coefficient, LinComb
from forest_bialg.prelie import (bracket, bracket_lin, prelie, prelie_lin,
                                 prelie_sandwich)

AB = Alphabet(omega=("a", "b"), xset=("x",))


def F(text):
    return parse_forest(text, AB)


def lc(f):
    return LinComb.single(f)


def test_unit_into_vertex():
    # 1 |> x inserts 1 into every cut of D(x)
    want = LinComb.single(EMPTY_FOREST, MU) \
        + LinComb.single(F("x"), Coefficient.monomial(-2, a=1))
    assert prelie(EMPTY_FOREST, F("x")) == want


def test_vertex_into_unit():
    # D(1) has the single term -l 1 (x) 1
    assert prelie(F("x"), EMPTY_FOREST) == LinComb.single(F("x"), -LAM)


def test_sandwich_keeps_argument_in_the_middle():
    # a |> b[x] places a between the cut legs, never inside them
    prod = prelie(F("a"), F("b[x]"))
    want = (LinComb.single(F("a b[x]"), -LAM)
            + LinComb.single(F("x a b"), -LAM)
            + LinComb.single(F("b[x] a"), -LAM)
            + LinComb.single(F("a b"), MU)
            + LinComb.single(F("x a"), MU))
    assert prod == want
    assert prod.coeff_of(F("b[a x]")) == Coefficient()


def test_biideal_and_recursive_routes_agree():
    small = list(enumerate_forests(2, AB))
    for f, g in itertools.product(small, repeat=2):
        assert prelie(f, g) == prelie_sandwich(f, g)


def test_bracket_is_alternating():
    for f in enumerate_forests(3, AB):
        assert not bracket(f, f)


def test_bracket_antisymmetry():
    small = list(enumerate_forests(2, AB))
    for f, g in itertools.product(small, repeat=2):
        assert bracket(f, g) == -bracket(g, f)


AB1 = Alphabet(omega=("a",), xset=("x",))


def test_left_prelie_identity_small():
    # (x |> y) |> z - x |> (y |> z) is symmetric in x, y
    small = list(enumerate_forests(2, AB1))
    for x, y, z in itertools.product(small, repeat=3):
        a1 = prelie_lin(prelie(x, y), lc(z)) - prelie_lin(lc(x), prelie(y, z))
        a2 = prelie_lin(prelie(y, x), lc(z)) - prelie_lin(lc(y), prelie(x, z))
        assert a1 == a2


def test_jacobi_small():
    small = list(enumerate_forests(2, AB1))
    for x, y, z in itertools.product(small, repeat=3):
        total = (bracket_lin(bracket(x, y), lc(z))
                 + bracket_lin(bracket(y, z), lc(x))
                 + bracket_lin(bracket(z, x), lc(y)))
        assert not total


def _prelie_lin_reference(x, y, product=prelie):
    """Bilinear extension by nested running sums, one copy per term."""
    out = LinComb()
    for F2, d in y.terms.items():
        inner = LinComb()
        for F1, c in x.terms.items():
            inner = inner + product(F1, F2).scale(c)
        out = out + inner.scale(d)
    return out


SMALL1 = list(enumerate_forests(2, AB1))
# opposite coefficients on overlapping forests make images cancel
signed = st.sampled_from([MU, -MU, LAM, -LAM, Coefficient.monomial(1),
                          Coefficient.monomial(-1)])
lincombs = st.lists(st.tuples(st.sampled_from(SMALL1), signed), max_size=4).map(
    lambda pairs: sum((LinComb.single(f, c) for f, c in pairs), LinComb()))


@settings(max_examples=200)
@given(lincombs, lincombs, st.sampled_from([prelie, prelie_sandwich, bracket]))
def test_prelie_lin_matches_nested_sums(x, y, product):
    # prelie_lin is the one-pass sum of prelie; the sandwich oracle and
    # the bracket go through the same freemod._add_products
    got = freemod._add_products({}, x, y, product)
    assert got == _prelie_lin_reference(x, y, product)
    assert all(got.terms.values())
    if product is prelie:
        assert prelie_lin(x, y) == got
    assert freemod._add_products({}, x, x, bracket).terms == {}


@settings(max_examples=200)
@given(lincombs, lincombs)
def test_bracket_lin_is_the_difference_of_both_orders(x, y):
    got = bracket_lin(x, y)
    assert got == prelie_lin(x, y) - prelie_lin(y, x)
    assert all(got.terms.values())
    assert bracket_lin(x, x).terms == {}


def test_operands_are_forests_or_lincombs():
    # a Forest is its single term; a Tree is neither
    x, y = F("a[x]"), F("b x")
    assert prelie_lin(x, y) == prelie(x, y) == prelie_lin(lc(x), y)
    assert bracket_lin(x, y) == bracket(x, y) == bracket_lin(x, lc(y))
    t = x.trees[0]
    for call in (lambda: prelie_lin(t, y), lambda: prelie_lin(x, t),
                 lambda: bracket_lin(t, y), lambda: bracket_lin(x, "b")):
        with pytest.raises(TypeError):
            call()

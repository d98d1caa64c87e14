"""Coproduct axioms and counit values on small forests."""

import itertools
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forest_bialg._kernel import biideal_splits
from forest_bialg.coalgebra import (_rec_concat, _rec_graft, coproduct,
                                    coproduct_biideal,
                                    coproduct_left, coproduct_lin,
                                    coproduct_rec, coproduct_right, counit,
                                    counit_left, counit_right)
from forest_bialg.forest import (EMPTY_FOREST, Alphabet, VertexSet, _preorder,
                                 biideals, concat, enumerate_forests, graft,
                                 parse_forest, restrict)
from forest_bialg.freemod import (LAM, MU, NU, ONE, Coefficient, LinComb,
                                  act_left, act_right)
from forest_bialg.morphisms import phi

from helpers import fresh_env

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


def test_derivation_rule_adds_the_terms_that_meet():
    # a . D(b), D(a) . b and l (a (x) b) each have a term on (a, b):
    # -l - l + l
    key = (F("a"), F("b"))
    got = coproduct_rec(F("a b"))
    assert got.terms[key] is coproduct_biideal(F("a b")).terms[key] is -LAM
    assert got == coproduct_biideal(F("a b"))


SMALL = list(enumerate_forests(2, AB))
TREES = [f for f in SMALL if len(f.trees) == 1]
OMEGA = [AB.decoration(w) for w in ("a", "b")]
# opposite coefficients, and l against -l, on overlapping pairs make the
# three parts of a rule cancel
signed = st.sampled_from([ONE, -ONE, LAM, -LAM, MU, -MU, NU])
pairs = st.lists(st.tuples(st.tuples(st.sampled_from(SMALL),
                                     st.sampled_from(SMALL)), signed),
                 max_size=5).map(
    lambda terms: sum((LinComb.single(k, c) for k, c in terms), LinComb()))


@settings(max_examples=300)
@given(st.sampled_from(OMEGA), st.sampled_from(SMALL), pairs)
def test_graft_rule_matches_its_nested_sums(w, bar, inner):
    # the one-pass cocycle rule against its three terms, built from
    # public operations, on any signed pair tensor
    got = _rec_graft(w, bar, inner)
    want = (LinComb.single((graft(w, bar).as_forest(), EMPTY_FOREST), -LAM)
            + LinComb.single((bar, EMPTY_FOREST), MU)
            + inner.map_basis(
                lambda legs: (legs[0], graft(w, legs[1]).as_forest())))
    assert got == want
    assert all(got.terms.values())


@settings(max_examples=300)
@given(st.sampled_from(TREES), pairs, st.sampled_from(SMALL[1:]), pairs)
# -l (1 (x) b) puts -l a (x) b against l (a (x) b)
@example(F("a"), LinComb(), F("b"),
         LinComb.single((EMPTY_FOREST, F("b")), -LAM))
# a (x) x from D(T) . R against a (x) x from T . D(R), l - l
@example(F("a"), LinComb.single((F("a"), EMPTY_FOREST), LAM), F("x"),
         LinComb.single((EMPTY_FOREST, F("x")), -LAM))
def test_derivation_rule_matches_its_nested_sums(T, dT, R, dR):
    # the one-pass derivation rule against T . dR + dT . R + l (T (x) R),
    # built from public operations, on any signed pair tensors
    got = _rec_concat(T, dT, R, dR)
    want = (act_left(T, dR) + act_right(dT, R)
            + LinComb.single((T, R), LAM))
    assert got == want
    assert all(got.terms.values())


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


def test_counit_maps_take_pair_tensors_only():
    # a triple tensor (D (x) id) D(x) has no one leg to keep
    triple = coproduct_left(coproduct(F("x")))
    for counit_map in (counit_left, counit_right):
        with pytest.raises(ValueError):
            counit_map(triple)


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
    # the closed form holds its values; the recursion holds only what its
    # fold reads back (test_forest), so a repeat is equal, not the same
    f = F("a[x b]")
    assert coproduct(f) is coproduct(f) is coproduct_biideal(f)
    assert coproduct_rec(f) == coproduct_rec(f)


def test_defining_recursions_limit_nesting_not_width():
    # under a recursion limit of 100, coproduct_rec and prelie_sandwich
    # fold the 150 trees of a wide forest in a loop and agree with the
    # closed forms, as phi does (test_cli's width test)
    script = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from forest_bialg import Alphabet, parse_forest\n"
        "from forest_bialg.coalgebra import coproduct_biideal, coproduct_rec\n"
        "from forest_bialg.prelie import prelie, prelie_sandwich\n"
        "ab = Alphabet(omega=('a', 'b'), xset=('x',))\n"
        "F = parse_forest(' '.join(['a[x] x b'] * 50), ab)\n"
        "G = parse_forest('b[x]', ab)\n"
        "assert len(F.trees) == 150\n"
        "assert coproduct_rec(F) == coproduct_biideal(F)\n"
        "assert prelie_sandwich(G, F) == prelie(G, F)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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

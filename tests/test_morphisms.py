"""Deformation morphisms: values, multiplicativity, coproduct intertwining."""

import itertools
from fractions import Fraction

import pytest

from forest_bialg.coalgebra import coproduct, coproduct_lin
from forest_bialg.forest import (EMPTY_FOREST, Alphabet, concat,
                                 enumerate_forests, parse_forest)
from forest_bialg.freemod import LAM, MU, NU, Coefficient, LinComb
from forest_bialg.morphisms import (lc_concat, phi, phi_at, phi_forest,
                                    phi_subsets, theta)

AB = Alphabet(omega=("a", "b"), xset=("x",))


def F(text):
    return parse_forest(text, AB)


def test_phi_fixes_the_unit():
    assert phi(EMPTY_FOREST) == LinComb.single(EMPTY_FOREST)


def test_phi_on_single_vertices():
    for text in ("x", "a"):
        want = LinComb.single(F(text)) + LinComb.single(EMPTY_FOREST, NU)
        assert phi(F(text)) == want


def test_phi_on_a_grafted_tree():
    # phi(a[x]) = a[x] + n a[1] + n x + n^2 1
    nu2 = Coefficient.monomial(1, c=2)
    want = (LinComb.single(F("a[x]")) + LinComb.single(F("a"), NU)
            + LinComb.single(F("x"), NU) + LinComb.single(EMPTY_FOREST, nu2))
    assert phi(F("a[x]")) == want


def test_phi_recursion_matches_subset_expansion():
    for f in enumerate_forests(4, AB):
        assert phi_forest(f) == phi_subsets(f)


def test_phi_is_multiplicative():
    small = list(enumerate_forests(2, AB))
    for f, g in itertools.product(small, repeat=2):
        assert phi(concat(f, g)) == lc_concat(phi(f), phi(g))


def test_phi_at_zero_is_identity():
    for f in enumerate_forests(3, AB):
        assert phi_at(f, Fraction(0)) == LinComb.single(f)


def test_phi_at_takes_a_rational_point_only():
    with pytest.raises(TypeError, match="evaluation point"):
        phi_at(F("a[x]"), 0.5)


def test_phi_composition_law():
    # phi_{n1} o phi_{n2} = phi_{n1 + n2} at rational points
    points = [(Fraction(-2), Fraction(1)), (Fraction(1, 2), Fraction(3))]
    for nu1, nu2 in points:
        for f in enumerate_forests(3, AB):
            assert phi_at(phi_at(f, nu2), nu1) == phi_at(f, nu1 + nu2)


def test_phi_intertwines_coproduct_after_mu_shift():
    # subst_{m -> m - l n} D(phi F) = (phi (x) phi) D(F)
    shift = MU - LAM * NU
    for f in enumerate_forests(3, AB):
        lhs = coproduct_lin(phi(f)).map_coeff(lambda c: c.subst_mu(shift))
        rhs = coproduct(f).apply(
            lambda legs: phi(legs[0]).tensor(phi(legs[1])))
        assert lhs == rhs


def test_theta_scales_by_vertex_count():
    assert theta(EMPTY_FOREST) == LinComb.single(EMPTY_FOREST)
    assert theta(F("x")) == LinComb.single(F("x"), NU)
    assert theta(F("a[x] b")) == \
        LinComb.single(F("a[x] b"), Coefficient.monomial(1, c=3))


def test_phi_and_theta_take_a_forest_or_a_lincomb():
    # anything else is the TypeError of the one operand coercion
    f = F("a[x b]")
    assert phi(LinComb.single(f)) == phi(f)
    assert theta(LinComb.single(f)) == theta(f)
    for bad in (3, f.trees[0], "a[x b]"):
        for fn in (phi, theta):
            with pytest.raises(TypeError):
                fn(bad)


def test_theta_is_multiplicative():
    small = list(enumerate_forests(2, AB))
    for f, g in itertools.product(small, repeat=2):
        assert theta(concat(f, g)) == lc_concat(theta(f), theta(g))


def test_theta_intertwines_coproduct_after_mu_scale():
    # D(theta F) = (theta (x) theta) applied to subst_{m -> m n} D(F)
    for f in enumerate_forests(3, AB):
        lhs = coproduct_lin(theta(f))
        rhs = (coproduct(f)
               .map_coeff(lambda c: c.subst_mu(MU * NU))
               .apply(lambda legs: theta(legs[0]).tensor(theta(legs[1]))))
        assert lhs == rhs

"""Coefficient ring and free-module laws, rendering, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_bialg.forest import Alphabet, parse_forest
from forest_bialg.freemod import (LAM, MU, NU, ONE, ZERO, Coefficient,
                                  LinComb, act_left, act_right, coeff_eval,
                                  lc_add, lc_scale, lc_tensor)

AB = Alphabet(omega=("a", "b"), xset=("x",))


def F(text):
    return parse_forest(text, AB)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
monomials = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))
coefficients = st.dictionaries(monomials, rationals, max_size=5).map(Coefficient)


# --------------------------------------------------------------- ring laws

@settings(max_examples=1000)
@given(coefficients, coefficients, coefficients)
def test_ring_laws(u, v, w):
    assert u + v == v + u
    assert (u + v) + w == u + (v + w)
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + ZERO == u
    assert u * ONE == u
    assert u * ZERO == ZERO
    assert u - u == ZERO
    assert -(-u) == u


@settings(max_examples=300)
@given(coefficients, coefficients)
def test_hash_consistency(u, v):
    if u == v:
        assert hash(u) == hash(v)


@settings(max_examples=300)
@given(coefficients, st.integers(0, 4))
def test_pow_matches_repeated_product(u, k):
    expect = ONE
    for _ in range(k):
        expect = expect * u
    assert u ** k == expect


def test_canonical_form_prunes_zeros():
    c = Coefficient({(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(0)})
    assert c == ONE
    assert (MU - MU) == ZERO and not (MU - MU)


def test_exponent_domain_is_enforced():
    with pytest.raises(ValueError):
        Coefficient({(0, -1, 0): 1})
    with pytest.raises(ValueError):
        Coefficient({(0, 0, -2): 1})
    Coefficient({(-5, 0, 0): 1})  # negative lambda exponents are fine
    with pytest.raises(ValueError):
        LAM ** -1


# ------------------------------------------------------------ substitution

def test_laurent_inverse():
    assert LAM * Coefficient.monomial(1, a=-1) == ONE


def test_mu_shift_square():
    # (m - l n)^2 = m^2 - 2 l m n + l^2 n^2
    shift = MU - LAM * NU
    expect = (Coefficient.monomial(1, b=2)
              + Coefficient.monomial(-2, a=1, b=1, c=1)
              + Coefficient.monomial(1, a=2, c=2))
    assert shift * shift == expect
    assert Coefficient.monomial(1, b=2).subst_mu(shift) == expect


def test_subst_mu_rejects_laurent_substitute():
    with pytest.raises(ValueError):
        MU.subst_mu(Coefficient.monomial(1, a=-1))


def test_subst_mu_leaves_other_variables():
    c = LAM * MU + NU
    assert c.subst_mu(MU * NU) == LAM * MU * NU + NU


def test_subst_partial_and_eval():
    c = -LAM + MU - LAM * NU
    at = c.subst_partial(lam=Fraction(2))
    assert at == Coefficient.from_rational(-2) + MU + Coefficient.monomial(-2, c=1)
    assert coeff_eval(c, Fraction(2), Fraction(3), Fraction(1, 2)) == Fraction(0)
    assert c.eval_at(Fraction(1), Fraction(1), Fraction(0)) == Fraction(0)


def test_lambda_zero_pole():
    eps = Coefficient.monomial(-1, a=-2, b=1)
    with pytest.raises(ZeroDivisionError):
        eps.subst_partial(lam=0)
    assert MU.subst_partial(lam=0) == MU  # no pole without negative powers


# --------------------------------------------------------------- rendering

def test_monomial_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(LAM * LAM) == "l^2"
    assert str(Coefficient.monomial(-1, a=-2, b=1)) == "-m*l^-2"
    assert str(Coefficient.monomial(Fraction(3, 2), a=1, c=1)) == "3/2*l*n"
    assert str(Coefficient.monomial(1, a=-1)) == "l^-1"


def test_sum_rendering_is_sorted_by_exponents():
    # ascending (a, b, c): the mu term (0,1,0) precedes the lambda term (1,0,0)
    assert str(MU - LAM) == "m - l"
    assert str(-LAM + MU - LAM * NU) == "m - l - l*n"
    assert str(ONE + LAM + NU) == "1 + n + l"


def test_coefficient_json():
    c = MU - LAM * NU
    assert c.to_json() == [{"q": "1", "l": 0, "m": 1, "n": 0},
                           {"q": "-1", "l": 1, "m": 0, "n": 1}]


# ------------------------------------------------------------- linear combs

def test_lincomb_basics():
    u = LinComb.single(F("a"), MU) + LinComb.single(F("x"))
    assert u.coeff_of(F("a")) == MU
    assert u.coeff_of(F("1")) == ZERO
    assert (u - u).is_zero()
    assert lc_add(u, LinComb.zero()) == u
    assert lc_scale(Fraction(0), u).is_zero()
    assert u.scale(LAM).coeff_of(F("a")) == LAM * MU


def test_lincomb_merges_duplicate_bases():
    u = LinComb.single(F("a"), LAM) + LinComb.single(F("a"), -LAM)
    assert u.is_zero()


def test_tensor_concatenates_legs():
    u = LinComb.single(F("a"))
    v = LinComb.single((F("x"), F("1")), MU)
    w = lc_tensor(u, v)
    assert w.coeff_of((F("a"), F("x"), F("1"))) == MU


def test_apply_is_linear():
    u = LinComb.single(F("a"), MU) + LinComb.single(F("x"), -LAM)
    double = u.apply(lambda b: LinComb.single(b, Coefficient.from_rational(2)))
    assert double == u.scale(Fraction(2))


def test_map_basis_merges():
    u = LinComb.single(F("a"), LAM) + LinComb.single(F("b"), LAM)
    v = u.map_basis(lambda b: F("x"))
    assert v == LinComb.single(F("x"), LAM + LAM)


def test_bimodule_actions():
    t = LinComb.single((F("a"), F("x")))
    assert act_left(F("b"), t).coeff_of((F("b a"), F("x"))) == ONE
    assert act_right(t, F("b")).coeff_of((F("a"), F("x b"))) == ONE


def test_lincomb_rendering_orders_by_basis_text():
    u = LinComb.single(F("x"), -LAM) + LinComb.single(F("a"), MU)
    assert str(u) == "(m) a\n(-l) x"
    assert str(LinComb.zero()) == "0"


def test_lincomb_json_shape():
    u = LinComb.single((F("a"), F("1")), -LAM)
    assert u.to_json() == [{"coeff": [{"q": "-1", "l": 1, "m": 0, "n": 0}],
                            "legs": ["a", "1"]}]


# ------------------------------------------- representation invariance

# Integral rational parts arrive as int, as Fraction(k) or as Fraction(2k, 2);
# all three must denote one value.
mixed_rationals = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(lambda k: Fraction(2 * k, 2)),
    rationals,
)
mixed_coefficients = st.dictionaries(
    monomials, mixed_rationals, max_size=5).map(Coefficient)


def _raw(terms):
    """A Coefficient holding terms exactly as given, bypassing __init__."""
    c = Coefficient.__new__(Coefficient)
    c.terms = dict(terms)
    return c


def test_integral_fraction_and_int_are_one_value():
    for mono in [(0, 0, 0), (1, 2, 0), (-2, 1, 3)]:
        for u in (Coefficient({mono: Fraction(4, 2)}), _raw({mono: Fraction(2)})):
            v = Coefficient({mono: 2})
            assert u == v and hash(u) == hash(v)
            assert str(u) == str(v)
            assert u.to_json() == v.to_json()


@settings(max_examples=300)
@given(st.dictionaries(monomials, mixed_rationals, max_size=5))
def test_storage_type_is_invisible(terms):
    terms = {m: q for m, q in terms.items() if q}
    as_fraction = _raw({m: Fraction(q) for m, q in terms.items()})
    as_int = _raw({m: q.numerator if Fraction(q).denominator == 1 else q
                   for m, q in terms.items()})
    built = Coefficient(terms)
    for u in (as_fraction, as_int):
        assert u == built and hash(u) == hash(built)
        assert str(u) == str(built)
        assert u.to_json() == built.to_json()
    assert as_fraction * as_int == built * built
    assert as_fraction + as_int == built + built


def test_evaluation_returns_fraction():
    half = Coefficient.monomial(Fraction(1, 2), a=1)
    for c in (ZERO, ONE, LAM * MU, half, Coefficient.monomial(-1, a=-2, b=1)):
        for point in ((2, 3, 0), (Fraction(2), Fraction(1, 3), Fraction(5))):
            r = c.eval_at(*point)
            assert type(r) is Fraction
            assert type(coeff_eval(c, *point)) is Fraction
    assert ZERO.eval_at(1, 1, 1) == 0
    assert half.eval_at(4, 0, 0) == 2


def test_apply_drops_cancelled_terms():
    u = LinComb.single(F("a"), MU) + LinComb.single(F("b"), MU)
    to_x = lambda b: LinComb.single(F("x"), ONE if b == F("a") else -ONE)
    assert u.apply(to_x).terms == {}
    # a basis that cancels part-way and reappears is kept with its final value
    w = u + LinComb.single(F("a b"), LAM)
    g = lambda b: to_x(b) if b != F("a b") else LinComb.single(F("x"), LAM)
    assert w.apply(g) == LinComb.single(F("x"), LAM * LAM)


def test_apply_leg_drops_cancelled_terms():
    # a (x) x and b (x) x both map to l (1 (x) 1) (x) x, with opposite signs
    t = LinComb.single((F("a"), F("x")), MU) + LinComb.single((F("b"), F("x")), -MU)
    to_pair = lambda b: LinComb.single((F("1"), F("1")), LAM)
    assert t.apply_leg(0, to_pair).terms == {}
    # on leg 1 with forest images, cancelling part-way and reappearing
    u = (LinComb.single((F("x"), F("a")), MU) + LinComb.single((F("x"), F("b")), MU)
         + LinComb.single((F("x"), F("a b")), LAM))
    to_x = lambda b: LinComb.single(F("x"), {F("a"): ONE, F("b"): -ONE}.get(b, LAM))
    assert u.apply_leg(1, to_x).terms == {(F("x"), F("x")): LAM * LAM}


def test_apply_leg_splices_the_image_in_place_of_the_leg():
    t = LinComb.single((F("a"), F("b"), F("x")), LAM)
    to_pair = lambda b: LinComb.single((b, F("1")), MU)
    assert t.apply_leg(1, to_pair) == LinComb.single(
        (F("a"), F("b"), F("1"), F("x")), LAM * MU)
    assert t.apply_leg(2, to_pair) == LinComb.single(
        (F("a"), F("b"), F("x"), F("1")), LAM * MU)
    assert t.apply_leg(0, lambda b: LinComb.single(F("x b"))) == LinComb.single(
        (F("x b"), F("b"), F("x")), LAM)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "x", "a b"]),
                          mixed_coefficients), max_size=4))
def test_apply_matches_sum_of_scaled_images(pairs):
    u = LinComb.zero()
    for text, c in pairs:
        u = u + LinComb.single(F(text), c)
    images = {F(t): LinComb.single(F("x"), LAM) + LinComb.single(F(t), -MU)
              for t in ["a", "b", "x", "a b"]}
    expect = LinComb.zero()
    for b, c in u.terms.items():
        expect = expect + images[b].scale(c)
    assert u.apply(images.__getitem__) == expect


# ------------------------------------------------------ sympy ring oracle

def _sympy():
    return pytest.importorskip("sympy")


SHIFT = 3  # monomials have lambda exponents >= -3; l^SHIFT clears them


def _expr(sp, c):
    l, m, n = sp.symbols("l m n")
    return sp.Add(*[sp.Rational(q.numerator, q.denominator) * l**a * m**b * n**e
                    for (a, b, e), q in c.terms.items()])


def _poly(sp, expr, shift):
    """expr * l^shift as a Poly over QQ, a canonical form for Laurent exprs."""
    l, m, n = sp.symbols("l m n")
    return sp.Poly(sp.expand(expr * l**shift), l, m, n, domain="QQ")


@settings(max_examples=150, deadline=None)
@given(mixed_coefficients, mixed_coefficients, st.integers(0, 3))
def test_ring_matches_sympy(u, v, k):
    sp = _sympy()
    eu, ev = _expr(sp, u), _expr(sp, v)
    assert _poly(sp, _expr(sp, u + v), SHIFT) == _poly(sp, eu + ev, SHIFT)
    assert _poly(sp, _expr(sp, u - v), SHIFT) == _poly(sp, eu - ev, SHIFT)
    assert _poly(sp, _expr(sp, u * v), 2 * SHIFT) == _poly(sp, eu * ev, 2 * SHIFT)
    assert _poly(sp, _expr(sp, u ** k), k * SHIFT) == _poly(sp, eu ** k, k * SHIFT)


polynomial_coefficients = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    mixed_rationals, max_size=3).map(Coefficient)


@settings(max_examples=150, deadline=None)
@given(mixed_coefficients, polynomial_coefficients)
def test_subst_mu_matches_sympy(u, p):
    sp = _sympy()
    m = sp.Symbol("m")
    expect = _expr(sp, u).subs(m, _expr(sp, p))
    assert _poly(sp, _expr(sp, u.subst_mu(p)), SHIFT) == _poly(sp, expect, SHIFT)


points = st.one_of(st.none(), mixed_rationals)


@settings(max_examples=200, deadline=None)
@given(mixed_coefficients, points, points, points)
def test_subst_partial_and_eval_match_sympy(u, lam, mu, nu):
    sp = _sympy()
    l, m, n = sp.symbols("l m n")
    has_pole = any(a < 0 for (a, _, _) in u.terms)
    if lam == 0 and has_pole:
        with pytest.raises(ZeroDivisionError):
            u.subst_partial(lam=lam, mu=mu, nu=nu)
        return
    values = {s: sp.Rational(Fraction(x).numerator, Fraction(x).denominator)
              for s, x in ((l, lam), (m, mu), (n, nu)) if x is not None}
    expect = _expr(sp, u).subs(values)
    got = u.subst_partial(lam=lam, mu=mu, nu=nu)
    assert _poly(sp, _expr(sp, got), SHIFT) == _poly(sp, expect, SHIFT)
    if len(values) == 3:
        r = u.eval_at(lam, mu, nu)
        assert type(r) is Fraction
        assert sp.Rational(r.numerator, r.denominator) == expect

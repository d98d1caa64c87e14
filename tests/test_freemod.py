"""Coefficient ring and free-module laws, rendering, substitution,
canonical (interned, memoised) coefficients."""

import copy
import json
import pickle
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import fresh_env
from test_forest import _text_rec

from forest_bialg import forest, freemod
from forest_bialg.forest import Alphabet, Tree, parse_forest
from forest_bialg.freemod import (LAM, MU, NU, ONE, ZERO, Coefficient,
                                  LinComb, act_left, act_right)

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
    assert (u == v) == (u is v) == (u.terms == v.terms)
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


def test_rational_parts_are_ints_or_fractions():
    # one input rule for the constructor, monomial, LinComb(terms) and
    # scale: any other rational part raises TypeError
    with pytest.raises(TypeError):
        Coefficient.monomial(0.1)
    with pytest.raises(TypeError):
        Coefficient({(0, 0, 0): "1/3"})
    with pytest.raises(TypeError):
        LinComb({F("a"): 0.5})
    with pytest.raises(TypeError):
        LinComb.single(F("a")).scale(0.5)
    assert Coefficient({(0, 0, 0): Fraction(1, 3)}) is Coefficient.monomial(
        Fraction(1, 3))
    assert LinComb({F("a"): 3}) == LinComb.single(F("a"),
                                                  Coefficient.monomial(3))


@pytest.mark.parametrize("mono", [(0.5, 0, 0), (1.7, 0, 0), ("2", 0, 0)])
def test_exponents_are_ints(mono):
    # truncated or parsed, these would read as 1, l and l^2
    with pytest.raises(TypeError):
        Coefficient({mono: 1})
    with pytest.raises(TypeError):
        Coefficient.monomial(1, *mono)


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
    assert at == Coefficient.monomial(-2) + MU + Coefficient.monomial(-2, c=1)
    assert c.eval_at(Fraction(2), Fraction(3), Fraction(1, 2)) == Fraction(0)
    assert c.eval_at(Fraction(1), Fraction(1), Fraction(0)) == Fraction(0)


def test_lambda_zero_pole():
    # a pole raises on every call and is never memoised, also once
    # lam = 0 has succeeded on a polynomial
    eps = Coefficient.monomial(-1, a=-2, b=1)
    poly = LAM * NU + MU
    for lam in (0, Fraction(0), 0):
        # no pole without negative powers
        assert poly.subst_partial(lam=lam) is MU
        with pytest.raises(ZeroDivisionError):
            eps.subst_partial(lam=lam)
        with pytest.raises(ZeroDivisionError):
            eps.subst_partial(lam=lam, mu=1, nu=1)
    assert (poly, 0, None, None) in freemod._SUBST
    assert (eps, 0, None, None) not in freemod._SUBST
    assert (eps, 0, 1, 1) not in freemod._SUBST


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
    assert not (u - u)
    assert u + LinComb() == u
    assert not u.scale(Fraction(0))
    assert u.scale(LAM).coeff_of(F("a")) == LAM * MU


def test_lincomb_converts_rational_values():
    # ints and Fractions become coefficients, as scale converts them
    a = F("a")
    two = Coefficient.monomial(2)
    assert LinComb({a: 2}).terms[a] is two
    assert LinComb({a: 2}) == LinComb.single(a, two)
    assert LinComb({a: 2}) + LinComb.single(a) == LinComb.single(a, two + ONE)
    assert LinComb({a: Fraction(4, 2)}).terms[a] is two
    assert LinComb({a: Fraction(1, 2)}).terms[a] is Coefficient.monomial(
        Fraction(1, 2))
    assert LinComb({a: 0, F("x"): Fraction(0)}).terms == {}
    assert LinComb({a: MU, F("x"): -1}) == (LinComb.single(a, MU)
                                            - LinComb.single(F("x")))
    for bad in (0.5, "2", None):
        with pytest.raises(TypeError):
            LinComb({a: bad})
        with pytest.raises(TypeError):
            LinComb.single(a).scale(bad)


def test_single_converts_its_coefficient():
    a = F("a")
    two = Coefficient.monomial(2)
    assert LinComb.single(a, 2).terms[a] is two
    assert LinComb.single(a, Fraction(1, 2)).terms[a] is Coefficient.monomial(
        Fraction(1, 2))
    assert LinComb.single(a, 2) + LinComb.single(a) == LinComb.single(
        a, two + ONE)
    assert LinComb.single(a, 2) == LinComb({a: 2})
    assert LinComb.single(a, 0).terms == {}
    for bad in (0.5, "2"):
        with pytest.raises(TypeError):
            LinComb.single(a, bad)


def test_single_keeps_the_zero_rule():
    assert LinComb.single(F("a"), ZERO) == LinComb()
    assert LinComb.single(F("a"), ZERO).terms == {}
    for c in (ONE, -LAM, MU):
        assert LinComb.single(F("a"), c) == LinComb({F("a"): c})
        assert LinComb.single((F("a"), F("x")), c) == \
            LinComb({(F("a"), F("x")): c})


def test_lincomb_merges_duplicate_bases():
    u = LinComb.single(F("a"), LAM) + LinComb.single(F("a"), -LAM)
    assert not u


def test_tensor_concatenates_legs():
    u = LinComb.single(F("a"))
    v = LinComb.single((F("x"), F("1")), MU)
    w = u.tensor(v)
    assert w.coeff_of((F("a"), F("x"), F("1"))) == MU


def test_apply_is_linear():
    u = LinComb.single(F("a"), MU) + LinComb.single(F("x"), -LAM)
    double = u.apply(lambda b: LinComb.single(b, Coefficient.monomial(2)))
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
    assert str(LinComb()) == "0"


def test_lincomb_json_shape():
    u = LinComb.single((F("a"), F("1")), -LAM)
    assert u.to_json() == [{"coeff": [{"q": "-1", "l": 1, "m": 0, "n": 0}],
                            "legs": ["a", "1"]}]


def _leg_texts(basis):
    # each leg spelled by the recursive definition of the text form
    legs = basis if isinstance(basis, tuple) else (basis,)
    return [" ".join(map(_text_rec, leg.trees)) or "1" for leg in legs]


def _rendering_reference(u):
    # text, JSON and term order as rendered term by term, every leg spelled
    # anew and every coefficient rendered on its own, with no memo
    items = sorted(u.terms.items(), key=lambda bc: _leg_texts(bc[0]))
    lines = [f"({c}) {' (x) '.join(_leg_texts(b))}" for b, c in items]
    text = "\n".join(lines) if items else "0"
    js = [{"coeff": c.to_json(), "legs": _leg_texts(b)} for b, c in items]
    return text, js, items


def _assert_renders_as_reference(u):
    text, js, items = _rendering_reference(u)
    assert str(u) == text
    assert u.to_json() == js
    assert u.to_json_text() == json.dumps(js)
    # to_json_text writes leg texts and rational parts unescaped, so each
    # must be a text that json.dumps writes as it is
    for term in js:
        for t in term["legs"] + [m["q"] for m in term["coeff"]]:
            assert json.dumps(t) == '"' + t + '"'
    assert u._rendered() == [("\0".join(_leg_texts(b)), c)
                             for b, c in items]


def test_lincomb_rendering_matches_the_per_leg_reference():
    # forests (phi images, also at nu = 1/2, whose coefficients are
    # Fractions) and pair tensors (coproducts) of every forest up to 4
    # vertices, plus the triple tensors of (D (x) id) D
    from forest_bialg.coalgebra import coproduct, coproduct_left
    from forest_bialg.forest import enumerate_forests
    from forest_bialg.morphisms import phi

    half = Fraction(1, 2)
    for f in enumerate_forests(4, AB):
        cop = coproduct(f)
        p = phi(f)
        for u in (p, p.subst_partial(nu=half), cop, coproduct_left(cop),
                  cop - cop):
            _assert_renders_as_reference(u)


def test_tensor_rows_sort_legs_that_are_prefixes_of_each_other():
    # the first legs "a", "a a[x]" and "a x" are prefixes of each other, so
    # a term whose first leg ends sooner must still sort first
    from forest_bialg.coalgebra import coproduct

    u = coproduct(F("a a[x]"))
    _assert_renders_as_reference(u)
    firsts = [term["legs"][0] for term in u.to_json()]
    assert firsts == ["1", "1", "a", "a", "a a[x]", "a x", "a x"]


def test_symbols_that_json_escapes_are_not_admitted():
    # the reason to_json_text may write leg texts unescaped, and a "\0"
    # join of leg texts sorts as their list does
    for sym in ('a"', "a\\", "a\n", "a\0", "\u00e9"):
        assert json.dumps(sym) != '"' + sym + '"'
        with pytest.raises(ValueError):
            Alphabet(omega=(sym,))


def test_star_weighted_rendering_matches_the_per_leg_reference():
    from forest_bialg.dualprod import star_weighted
    from forest_bialg.forest import enumerate_forests

    small = list(enumerate_forests(2, AB))
    for f in enumerate_forests(3, AB):
        for g in small:
            _assert_renders_as_reference(star_weighted(f, g, AB))


def test_rendering_a_deep_tree_needs_no_recursion():
    n = 5000
    assert n > sys.getrecursionlimit()
    a, b, x = (AB.decoration(s) for s in "abx")
    # a path of a's over x with a b beside every level; the legs of the
    # pair tensor are a subtree from the middle and the whole tree, so the
    # middle subtree is met both inside the tree and as a leg of its own
    t, mid = Tree.make(x), None
    for i in range(n):
        t = Tree.make(a, (Tree.make(b), t))
        if i == n // 2:
            mid = t
    def spelled(depth):
        return "a[b " * depth + "x" + "]" * depth

    big, half = t.as_forest(), mid.as_forest()
    u = (LinComb.single(big, MU) + LinComb.single(half, LAM)
         + LinComb.single((half, big), 2))
    # "a" sorts before "x", so the deeper text comes first
    whole, middle = spelled(n), spelled(n // 2 + 1)
    expected = [[whole], [middle], [middle, whole]]
    lines = [f"(m) {whole}", f"(l) {middle}", f"(2) {middle} (x) {whole}"]
    assert str(u) == "\n".join(lines)
    assert [term["legs"] for term in u.to_json()] == expected
    coeffs = (MU, LAM, Coefficient.monomial(2))
    assert u.to_json_text() == json.dumps(
        [{"coeff": c.to_json(), "legs": legs}
         for c, legs in zip(coeffs, expected)])


def _mutables(obj):
    # every list and dict reachable from obj
    out, stack = [], [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, dict):
            out.append(o)
            stack.extend(o.values())
        elif isinstance(o, list):
            out.append(o)
            stack.extend(o)
    return out


def test_to_json_terms_share_no_mutable_object():
    # the coefficient JSON is made once per distinct coefficient, so every
    # term must get its own copies: a phi image repeats n + 1 coefficients
    # over 2**n terms
    from forest_bialg.morphisms import phi

    u = phi(F("a[x b[x]] x"))
    js = u.to_json()
    assert len({id(t["coeff"]) for t in js}) == len(js)
    seen = set()
    for term in js:
        ids = {id(o) for o in _mutables(term)}
        assert not ids & seen
        seen |= ids
    for i in range(len(js)):
        js[i]["coeff"][0]["q"] = "mutated"
        js[i]["coeff"].append({})
        js[i]["legs"].append("mutated")
        assert js[i + 1:] == u.to_json()[i + 1:]


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
    """A probe Coefficient holding terms exactly as given, int or Fraction.

    It bypasses the constructor and the intern table, so it is not
    canonical: it stands for a value stored in the other type, to check
    that nothing observable depends on that type.
    """
    c = object.__new__(Coefficient)
    c.terms = dict(terms)
    return c


def _stores_ints(c):
    return all(type(q) is int or q.denominator != 1 for q in c.terms.values())


def test_integral_fraction_and_int_are_one_value():
    for mono in [(0, 0, 0), (1, 2, 0), (-2, 1, 3)]:
        v = Coefficient({mono: 2})
        assert Coefficient({mono: Fraction(4, 2)}) is v
        assert _stores_ints(v)
        for probe in (_raw({mono: Fraction(2)}), _raw({mono: 2})):
            assert str(probe) == str(v)
            assert probe.to_json() == v.to_json()
            assert freemod._make(dict(probe.terms)) is v


@settings(max_examples=300)
@given(st.dictionaries(monomials, mixed_rationals, max_size=5))
def test_storage_type_is_invisible(terms):
    terms = {m: q for m, q in terms.items() if q}
    as_fraction = _raw({m: Fraction(q) for m, q in terms.items()})
    as_int = _raw({m: q.numerator if Fraction(q).denominator == 1 else q
                   for m, q in terms.items()})
    assert as_fraction is not as_int
    built = Coefficient(terms)
    assert _stores_ints(built)
    for u in (as_fraction, as_int):
        assert str(u) == str(built)
        assert u.to_json() == built.to_json()
        assert freemod._make(dict(u.terms)) is built
    # mixed int/Fraction arithmetic lands on the canonical int-stored values
    for out, expect in ((as_fraction * as_int, built * built),
                        (as_fraction + as_int, built + built),
                        (as_fraction - as_int, ZERO)):
        assert out is expect
        assert _stores_ints(out)


def test_evaluation_first_still_stores_ints():
    # 7919 m^401 and m^402 occur nowhere else, so evaluation interns them
    # first, with integral Fraction parts
    c = Coefficient.monomial(7919, a=2, b=401).subst_partial(lam=Fraction(1))
    assert c is Coefficient.monomial(7919, b=401)
    assert type(c.terms[(0, 401, 0)]) is int
    assert type((c + c).terms[(0, 401, 0)]) is int
    half = Coefficient.monomial(Fraction(1, 2), b=402)
    whole = half + half
    assert whole is Coefficient.monomial(1, b=402)
    assert type(whole.terms[(0, 402, 0)]) is int


def test_evaluation_returns_fraction():
    half = Coefficient.monomial(Fraction(1, 2), a=1)
    for c in (ZERO, ONE, LAM * MU, half, Coefficient.monomial(-1, a=-2, b=1)):
        for point in ((2, 3, 0), (Fraction(2), Fraction(1, 3), Fraction(5))):
            r = c.eval_at(*point)
            assert type(r) is Fraction
    assert ZERO.eval_at(1, 1, 1) == 0
    assert half.eval_at(4, 0, 0) == 2


def test_evaluation_rejects_a_variable_left_symbolic():
    with pytest.raises(ValueError):
        (LAM + MU).eval_at(None, 2, 1)
    with pytest.raises(ValueError):
        NU.eval_at(1, 1, None)
    assert MU.eval_at(None, 2, 1) == 2     # lambda does not occur


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", Decimal("0.5")])
def test_evaluation_points_are_ints_or_fractions(bad):
    # rounded or parsed, 0.1 would read as 3602879701896397/2**55 and
    # "1/3" as one third. 0.5 equals the memoised point Fraction(1, 2),
    # so the check must come before the memo is read
    half = Coefficient.monomial(Fraction(1, 2))
    assert LAM.subst_partial(lam=Fraction(1, 2)) is half
    for point in ({"lam": bad}, {"mu": bad}, {"nu": bad}):
        with pytest.raises(TypeError, match="evaluation point"):
            LAM.subst_partial(**point)
        with pytest.raises(TypeError, match="evaluation point"):
            LinComb.single(F("a"), LAM).subst_partial(**point)
    with pytest.raises(TypeError, match="evaluation point"):
        LAM.eval_at(bad, 0, 0)
    # an int subclass counts as its int, as in Coefficient(terms)
    assert LAM.subst_partial(lam=True) is ONE


def test_evaluation_check_survives_optimized_mode():
    # python -O strips assert statements; the check must not be one
    code = ("from forest_bialg.freemod import LAM, MU\n"
            "try:\n"
            "    print((LAM + MU).eval_at(None, 2, 1))\n"
            "except ValueError:\n"
            "    print('rejected')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=fresh_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "rejected\n"


def _lc(*terms):
    """LinComb from (basis, coefficient) pairs, a basis given as forest
    text or as a tuple of forest texts; insertion order is kept, so the
    order in which a sum meets its terms is the order written."""
    def basis(b):
        return tuple(map(F, b)) if isinstance(b, tuple) else F(b)
    out = LinComb()
    out.terms = {basis(b): c for b, c in terms}
    return out


# x maps a and b to images of opposite sign and "a b" to l times one of
# them, so a sum over a, b, "a b" meets +c, -c, then l c on a key
_IMAGES = {"a": _lc(("x", ONE), ("x x", ONE)),
           "b": _lc(("x", -ONE), ("x x", -ONE)),
           "a b": _lc(("x", LAM))}
_PAIR_IMAGES = {"a": _lc((("1", "1"), ONE), (("x", "x"), ONE)),
                "b": _lc((("1", "1"), -ONE), (("x", "x"), -ONE)),
                "a b": _lc((("1", "1"), LAM))}


def _cancelling_sums():
    """Every entry point that sums terms, as name -> (result, a key that
    cancels fully, a key that cancels part-way, that key's final value).
    Each key gets contributions that cancel each other, listed with the
    construction."""
    from forest_bialg.dualprod import star_lin
    from forest_bialg.morphisms import lc_concat
    from forest_bialg.prelie import bracket_lin

    image = lambda b: _IMAGES[str(b)]
    pair_image = lambda b: _PAIR_IMAGES[str(b)]
    legs = lambda *texts: tuple(map(F, texts))
    return {
        # a: m - m; b: (l + m) - m
        "+": (_lc(("a", MU), ("b", LAM + MU)) + _lc(("a", -MU), ("b", -MU)),
              F("a"), F("b"), LAM),
        "-": (_lc(("a", MU), ("b", LAM + MU)) - _lc(("a", MU), ("b", MU)),
              F("a"), F("b"), LAM),
        # (a, x, b): a (x) (x, b) and (a, x) (x) b, m - m; (a, x, x, b):
        # a (x) (x, x, b), (a, x) (x) (x, b), (a, x, x) (x) b, m - m + l
        "tensor": (_lc(("a", MU), (("a", "x"), -MU), (("a", "x", "x"), LAM))
                   .tensor(_lc((("x", "x", "b"), ONE), (("x", "b"), ONE),
                               ("b", ONE))),
                   legs("a", "x", "b"), legs("a", "x", "x", "b"), LAM),
        # the same sums with forests concatenated instead of legs joined
        "lc_concat": (lc_concat(_lc(("a", MU), ("a x", -MU), ("a x x", LAM)),
                                _lc(("x x b", ONE), ("x b", ONE), ("b", ONE))),
                      F("a x b"), F("a x x b"), LAM),
        # x x: m - m; x: m - m + l
        "map_basis": (_lc(("a a", MU), ("a", MU), ("b b", -MU), ("b", -MU),
                          ("a b", LAM))
                      .map_basis(lambda f: F("x x" if f.nvertices == 2
                                             and str(f) != "a b" else "x")),
                      F("x x"), F("x"), LAM),
        # x x: m - m; x: m - m + l l
        "apply": (_lc(("a", MU), ("b", MU), ("a b", LAM)).apply(image),
                  F("x x"), F("x"), LAM * LAM),
        # a pair image spliced in for leg 0: (x, x, x): m - m;
        # (1, 1, x): m - m + l l
        "apply_leg-0": (_lc((("a", "x"), MU), (("b", "x"), MU),
                            (("a b", "x"), LAM)).apply_leg(0, pair_image),
                        legs("x", "x", "x"), legs("1", "1", "x"), LAM * LAM),
        # a forest image in place of leg 1: (x, x x): m - m;
        # (x, x): m - m + l l
        "apply_leg-1": (_lc((("x", "a"), MU), (("x", "b"), MU),
                            (("x", "a b"), LAM)).apply_leg(1, image),
                        legs("x", "x x"), legs("x", "x"), LAM * LAM),
        # with 1 star G = G, F star 1 = F and a star a = a a + a[a]:
        # a: m - m; a a: m - m + l
        "star_lin": (star_lin(_lc(("1", MU), ("a", -MU), ("a a", LAM)),
                              _lc(("a a", ONE), ("a", ONE), ("1", ONE))),
                     F("a"), F("a a"), LAM),
        # [a, a + b]: with a |> b = m a - l b a - l a b, the a b of a |> b
        # goes against that of b |> a; a: m + m - m
        "bracket_lin": (bracket_lin(_lc(("a", ONE)), _lc(("a", ONE), ("b", ONE))),
                        F("a b"), F("a"), MU),
    }


@pytest.mark.parametrize("entry", ["+", "-", "tensor", "lc_concat",
                                   "map_basis", "apply", "apply_leg-0",
                                   "apply_leg-1", "star_lin", "bracket_lin"])
def test_sums_drop_cancelled_terms(entry):
    got, gone, part, value = _cancelling_sums()[entry]
    assert gone not in got.terms
    assert got.terms[part] is value
    assert all(got.terms.values())


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
    u = LinComb()
    for text, c in pairs:
        u = u + LinComb.single(F(text), c)
    images = {F(t): LinComb.single(F("x"), LAM) + LinComb.single(F(t), -MU)
              for t in ["a", "b", "x", "a b"]}
    expect = LinComb()
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


# ------------------------------------------------- canonical coefficients

def _assert_interned(c):
    assert freemod._INTERN[frozenset(c.terms.items())] is c, repr(c)
    assert Coefficient(c.terms) is c, repr(c)


@settings(max_examples=300, deadline=None)
@given(mixed_coefficients, mixed_coefficients, polynomial_coefficients,
       st.integers(0, 3), points, points, points)
def test_every_construction_route_returns_the_interned_instance(
        u, v, p, k, lam, mu, nu):
    if lam == 0:
        lam = None  # keep clear of the lambda = 0 pole
    results = [u, v, p, u + v, u - v, u * v, -u, u ** k, u.subst_mu(p),
               u.subst_partial(lam=lam, mu=mu, nu=nu),
               pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)]
    w = LinComb.single(F("a"), u) + LinComb.single(F("x"), v)
    results += w.map_coeff(lambda c: c * p).terms.values()
    for c in results:
        _assert_interned(c)
    assert pickle.loads(pickle.dumps(u)) is u
    assert copy.copy(u) is u and copy.deepcopy(u) is u
    assert copy.deepcopy(w) == w


def test_constructors_return_the_interned_instance():
    m = (2, 1, 0)
    assert Coefficient({m: Fraction(4, 2)}) is Coefficient({m: 2})
    assert Coefficient.monomial(Fraction(6, 3), *m) is Coefficient({m: 2})
    assert Coefficient.monomial(Fraction(1)) is ONE
    assert Coefficient() is ZERO and Coefficient({}) is ZERO
    assert Coefficient({(1, 0, 0): 0}) is ZERO
    assert Coefficient.monomial(1, a=1) is LAM
    assert MU - MU is ZERO and LAM * ONE is LAM
    for c in (ZERO, ONE, LAM, MU, NU, -LAM, MU - LAM * NU, LAM ** 3):
        _assert_interned(c)


def test_threads_racing_on_new_coefficients_get_one_instance():
    # equality is identity, so two threads that both miss the intern table
    # or a memo on one value must still end up holding the same object
    def build(r, out):
        # nu^(100 + r) appears in no other test, so every value is new
        base = [Coefficient.monomial(q, a=a, c=100 + r)
                for q in (1, -2, Fraction(1, 3)) for a in (-1, 0, 2)]
        out.extend(base)
        out.extend(x + y for x in base for y in base)
        out.extend(x * y for x in base for y in base)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(5):
            results = [[] for _ in range(6)]
            barrier = threading.Barrier(len(results), timeout=60)

            def run(out, r=r, barrier=barrier):
                barrier.wait()
                build(r, out)

            threads = [threading.Thread(target=run, args=(out,))
                       for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            first = results[0]
            assert first
            for other in results[1:]:
                assert len(other) == len(first)
                assert all(a is b for a, b in zip(first, other))
            for c in first:
                _assert_interned(c)
    finally:
        sys.setswitchinterval(old)


def test_memo_hit_and_recomputation_return_one_instance():
    sp = _sympy()
    # m^200 occurs nowhere else, so the first round misses every memo
    u = Coefficient({(1, 200, 0): 3, (-2, 200, 1): Fraction(-1, 2)})
    v = Coefficient({(0, 0, 0): 1, (-2, 200, 1): Fraction(1, 2)})
    t = LinComb.single(F("a"), u) + LinComb.single(F("b"), v)
    image = lambda b: LinComb.single(F("x"), v) + LinComb.single(b, u)

    def compute():
        return u + v, u * v, u - v, t.apply(image), t.tensor(t)

    assert (u, v) not in freemod._ADD and (u, v) not in freemod._MUL
    first = compute()
    assert (u, v) in freemod._ADD and (u, v) in freemod._MUL
    again = compute()                  # every ring operation a memo hit
    freemod._ADD.clear()
    freemod._MUL.clear()
    recomputed = compute()             # every ring operation a miss
    for x, y, z in zip(first[:3], again[:3], recomputed[:3]):
        assert x is y is z
    for x, y, z in zip(first[3:], again[3:], recomputed[3:]):
        assert x == y == z
        assert all(x.terms[b] is z.terms[b] for b in x.terms)
    eu, ev = _expr(sp, u), _expr(sp, v)
    shift = 2 * SHIFT
    assert _poly(sp, _expr(sp, first[0]), shift) == _poly(sp, eu + ev, shift)
    assert _poly(sp, _expr(sp, first[1]), shift) == _poly(sp, eu * ev, shift)
    assert _poly(sp, _expr(sp, first[2]), shift) == _poly(sp, eu - ev, shift)
    # u a + v b goes to u (v x + u a) + v (v x + u b)
    applied = first[3]
    assert _poly(sp, _expr(sp, applied.coeff_of(F("x"))), shift) == \
        _poly(sp, ev * eu + ev * ev, shift)
    assert _poly(sp, _expr(sp, applied.coeff_of(F("a"))), shift) == \
        _poly(sp, eu * eu, shift)


def test_sweep_forgets_only_coefficients_nothing_else_holds():
    # n^300 and up occur nowhere else, so every value below is new
    fresh = [Coefficient.monomial(q, a=a, c=300) for q in (1, -3)
             for a in (-2, 0, 1)]
    # held only in a local list, including memoised sums and products
    local = fresh + [x + y for x in fresh for y in fresh] \
        + [x * y for x in fresh for y in fresh]
    # held only as the values of a LinComb
    held_lc = LinComb({F("a"): Coefficient.monomial(5, c=301),
                       F("b"): Coefficient.monomial(-5, c=301) + NU})
    # returned by pickle.loads
    unpickled = pickle.loads(pickle.dumps(
        [Coefficient.monomial(7, b=2, c=302), Coefficient.monomial(1, c=303)]))
    # garbage: values nothing holds once made, and memo entries of them
    for q in range(1, 40):
        Coefficient.monomial(q, c=304) * Coefficient.monomial(q, a=1, c=304)
    gone = frozenset({((1, 0, 608), 4)})
    assert gone in freemod._INTERN
    n_values = len(freemod._INTERN)

    forest.sweep_interned()

    assert len(freemod._INTERN) < n_values
    assert gone not in freemod._INTERN
    assert not freemod._ADD and not freemod._MUL
    held = local + list(held_lc.terms.values()) + unpickled \
        + [ZERO, ONE, LAM, MU, NU]
    for c in held:
        _assert_interned(c)
    for key, c in freemod._INTERN.items():
        assert frozenset(c.terms.items()) == key
    # arithmetic after the sweep lands on the held instances
    assert fresh[0] + fresh[1] is local[len(fresh) + 1]
    assert fresh[2] * fresh[3] is local[len(fresh) + 6 * 6 + 2 * 6 + 3]
    assert held_lc.terms[F("b")] - NU is Coefficient.monomial(-5, c=301)


# ----------------------------------------------------- evaluation memo

def test_sweep_clears_the_evaluation_memo():
    # n^400 and up occur nowhere else, so every value below is new
    held_in = Coefficient.monomial(3, a=-1, b=1, c=400)
    held = held_in.subst_partial(lam=Fraction(2, 3))
    Coefficient.monomial(5, a=2, c=401).subst_partial(lam=Fraction(2, 3))
    gone = frozenset({((0, 0, 401), Fraction(20, 9))})
    assert gone in freemod._INTERN
    assert (held_in, Fraction(2, 3), None, None) in freemod._SUBST

    forest.sweep_interned()

    assert not freemod._SUBST
    assert gone not in freemod._INTERN
    _assert_interned(held)
    # a fresh evaluation lands on the held instance
    assert held_in.subst_partial(lam=Fraction(2, 3)) is held
    assert held is Coefficient.monomial(Fraction(9, 2), b=1, c=400)


def test_evaluation_memo_hit_and_recomputation_return_one_instance():
    sp = _sympy()
    l, m, n = sp.symbols("l m n")
    # m^210 occurs nowhere else, so the first round misses the memo
    u = Coefficient({(1, 210, 0): 3, (-2, 210, 1): Fraction(-1, 2),
                     (0, 0, 2): 1})
    point = dict(lam=Fraction(2, 3), mu=Fraction(-1, 5), nu=Fraction(7, 3))
    points = [point, dict(lam=point["lam"]), dict(mu=0, nu=point["nu"])]
    assert not any(k[0] is u for k in freemod._SUBST)
    first = [u.subst_partial(**p) for p in points]
    again = [u.subst_partial(**p) for p in points]      # memo hits
    forest.sweep_interned()
    assert not freemod._SUBST
    recomputed = [u.subst_partial(**p) for p in points]  # misses
    for p, x, y, z in zip(points, first, again, recomputed):
        assert x is y is z
        values = {s: sp.Rational(p[k].numerator, p[k].denominator)
                  for s, k in ((l, "lam"), (m, "mu"), (n, "nu")) if k in p}
        expect = _expr(sp, u).subs(values)
        assert _poly(sp, _expr(sp, x), SHIFT) == _poly(sp, expect, SHIFT)
    assert first[0].terms.keys() == {(0, 0, 0)}
    assert u.eval_at(**point) == first[0].terms[(0, 0, 0)]


def test_int_and_fraction_points_give_one_result():
    # m^430 occurs nowhere else
    u = Coefficient({(1, 430, 0): Fraction(1, 2), (-1, 430, 2): 3})
    for order in ((2, Fraction(2)), (Fraction(2), 2)):
        forest.sweep_interned()
        a, b = (u.subst_partial(lam=lam, nu=Fraction(4, 2)) for lam in order)
        c = u.subst_partial(lam=order[0], nu=2)
        assert a is b is c
        assert a is Coefficient.monomial(7, b=430)
        assert _stores_ints(a)


def test_map_coeff_evaluates_each_distinct_coefficient_once():
    # five terms on three distinct coefficients, one of which h sends to 0
    w = LinComb({F("x"): LAM, F("a"): MU, F("b"): LAM, F("a[x]"): MU + NU,
                 F("x x"): MU})
    point = dict(lam=Fraction(2, 3), mu=Fraction(0), nu=Fraction(7, 3))
    calls = []

    def h(c):
        calls.append(c)
        return c.subst_partial(**point)

    got = w.map_coeff(h)
    assert len(calls) == 3 and set(calls) == {LAM, MU, MU + NU}
    old = LinComb({b: c.subst_partial(**point) for b, c in w.terms.items()})
    assert got == old
    assert got.terms == {F("x"): Coefficient.monomial(Fraction(2, 3)),
                         F("b"): Coefficient.monomial(Fraction(2, 3)),
                         F("a[x]"): Coefficient.monomial(Fraction(7, 3))}
    pole = LinComb.single(F("x"), Coefficient.monomial(1, a=-1))
    with pytest.raises(ZeroDivisionError):
        pole.map_coeff(lambda c: c.subst_partial(lam=0))


def test_constants_survive_the_ring_tests():
    # runs after the property tests above, which make and memoise
    # thousands of values: the shared constants keep their terms
    assert [str(c) for c in (ZERO, ONE, LAM, MU, NU)] == \
        ["0", "1", "l", "m", "n"]
    assert ZERO.terms == {} and ONE.terms == {(0, 0, 0): 1}
    assert LAM.terms == {(1, 0, 0): 1} and MU.terms == {(0, 1, 0): 1}
    assert NU.terms == {(0, 0, 1): 1}
    for c in (ZERO, ONE, LAM, MU, NU):
        _assert_interned(c)

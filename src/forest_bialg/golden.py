"""Reference expansions pinned bit-exactly.

Each case computes a value with the library and compares it against an
expectation transcribed by hand from the defining formulas, written out
termwise over small concrete alphabets. These are the ground truth for
the examples-golden suite; any renderer or ordering change that breaks
one of these must update the fixture in the same change.

Greek decorations of the source displays are transliterated
alpha -> a, beta -> b, gamma -> c, delta -> d, omega -> w; X-decorations
keep x, y.
"""

from __future__ import annotations

from fractions import Fraction

from .coalgebra import coproduct_biideal, coproduct_rec, counit
from .dualprod import star, star_weighted
from .forest import Alphabet, _preorder, biideals, parse_forest
from .freemod import LAM, MU, NU, Coefficient, LinComb
from .morphisms import phi_forest, phi_subsets
from .prelie import bracket, prelie, prelie_lin, prelie_sandwich

__all__ = ["golden_cases"]

AB_COP = Alphabet(omega=("a", "b"), xset=("x", "y"))
AB_BIID = Alphabet(omega=("a", "b", "w"), xset=("x",))
AB_STAR = Alphabet(omega=("a", "b", "c", "d"), xset=("x",))
AB_SW = Alphabet(omega=("a", "b", "c", "w"), xset=("x",))
AB_PHI = Alphabet(omega=("a", "b", "c"), xset=("x",))
AB_PL = Alphabet(omega=("a", "b", "c"), xset=("x", "y"))

M2 = MU * MU
L2 = LAM * LAM
ML = MU * LAM


def _lc1(ab, terms) -> LinComb:
    """LinComb<Forest> from (coeff, text) pairs."""
    out = LinComb.zero()
    for c, t in terms:
        out = out + LinComb.single(parse_forest(t, ab), c)
    return out


def _lc2(ab, terms) -> LinComb:
    """LinComb over pair tensors from (coeff, text, text) triples."""
    out = LinComb.zero()
    for c, t1, t2 in terms:
        out = out + LinComb.single(
            (parse_forest(t1, ab), parse_forest(t2, ab)), c)
    return out


def _case_coproducts():
    displays = [
        ("x", [(MU, "1", "1"), (-LAM, "x", "1"), (-LAM, "1", "x")]),
        ("a", [(MU, "1", "1"), (-LAM, "a", "1"), (-LAM, "1", "a")]),
        ("a[x]", [(MU, "x", "1"), (MU, "1", "a"),
                  (-LAM, "a[x]", "1"), (-LAM, "x", "a"), (-LAM, "1", "a[x]")]),
        ("y a[x]", [(MU, "y x", "1"), (MU, "y", "a"), (MU, "1", "a[x]"),
                    (-LAM, "y a[x]", "1"), (-LAM, "y x", "a"),
                    (-LAM, "y", "a[x]"), (-LAM, "1", "y a[x]")]),
        ("a[y b[x]]", [(MU, "1", "a[b[x]]"), (MU, "y", "a[b]"),
                       (MU, "y x", "a"), (MU, "y b[x]", "1"),
                       (-LAM, "a[y b[x]]", "1"), (-LAM, "y b[x]", "a"),
                       (-LAM, "y x", "a[b]"), (-LAM, "y", "a[b[x]]"),
                       (-LAM, "1", "a[y b[x]]")]),
    ]
    for text, expect in displays:
        F = parse_forest(text, AB_COP)
        want = _lc2(AB_COP, expect)
        yield (f"coproduct {text} (recursive)",
               lambda F=F, want=want: (coproduct_rec(F), want))
        yield (f"coproduct {text} (biideal)",
               lambda F=F, want=want: (coproduct_biideal(F), want))


def _case_biideals():
    # (forest, expected decoration-symbol sequences of I_0..I_n)
    displays = [
        ("b a[x]", [(), ("b",), ("b", "x"), ("b", "x", "a")]),
        ("w[a b[x]]", [(), ("a",), ("a", "x"), ("a", "x", "b"),
                       ("a", "x", "b", "w")]),
    ]
    for text, expect in displays:
        F = parse_forest(text, AB_BIID)

        def run(F=F, expect=expect):
            _, decos, paths = _preorder(F)
            deco_of = dict(zip(paths, decos))
            got = tuple(
                tuple(sorted(deco_of[v].symbol for v in I.members))
                for I in biideals(F))
            want = tuple(tuple(sorted(e)) for e in expect)
            return got, want

        yield f"biideals {text}", run


def _case_star():
    displays = [
        ("a b", "c[d]", ["a b c[d]", "a c[b d]", "a c[d[b]]",
                         "c[a b d]", "c[a d[b]]", "c[d[a b]]"]),
        ("a b", "c[x]", ["a b c[x]", "a c[b x]", "c[a b x]"]),
    ]
    one = Coefficient.monomial(1)
    for ftext, gtext, terms in displays:
        F = parse_forest(ftext, AB_STAR)
        G = parse_forest(gtext, AB_STAR)
        want = _lc1(AB_STAR, [(one, t) for t in terms])
        yield (f"star {ftext} * {gtext}",
               lambda F=F, G=G, want=want: (star(F, G), want))


def _case_star_weighted():
    F = parse_forest("a", AB_SW)
    G = parse_forest("b[c]", AB_SW)
    lam_terms = ["a b[c]", "b[a c]", "b[c[a]]"]
    omega_terms = ["a {w} b[c]", "{w}[a] b[c]", "a b[{w} c]", "b[a {w} c]",
                   "b[{w}[a] c]", "a b[c[{w}]]", "b[a c[{w}]]",
                   "b[c[a {w}]]", "b[c[{w}[a]]]"]
    x_terms = ["a x b[c]", "a b[x c]", "b[a x c]", "a b[c[x]]",
               "b[a c[x]]", "b[c[a x]]"]
    terms = [(-LAM, t) for t in lam_terms]
    for s in AB_SW.omega:
        terms += [(MU, t.format(w=s)) for t in omega_terms]
    terms += [(MU, t) for t in x_terms]
    want = _lc1(AB_SW, terms)
    yield ("star-weighted a * b[c]",
           lambda: (star_weighted(F, G, AB_SW), want))


def _case_phi():
    nu2 = NU * NU
    nu3 = nu2 * NU
    one = Coefficient.monomial(1)
    displays = [
        ("a", [(one, "a"), (NU, "1")]),
        ("a[b]", [(one, "a[b]"), (NU, "a"), (NU, "b"), (nu2, "1")]),
        ("a[b c]", [(one, "a[b c]"), (NU, "a[b]"), (NU, "a[c]"),
                    (NU, "b c"), (nu2, "a"), (nu2, "b"), (nu2, "c"),
                    (nu3, "1")]),
        ("a[b[c]]", [(one, "a[b[c]]"), (NU, "a[b]"), (NU, "a[c]"),
                     (NU, "b[c]"), (nu2, "a"), (nu2, "b"), (nu2, "c"),
                     (nu3, "1")]),
    ]
    for text, expect in displays:
        F = parse_forest(text, AB_PHI)
        want = _lc1(AB_PHI, expect)
        yield (f"phi {text} (recursive)",
               lambda F=F, want=want: (phi_forest(F), want))
        yield (f"phi {text} (subsets)",
               lambda F=F, want=want: (phi_subsets(F), want))


def _case_prelie():
    F1 = parse_forest("x", AB_PL)
    F2 = parse_forest("a[b]", AB_PL)
    F3 = parse_forest("c y", AB_PL)
    cases = [
        ("prelie x |> a[b]", lambda: prelie(F1, F2),
         [(MU, "x a"), (MU, "b x"),
          (-LAM, "x a[b]"), (-LAM, "b x a"), (-LAM, "a[b] x")]),
        ("prelie a[b] |> x", lambda: prelie(F2, F1),
         [(MU, "a[b]"), (-LAM, "x a[b]"), (-LAM, "a[b] x")]),
        ("bracket [x, a[b]]", lambda: bracket(F1, F2),
         [(MU, "x a"), (MU, "b x"), (-MU, "a[b]"), (-LAM, "b x a")]),
        ("prelie a[b] |> c y", lambda: prelie(F2, F3),
         [(MU, "a[b] y"), (MU, "c a[b]"),
          (-LAM, "a[b] c y"), (-LAM, "c a[b] y"), (-LAM, "c y a[b]")]),
        ("prelie x |> a[b] (sandwich)", lambda: prelie_sandwich(F1, F2),
         [(MU, "x a"), (MU, "b x"),
          (-LAM, "x a[b]"), (-LAM, "b x a"), (-LAM, "a[b] x")]),
    ]
    for label, compute, expect in cases:
        want = _lc1(AB_PL, expect)
        yield label, (lambda compute=compute, want=want:
                      (compute(), want))

    # associator difference F1|>(F2|>F3) - (F1|>F2)|>F3, symmetric in F1, F2
    assoc_terms = [
        (M2, "a[b] x"), (M2, "x a[b]"),
        (-ML, "a[b] y x"), (-ML, "x y a[b]"),
        (-ML, "a[b] c x"), (-ML, "x c a[b]"),
        (-ML, "a[b] x y"), (-ML, "x a[b] y"),
        (-ML, "c a[b] x"), (-ML, "c x a[b]"),
        (L2, "a[b] c x y"), (L2, "x c a[b] y"),
        (L2, "a[b] c y x"), (L2, "x c y a[b]"),
        (L2, "c a[b] y x"), (L2, "c x y a[b]"),
    ]
    want = _lc1(AB_PL, assoc_terms)

    def assoc():
        u1 = LinComb.single(F1)
        u2 = LinComb.single(F2)
        u3 = LinComb.single(F3)
        got = (prelie_lin(u1, prelie_lin(u2, u3))
               - prelie_lin(prelie_lin(u1, u2), u3))
        return got, want

    yield "prelie associator difference (x, a[b], c y)", assoc


def _case_counit():
    e = parse_forest("1", AB_COP)
    x = parse_forest("x", AB_COP)
    yield ("counit 1 = -l^-1",
           lambda: (counit(e), Coefficient.monomial(-1, a=-1)))
    yield ("counit x = -m*l^-2",
           lambda: (counit(x), Coefficient.monomial(-1, a=-2, b=1)))
    yield ("counit x rendered", lambda: (str(counit(x)), "-m*l^-2"))
    three = parse_forest("a[b x]", AB_COP)
    yield ("counit at lambda=-1 on 3 vertices = (-m)^3",
           lambda: (counit(three).subst_partial(lam=Fraction(-1)),
                    Coefficient.monomial(-1, b=3)))


def golden_cases():
    """Yield (label, thunk) pairs; each thunk returns (got, want)."""
    yield from _case_coproducts()
    yield from _case_biideals()
    yield from _case_star()
    yield from _case_star_weighted()
    yield from _case_phi()
    yield from _case_prelie()
    yield from _case_counit()

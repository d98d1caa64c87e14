"""Exact coefficient arithmetic and free modules over forest bases.

Coefficients live in Q[mu,nu][lambda, 1/lambda]: finitely many monomials
q * l^a * m^b * n^c with q rational, a any integer (the counit needs
negative powers of lambda), b and c non-negative. Equality of
coefficients and of linear combinations is the oracle every verification
suite reduces to.

Coefficients are canonical, as trees and forests are: every one is made
by _make, which interns on the set of its (monomial, rational) terms, so
two equal values are one object. Equality and hash are therefore object
identity (no Python-level __eq__ or __hash__), LinComb.__eq__ compares
its dicts in C, and pickle and copy return the interned instance. _make
stores a new value with dict.setdefault, so threads racing on one new
value share one instance. Never mutate a coefficient's terms dict: the
intern table and every holder of the value share it.

Because values are canonical, sums and products are memoised by operand
identity: _ADD and _MUL map a pair (c, d) to the canonical c + d and
c * d. The suites multiply a handful of distinct coefficients over and
over (every biideal coproduct term is -l or m), so nearly every ring
operation in a law check is one dict lookup. Only this module reads
the memos: the operators look a pair up first, and LinComb.apply,
apply_leg and _add_products, which carry the suites' ring work, read
them inline. Evaluation is memoised the same way: _SUBST maps
(c, lam, mu, nu) to c.subst_partial(lam, mu, nu), since an evaluated
suite or CLI result substitutes one point into the same few
coefficients over and over.

Each sum is written once per shape. On a memo miss, Coefficient's sum,
product and evaluation all add monomials through _summed. Over a basis,
_add_products is the bilinear extension of a basis product in one pass:
LinComb.tensor, morphisms.lc_concat, star_lin, star_weighted,
prelie_lin and bracket_lin are each one to three calls to it, and the
last four hold the images they compute in one table, _HELD, keyed on
the product and its left operand, until the next sweep (see
_add_products). dualprod.star holds its regrafted prefixes in the same
table, keyed on (dualprod._regrafted, F) and then on G's first tree.
The other hot sums, LinComb.__add__, apply, apply_leg and map_basis,
keep loops of their own for speed (see the comment above LinComb.apply).
Every accumulation loop over a basis tests cancellation with `is ZERO`.

The held rows, the three memos and the coefficient table live until the
next forest intern sweep, whether run_suite, cli.main or a library
caller reached it: this module registers _HELD, _ADD, _MUL and _SUBST
in forest._CACHES and _INTERN in forest._INTERNS, after the forest and
tree tables. The sweep clears every registered cache before it forgets
any intern table, each by the same pass, so a coefficient or a tree
that only a held row or a memo held goes in the same sweep.

A rational part q is stored as an int when it is integral and as a
Fraction otherwise: _make converts integral Fractions when it stores a
new value, so the one instance of an integral value holds ints whichever
route (evaluation, a Fraction sum) made it first. Coproduct, star, phi
and theta coefficients are all integral, so ring arithmetic runs on
ints, which are far cheaper than Fractions; Fractions enter only through
evaluation at rational points. Since Fraction(2) == 2 and the two hash
alike, a lookup with Fraction-stored terms finds the same instance.

A rational part, wherever one is given (Coefficient(terms),
Coefficient.monomial, LinComb(terms), scale), and an evaluation point
(subst_partial, and eval_at, LinComb.subst_partial and morphisms.phi_at
through it) must be an int or a Fraction; any other type, a float or a
string included, raises TypeError, so no value is rounded or parsed on
the way in. The exponent triple of Coefficient(terms) and
Coefficient.monomial follows the same rule: ints only, anything else a
TypeError.

LinComb maps basis elements to coefficients. Bases are forests or tuples
of forests (tensor legs); tensoring concatenates leg tuples, and
apply_leg maps one leg of every tuple in a single pass, splicing the
image's legs in place of it. LinComb() is zero; LinComb(terms) converts
int and Fraction values through Coefficient.monomial and drops zeros.

This module is the one home of the LinComb representation. Every
LinComb that LinComb(...) does not check is made by _trusted_lincomb,
which states the invariant (nonzero Coefficient values) once; the
operations here, coalgebra's biideal coproduct, dualprod's star and
morphisms' theta and concatenation basis all return through it, and no
other module assigns terms. _as_lincomb is the one coercion of an
operand: a LinComb as it is, a Forest as its single term, anything else
a TypeError; pairing, star_lin, star_weighted, prelie_lin, bracket_lin,
coproduct_lin, phi and theta use it.

A LinComb's text and JSON text are written from one list of rows
(LinComb._rendered), sorted on one string per term: its leg text, or for
a tensor its leg texts joined by "\0". Every character of a leg text
sorts after "\0", so the joined strings order the terms exactly as their
lists of leg texts do. The rows are built with memos that live for one
call: tree -> text (forest._tree_text), leg forest -> text, and
coefficient -> text or JSON text. So each distinct subtree, leg and
coefficient of one output is rendered once, and nothing is kept between
calls. to_json_text writes each term's JSON text straight from its row,
with no dict or list per term; to_json is json.loads of that text, so
the term format is written once and no two terms of one to_json result
share a mutable object.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable

from .forest import _CACHES, _INTERNS, Forest, _forest_text, concat

__all__ = [
    "Coefficient", "LinComb", "ZERO", "ONE", "LAM", "MU", "NU",
    "act_left", "act_right",
]

# frozenset of a value's terms -> its one Coefficient
_INTERN: dict = {}
# (c, d) -> c + d and c * d; tuples of coefficients hash by identity in C
_ADD: dict = {}
_MUL: dict = {}
# (c, lam, mu, nu) -> c.subst_partial(lam, mu, nu); a point of 2 and one
# of Fraction(2) are equal and hash alike, so they share an entry
_SUBST: dict = {}
# every row held since the last sweep, each keyed on the function that
# made it and its left operand: (f, F) -> {G: f(F, G)} for the bilinear
# images that _add_products held (held=True), star's and prelie's alike,
# and (dualprod._regrafted, F) -> {first tree of G: prefixes} for star
_HELD: dict = {}
# each lives until the next forest intern sweep (module docstring)
_CACHES.extend((_HELD, _ADD, _MUL, _SUBST))
_INTERNS.append(_INTERN)


def _make(acc: dict) -> "Coefficient":
    """The canonical Coefficient whose terms are acc.

    acc must already be canonical but for storage (int exponent triples,
    no zero rational; integral Fractions are converted here). It becomes
    the new value's terms when the value is new, so the caller must not
    touch it afterwards.
    """
    key = frozenset(acc.items())
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    # integral Fractions (from evaluation, or Fraction sums such as
    # 1/2 + 1/2) are stored as ints, whichever route makes a value first
    for mono, q in acc.items():
        if type(q) is not int and q.denominator == 1:
            acc[mono] = q.numerator
    c = object.__new__(Coefficient)
    c.terms = acc
    # setdefault is one C call, so threads racing on a new value all get
    # the instance stored first
    return _INTERN.setdefault(key, c)


def _check_points(lam, mu, nu) -> None:
    """Raise TypeError unless each of lam, mu and nu is None, an int or a
    Fraction: the one check of an evaluation point (module docstring),
    made by subst_partial and by verify.RunConfig."""
    for v in (lam, mu, nu):
        if v is not None and not isinstance(v, (int, Fraction)):
            raise TypeError("an evaluation point must be an int or a "
                            f"Fraction, not {type(v).__name__}")


def _summed(acc: dict, pairs) -> "Coefficient":
    """The canonical Coefficient of acc plus every (monomial, rational) of
    pairs, a monomial whose sum is zero dropped.

    The one monomial sum of the ring: __add__, __mul__ and subst_partial
    call it, on memo misses only. acc is consumed as in _make.
    """
    for mono, q in pairs:
        s = acc.get(mono, 0) + q
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
    return _make(acc)


class Coefficient:
    """Element of Q[mu,nu][lambda, 1/lambda] in canonical form.

    terms maps exponent triples (a, b, c) for l^a m^b n^c to nonzero
    rationals: an int when integral, a Fraction otherwise. Canonical:
    Coefficient(...) validates its terms and returns the one interned
    instance of that value, so equality and hash are identity. Sums and
    products are memoised by operand identity (module docstring). Never
    mutate terms.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms=None):
        acc = {}
        if terms:
            for mono, q in dict(terms).items():
                if type(q) is not int and not isinstance(q, Fraction):
                    if not isinstance(q, int):
                        raise TypeError(
                            "a rational part must be an int or a Fraction, "
                            f"not {type(q).__name__}")
                    q = int(q)
                a, b, c = mono
                if not (isinstance(a, int) and isinstance(b, int)
                        and isinstance(c, int)):
                    raise TypeError(f"exponents must be ints, not {mono!r}")
                if q:
                    if b < 0 or c < 0:
                        raise ValueError(f"negative mu/nu exponent in {mono}")
                    acc[(int(a), int(b), int(c))] = q
        return _make(acc)

    def __reduce__(self):
        return Coefficient, (self.terms,)

    @staticmethod
    def monomial(q, a=0, b=0, c=0) -> "Coefficient":
        return Coefficient({(a, b, c): q})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        out = _ADD.get((self, other))
        if out is None:
            out = _ADD[self, other] = _summed(dict(self.terms),
                                              other.terms.items())
        return out

    def __neg__(self):
        return _make({m: -q for m, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        out = _MUL.get((self, other))
        if out is None:
            other_terms = other.terms.items()
            out = _MUL[self, other] = _summed({}, (
                ((a1 + a2, b1 + b2, c1 + c2), q1 * q2)
                for (a1, b1, c1), q1 in self.terms.items()
                for (a2, b2, c2), q2 in other_terms))
        return out

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative coefficient powers are not defined")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def subst_mu(self, p: "Coefficient") -> "Coefficient":
        """Replace every mu^b by p^b. p must be polynomial in lambda."""
        if any(a < 0 for a, _, _ in p.terms):
            raise ValueError("mu-substitute must have no negative lambda exponents")
        out = ZERO
        powers = {0: ONE}
        for (a, b, c), q in self.terms.items():
            if b not in powers:
                powers[b] = p ** b
            out = out + Coefficient.monomial(q, a, 0, c) * powers[b]
        return out

    def subst_partial(self, lam=None, mu=None, nu=None) -> "Coefficient":
        """Substitute rational values for any subset of the variables.

        Memoised by (self, lam, mu, nu); a pole (lam = 0 against a
        negative lambda power) raises on every call and is not stored.
        A value must be an int or a Fraction, as a rational part must
        (module docstring): anything else raises TypeError before the
        memo is read, since a float equal to a stored key would hit it.
        """
        _check_points(lam, mu, nu)
        key = (self, lam, mu, nu)
        out = _SUBST.get(key)
        if out is not None:
            return out
        pairs = []
        for (a, b, c), q in self.terms.items():
            if lam is not None:
                if lam == 0 and a < 0:
                    raise ZeroDivisionError("lambda = 0 meets a negative power")
                q, a = q * Fraction(lam) ** a, 0
            if mu is not None:
                q, b = q * Fraction(mu) ** b, 0
            if nu is not None:
                q, c = q * Fraction(nu) ** c, 0
            pairs.append(((a, b, c), q))
        out = _SUBST[key] = _summed({}, pairs)
        return out

    def eval_at(self, lam, mu, nu) -> Fraction:
        """The rational value at a point; a variable left as None that
        occurs in self raises ValueError."""
        c = self.subst_partial(lam=lam, mu=mu, nu=nu)
        if any(m != (0, 0, 0) for m in c.terms):
            raise ValueError(f"{c} still has a variable: eval_at needs "
                             "a value for each one that occurs")
        return Fraction(c.terms.get((0, 0, 0), 0))

    # text and JSON forms ---------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            q = self.terms[mono]
            body = _mono_str(abs(q), mono)
            if not parts:
                parts.append(body if q > 0 else "-" + body)
            else:
                parts.append((" + " if q > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Coefficient({str(self)!r})"

    def to_json(self):
        return [{"q": str(self.terms[m]), "l": m[0], "m": m[1], "n": m[2]}
                for m in sorted(self.terms)]


def _mono_str(q: Fraction, mono) -> str:
    a, b, c = mono
    factors = []
    for sym, e in (("l", a), ("m", b), ("n", c)):
        if e > 0:
            factors.append(sym if e == 1 else f"{sym}^{e}")
    if a < 0:
        factors.append(f"l^{a}")
    if not factors:
        return str(q)
    if q != 1:
        factors.insert(0, str(q))
    return "*".join(factors)


ZERO = Coefficient()
ONE = Coefficient.monomial(1)
LAM = Coefficient.monomial(1, a=1)
MU = Coefficient.monomial(1, b=1)
NU = Coefficient.monomial(1, c=1)


# --------------------------------------------------------------- free module

def _trusted_lincomb(terms: dict) -> "LinComb":
    """The LinComb whose terms are the dict terms, taken as it is.

    The one place a LinComb is made without LinComb(...)'s conversion,
    and so the one statement of its invariant: every key of terms is a
    basis (a forest or a tuple of forests) and every value a nonzero
    Coefficient. Every operation of this module, and every module that
    builds a sum of its own, returns its result through here. terms
    becomes the new value's, so the caller must not touch it afterwards.
    """
    out = LinComb.__new__(LinComb)
    out.terms = terms
    return out


def _tensor_basis(b1, b2) -> "LinComb":
    """The basis tensor b1 (x) b2: the legs of b1, then those of b2. Made
    without LinComb.single, which costs a call more per pair."""
    return _trusted_lincomb({(b1 if type(b1) is tuple else (b1,))
                             + (b2 if type(b2) is tuple else (b2,)): ONE})


class LinComb:
    """Finitely-supported map basis -> Coefficient, in canonical form.

    Bases are forests (rank 1) or tuples of forests (tensor legs). All
    operations are exact and return new values. LinComb() is zero, and
    LinComb(terms) takes Coefficient, int or Fraction values, converted
    as scale converts its argument.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for b, c in dict(terms).items():
                if c.__class__ is not Coefficient:
                    c = Coefficient.monomial(c)
                if c:
                    self.terms[b] = c

    @staticmethod
    def single(basis, coeff=ONE) -> "LinComb":
        """coeff basis; coeff converted as LinComb(terms) converts it."""
        if coeff.__class__ is not Coefficient:
            coeff = Coefficient.monomial(coeff)
        return _trusted_lincomb({basis: coeff} if coeff else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        acc = dict(self.terms)
        for b, c in other.terms.items():
            s = acc.get(b)
            if s is None:
                acc[b] = c
                continue
            s = s + c
            if s is ZERO:
                del acc[b]
            else:
                acc[b] = s
        return _trusted_lincomb(acc)

    def __neg__(self):
        return _trusted_lincomb({b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "LinComb":
        if coeff.__class__ is not Coefficient:
            coeff = Coefficient.monomial(coeff)
        if not coeff:
            return LinComb()
        return _trusted_lincomb({b: c * coeff for b, c in self.terms.items()})

    def tensor(self, other: "LinComb") -> "LinComb":
        """self (x) other: the legs of each basis of self, then those of
        each basis of other."""
        return _add_products({}, self, other, _tensor_basis)

    # apply and apply_leg carry the law suites' ring work, so they read
    # the memos directly instead of calling the operators (with the
    # operators, a laws-symbolic pass took ~9% longer); apply_leg and
    # _tensor_basis wrap a forest key as a leg inline, since a helper call
    # per image term to do it was 0.30 s of a profiled laws-symbolic pass.
    #
    # The five hot sums (__add__, apply, apply_leg, map_basis and
    # _add_products) stay separate loops. A prototype that routed all
    # but apply_leg through one _add_scaled(acc, pairs, c) raised
    # laws-symbolic wall_s from 2.018 to 2.228 s and its query_p50_ms
    # from 285 to 316 ms (perfbench, medians of 5 alternating pairs,
    # 2-vCPU x86 host, Python 3.11). Routing apply_leg through per-term
    # lists made it slower in 8 of 8 pairs (raw wall time).

    def apply(self, f: Callable) -> "LinComb":
        """Linear extension of a basis map f: basis -> LinComb.

        Products of nonzero coefficients are nonzero (the ring has no zero
        divisors), so only a sum can cancel a term.
        """
        acc = {}
        for b, c in self.terms.items():
            for key, d in f(b).terms.items():
                p = _MUL.get((d, c))
                if p is None:
                    p = d * c
                s = acc.get(key)
                if s is None:
                    acc[key] = p
                    continue
                t = _ADD.get((s, p))
                if t is None:
                    t = s + p
                if t is ZERO:
                    del acc[key]
                else:
                    acc[key] = t
        return _trusted_lincomb(acc)

    def apply_leg(self, i: int, f: Callable) -> "LinComb":
        """Linear extension of a basis map f on tensor leg i.

        Each term c (legs) contributes d c (legs[:i] + k + legs[i+1:]) for
        every term d k of f(legs[i]), where a forest k counts as one leg
        and a tuple k as its legs. Everything accumulates into one dict
        with the cancellation of apply, so (D (x) id) D needs no
        intermediate tensor per term.
        """
        acc = {}
        for legs, c in self.terms.items():
            head, tail = legs[:i], legs[i + 1:]
            for k, d in f(legs[i]).terms.items():
                key = head + (k if type(k) is tuple else (k,)) + tail
                p = _MUL.get((d, c))
                if p is None:
                    p = d * c
                s = acc.get(key)
                if s is None:
                    acc[key] = p
                    continue
                t = _ADD.get((s, p))
                if t is None:
                    t = s + p
                if t is ZERO:
                    del acc[key]
                else:
                    acc[key] = t
        return _trusted_lincomb(acc)

    def map_basis(self, g: Callable) -> "LinComb":
        acc = {}
        for b, c in self.terms.items():
            key = g(b)
            s = acc.get(key)
            if s is None:
                acc[key] = c
                continue
            s = s + c
            if s is ZERO:
                del acc[key]
            else:
                acc[key] = s
        return _trusted_lincomb(acc)

    def map_coeff(self, h: Callable) -> "LinComb":
        """Apply h to every coefficient, dropping the terms it sends to
        zero. Coefficients are canonical, so h runs once per distinct
        coefficient of this call and the terms sharing it reuse the image."""
        images: dict = {}
        acc: dict = {}
        for b, c in self.terms.items():
            v = images.get(c)
            if v is None:
                v = images[c] = h(c)
            if v:
                acc[b] = v
        return _trusted_lincomb(acc)

    def subst_partial(self, lam=None, mu=None, nu=None) -> "LinComb":
        """Coefficient.subst_partial on every coefficient, dropping the
        terms that vanish at the point."""
        return self.map_coeff(lambda c: c.subst_partial(lam, mu, nu))

    def coeff_of(self, basis) -> Coefficient:
        return self.terms.get(basis, ZERO)

    def _rendered(self):
        """(key, coefficient) per term, sorted on key: the leg text, or
        for a tensor the leg texts joined by "\0" (module docstring).

        The memos live for this call only: legs maps each distinct leg
        forest of a tensor to its text, and trees each distinct tree to
        its text (forest._tree_text), so a tree that many legs share is
        walked once. A rank-1 basis is met once, so it needs no leg memo."""
        trees: dict = {}
        legs: dict = {}
        rows = []
        for b, c in self.terms.items():
            if b.__class__ is tuple:
                texts = []
                for leg in b:
                    text = legs.get(leg)
                    if text is None:
                        text = legs[leg] = _forest_text(leg, trees)
                    texts.append(text)
                rows.append(("\0".join(texts), c))
            else:
                rows.append((_forest_text(b, trees), c))
        rows.sort(key=itemgetter(0))
        return rows

    def __str__(self):
        if not self.terms:
            return "0"
        # coefficient -> the text that opens its lines, for this call; a
        # phi image has n + 1 distinct coefficients over up to 2**n terms
        heads: dict = {}
        lines = []
        for key, c in self._rendered():
            head = heads.get(c)
            if head is None:
                head = heads[c] = f"({c}) "
            lines.append(head + key)
        return "\n".join(lines).replace("\0", " (x) ")

    def __repr__(self):
        n = len(self.terms)
        return f"LinComb<{n} term{'s' if n != 1 else ''}>"

    def to_json_text(self) -> str:
        """The JSON text of the terms, in the order of __str__: a list of
        {"coeff": Coefficient.to_json(), "legs": [leg texts]}, written as
        json.dumps writes it.

        Each distinct coefficient's JSON text is made once per call. A leg
        text is written as it is, unescaped: its symbols match
        [A-Za-z_][A-Za-z0-9_]*, which Alphabet checks, and the text adds
        only "[", "]", " " and "1", none of which JSON escapes."""
        # imported here, so that importing the package loads no json
        import json

        heads: dict = {}
        parts = []
        for key, c in self._rendered():
            head = heads.get(c)
            if head is None:
                head = heads[c] = ('{"coeff": ' + json.dumps(c.to_json())
                                   + ', "legs": ["')
            parts.append(f'{head}{key}"]}}')
        return f"[{', '.join(parts)}]".replace("\0", '", "')

    def to_json(self):
        """The terms as JSON-ready dicts, in the order of __str__:
        to_json_text read back, so every term has objects of its own."""
        import json

        return json.loads(self.to_json_text())


def _add_products(acc: dict, x: LinComb, y: LinComb, f: Callable,
                  k: Coefficient = ONE, held: bool = False) -> LinComb:
    """Add k c d f(F, G) into acc for every term c F of x and d G of y
    (k nonzero), and return the LinComb whose terms are acc.

    The bilinear extension of a basis product f in one pass: each image
    term is multiplied once and added straight into acc, with no LinComb
    per pair, and a further call with the same acc adds another product
    to the same sum. x is the outer loop, so f sees one F for all of y
    in a row. Like apply, it reads the memos inline and drops a
    cancelled term on `is ZERO`; an image coefficient of ONE, as nearly
    all of star's are, costs no product.

    With held, the images are kept in _HELD, which maps (f, F) to a
    dict G -> f(F, G), so a pair seen before costs one lookup, whichever
    call saw it. The key names f, so one table serves every product, and
    a product replaced at run time (a test's mutant) never reads the
    images of another. star_lin, star_weighted, prelie_lin and
    bracket_lin pass held; the products whose pairs do not repeat
    (tensor, lc_concat) do not. Threads that miss on one pair at once
    each compute it and store equal images.
    """
    yterms = y.terms.items()
    row = None
    for F, c in x.terms.items():
        if k is not ONE:
            ck = _MUL.get((c, k))
            c = c * k if ck is None else ck
        if held:
            row = _HELD.get((f, F))
            if row is None:
                row = _HELD.setdefault((f, F), {})
        for G, d in yterms:
            cd = _MUL.get((c, d))
            if cd is None:
                cd = c * d
            if row is None:
                image = f(F, G)
            else:
                image = row.get(G)
                if image is None:
                    image = row[G] = f(F, G)
            for key, e in image.terms.items():
                if e is ONE:
                    p = cd
                else:
                    p = _MUL.get((e, cd))
                    if p is None:
                        p = e * cd
                s = acc.get(key)
                if s is None:
                    acc[key] = p
                    continue
                t = _ADD.get((s, p))
                if t is None:
                    t = s + p
                if t is ZERO:
                    del acc[key]
                else:
                    acc[key] = t
    return _trusted_lincomb(acc)


def _as_lincomb(x) -> LinComb:
    """x as a LinComb: a LinComb as it is, a Forest as its single term
    with coefficient 1. Anything else raises TypeError."""
    if isinstance(x, LinComb):
        return x
    if isinstance(x, Forest):
        return LinComb.single(x)
    raise TypeError(f"expected Forest or LinComb, got {type(x).__name__}")


def act_left(F: Forest, t: LinComb) -> LinComb:
    """Bimodule action a.(b (x) c) = ab (x) c on pair tensors."""
    return t.map_basis(lambda legs: (concat(F, legs[0]),) + legs[1:])


def act_right(t: LinComb, F: Forest) -> LinComb:
    """Bimodule action (b (x) c).a = b (x) ca on pair tensors."""
    return t.map_basis(lambda legs: legs[:-1] + (concat(legs[-1], F),))

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
them inline. _add_products is the bilinear extension of a basis
product in one pass; star_lin, star_weighted, prelie_lin and
bracket_lin are each one to three calls to it. Every accumulation loop
tests cancellation with `is ZERO`. Evaluation is memoised the same way:
_SUBST maps (c, lam, mu, nu) to c.subst_partial(lam, mu, nu), since an
evaluated suite or CLI result substitutes one point into the same few
coefficients over and over.
sweep_coefficients clears the three memos and drops every interned value
that nothing else holds; verify.run_suite calls it whenever
forest.sweep_if_due sweeps the forest tables between cases.

A rational part q is stored as an int when it is integral and as a
Fraction otherwise: _make converts integral Fractions when it stores a
new value, so the one instance of an integral value holds ints whichever
route (evaluation, a Fraction sum) made it first. Coproduct, star, phi
and theta coefficients are all integral, so ring arithmetic runs on
ints, which are far cheaper than Fractions; Fractions enter only through
evaluation at rational points. Since Fraction(2) == 2 and the two hash
alike, a lookup with Fraction-stored terms finds the same instance.

LinComb maps basis elements to coefficients. Bases are forests or tuples
of forests (tensor legs); tensoring concatenates leg tuples, and
apply_leg maps one leg of every tuple in a single pass, splicing the
image's legs in place of it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable

from .forest import Forest, _forget_unheld, concat

__all__ = [
    "Coefficient", "LinComb", "ZERO", "ONE", "LAM", "MU", "NU",
    "act_left", "act_right", "sweep_coefficients",
]

# frozenset of a value's terms -> its one Coefficient
_INTERN: dict = {}
# (c, d) -> c + d and c * d; tuples of coefficients hash by identity in C
_ADD: dict = {}
_MUL: dict = {}
# (c, lam, mu, nu) -> c.subst_partial(lam, mu, nu); a point of 2 and one
# of Fraction(2) are equal and hash alike, so they share an entry
_SUBST: dict = {}


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
                if type(q) is not int:
                    q = Fraction(q)
                if q:
                    a, b, c = mono
                    if b < 0 or c < 0:
                        raise ValueError(f"negative mu/nu exponent in {mono}")
                    acc[(int(a), int(b), int(c))] = q
        return _make(acc)

    def __reduce__(self):
        return Coefficient, (self.terms,)

    @staticmethod
    def monomial(q, a=0, b=0, c=0) -> "Coefficient":
        return Coefficient({(a, b, c): q})

    @staticmethod
    def from_rational(q) -> "Coefficient":
        return Coefficient({(0, 0, 0): q})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        out = _ADD.get((self, other))
        if out is None:
            acc = dict(self.terms)
            for mono, q in other.terms.items():
                s = acc.get(mono, 0) + q
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
            out = _ADD[self, other] = _make(acc)
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
            acc = {}
            for (a1, b1, c1), q1 in self.terms.items():
                for (a2, b2, c2), q2 in other.terms.items():
                    mono = (a1 + a2, b1 + b2, c1 + c2)
                    s = acc.get(mono, 0) + q1 * q2
                    if s:
                        acc[mono] = s
                    else:
                        acc.pop(mono, None)
            out = _MUL[self, other] = _make(acc)
        return out

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative coefficient powers are not defined")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def is_polynomial(self):
        """True when no negative lambda exponent occurs."""
        return all(a >= 0 for (a, _, _) in self.terms)

    def subst_mu(self, p: "Coefficient") -> "Coefficient":
        """Replace every mu^b by p^b. p must be polynomial in lambda."""
        if not p.is_polynomial():
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
        """
        key = (self, lam, mu, nu)
        out = _SUBST.get(key)
        if out is not None:
            return out
        acc = {}
        for (a, b, c), q in self.terms.items():
            if lam is not None:
                if lam == 0 and a < 0:
                    raise ZeroDivisionError("lambda = 0 meets a negative power")
                q, a = q * Fraction(lam) ** a, 0
            if mu is not None:
                q, b = q * Fraction(mu) ** b, 0
            if nu is not None:
                q, c = q * Fraction(nu) ** c, 0
            if q:
                mono = (a, b, c)
                s = acc.get(mono, 0) + q
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        out = _SUBST[key] = _make(acc)
        return out

    def eval_at(self, lam, mu, nu) -> Fraction:
        c = self.subst_partial(lam=lam, mu=mu, nu=nu)
        assert all(m == (0, 0, 0) for m in c.terms)
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

def sweep_coefficients() -> None:
    """Clear the sum, product and evaluation memos, then drop every
    interned coefficient that nothing else holds.

    The memos go first, since their keys and values hold coefficients.
    No coefficient refers to another, so one pass over the intern table
    reads every final count, as for forests (forest.sweep_interned, whose
    threading caveat applies here too). run_suite runs it after each
    forest sweep.
    """
    _ADD.clear()
    _MUL.clear()
    _SUBST.clear()
    _forget_unheld(_INTERN)


# --------------------------------------------------------------- free module

def _legs(basis) -> tuple:
    return basis if isinstance(basis, tuple) else (basis,)


def _basis_key(basis):
    return tuple(str(leg) for leg in _legs(basis))


class LinComb:
    """Finitely-supported map basis -> Coefficient, in canonical form.

    Bases are forests (rank 1) or tuples of forests (tensor legs). All
    operations are exact and return new values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for b, c in dict(terms).items():
                if c:
                    self.terms[b] = c

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(basis, coeff=ONE) -> "LinComb":
        out = LinComb.__new__(LinComb)
        out.terms = {basis: coeff} if coeff else {}
        return out

    def is_zero(self):
        return not self.terms

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
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

    def __neg__(self):
        out = LinComb.__new__(LinComb)
        out.terms = {b: -c for b, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "LinComb":
        if not isinstance(coeff, Coefficient):
            coeff = Coefficient.from_rational(coeff)
        if not coeff:
            return LinComb.zero()
        out = LinComb.__new__(LinComb)
        out.terms = {b: c * coeff for b, c in self.terms.items()}
        return out

    def tensor(self, other: "LinComb") -> "LinComb":
        acc = {}
        for b1, c1 in self.terms.items():
            l1 = b1 if type(b1) is tuple else (b1,)
            for b2, c2 in other.terms.items():
                key = l1 + (b2 if type(b2) is tuple else (b2,))
                p = c1 * c2
                s = acc.get(key)
                if s is None:
                    acc[key] = p
                    continue
                s = s + p
                if s is ZERO:
                    del acc[key]
                else:
                    acc[key] = s
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

    # apply and apply_leg carry the law suites' ring work, so they read
    # the memos directly instead of calling the operators (with the
    # operators, a laws-symbolic pass took ~9% longer); apply_leg and
    # tensor wrap a forest key as a leg inline, since a _legs call per
    # image term was 0.30 s of a profiled laws-symbolic pass

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
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

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
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

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
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

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
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

    def coeff_of(self, basis) -> Coefficient:
        return self.terms.get(basis, ZERO)

    def _rendered(self):
        """(leg texts, coefficient, basis) per term, sorted on the texts;
        each leg is rendered once."""
        return sorted(((_basis_key(b), c, b) for b, c in self.terms.items()),
                      key=itemgetter(0))

    def terms_sorted(self):
        return [(b, c) for _, c, b in self._rendered()]

    def __str__(self):
        if not self.terms:
            return "0"
        return "\n".join(f"({c}) {' (x) '.join(legs)}"
                         for legs, c, _ in self._rendered())

    def __repr__(self):
        n = len(self.terms)
        return f"LinComb<{n} term{'s' if n != 1 else ''}>"

    def to_json(self):
        return [{"coeff": c.to_json(), "legs": list(legs)}
                for legs, c, _ in self._rendered()]


def _add_products(acc: dict, x: LinComb, y: LinComb, f: Callable,
                  k: Coefficient = ONE) -> LinComb:
    """Add k c d f(F, G) into acc for every term c F of x and d G of y
    (k nonzero), and return the LinComb whose terms are acc.

    The bilinear extension of a basis product f in one pass: each image
    term is multiplied once and added straight into acc, with no LinComb
    per pair, and a further call with the same acc adds another product
    to the same sum. x is the outer loop, so f sees one F for all of y
    in a row. Like apply, it reads the memos inline and drops a
    cancelled term on `is ZERO`; an image coefficient of ONE, as nearly
    all of star's are, costs no product.
    """
    yterms = y.terms.items()
    for F, c in x.terms.items():
        if k is not ONE:
            ck = _MUL.get((c, k))
            c = c * k if ck is None else ck
        for G, d in yterms:
            cd = _MUL.get((c, d))
            if cd is None:
                cd = c * d
            for key, e in f(F, G).terms.items():
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
    out = LinComb.__new__(LinComb)
    out.terms = acc
    return out


def act_left(F: Forest, t: LinComb) -> LinComb:
    """Bimodule action a.(b (x) c) = ab (x) c on pair tensors."""
    return t.map_basis(lambda legs: (concat(F, legs[0]),) + legs[1:])


def act_right(t: LinComb, F: Forest) -> LinComb:
    """Bimodule action (b (x) c).a = b (x) ca on pair tensors."""
    return t.map_basis(lambda legs: legs[:-1] + (concat(legs[-1], F),))

"""Exact coefficient arithmetic and free modules over forest bases.

Coefficients live in Q[mu,nu][lambda, 1/lambda]: finitely many monomials
q * l^a * m^b * n^c with q rational, a any integer (the counit needs
negative powers of lambda), b and c non-negative. Values are canonical
(no zero monomials stored), so equality of coefficients and of linear
combinations is plain structural equality; that equality is the oracle
every verification suite reduces to.

A rational part q is stored as an int when it is integral and as a
Fraction otherwise. Coproduct, star, phi and theta coefficients are all
integral, so ring arithmetic runs on ints, which are far cheaper than
Fractions; Fractions enter only through evaluation at rational points. Since Fraction(2) == 2 and the two
hash alike, equality, hashing, text and JSON do not depend on which type
holds an integral value.

LinComb maps basis elements to coefficients. Bases are forests or tuples
of forests (tensor legs); tensoring concatenates leg tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .forest import Forest, concat

__all__ = [
    "Coefficient", "LinComb", "ZERO", "ONE", "LAM", "MU", "NU",
    "coeff_add", "coeff_mul", "coeff_neg", "coeff_subst_mu", "coeff_eval",
    "lc_add", "lc_scale", "lc_tensor", "act_left", "act_right",
]


class Coefficient:
    """Element of Q[mu,nu][lambda, 1/lambda] in canonical form.

    terms maps exponent triples (a, b, c) for l^a m^b n^c to nonzero
    rationals: an int when integral, a Fraction otherwise. Treat
    instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, q in dict(terms).items():
                if type(q) is not int:
                    q = Fraction(q)
                    if q.denominator == 1:
                        q = q.numerator
                if q:
                    a, b, c = mono
                    if b < 0 or c < 0:
                        raise ValueError(f"negative mu/nu exponent in {mono}")
                    self.terms[(int(a), int(b), int(c))] = q

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

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        acc = dict(self.terms)
        for mono, q in other.terms.items():
            s = acc.get(mono, 0) + q
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        out = Coefficient.__new__(Coefficient)
        out.terms = acc
        return out

    def __neg__(self):
        out = Coefficient.__new__(Coefficient)
        out.terms = {m: -q for m, q in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        st, ot = self.terms, other.terms
        if len(st) == 1 and len(ot) == 1:
            # monomial times monomial: the product of nonzero rationals is nonzero
            ((a1, b1, c1), q1), = st.items()
            ((a2, b2, c2), q2), = ot.items()
            out = Coefficient.__new__(Coefficient)
            out.terms = {(a1 + a2, b1 + b2, c1 + c2): q1 * q2}
            return out
        acc = {}
        for (a1, b1, c1), q1 in st.items():
            for (a2, b2, c2), q2 in ot.items():
                mono = (a1 + a2, b1 + b2, c1 + c2)
                s = acc.get(mono, 0) + q1 * q2
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        out = Coefficient.__new__(Coefficient)
        out.terms = acc
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
        """Substitute rational values for any subset of the variables."""
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
        out = Coefficient.__new__(Coefficient)
        out.terms = acc
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


def coeff_add(c, d):
    return c + d


def coeff_mul(c, d):
    return c * d


def coeff_neg(c):
    return -c


def coeff_subst_mu(c, p):
    return c.subst_mu(p)


def coeff_eval(c, lam, mu, nu=Fraction(0)):
    return c.eval_at(lam, mu, nu)


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
        return LinComb({basis: coeff})

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
            s = c if s is None else s + c
            if s:
                acc[b] = s
            else:
                acc.pop(b, None)
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
            l1 = _legs(b1)
            for b2, c2 in other.terms.items():
                key = l1 + _legs(b2)
                c = c1 * c2
                s = acc.get(key)
                s = c if s is None else s + c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

    def apply(self, f: Callable) -> "LinComb":
        """Linear extension of a basis map f: basis -> LinComb."""
        acc = {}
        for b, c in self.terms.items():
            for key, d in f(b).terms.items():
                p = d * c
                s = acc.get(key)
                s = p if s is None else s + p
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

    def map_basis(self, g: Callable) -> "LinComb":
        acc = {}
        for b, c in self.terms.items():
            key = g(b)
            s = acc.get(key)
            s = c if s is None else s + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        out = LinComb.__new__(LinComb)
        out.terms = acc
        return out

    def map_coeff(self, h: Callable) -> "LinComb":
        return LinComb({b: h(c) for b, c in self.terms.items()})

    def coeff_of(self, basis) -> Coefficient:
        return self.terms.get(basis, ZERO)

    def terms_sorted(self):
        return sorted(self.terms.items(), key=lambda bc: _basis_key(bc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        lines = []
        for b, c in self.terms_sorted():
            legs = " (x) ".join(str(leg) for leg in _legs(b))
            lines.append(f"({c}) {legs}")
        return "\n".join(lines)

    def __repr__(self):
        n = len(self.terms)
        return f"LinComb<{n} term{'s' if n != 1 else ''}>"

    def to_json(self):
        return [{"coeff": c.to_json(), "legs": [str(leg) for leg in _legs(b)]}
                for b, c in self.terms_sorted()]


def lc_add(x: LinComb, y: LinComb) -> LinComb:
    return x + y


def lc_scale(coeff, x: LinComb) -> LinComb:
    return x.scale(coeff)


def lc_tensor(x: LinComb, y: LinComb) -> LinComb:
    return x.tensor(y)


def act_left(F: Forest, t: LinComb) -> LinComb:
    """Bimodule action a.(b (x) c) = ab (x) c on pair tensors."""
    return t.map_basis(lambda legs: (concat(F, legs[0]),) + legs[1:])


def act_right(t: LinComb, F: Forest) -> LinComb:
    """Bimodule action (b (x) c).a = b (x) ca on pair tensors."""
    return t.map_basis(lambda legs: legs[:-1] + (concat(legs[-1], F),))

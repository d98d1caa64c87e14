"""The pre-Lie product induced by the coproduct, and its Lie bracket.

F1 |> F2 sandwiches F1 between the tensor legs of the coproduct of F2:

    F1 |> F2 = sum over D(F2) terms c (G (x) H) of c (G F1 H).

Expanding along the biideal chain gives the closed form

    F1 |> F2 = -l sum_{k=0..n} F2|I_k F1 F2|J_k
               + m sum_{k=1..n} F2|I_{k-1} F1 F2|J_k,

so prelie (the fast path) rides the biideal coproduct while
prelie_sandwich sandwiches over the recursive coproduct and serves as the
independent oracle (suite prelie-closed-form pins their equality).

The left pre-Lie identity (a|>b)|>c - a|>(b|>c) = (b|>a)|>c - b|>(a|>c)
holds, so [F1, F2] = F1|>F2 - F2|>F1 is a Lie bracket.

prelie_lin and bracket_lin, the bilinear extensions the identity suites
nest, accumulate every term into one sum with freemod._add_products;
bracket_lin adds both orders into it, the second with coefficient -1.
Each takes its operands as a Forest or a LinComb, through
freemod._as_lincomb.

The images prelie_lin and bracket_lin compute are held in freemod's
table of bilinear images (freemod._HELD), keyed on (prelie, F1) and
then F2, until the next intern sweep: the prelie
and jacobi suites rebuild the inner product of a triple for every third
forest, so a pair made before costs one lookup. prelie is read from
this module at call time, so a replaced prelie (a test's mutant, a
tracer's wrapper) is called and keyed as itself. Direct calls of
prelie, bracket and prelie_sandwich hold nothing: prelie-closed-form
and the CLI's prelie and bracket commands make each pair once.
"""

from __future__ import annotations

from .coalgebra import coproduct_biideal, coproduct_rec
from .forest import Forest
from .freemod import ONE, LinComb, _add_products, _as_lincomb

__all__ = ["prelie", "prelie_sandwich", "prelie_lin", "bracket",
           "bracket_lin"]


def _sandwich(F1: Forest, delta2: LinComb) -> LinComb:
    return delta2.map_basis(lambda gh: gh[0] * F1 * gh[1])


def prelie(F1: Forest, F2: Forest) -> LinComb:
    """F1 |> F2 by the biideal closed form."""
    return _sandwich(F1, coproduct_biideal(F2))


def prelie_sandwich(F1: Forest, F2: Forest) -> LinComb:
    """F1 |> F2 straight from the defining coproduct sandwich (oracle)."""
    return _sandwich(F1, coproduct_rec(F2))


def prelie_lin(x, y) -> LinComb:
    """Bilinear extension of prelie, for nesting products in identity
    checks, in one accumulation pass (freemod._add_products), each image
    held until the next sweep."""
    return _add_products({}, _as_lincomb(x), _as_lincomb(y), prelie,
                         held=True)


def bracket(F1: Forest, F2: Forest) -> LinComb:
    """[F1, F2] = F1 |> F2 - F2 |> F1."""
    return prelie(F1, F2) - prelie(F2, F1)


_NEG_ONE = -ONE


def bracket_lin(x, y) -> LinComb:
    """Bilinear extension of bracket: x |> y and -(y |> x) go into one
    sum, with no difference of two products copied; the images are held
    as prelie_lin holds them."""
    x, y = _as_lincomb(x), _as_lincomb(y)
    acc: dict = {}
    _add_products(acc, x, y, prelie, held=True)
    return _add_products(acc, y, x, prelie, _NEG_ONE, held=True)

"""Exact symbolic algebra of decorated planar rooted forests.

The free module on planar rooted forests (internal vertices decorated by
Omega, leaves by Omega or X) carries a two-parameter coproduct that makes
it an infinitesimal bialgebra of weight lambda; this package implements
that structure exactly over Q[mu,nu][lambda,1/lambda]: the coproduct in
two independent forms, the counit, the dual products, the one-parameter
morphism families, the induced pre-Lie product and Lie bracket, and
exhaustive verification suites for every law, all with exact rational
arithmetic.

>>> from forest_bialg import Alphabet, parse_forest, coproduct
>>> ab = Alphabet(omega=("a", "b"), xset=("x",))
>>> print(coproduct(parse_forest("a[x]", ab)))
(m) 1 (x) a
(-l) 1 (x) a[x]
(-l) a[x] (x) 1
(m) x (x) 1
(-l) x (x) a

The package is pure Python: the structural routines (postorder,
restriction, biideal splitting) have one implementation, in the private
module _kernel, with no backend switch. Each representation has one
home: only freemod builds a LinComb without checking it, every Forest
comes from Forest.make, which counts its vertices, and only forest
reads the flat vertex encoding that postorder and restriction run on;
the package does not export it.
"""

from .coalgebra import (coproduct, coproduct_biideal, coproduct_left,
                        coproduct_lin, coproduct_rec, coproduct_right,
                        counit, counit_left, counit_right)
from .dualprod import pairing, star, star_lin, star_weighted
from .forest import (EMPTY_FOREST, KIND_OMEGA, KIND_X, Alphabet, Decoration,
                     DecorationError, Forest, ForestSyntaxError, Tree,
                     VertexId, VertexSet, biideals, concat,
                     enumerate_forests, graft, leaf, parse_forest, restrict,
                     vertex_order)
from .freemod import (LAM, MU, NU, ONE, ZERO, Coefficient, LinComb,
                      act_left, act_right)
from .morphisms import lc_concat, phi, phi_at, phi_forest, phi_subsets, theta
from .prelie import bracket, bracket_lin, prelie, prelie_lin, prelie_sandwich
from .verify import SUITE_NAMES, RunConfig, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # forests
    "KIND_OMEGA", "KIND_X", "Decoration", "Alphabet", "Tree", "Forest",
    "VertexId", "VertexSet", "EMPTY_FOREST", "ForestSyntaxError",
    "DecorationError", "parse_forest", "concat", "graft", "leaf",
    "vertex_order", "biideals", "restrict", "enumerate_forests",
    # coefficients and free modules
    "Coefficient", "LinComb", "ZERO", "ONE", "LAM", "MU", "NU",
    "act_left", "act_right",
    # coalgebra
    "coproduct", "coproduct_rec", "coproduct_biideal", "coproduct_lin",
    "coproduct_left", "coproduct_right", "counit", "counit_left",
    "counit_right",
    # dual products
    "pairing", "star", "star_lin", "star_weighted",
    # morphisms
    "phi", "phi_forest", "phi_subsets", "phi_at", "theta", "lc_concat",
    # pre-Lie
    "prelie", "prelie_sandwich", "prelie_lin", "bracket", "bracket_lin",
    # verification
    "RunConfig", "SuiteReport", "SUITE_NAMES", "run_suite",
]

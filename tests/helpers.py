"""Helpers that more than one test module uses."""

import os
from pathlib import Path

from forest_bialg.forest import Alphabet
from forest_bialg.freemod import LinComb

SRC = str(Path(__file__).resolve().parents[1] / "src")

SMALL = Alphabet(omega=("a",), xset=("x",))


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports from src/."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def drop_last_term(real):
    """A mutant of the product real that drops the last term of each
    result."""
    def star(F, G):
        terms = dict(real(F, G).terms)
        terms.popitem()
        return LinComb(terms)
    return star

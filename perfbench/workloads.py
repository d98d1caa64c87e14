"""Workload definitions: suite plans with pinned verdicts, CLI query
generation from a seed, and the independent oracles that check each query.

Suite workloads are exhaustive and ignore the seed. The cli-queries
workload is generated from the seed: the seed draws forest shapes,
decorations, evaluation points and query order, while the mix of
commands, forest sizes, output formats, evaluation flags and malformed
inputs is stratified (a fixed share of each per pass), so that seeds
change the inputs but not the weight of the workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

from forest_bialg import (Alphabet, Coefficient, LinComb, coproduct_rec,
                          parse_forest, phi_subsets, prelie_sandwich)

AB2 = Alphabet(omega=("a", "b"), xset=("x",))
AB1 = Alphabet(omega=("a",), xset=("x",))
AB1XY = Alphabet(omega=("a",), xset=("x", "y"))

# (suite, alphabet, bound, pinned case count); every pinned verdict is ok.
# rec-vs-biideal goes first so both coproduct routes are computed cold.
SUITE_PLANS = {
    "laws-symbolic": (
        ("rec-vs-biideal", AB2, 5, 5548),
        ("coassoc", AB2, 5, 5548),
        ("derivation", AB2, 5, 18637),
        ("counit", AB2, 5, 13492),
        ("phi-laws", AB2, 4, 1541),
        ("jacobi", AB1, 4, 897),
        ("prelie-closed-form", AB1, 5, 1805),
    ),
    "star-products": (
        # two X symbols so the X-terminal spine branch runs
        ("star-census", AB1XY, 4, 139129),
        ("star-assoc", AB1, 5, 5328),
        ("duality", AB1, 4, 116281),
    ),
}

# the same suites at seconds-scale bounds, for the benchmark's self-check
TINY_SUITE_PLANS = {
    "laws-symbolic": (
        ("rec-vs-biideal", AB2, 3, 112),
        ("coassoc", AB2, 3, 112),
        ("derivation", AB2, 3, 322),
        ("counit", AB2, 3, 271),
        ("phi-laws", AB2, 3, 245),
        ("jacobi", AB1, 3, 183),
        ("prelie-closed-form", AB1, 3, 89),
    ),
    "star-products": (
        ("star-census", AB1XY, 2, 256),
        ("star-assoc", AB1, 3, 220),
        ("duality", AB1, 2, 81),
    ),
}

SUITE_NAMES = tuple(dict.fromkeys(
    name for plan in SUITE_PLANS.values() for name, *_ in plan))

# ------------------------------------------------------------- cli queries

CLI_OMEGA = ("a", "b", "c")
CLI_X = ("x", "y")
CLI_ALPHABET = Alphabet(omega=CLI_OMEGA, xset=CLI_X)
CLI_FLAGS = ["--omega", ",".join(CLI_OMEGA), "--xset", ",".join(CLI_X)]
UNARY = ("coproduct", "counit", "phi", "theta")
BINARY = ("star", "star-weighted", "prelie", "bracket", "concat")
COMMANDS = UNARY + BINARY + ("graft",)
MAX_VERTICES = {"star-weighted": 5}
DEFAULT_MAX_VERTICES = 10
QUERIES_PER_PASS = 1000
TINY_QUERIES_PER_PASS = 60
MALFORMED_EVERY = 20      # one query in 20 is malformed and must exit 2
JSON_EVERY = 2            # half the queries ask for --json
EVAL_EVERY = 3            # a third pass a non-integral evaluation point


class Query:
    """One CLI invocation plus what the oracle needs to check it."""

    __slots__ = ("argv", "command", "forests", "symbol", "json", "point",
                 "malformed")

    def __init__(self, command, forests, symbol=None, json_out=False,
                 point=None, malformed=None):
        self.command = command
        self.forests = forests
        self.symbol = symbol
        self.json = json_out
        self.point = point
        self.malformed = malformed
        args = [command] + ([symbol] if symbol else []) + list(forests)
        args += CLI_FLAGS
        if json_out:
            args.append("--json")
        if point is not None:
            lam, mu, nu = point
            args += [f"--eval-lambda={lam}", f"--eval-mu={mu}",
                     f"--eval-nu={nu}"]
        self.argv = args


def random_forest_text(rng: random.Random, n: int) -> str:
    """Text of a random planar forest with n vertices, written directly in
    the CLI syntax so that query inputs never pass through the library.

    Vertices are placed in preorder; each attaches to a vertex on the
    current rightmost path or starts a new tree. Internal vertices carry
    Omega symbols, leaves Omega or X symbols.
    """
    children = [[] for _ in range(n)]
    roots, path = [], []
    for i in range(n):
        del path[rng.randint(0, len(path)):]
        (children[path[-1]] if path else roots).append(i)
        path.append(i)
    leaf_syms = CLI_OMEGA + CLI_X

    def text(i):
        if not children[i]:
            return rng.choice(leaf_syms)
        sym = rng.choice(CLI_OMEGA)
        return f"{sym}[{' '.join(text(c) for c in children[i])}]"

    return " ".join(text(r) for r in roots)


def _rational(rng: random.Random) -> Fraction:
    """A nonzero, non-integral rational."""
    while True:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))
        if q.denominator != 1:
            return q


def _malformed(rng: random.Random, kind: int, text: str):
    """A forest argument that must be rejected with exit code 2."""
    if kind == 0:
        return text + " ]", "syntax"
    if kind == 1:
        return f"{text} {rng.choice(CLI_X)}[{rng.choice(CLI_OMEGA)}]", "x-children"
    return text + " #", "syntax"


def cli_queries(seed: int, pass_index: int, count: int) -> list:
    """count queries for one pass, reproducible from (seed, pass_index).

    Commands take turns; per command, the forest sizes run through the
    grid of (left, right) vertex counts in an order drawn from the seed,
    so the sizes of a pass are the same for every seed.
    """
    rng = random.Random(f"cli-queries:{seed}:{pass_index}")
    rounds = -(-count // len(COMMANDS))
    sizes = {}
    for command in COMMANDS:
        cap = MAX_VERTICES.get(command, DEFAULT_MAX_VERTICES)
        grid = [(1 + i % cap, 1 + i // cap % cap) for i in range(rounds)]
        rng.shuffle(grid)
        sizes[command] = grid
    out = []
    for k in range(count):
        command = COMMANDS[k % len(COMMANDS)]
        round_ = k // len(COMMANDS)
        arity = 2 if command in BINARY else 1
        forests = [random_forest_text(rng, n)
                   for n in sizes[command][round_][:arity]]
        symbol = rng.choice(CLI_OMEGA) if command == "graft" else None
        json_out = round_ % JSON_EVERY == 0
        point = None
        if round_ % EVAL_EVERY == 1:
            point = (_rational(rng), _rational(rng), _rational(rng))
        malformed = None
        if round_ % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            if command == "counit":
                # lambda = 0 is a pole of every counit
                point = (Fraction(0), _rational(rng), _rational(rng))
                malformed = "lambda-zero"
            else:
                forests[0], malformed = _malformed(rng, round_ % 3, forests[0])
        out.append(Query(command, forests, symbol, json_out, point, malformed))
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------- oracles

def _subst(value, point):
    if point is None:
        return value
    lam, mu, nu = point
    sub = lambda c: c.subst_partial(lam=lam, mu=mu, nu=nu)
    return sub(value) if isinstance(value, Coefficient) else value.map_coeff(sub)


def _render(value, as_json: bool) -> str:
    return (json.dumps(value.to_json()) if as_json else str(value)) + "\n"


def _vertex_count(text: str) -> int:
    """Vertices of a forest text, counted from its symbols."""
    return sum(1 for tok in text.replace("[", " ").replace("]", " ").split()
               if tok != "1")


def _left_path_len(F) -> int:
    """Graft positions along the leftmost path, X-terminal excluded."""
    n, trees = 0, F.trees
    while trees:
        t = trees[0]
        if t.deco.symbol in CLI_X:
            break
        n += 1
        trees = t.children
    return n


def _graft_text(symbol: str, text: str) -> str:
    return symbol if text == "1" else f"{symbol}[{text}]"


def _concat_text(left: str, right: str) -> str:
    parts = [t for t in (left, right) if t != "1"]
    return " ".join(parts) if parts else "1"


def _expected_star(F, G, support, weighted: bool):
    """The star product checked through the pairing adjunction.

    Each forest H the program printed must carry <D(H), F (x) G>, taken at
    lambda = -1, mu = 0 for the plain star. Completeness follows from the
    total weight: F star G has C(m+n, n) terms with coefficient 1 (m trees
    over a length-n left path), and the weighted product adds, for every
    symbol d and every graft position j of .d along G's path, the
    C(m+n', n') terms of F star (.d star G).
    """
    acc = {}
    for H in support:
        c = coproduct_rec(H).coeff_of((F, G))
        if not weighted:
            c = c.subst_partial(lam=-1, mu=0)
        if c:
            acc[H] = c
    m, n = F.breadth, _left_path_len(G)
    total = sum(acc.values(), Coefficient())
    if not weighted:
        want = Coefficient.monomial(comb(m + n, n))
    else:
        plain = comb(m + n, n)
        extra = 0
        for d in CLI_OMEGA + CLI_X:
            grows = d in CLI_OMEGA
            # j = 0 prepends .d as the new leftmost tree; j >= 1 makes it
            # the leftmost child of the j-th path vertex
            for j in range(n + 1):
                n2 = j + grows
                extra += comb(m + n2, n2)
        want = (Coefficient.monomial(-plain, a=1)
                + Coefficient.monomial(extra, b=1))
    return LinComb(acc) if total == want else None


def _support(stdout: str, as_json: bool):
    """Forests printed by a LinComb-valued command (rank-1 outputs)."""
    if as_json:
        rows = json.loads(stdout)
        texts = [row["legs"][0] for row in rows]
    else:
        texts = [line.split(") ", 1)[1] for line in stdout.splitlines()
                 if line != "0"]
    return [parse_forest(t, CLI_ALPHABET) for t in texts]


def expected_output(q: Query, stdout: str):
    """(exit code, stdout) the program must produce for q, computed by an
    independent route; stdout is consulted only for the support of star
    products, whose completeness is then checked by total weight."""
    if q.malformed:
        return 2, ""
    if q.command == "graft":
        text = _graft_text(q.symbol, str(parse_forest(q.forests[0], CLI_ALPHABET)))
        return 0, (json.dumps({"forest": text}) if q.json else text) + "\n"
    F = parse_forest(q.forests[0], CLI_ALPHABET)
    if q.command == "concat":
        G = parse_forest(q.forests[1], CLI_ALPHABET)
        text = _concat_text(str(F), str(G))
        return 0, (json.dumps({"forest": text}) if q.json else text) + "\n"
    if q.command == "counit":
        n = _vertex_count(q.forests[0])
        value = Coefficient.monomial(-1, a=-(n + 1), b=n)
    elif q.command == "theta":
        n = _vertex_count(q.forests[0])
        value = LinComb.single(F, Coefficient.monomial(1, c=n))
    elif q.command == "coproduct":
        value = coproduct_rec(F)
    elif q.command == "phi":
        value = phi_subsets(F)
    else:
        G = parse_forest(q.forests[1], CLI_ALPHABET)
        if q.command == "prelie":
            value = prelie_sandwich(F, G)
        elif q.command == "bracket":
            value = prelie_sandwich(F, G) - prelie_sandwich(G, F)
        else:
            weighted = q.command == "star-weighted"
            try:
                support = _support(stdout, q.json)
            except (ValueError, KeyError, IndexError):
                return 0, None
            value = _expected_star(F, G, support, weighted)
            if value is None:
                return 0, None
    return 0, _render(_subst(value, q.point), q.json)


def check_query(q: Query, code, stdout: str) -> bool:
    want_code, want_out = expected_output(q, stdout)
    return code == want_code and stdout == want_out


def digest(results) -> str:
    """sha256 over every query's exit code and stdout, in query order."""
    h = hashlib.sha256()
    for code, out in results:
        h.update(f"{code}\n{out}\0".encode())
    return h.hexdigest()

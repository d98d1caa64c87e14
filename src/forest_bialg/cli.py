"""Command-line front end.

forest-bialg <command> [args] [flags]

One table, _COMMANDS, names each evaluation command once, with its
positional arguments and the function of the alphabet and their values
that computes its result; it drives both _build_parser and _cmd_eval.
An evaluation command parses its forest arguments in the configured
alphabet, computes exactly, and prints the result, a forest, a
coefficient or a linear combination, in canonical order through one
printer, _print. enumerate lists a small universe. verify runs one
exhaustive law suite and exits 0 on pass, 1 on an algebraic failure
(an exception raised inside a case included), 2 on usage or parse
errors (a negative --max-vertices and an unknown flag included); that
exit contract is shared by every command. The parser reads any nesting
depth; phi alone recurses along the nesting, and exits 2 with "forest
nested too deep" on a forest nested deeper than the interpreter's
recursion limit allows.

After each command main releases the star products that star_weighted
held (dualprod._HELD), since the pairs of one command rarely recur in
the next, and calls forest.sweep_if_due, so a process that calls main in
a loop keeps its intern tables and caches bounded by the same trigger as
the suites.

Shared flags, each taken only by the commands that read it (any other
use exits 2): --omega a,b --xset x --json on every command;
--max-vertices N on enumerate and verify; --eval-lambda p/q --eval-mu
p/q --eval-nu p/q on verify and the evaluation commands. Evaluation
points substitute rationals for the corresponding variables in every
printed coefficient; lambda = 0 is rejected wherever a negative power of
lambda would need it. Without a point, nothing is substituted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .coalgebra import coproduct, counit
from .dualprod import _HELD, star, star_weighted
from .forest import (Alphabet, Forest, _forest_text, concat,
                     enumerate_forests, graft, parse_forest, sweep_if_due)
from .morphisms import phi, theta
from .prelie import bracket, prelie
from .verify import SUITE_NAMES, RunConfig, run_suite

__all__ = ["main"]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _bound(text: str) -> int:
    n = _integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {n}")
    return n


def _symbols(text: str) -> tuple:
    return tuple(s for s in text.split(",") if s)


def _flag_groups() -> tuple:
    """The shared flags as three parent parsers, each given only to the
    commands that read it: the alphabet and --json go to every command,
    the vertex bound to enumerate and verify, and the evaluation point
    to verify and the evaluation commands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega", type=_symbols, default=("a", "b"),
                        metavar="a,b", help="Omega decorations (default a,b)")
    common.add_argument("--xset", type=_symbols, default=("x",), metavar="x",
                        help="X decorations (default x; may be empty)")
    common.add_argument("--json", action="store_true", help="JSON output")
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--max-vertices", type=_bound, default=None,
                       metavar="N",
                       help="vertex bound (suites have per-suite defaults)")
    point = argparse.ArgumentParser(add_help=False)
    for var in ("lambda", "mu", "nu"):
        point.add_argument(f"--eval-{var}", type=_fraction, default=None,
                           metavar="p/q")
    return common, bound, point


# an evaluation command's positional arguments, as (name, help) pairs
_ONE = (("forest", "forest text, e.g. 'a[x b] y' or '1'"),)
_TWO = (("forest", "left forest"), ("forest2", "right forest"))
_GRAFT = (("symbol", "Omega symbol for the new root"),
          ("forest", "forest placed under the new root"))

# evaluation command -> (positional arguments, function of the alphabet
# and their values): each forest argument arrives parsed, in order, and
# graft's symbol as its text
_COMMANDS = {
    "coproduct": (_ONE, lambda ab, F: coproduct(F)),
    "counit": (_ONE, lambda ab, F: counit(F)),
    "phi": (_ONE, lambda ab, F: phi(F)),
    "theta": (_ONE, lambda ab, F: theta(F)),
    "star": (_TWO, lambda ab, F, G: star(F, G)),
    "star-weighted": (_TWO, lambda ab, F, G: star_weighted(F, G, ab)),
    "prelie": (_TWO, lambda ab, F, G: prelie(F, G)),
    "bracket": (_TWO, lambda ab, F, G: bracket(F, G)),
    "concat": (_TWO, lambda ab, F, G: concat(F, G)),
    "graft": (_GRAFT,
              lambda ab, w, F: graft(ab.decoration(w), F).as_forest()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main call.

    Building it (twelve subparsers, each copying the shared flags it
    reads) costs several times a small query, so main reuses it.
    parse_args keeps nothing between calls: each returns a new
    namespace, whose run is the function that carries out its command.
    """
    common, bound, point = _flag_groups()
    ap = argparse.ArgumentParser(
        prog="forest-bialg",
        description="exact algebra of decorated planar rooted forests")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name, (positionals, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common, point])
        for arg, text in positionals:
            p.add_argument(arg, help=text)
        p.set_defaults(run=_cmd_eval)
    sub.add_parser("enumerate", parents=[common, bound]).set_defaults(
        run=_cmd_enumerate)
    p = sub.add_parser("verify", parents=[common, bound, point])
    p.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    p.set_defaults(run=_cmd_verify)
    return ap


def _alphabet(args) -> Alphabet:
    return Alphabet(omega=args.omega, xset=args.xset)


def _print(value, args) -> None:
    """Print a result, a forest or a coefficient or a linear combination,
    as its canonical text or, with --json, as JSON."""
    if not args.json:
        print(value)
    elif isinstance(value, Forest):
        print(json.dumps({"forest": str(value)}))
    else:
        print(json.dumps(value.to_json()))


def _cmd_eval(args) -> int:
    ab = _alphabet(args)
    positionals, fn = _COMMANDS[args.command]
    value = fn(ab, *(getattr(args, name) if name == "symbol"
                     else parse_forest(getattr(args, name), ab)
                     for name, _ in positionals))
    point = args.eval_lambda, args.eval_mu, args.eval_nu
    if point != (None, None, None) and not isinstance(value, Forest):
        value = value.subst_partial(*point)
    _print(value, args)
    return 0


def _cmd_enumerate(args) -> int:
    ab = _alphabet(args)
    nmax = args.max_vertices if args.max_vertices is not None else 4
    counts: dict = {}
    listing = []
    # one text memo for the listing, whose forests share most of their trees
    memo: dict = {}
    for F in enumerate_forests(nmax, ab):
        counts[F.nvertices] = counts.get(F.nvertices, 0) + 1
        listing.append(_forest_text(F, memo))
    if args.json:
        print(json.dumps({"forests": listing,
                          "counts": {str(n): counts[n] for n in sorted(counts)},
                          "total": len(listing)}))
    else:
        for line in listing:
            print(line)
        by_n = " ".join(f"n={n}:{counts[n]}" for n in sorted(counts))
        print(f"counts {by_n} total:{len(listing)}")
    return 0


def _cmd_verify(args) -> int:
    config = RunConfig(
        alphabet=_alphabet(args),
        max_vertices=args.max_vertices,
        eval_lam=args.eval_lambda,
        eval_mu=args.eval_mu,
        eval_nu=args.eval_nu,
    )
    report = run_suite(args.suite, config)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ZeroDivisionError:
        print("error: lambda must be invertible (lambda = 0 hits a pole)",
              file=sys.stderr)
        return 2
    except ValueError as e:
        # ForestSyntaxError and DecorationError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: forest nested too deep", file=sys.stderr)
        return 2
    finally:
        _HELD.clear()
        sweep_if_due()


if __name__ == "__main__":
    sys.exit(main())

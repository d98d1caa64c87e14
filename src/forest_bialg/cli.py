"""Command-line front end.

forest-bialg <command> [args] [flags]

Evaluation commands (coproduct, counit, star, star-weighted, prelie,
bracket, phi, theta, concat, graft) parse their forest arguments in the
configured alphabet, compute exactly, and print the result in canonical
order. enumerate lists a small universe. verify runs one exhaustive
law suite and exits 0 on pass, 1 on an algebraic failure, 2 on usage or
parse errors (a negative --max-vertices, an unknown flag or a forest
nested deeper than the interpreter's recursion limit included); that
exit contract is shared by every command.

After each command main calls forest.sweep_if_due, so a process that
calls main in a loop keeps its intern tables and caches bounded by the
same trigger as the suites.

Shared flags: --omega a,b --xset x --max-vertices N --eval-lambda p/q
--eval-mu p/q --eval-nu p/q --json. Evaluation points
substitute rationals for the corresponding variables in every printed
coefficient; lambda = 0 is rejected wherever a negative power of lambda
would need it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .coalgebra import coproduct, counit
from .dualprod import star_lin, star_weighted
from .forest import (Alphabet, Forest, concat, enumerate_forests, graft,
                     parse_forest, render_forest, sweep_if_due)
from .freemod import Coefficient, LinComb
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


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--omega", type=_symbols, default=("a", "b"),
                   metavar="a,b", help="Omega decorations (default a,b)")
    p.add_argument("--xset", type=_symbols, default=("x",),
                   metavar="x", help="X decorations (default x; may be empty)")
    p.add_argument("--max-vertices", type=_bound, default=None, metavar="N",
                   help="vertex bound (suites have per-suite defaults)")
    p.add_argument("--eval-lambda", type=_fraction, default=None, metavar="p/q")
    p.add_argument("--eval-mu", type=_fraction, default=None, metavar="p/q")
    p.add_argument("--eval-nu", type=_fraction, default=None, metavar="p/q")
    p.add_argument("--json", action="store_true", help="JSON output")
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main call.

    Building it (thirteen subparsers, each copying the shared flags)
    costs several times a small query, so main reuses it. parse_args
    keeps nothing between calls: each returns a new namespace.
    """
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="forest-bialg",
        description="exact algebra of decorated planar rooted forests")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    unary = ["coproduct", "counit", "phi", "theta"]
    for name in unary:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("forest", help="forest text, e.g. 'a[x b] y' or '1'")

    binary = ["star", "star-weighted", "prelie", "bracket", "concat"]
    for name in binary:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("forest", help="left forest")
        p.add_argument("forest2", help="right forest")

    p = sub.add_parser("graft", parents=[common])
    p.add_argument("symbol", help="Omega symbol for the new root")
    p.add_argument("forest", help="forest placed under the new root")

    sub.add_parser("enumerate", parents=[common])

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    return ap


def _alphabet(args) -> Alphabet:
    return Alphabet(omega=args.omega, xset=args.xset)


def _subst(value, args):
    """Apply any requested evaluation points to a result."""
    if args.eval_lambda is None and args.eval_mu is None and args.eval_nu is None:
        return value
    sub = lambda c: c.subst_partial(
        lam=args.eval_lambda, mu=args.eval_mu, nu=args.eval_nu)
    if isinstance(value, Coefficient):
        return sub(value)
    return value.map_coeff(sub)


def _print_lincomb(lc: LinComb, args) -> None:
    if args.json:
        print(json.dumps(lc.to_json()))
    else:
        print(str(lc))


def _print_coeff(c: Coefficient, args) -> None:
    if args.json:
        print(json.dumps(c.to_json()))
    else:
        print(str(c))


def _print_forest(F: Forest, args) -> None:
    if args.json:
        print(json.dumps({"forest": render_forest(F)}))
    else:
        print(render_forest(F))


def _cmd_eval(args) -> int:
    ab = _alphabet(args)
    F = parse_forest(args.forest, ab)
    cmd = args.command
    if cmd == "counit":
        _print_coeff(_subst(counit(F), args), args)
        return 0
    if cmd in ("coproduct", "phi", "theta"):
        fn = {"coproduct": coproduct, "phi": phi, "theta": theta}[cmd]
        _print_lincomb(_subst(fn(F), args), args)
        return 0
    if cmd == "graft":
        dec = ab.decoration(args.symbol)
        _print_forest(graft(dec, F).as_forest(), args)
        return 0
    G = parse_forest(args.forest2, ab)
    if cmd == "concat":
        _print_forest(concat(F, G), args)
        return 0
    fn = {"star": lambda: star_lin(F, G),
          "star-weighted": lambda: star_weighted(F, G, ab),
          "prelie": lambda: prelie(F, G),
          "bracket": lambda: bracket(F, G)}[cmd]
    _print_lincomb(_subst(fn(), args), args)
    return 0


def _cmd_enumerate(args) -> int:
    ab = _alphabet(args)
    nmax = args.max_vertices if args.max_vertices is not None else 4
    counts: dict = {}
    listing = []
    for F in enumerate_forests(nmax, ab):
        counts[F.nvertices] = counts.get(F.nvertices, 0) + 1
        listing.append(render_forest(F))
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
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _cmd_eval(args)
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
        sweep_if_due()


if __name__ == "__main__":
    sys.exit(main())

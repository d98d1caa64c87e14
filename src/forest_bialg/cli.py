"""Command-line front end.

forest-bialg <command> [args] [flags]

Two tables drive the command line. _COMMANDS names each of the twelve
commands once, with its positional arguments, the shared flags it takes,
the function that runs it and, for an evaluation command, the function
of the alphabet and the arguments that computes its result. _FLAGS gives
each shared flag its attribute, converter, default and help text. The
reader, _read_argv, the help it prints and _cmd_eval all read them, so a
command or a flag is added in one place.

An evaluation command parses its forest arguments in the configured
alphabet, computes exactly, and prints the result, a forest, a
coefficient or a linear combination, in canonical order through one
printer, _print. With --json, a linear combination's JSON is written by
LinComb.to_json_text from the same sorted rows as its text, with no
per-term objects. enumerate lists a small universe. verify runs one
exhaustive law suite and exits 0 on pass, 1 on an algebraic failure
(an exception raised inside a case included), 2 on usage or parse
errors (a negative --max-vertices and an unknown flag included); that
exit contract is shared by every command. A reader that closes stdout
early ends the output, not the command, which keeps its exit code. The
parser reads any nesting depth; phi alone recurses along the nesting,
and exits 2 with "forest nested too deep" on a forest nested deeper than
the interpreter's recursion limit allows.

After each command main releases freemod's table of held rows
(freemod._HELD, where star_weighted holds its star products and star
its regrafted prefixes), since the pairs of one command rarely recur in
the next, and calls forest.sweep_if_due, so a process that calls main
in a loop keeps its intern tables and caches bounded by the same
trigger as the suites. A sweep follows one rule: it clears every
registered cache, then forgets what only the intern tables hold.

Shared flags, each taken only by the commands that read it (any other
use exits 2): --omega a,b --xset x --json on every command;
--max-vertices N on enumerate and verify; --eval-lambda p/q --eval-mu
p/q --eval-nu p/q on verify and the evaluation commands. Evaluation
points substitute rationals for the corresponding variables in every
printed coefficient; lambda = 0 is rejected wherever a negative power of
lambda would need it. Without a point, nothing is substituted.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .coalgebra import coproduct, counit
from .dualprod import star, star_weighted
from .forest import (Alphabet, Forest, _forest_text, concat,
                     enumerate_forests, graft, parse_forest, sweep_if_due)
from .freemod import _HELD, LinComb
from .morphisms import phi, theta
from .prelie import bracket, prelie
from .verify import SUITE_NAMES, RunConfig, run_suite

__all__ = ["main"]

# Fraction computes 10**exp for a decimal exponent before anything can
# reject the result, so 1e999999999 would build a ~415 MB integer first.
# An exponent may be at most this in size: the number of digits int
# converts to text by default (sys.get_int_max_str_digits)
_MAX_EXPONENT = 4300


def _fraction(text: str) -> Fraction:
    _, e, exp = text.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exp)) > _MAX_EXPONENT
        except ValueError:  # no exponent Fraction would read either
            too_large = False
        if too_large:
            raise ValueError(f"exponent larger than {_MAX_EXPONENT} "
                             f"in size: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text!r}") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _bound(text: str) -> int:
    n = _integer(text)
    if n < 0:
        raise ValueError(f"must be non-negative: {n}")
    return n


def _symbols(text: str) -> tuple:
    return tuple(s for s in text.split(",") if s)


# flag -> (attribute, converter, default, metavar, help); a flag without
# a converter is a switch, which takes no value and sets True
_FLAGS = {
    "--omega": ("omega", _symbols, ("a", "b"), "a,b",
                "Omega decorations (default a,b)"),
    "--xset": ("xset", _symbols, ("x",), "x",
               "X decorations (default x; may be empty)"),
    "--json": ("json", None, False, None, "JSON output"),
    "--max-vertices": ("max_vertices", _bound, None, "N",
                       "vertex bound (suites have per-suite defaults)"),
    "--eval-lambda": ("eval_lambda", _fraction, None, "p/q",
                      "evaluate at lambda = p/q"),
    "--eval-mu": ("eval_mu", _fraction, None, "p/q", "evaluate at mu = p/q"),
    "--eval-nu": ("eval_nu", _fraction, None, "p/q", "evaluate at nu = p/q"),
}

# the flag groups: the alphabet and --json go to every command, the
# vertex bound to enumerate and verify, and the evaluation point to
# verify and the evaluation commands
_COMMON = ("--omega", "--xset", "--json")
_BOUND = ("--max-vertices",)
_POINT = ("--eval-lambda", "--eval-mu", "--eval-nu")

_HELP = ("-h", "--help")
# an argument that is not a flag although it starts with "-"
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _usage(name) -> str:
    if name is None:
        return "usage: forest-bialg [-h] command ..."
    positionals, flags, _, _ = _COMMANDS[name]
    parts = [f"usage: forest-bialg {name} [-h]"]
    for flag in flags:
        metavar = _FLAGS[flag][3]
        parts.append(f"[{flag}]" if metavar is None else f"[{flag} {metavar}]")
    parts += [arg for arg, _ in positionals]
    return " ".join(parts)


def _help(name) -> str:
    """The help of the program or, given a command's name, of the command."""
    options = [("-h, --help", "show this help message and exit")]
    if name is None:
        intro = ["exact algebra of decorated planar rooted forests", ""]
        sections = [("commands", [(cmd, " ".join(arg for arg, _ in entry[0]))
                                  for cmd, entry in _COMMANDS.items()])]
        outro = ["", "Run forest-bialg <command> --help for its flags."]
    else:
        positionals, flags, _, _ = _COMMANDS[name]
        intro, outro = [], []
        for flag in flags:
            _, _, _, metavar, text = _FLAGS[flag]
            options.append((flag if metavar is None else f"{flag} {metavar}",
                            text))
        sections = [("positional arguments", positionals)] if positionals else []
    sections.append(("options", options))
    width = 2 + max(len(left) for _, rows in sections for left, _ in rows)
    lines = [_usage(name), "", *intro]
    for title, rows in sections:
        lines.append(f"{title}:")
        lines += [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
        lines.append("")
    return "\n".join(lines[:-1] + outro)


def _usage_error(name, message: str):
    """Report a usage error on stderr and exit 2."""
    prog = "forest-bialg" if name is None else f"forest-bialg {name}"
    sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _show_help(name):
    _out(_help(name))
    raise SystemExit(0)


def _flag_of(name: str, flags: tuple, arg: str):
    """What one argument of command name is: None for a value, else
    (flag, the value given after "=" or None), with flag None for a flag
    the command does not take. A unique prefix of a flag is that flag
    and an ambiguous one a usage error."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags or arg in _HELP:
        return arg, None
    if arg[1] == "-":
        head, eq, value = arg.partition("=")
        matches = [f for f in (*flags, "--help") if f.startswith(head)]
        if len(matches) > 1:
            _usage_error(name, f"ambiguous option: {arg} could match "
                               f"{', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, arg


def _read_argv(argv) -> SimpleNamespace:
    """The command and the values of its arguments, read from argv.

    argv[0] is the command. Then flags and positional arguments come in
    any order: a flag takes its value as --flag value or --flag=value
    (--json takes none), the last repeat of a flag wins, and a unique
    prefix of a flag the command takes is that flag. A value in its own
    argument may not start with "-" unless it is a negative number such
    as -1 or -0.5, so --eval-mu=-1/5 is written with "=". After "--"
    every argument is positional. -h or --help prints help and exits 0;
    a usage error prints the usage and the error and exits 2.

    The result has the attribute command, one per flag the command takes
    (its default if not given), one per positional argument, and run,
    the function that carries out the command.
    """
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        if name is None:
            _usage_error(None, "the following arguments are required: "
                               "command")
        if name == "-h" or len(name) > 2 and "--help".startswith(name):
            _show_help(None)
        _usage_error(None, f"argument command: invalid choice: {name!r} "
                           f"(choose from {', '.join(_COMMANDS)})")
    positionals, flags, run, _ = _COMMANDS[name]
    args = {"command": name, "run": run}
    for flag in flags:
        spec = _FLAGS[flag]
        args[spec[0]] = spec[2]
    # "--" is never a flag's value, so the first one ends the flags
    stop = argv.index("--") if "--" in argv else len(argv)
    values, extras = [], []
    i = 1
    while i < stop:
        arg = argv[i]
        i += 1
        found = _flag_of(name, flags, arg)
        if found is None:
            (values if len(values) < len(positionals) else extras).append(arg)
            continue
        flag, value = found
        if flag is None:
            extras.append(arg)
            continue
        if flag in _HELP:
            if value is not None:
                _usage_error(name, f"argument -h/--help: ignored explicit "
                                   f"argument {value!r}")
            _show_help(name)
        dest, convert, _, _, _ = _FLAGS[flag]
        if convert is None:
            if value is not None:
                _usage_error(name, f"argument {flag}: ignored explicit "
                                   f"argument {value!r}")
            args[dest] = True
            continue
        if value is None:
            if i == stop or _flag_of(name, flags, argv[i]):
                _usage_error(name, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        try:
            args[dest] = convert(value)
        except ValueError as e:
            _usage_error(name, f"argument {flag}: {e}")
    for arg in argv[stop + 1:]:
        (values if len(values) < len(positionals) else extras).append(arg)
    if len(values) < len(positionals):
        missing = [arg for arg, _ in positionals[len(values):]]
        _usage_error(name, "the following arguments are required: "
                           + ", ".join(missing))
    if extras:
        _usage_error(name, f"unrecognized arguments: {' '.join(extras)}")
    for (arg, _), value in zip(positionals, values):
        args[arg] = value
    return SimpleNamespace(**args)


def _drop_stdout() -> None:
    """Point stdout at devnull, so what is left of the output and the
    flush at exit go nowhere instead of raising BrokenPipeError."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _out(text: str) -> None:
    """Print text. A reader that closed the pipe ends the output, not the
    command, which goes on to its own exit code."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _alphabet(args) -> Alphabet:
    return Alphabet(omega=args.omega, xset=args.xset)


def _print(value, args) -> None:
    """Print a result, a forest or a coefficient or a linear combination,
    as its canonical text or, with --json, as JSON: a forest as
    {"forest": text}, a linear combination through LinComb.to_json_text,
    which writes its terms' JSON from the rows of its text, and a
    coefficient as its to_json.

    The whole text is written before any of it is printed. Python
    refuses to write an int of more digits than
    sys.get_int_max_str_digits() allows, and an evaluated result can
    hold one even though _MAX_EXPONENT bounds the input; that refusal
    becomes a ValueError that names the cause, so the command exits 2
    with nothing on stdout. The limit stays: a higher one would let a
    crafted input cost minutes."""
    try:
        if not args.json:
            text = str(value)
        elif isinstance(value, Forest):
            text = json.dumps({"forest": str(value)})
        elif isinstance(value, LinComb):
            text = value.to_json_text()
        else:
            text = json.dumps(value.to_json())
    except ValueError:
        # rendering raises no other ValueError
        raise ValueError(
            "the result holds a number too long to print") from None
    _out(text)


def _cmd_eval(args) -> int:
    ab = _alphabet(args)
    positionals, _, _, fn = _COMMANDS[args.command]
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
        _out(json.dumps({"forests": listing,
                         "counts": {str(n): counts[n] for n in sorted(counts)},
                         "total": len(listing)}))
    else:
        by_n = " ".join(f"n={n}:{counts[n]}" for n in sorted(counts))
        _out("\n".join([*listing, f"counts {by_n} total:{len(listing)}"]))
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
        _out(json.dumps(report.to_json()))
    else:
        _out(report.render_text())
    return 0 if report.ok else 1


# positional arguments, as (name, help) pairs
_ONE = (("forest", "forest text, e.g. 'a[x b] y' or '1'"),)
_TWO = (("forest", "left forest"), ("forest2", "right forest"))
_GRAFT = (("symbol", "Omega symbol for the new root"),
          ("forest", "forest placed under the new root"))
_EVAL = _COMMON + _POINT

# command -> (positional arguments, flags, the function that runs it, and
# for an evaluation command the function of the alphabet and its
# arguments that computes the result: each forest argument arrives
# parsed, in order, and graft's symbol as its text)
_COMMANDS = {
    "coproduct": (_ONE, _EVAL, _cmd_eval, lambda ab, F: coproduct(F)),
    "counit": (_ONE, _EVAL, _cmd_eval, lambda ab, F: counit(F)),
    "phi": (_ONE, _EVAL, _cmd_eval, lambda ab, F: phi(F)),
    "theta": (_ONE, _EVAL, _cmd_eval, lambda ab, F: theta(F)),
    "star": (_TWO, _EVAL, _cmd_eval, lambda ab, F, G: star(F, G)),
    "star-weighted": (_TWO, _EVAL, _cmd_eval,
                      lambda ab, F, G: star_weighted(F, G, ab)),
    "prelie": (_TWO, _EVAL, _cmd_eval, lambda ab, F, G: prelie(F, G)),
    "bracket": (_TWO, _EVAL, _cmd_eval, lambda ab, F, G: bracket(F, G)),
    "concat": (_TWO, _EVAL, _cmd_eval, lambda ab, F, G: concat(F, G)),
    "graft": (_GRAFT, _EVAL, _cmd_eval,
              lambda ab, w, F: graft(ab.decoration(w), F).as_forest()),
    "enumerate": ((), _COMMON + _BOUND, _cmd_enumerate, None),
    "verify": ((("suite", f"one of: {', '.join(SUITE_NAMES)}"),),
               _COMMON + _BOUND + _POINT, _cmd_verify, None),
}


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
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
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


if __name__ == "__main__":
    sys.exit(main())

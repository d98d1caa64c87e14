"""Command line contract: output text, JSON shapes, exit codes, the
argument grammar (checked against the argparse tree the reader replaced),
help, and a closed stdout pipe."""

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import time

import pytest
from helpers import fresh_env

import forest_bialg.cli as cli
from forest_bialg import forest, freemod
from forest_bialg.forest import Alphabet, enumerate_forests
from forest_bialg.verify import SuiteReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_counit_text(capsys):
    code, out, err = run(capsys, "counit", "x")
    assert code == 0 and err == ""
    assert out == "-m*l^-2\n"


COPRODUCT_A_X = [
    "(m) 1 (x) a",
    "(-l) 1 (x) a[x]",
    "(-l) a[x] (x) 1",
    "(m) x (x) 1",
    "(-l) x (x) a",
]


def test_coproduct_text_lines(capsys):
    code, out, _ = run(capsys, "coproduct", "a[x]")
    assert code == 0
    assert out.splitlines() == COPRODUCT_A_X


def test_star_json_schema(capsys):
    code, out, _ = run(capsys, "star", "a", "b", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == [
        {"coeff": [{"q": "1", "l": 0, "m": 0, "n": 0}], "legs": ["a b"]},
        {"coeff": [{"q": "1", "l": 0, "m": 0, "n": 0}], "legs": ["b[a]"]},
    ]


def test_star_weighted_holds_no_image_after_the_command(capsys,
                                                       monkeypatch):
    # with no sweep due, main itself releases the images that
    # star_weighted held for its one call in freemod's table
    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    code, out, _ = run(capsys, "star-weighted", "a[x] b", "b a", "--json")
    assert code == 0 and json.loads(out)
    assert not freemod._HELD


def test_evaluation_points_apply(capsys):
    code, out, _ = run(capsys, "theta", "a[x]", "--eval-nu", "2")
    assert code == 0
    assert out == "(4) a[x]\n"
    code, out, _ = run(capsys, "counit", "x", "--eval-lambda", "-1",
                       "--eval-mu", "3")
    assert code == 0
    assert out == "-3\n"


def test_structural_commands(capsys):
    code, out, _ = run(capsys, "graft", "a", "x b")
    assert (code, out) == (0, "a[x b]\n")
    code, out, _ = run(capsys, "concat", "a", "b x")
    assert (code, out) == (0, "a b x\n")
    code, out, _ = run(capsys, "concat", "a", "b", "--json")
    assert (code, out) == (0, '{"forest": "a b"}\n')


def test_enumerate_counts_line(capsys):
    code, out, _ = run(capsys, "enumerate", "--omega", "a", "--xset", "x",
                       "--max-vertices", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert lines[-1] == "counts n=0:1 n=1:2 n=2:6 total:9"
    assert len(lines) == 10


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--omega", "a", "--xset", "x",
                       "--max-vertices", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"forests": ["1", "a", "x"],
                               "counts": {"0": 1, "1": 2},
                               "total": 3}


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "coproduct", "a[[x]")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_unknown_decoration_exits_2(capsys):
    code, _, err = run(capsys, "coproduct", "q")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "coassociativity")
    assert code == 2
    assert "unknown suite" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2
    capsys.readouterr()


DEEP = "a[" * 1200 + "x" + "]" * 1200


def test_deep_nesting_is_parsed(capsys):
    # deeper than the recursion limit: the parser has no nesting limit
    assert sys.getrecursionlimit() < 1200
    code, out, err = run(capsys, "counit", DEEP)
    assert (code, out, err) == (0, "-m^1201*l^-1202\n", "")


def test_deep_nesting_exits_2_in_phi(capsys):
    # phi recurses along the nesting, so it keeps the limit
    code, out, err = run(capsys, "phi", DEEP)
    assert code == 2 and out == ""
    assert err == "error: forest nested too deep\n"


def test_phi_limits_nesting_not_width():
    # under a recursion limit of 100: phi of 150 leaves side by side
    # folds its trees in a loop, while a forest nested 150 deep still
    # exceeds the limit
    width = 150
    script = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "import forest_bialg.cli as cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    wide = " ".join(["x"] * width)
    deep = "a[" * width + "x" + "]" * width
    procs = [subprocess.run([sys.executable, "-c", script, "phi", forest],
                            env=fresh_env(), capture_output=True, text=True)
             for forest in (wide, deep)]
    assert procs[0].returncode == 0, procs[0].stderr
    assert len(procs[0].stdout.splitlines()) == width + 1
    assert (procs[1].returncode, procs[1].stdout, procs[1].stderr) == (
        2, "", "error: forest nested too deep\n")


@pytest.mark.parametrize("argv", [["enumerate"], ["verify", "counit"]],
                         ids=["enumerate", "verify"])
def test_negative_bound_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--max-vertices", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-vertices: must be non-negative" in captured.err


@pytest.mark.parametrize("argv", [["counit", "x"], ["verify", "counit"]],
                         ids=["counit", "verify"])
def test_removed_workers_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


EVAL_COMMANDS = sorted(name for name, entry in cli._COMMANDS.items()
                       if entry[2] is cli._cmd_eval)


@pytest.mark.parametrize("argv", [
    ["coproduct", "x", "--max-vertices", "3"],
    ["concat", "a", "b", "--max-vertices", "3"],
    ["enumerate", "--eval-lambda", "0"],
    ["enumerate", "--eval-nu", "1/2"],
], ids=["coproduct-bound", "concat-bound", "enumerate-lambda",
        "enumerate-nu"])
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err


def test_each_command_takes_only_the_flags_it_reads():
    point = {"--eval-lambda", "--eval-mu", "--eval-nu"}
    common = {"--omega", "--xset", "--json"}
    want = {name: common | point for name in EVAL_COMMANDS}
    want["enumerate"] = common | {"--max-vertices"}
    want["verify"] = common | point | {"--max-vertices"}
    got = {name: set(flags) for name, (_, flags, _, _) in cli._COMMANDS.items()}
    assert got == want
    assert sum(len(flags) for _, flags, _, _ in cli._COMMANDS.values()) == 71
    assert set(cli._FLAGS) == set().union(*want.values())


@pytest.mark.parametrize("argv,out", [
    (["concat", "a", "b", "--eval-nu", "1/2"], "a b\n"),
    (["graft", "a", "x", "--eval-lambda", "2", "--json"],
     '{"forest": "a[x]"}\n'),
], ids=["concat", "graft"])
def test_forest_commands_take_and_ignore_a_point(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_verify_pass_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "examples-golden")
    assert code == 0
    assert "ok: true" in out


def test_verify_counit_pole_exits_2(capsys):
    code, _, err = run(capsys, "verify", "counit", "--eval-lambda", "0",
                       "--max-vertices", "2")
    assert code == 2
    assert "lambda must be invertible" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    rep = SuiteReport(suite="coassoc", cases=1,
                      failures=[{"case": "F=x", "lhs": "0", "rhs": "1"}],
                      wall_time=0.0)
    monkeypatch.setattr(cli, "run_suite", lambda name, config: rep)
    code, out, _ = run(capsys, "verify", "coassoc")
    assert code == 1
    assert "smallest counterexample" in out


def test_verify_json_is_deterministic(capsys):
    argv = ["verify", "rec-vs-biideal", "--max-vertices", "3", "--json"]
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_output_is_the_same_in_fresh_interpreters():
    # forests hash by object address, so dict and set layouts may differ
    # between interpreters; printed output must not follow them. Three
    # fresh runs: string-hash seeds 0 and 1, and seed 0 again after
    # allocating unrelated objects first so forests land at other addresses
    commands = [
        ["star", "a[x b] a", "b[a[x]] x"],
        ["star-weighted", "a[x]", "b a"],
        ["coproduct", "a[x b[x]] b", "--json"],
        ["phi", "a[b x] b[x]"],
        ["verify", "star-census", "--max-vertices", "2", "--json"],
    ]
    shifted = ("import runpy; junk = [[i] * (i % 7) for i in range(50000)]; "
               "runpy.run_module('forest_bialg.cli', run_name='__main__')")

    def outputs(seed, prelude):
        env = fresh_env(PYTHONHASHSEED=str(seed))
        start = ["-c", prelude] if prelude else ["-m", "forest_bialg.cli"]
        outs = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, *start, *argv],
                env=env, capture_output=True, text=True, check=True)
            out = proc.stdout
            if argv[0] == "verify":
                doc = json.loads(out)
                doc.pop("wall_time")
                out = json.dumps(doc)
            outs.append(out)
        return outs

    first = outputs(0, None)
    assert all(first)
    assert outputs(1, None) == first
    assert outputs(0, shifted) == first


# ------------------------------------------------------ the argument grammar

@pytest.mark.parametrize("argv,out", [
    (["counit", "x", "--om", "a"], "-m*l^-2\n"),
    (["counit", "--om=a", "x"], "-m*l^-2\n"),
    (["counit", "--", "x"], "-m*l^-2\n"),
    (["counit", "--json", "--", "x"], '[{"q": "-1", "l": -2, "m": 1, "n": 0}]\n'),
    (["coproduct", "a", "--omega", "a,b", "--omega", "b"], None),
], ids=["prefix", "prefix-equals", "dashdash", "flag-dashdash", "last-repeat"])
def test_the_grammar_of_flags_and_positionals(capsys, argv, out):
    code, got, err = run(capsys, *argv)
    if out is None:
        # the last --omega leaves a out of the alphabet
        assert (code, got) == (2, "") and "unknown" in err
    else:
        assert (code, got, err) == (0, out, "")


def test_a_negative_value_in_its_own_argument(capsys):
    assert run(capsys, "counit", "x", "--eval-mu", "-1")[:2] == (0, "l^-2\n")
    assert run(capsys, "counit", "x", "--eval-mu=-1/5")[:2] == (
        0, "1/5*l^-2\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["counit", "x", "--eval-mu", "-1/5"])
    assert exc.value.code == 2
    assert "argument --eval-mu: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["counit", "x", "--eval", "1"], "ambiguous option"),
    (["counit", "x", "--eval-nu"], "expected one argument"),
    (["star", "a"], "the following arguments are required: forest2"),
    (["counit", "x", "--json=1"], "ignored explicit argument"),
    ([], "the following arguments are required: command"),
], ids=["ambiguous", "no-value", "missing", "switch-value", "no-command"])
def test_usage_errors_name_their_cause(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = argv[0] if argv else None
    prog = f"forest-bialg {name}" if name else "forest-bialg"
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: {prog} ")
    assert error.startswith(f"{prog}: error: ") and message in error


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *(
    [name, flag] for name in cli._COMMANDS for flag in ("-h", "--help"))])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if argv[0] in cli._COMMANDS:
        positionals, flags, _, _ = cli._COMMANDS[argv[0]]
        assert out.startswith(f"usage: forest-bialg {argv[0]} [-h]")
        for word in [*flags, *(arg for arg, _ in positionals)]:
            assert f"\n  {word}" in out
    else:
        assert out.startswith("usage: forest-bialg [-h] command ...")
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("  ")}
        assert set(cli._COMMANDS) < listed


@pytest.mark.parametrize("argv", [
    ["counit", "x"], ["verify", "counit", "--max-vertices", "2"]],
    ids=["counit", "verify"])
@pytest.mark.parametrize("exponent", ["999999999", "-999999999"])
def test_a_huge_decimal_exponent_exits_2_at_once(capsys, argv, exponent):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--eval-nu", f"1e{exponent}"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --eval-nu: exponent larger than 4300" in captured.err


@pytest.mark.parametrize("argv", [
    ["counit", "x", "--eval-lambda=1e-4300"],
    ["counit", "x", "--eval-lambda=1e-2200"],
    ["phi", "a[" * 9 + "a" + "]" * 9, "--eval-nu=1" + "0" * 499]],
    ids=["counit-4300", "counit-2200", "phi-chain"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_result_too_long_to_print_exits_2(capsys, argv, json_flag):
    # the input is within _MAX_EXPONENT, but the evaluated result holds an
    # int of more digits than str(int) writes; the int limit stays
    code, out, err = run(capsys, *argv, *json_flag)
    assert code == 2 and out == ""
    assert err == "error: the result holds a number too long to print\n"


def test_a_decimal_exponent_still_evaluates(capsys):
    assert run(capsys, "theta", "a[x]", "--eval-nu", "1e3") == (
        0, "(1000000) a[x]\n", "")
    assert run(capsys, "theta", "a[x]", "--eval-nu=1e-1") == (
        0, "(1/100) a[x]\n", "")


# a failing verify report whose text runs to ~600 kB, so the reader
# closes the pipe while the command is still writing
FAILING_VERIFY = (
    "import sys\n"
    "import forest_bialg.cli as cli\n"
    "from forest_bialg.verify import SuiteReport\n"
    "lhs = '\\n'.join(['0'] * 300000)\n"
    "cli.run_suite = lambda name, config: SuiteReport(\n"
    "    suite=name, cases=1, wall_time=0.0,\n"
    "    failures=[{'case': 'F=x', 'lhs': lhs, 'rhs': '1'}])\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv,code", [
    (["-m", "forest_bialg.cli", "enumerate", "--max-vertices", "6"], 0),
    (["-m", "forest_bialg.cli", "phi",
      "a[b[x] b[x]] a[x b[x]] x b[a[x]] a[x] b"], 0),
    (["-c", FAILING_VERIFY, "verify", "coassoc"], 1),
], ids=["enumerate", "phi", "failed-verify"])
def test_a_closed_pipe_ends_the_output_not_the_command(argv, code):
    # each output is far larger than a pipe holds, so the command is
    # still writing when the reader closes the pipe after one line
    proc = subprocess.Popen([sys.executable, *argv], env=fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == code
    finally:
        proc.kill()
        proc.wait()
    assert first.strip() and proc.stderr.read() == b""
    proc.stderr.close()


def _argparse_oracle() -> argparse.ArgumentParser:
    """The argparse tree that the table-driven reader replaced, kept as
    the reference it is compared with."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega", type=cli._symbols, default=("a", "b"))
    common.add_argument("--xset", type=cli._symbols, default=("x",))
    common.add_argument("--json", action="store_true")
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument("--max-vertices", type=cli._bound, default=None)
    point = argparse.ArgumentParser(add_help=False)
    for var in ("lambda", "mu", "nu"):
        point.add_argument(f"--eval-{var}", type=cli._fraction, default=None)
    ap = argparse.ArgumentParser(prog="forest-bialg")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name, args in [
            *((name, ["forest"]) for name in ("coproduct", "counit", "phi",
                                              "theta")),
            *((name, ["forest", "forest2"]) for name in (
                "star", "star-weighted", "prelie", "bracket", "concat")),
            ("graft", ["symbol", "forest"])]:
        p = sub.add_parser(name, parents=[common, point])
        for arg in args:
            p.add_argument(arg)
        p.set_defaults(run=cli._cmd_eval)
    sub.add_parser("enumerate", parents=[common, bound]).set_defaults(
        run=cli._cmd_enumerate)
    p = sub.add_parser("verify", parents=[common, bound, point])
    p.add_argument("suite")
    p.set_defaults(run=cli._cmd_verify)
    return ap


# The argvs of the differential test leave out the classes on which
# argparse itself differs between Python versions or on which the
# grammar departs from it on purpose: a separate value such as -1/5 or
# -1e3 (newer argparse reads any "-digit" argument as a negative
# number), more than one "--" and a "--flag=--" (newer argparse removes
# only the first "--"), a "--" before the command, as a flag's missing
# value or at the end, and help, -h with more letters included.
FLAG_WORDS = [
    "--omega", "--xset", "--json", "--max-vertices", "--eval-lambda",
    "--eval-mu", "--eval-nu",
    # prefixes: unique, unique only where --max-vertices is not taken,
    # and ambiguous
    "--om", "--o", "--x", "--j", "--max", "--m", "--eval-l", "--eval-m",
    "--eval-n", "--eval", "--eval-", "--e",
    # flags no command takes
    "--workers", "--bogus", "-q", "---x", "--7",
]
FLAG_VALUES = [
    "a", "a,b", "", "x,y", ",", "3", "0", "-3", "-0", "-1", "-0.5", "-.5",
    "12", "2/3", "1e3", "1.5", "1/0", "x/y", "a b", "-a b", "-", "-x",
    "--json", "--om", "--eval",
]
# values each flag accepts, drawn more often than FLAG_VALUES
GOOD_VALUES = {
    "--omega": ["a", "a,b", "", "a,b,c", "-1"],
    "--xset": ["x", "x,y", "", "-0.5"],
    "--max-vertices": ["0", "3", "-0", "12"],
    **{f"--eval-{var}": ["2/3", "-1", "-0.5", "-.5", "1e3", "0"]
       for var in ("lambda", "mu", "nu")},
}
POSITIONAL_VALUES = [
    "a", "x", "a[x]", "1", "b a", "coassoc", "-1", "-0.5", "", "-",
    "a=b", "-x", "--json", "counit",
]


def _random_argv(rng: random.Random) -> list:
    draw = rng.random()
    if draw < 0.01:
        return []
    name = rng.choice(list(cli._COMMANDS))
    npos = len(cli._COMMANDS[name][0])
    if rng.random() < 0.15:
        npos = max(0, npos + rng.choice((-1, 1, 2)))
    items = [[rng.choice(POSITIONAL_VALUES[:5] if rng.random() < 0.8
                         else POSITIONAL_VALUES)] for _ in range(npos)]
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.75:
            # a flag the command takes, whole or as a prefix
            word = rng.choice(cli._COMMANDS[name][1])
            value = rng.choice(GOOD_VALUES.get(word, FLAG_VALUES)
                               if rng.random() < 0.8 else FLAG_VALUES)
            if rng.random() < 0.2:
                word = word[:rng.randint(3, len(word))]
        else:
            word, value = rng.choice(FLAG_WORDS), rng.choice(FLAG_VALUES)
        form = rng.random()
        if form < (0.6 if word.startswith("--j") else 0.15):
            items.append([word])
        elif form < 0.8:
            items.append([word, value])
        else:
            items.append([f"{word}={value}"])
    rng.shuffle(items)
    if items and rng.random() < 0.25:
        # a "--" followed by at least one argument, never where a flag
        # without "=" waits for its value
        k = rng.randrange(len(items))
        if k == 0 or not items[k - 1][0].startswith("-"):
            items.insert(k, ["--"])
    argv = [name] + [arg for item in items for arg in item]
    if draw < 0.03:
        argv[0] = rng.choice(["bogus", "Counit", "", "-1", "a b"])
    elif draw < 0.06:
        argv.insert(0, rng.choice(FLAG_WORDS + FLAG_VALUES))
    return argv


def _outcome(read, argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return "namespace", vars(read(list(argv)))
        except SystemExit as e:
            return "exit", e.code


def test_the_reader_agrees_with_argparse():
    oracle = _argparse_oracle().parse_args
    rng = random.Random(20231)
    seen = {"namespace": 0, "exit": 0}
    for _ in range(20000):
        argv = _random_argv(rng)
        want = _outcome(oracle, argv)
        assert _outcome(cli._read_argv, argv) == want, argv
        assert want[0] == "namespace" or want[1] == 2, argv
        seen[want[0]] += 1
    # both outcomes are common, so neither side passes by failing alike
    assert min(seen.values()) > 5000, seen


# ------------------------------------------------------ state across calls

def test_shared_parser_leaks_no_flags(capsys):
    code, out, _ = run(capsys, "coproduct", "a[x]", "--json",
                       "--omega", "a,b,c", "--xset", "x,y", "--eval-nu=2")
    assert code == 0 and out.startswith("[")
    code, out, err = run(capsys, "coproduct", "a[x]")
    assert (code, err) == (0, "")
    assert out.splitlines() == COPRODUCT_A_X
    # y and c belong only to the earlier call's alphabets
    for text in ("y", "c"):
        code, out, err = run(capsys, "counit", text)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def test_usage_error_leaves_later_calls_as_fresh():
    argv = ["star-weighted", "a[x] b", "b[x]", "--eval-lambda", "2/3"]
    fresh = subprocess.run(
        [sys.executable, "-m", "forest_bialg.cli", *argv],
        env=fresh_env(), capture_output=True, text=True, check=True).stdout
    # a usage error in a command's flags, then an unknown command
    script = (
        "import sys\n"
        "import forest_bialg.cli as cli\n"
        "for bad in (['star', 'a', '--eval-mu', 'x/y'], ['no-such']):\n"
        "    try:\n"
        "        cli.main(bad)\n"
        "    except SystemExit as e:\n"
        "        assert e.code == 2, e.code\n"
        "    else:\n"
        "        sys.exit('no usage error')\n"
        f"sys.exit(cli.main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stderr
    assert proc.stdout == fresh and fresh.count("\n") > 1


def test_import_imports_no_argparse():
    # the reader needs no parser library, so importing the CLI costs no
    # more than importing the library
    script = ("import sys, forest_bialg.cli; "
              "print('argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_import_imports_no_json():
    # the JSON writers import json when they first run, so importing the
    # package costs no json import
    script = ("import sys, forest_bialg; "
              "print('json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


# ------------------------------------------------------ memory across calls

def test_a_main_loop_stays_bounded_and_prints_what_fresh_calls_print(
        capsys, monkeypatch):
    # main sweeps when the trigger is due, so a loop of calls keeps the
    # intern tables at what the process holds; a trigger of 0, set again
    # before every call, makes every call sweep. Each command runs twice,
    # so the second round recomputes what the sweeps released
    texts = [str(f) for f in enumerate_forests(
        4, Alphabet(omega=("a", "b"), xset=("x",)))][7::40]
    commands = []
    for i, f in enumerate(texts):
        g = texts[(5 * i + 3) % len(texts)]
        commands += [["star-weighted", f, g], ["bracket", f, g],
                     ["phi", f, "--eval-nu", "2/3"],
                     ["coproduct", f, "--json"]]
    script = (
        "import contextlib, io, json\n"
        "import forest_bialg.cli as cli\n"
        "outs = []\n"
        f"for argv in {commands!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = cli.main(argv)\n"
        "    outs.append([code, buf.getvalue()])\n"
        "print(json.dumps(outs))\n")
    fresh = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=fresh_env(),
        capture_output=True, text=True, check=True).stdout)

    sweeps = []
    real = forest.sweep_interned

    def counted():
        sweeps.append(1)
        real()

    monkeypatch.setattr(forest, "sweep_interned", counted)
    monkeypatch.setattr(forest, "_SWEEP_FLOOR", 0)
    real()
    forests, coefficients = len(forest.Forest._intern), len(freemod._INTERN)
    for _ in range(2):
        for argv, want in zip(commands, fresh):
            monkeypatch.setattr(forest, "_sweep_at", 0)
            code, out, err = run(capsys, *argv)
            assert [code, out] == want and err == "", argv
            assert len(forest.Forest._intern) <= forests, argv
            assert len(freemod._INTERN) <= coefficients, argv
    assert len(sweeps) == 2 * len(commands)


def _interned_peak(argvs):
    # the most entries the intern tables held together after any call of
    # a main loop over argvs, in a fresh interpreter whose trigger floor
    # is 512 entries, so that a short loop reaches it
    script = (
        "import contextlib, io, json, sys\n"
        "import forest_bialg.cli as cli\n"
        "from forest_bialg import forest\n"
        "forest._SWEEP_FLOOR = forest._sweep_at = 512\n"
        "peak = 0\n"
        "for argv in json.load(sys.stdin):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    peak = max(peak, sum(map(len, forest._INTERNS)))\n"
        "print(peak)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(argvs),
        env=fresh_env(), capture_output=True, text=True, check=True)
    return int(proc.stdout)


def test_a_main_loop_over_new_deep_inputs_stays_bounded():
    # each input is a chain of 100 a-vertices over its own forest of
    # nine lone vertices, so a call adds ~100 trees but one forest: a
    # trigger that counted forests alone would never fire
    argvs = [["counit", "a[" * 100
              + " ".join("ab"[(i >> k) & 1] for k in range(9))
              + "]" * 100] for i in range(300)]
    assert _interned_peak(argvs) <= 2 * 512


def test_a_main_loop_over_new_evaluation_points_stays_bounded():
    # one forest at a new point per call: the loop adds no forest or
    # tree, only the coefficients of each new evaluation
    argvs = [["coproduct", "a[b[x] a] b[x]", f"--eval-lambda={i}/7",
              f"--eval-mu=-{i}/11"] for i in range(1, 1001)]
    assert _interned_peak(argvs) <= 2 * 512

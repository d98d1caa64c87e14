"""Command line contract: output text, JSON shapes, exit codes, one
parser per process."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forest_bialg.cli as cli
from forest_bialg import dualprod, forest, freemod
from forest_bialg.forest import Alphabet, enumerate_forests
from forest_bialg.verify import SuiteReport


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports from src/."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


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
    # star_weighted held for its one call
    monkeypatch.setattr(forest, "_sweep_at", sys.maxsize)
    code, out, _ = run(capsys, "star-weighted", "a[x] b", "b a", "--json")
    assert code == 0 and json.loads(out)
    assert not dualprod._HELD


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


EVAL_COMMANDS = sorted(cli._COMMANDS)


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
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt for a in p._actions for opt in a.option_strings
                  if opt not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert got == want
    assert sum(map(len, got.values())) == 71


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


# ------------------------------------------------------ the shared parser

def test_parser_is_built_once(capsys, monkeypatch):
    builds = []
    flag_groups = cli._flag_groups

    def counted():
        builds.append(1)
        return flag_groups()

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli, "_flag_groups", counted)
    for i in range(40):
        run(capsys, "counit", "a[x]" if i % 2 else "x")
        run(capsys, "star", "a", "b", "--json", "--eval-mu", str(i))
    with pytest.raises(SystemExit):
        cli.main(["not-a-command"])
    capsys.readouterr()
    assert len(builds) == 1
    assert cli._build_parser.cache_info().currsize == 1


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


def test_usage_error_leaves_the_parser_as_fresh():
    argv = ["star-weighted", "a[x] b", "b[x]", "--eval-lambda", "2/3"]
    fresh = subprocess.run(
        [sys.executable, "-m", "forest_bialg.cli", *argv],
        env=fresh_env(), capture_output=True, text=True, check=True).stdout
    # a usage error raised from inside a subparser, then one from the
    # top-level parser
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


def test_import_builds_no_parser():
    # the parser is built on the first main call, so importing the CLI
    # costs no more than importing the library
    script = ("import forest_bialg.cli as cli; "
              "print(cli._build_parser.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


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

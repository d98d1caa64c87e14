"""Command line contract: output text, JSON shapes, exit codes."""

import json

import pytest

import forest_bialg.cli as cli
from forest_bialg.verify import SuiteReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_counit_text(capsys):
    code, out, err = run(capsys, "counit", "x")
    assert code == 0 and err == ""
    assert out == "-m*l^-2\n"


def test_coproduct_text_lines(capsys):
    code, out, _ = run(capsys, "coproduct", "a[x]")
    assert code == 0
    assert out.splitlines() == [
        "(m) 1 (x) a",
        "(-l) 1 (x) a[x]",
        "(-l) a[x] (x) 1",
        "(m) x (x) 1",
        "(-l) x (x) a",
    ]


def test_star_json_schema(capsys):
    code, out, _ = run(capsys, "star", "a", "b", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == [
        {"coeff": [{"q": "1", "l": 0, "m": 0, "n": 0}], "legs": ["a b"]},
        {"coeff": [{"q": "1", "l": 0, "m": 0, "n": 0}], "legs": ["b[a]"]},
    ]


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


def test_deep_nesting_exits_2(capsys):
    deep = "a[" * 1200 + "x" + "]" * 1200
    code, out, err = run(capsys, "counit", deep)
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
    for extra in ([], [], ["--workers", "3"]):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]

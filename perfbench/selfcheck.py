"""Self-check of the benchmark itself; takes about a minute.

    python3 perfbench/selfcheck.py

Checks that
  * a tiny run of each workload, traced and untraced, prints every metric
    BENCHMARK.json declares, with no failed operation;
  * per-layer call counts, case counts and stdout digests repeat exactly
    for a seed, and the digest changes with the seed;
  * a wrong pinned case count is counted as a failure;
  * a tampered program output or exit code is caught by the oracle of
    every CLI command;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
import worker  # noqa: E402

problems = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("perfbench-meta ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, meta, result


def check_tiny_runs(declared):
    for w in declared["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, meta, result = run_bench(name, 7, trace)
            if result is None:
                check(False, f"{name} trace={trace}: exit {code}, no result")
                continue
            want = {m["name"] for m in declared[kind]}
            got = set(result["metrics"])
            check(got == want, f"{name} trace={trace}: metrics match {kind}"
                  + (f" (missing {sorted(want - got)}, extra {sorted(got - want)})"
                     if got != want else ""))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{name} trace={trace}: {result['failed']} of "
                  f"{result['attempted']} operations failed {meta['problems']}")
            if trace == 1:
                check(not meta["absent"], f"{name}: no traced function absent")


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(("_calls", "_masks", "_terms", "_interned",
                           "_entries", "_bytes", "exit2"))
            or k.startswith("verify.cases.")}


def check_repeatable():
    _, meta1, r1 = run_bench("cli-queries", 3, 1)
    _, meta2, r2 = run_bench("cli-queries", 3, 1)
    _, meta3, _ = run_bench("cli-queries", 4, 0)
    check(r1 is not None and r2 is not None and _counts(r1) == _counts(r2),
          "cli-queries: per-layer counts repeat for a seed")
    check(meta1["digests"] == meta2["digests"],
          "cli-queries: stdout digest repeats for a seed")
    check(meta1["digests"] != meta3["digests"],
          "cli-queries: stdout digest changes with the seed")
    _, _, s1 = run_bench("star-products", 3, 1)
    _, _, s2 = run_bench("star-products", 9, 1)
    check(s1 is not None and s2 is not None and _counts(s1) == _counts(s2),
          "star-products: per-layer counts repeat, the seed is unused")


def check_wrong_pin():
    plan = workloads.TINY_SUITE_PLANS["laws-symbolic"]
    name, alphabet, bound, pinned = plan[0]
    wrong = ((name, alphabet, bound, pinned + 1),) + plan[1:]
    out = worker.suite_pass(wrong)
    check(out["failed"] >= 1 and not out["failed"] > out["attempted"],
          f"wrong pinned case count for {name} is a failure "
          f"({out['failed']} failed)")


def _tampered(stdout: str, as_json: bool) -> str:
    """Drop one term of a multi-term result, else change the text."""
    if as_json:
        data = json.loads(stdout)
        if isinstance(data, list) and len(data) > 1:
            return json.dumps(data[1:]) + "\n"
    else:
        lines = stdout.splitlines(keepends=True)
        if len(lines) > 1:
            return "".join(lines[1:])
    return stdout[:-1] + " 1\n"


def check_tampered_outputs():
    queries = workloads.cli_queries(5, 0, 200)
    results, _ = worker.run_queries(queries)
    check(worker.check_cli(queries, results)["failed"] == 0,
          "cli-queries: untampered outputs pass")
    first = {}
    for q, res in zip(queries, results):
        if not q.malformed:
            first.setdefault(q.command, (q, res))
    for command in workloads.COMMANDS:
        q, (code, stdout) = first[command]
        bad_out = worker.check_cli([q], [(code, _tampered(stdout, q.json))])
        bad_code = worker.check_cli([q], [(1, stdout)])
        check(bad_out["failed"] == 1 and bad_code["failed"] == 1,
              f"{command}: tampered output and exit code are failures")


def check_no_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, _, result = run_bench("laws-symbolic", 1, 0, cwd=tmp)
        check(code != 0 and result is None,
              f"without the program run.py exits {code} and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    check_tiny_runs(declared)
    check_repeatable()
    check_wrong_pin()
    check_tampered_outputs()
    check_no_program()
    if problems:
        print(f"{len(problems)} self-check failures", file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh interpreter.

run.py starts this file once per pass with a JSON spec as its only
argument and PYTHONPATH pointing at the checkout's src directory:

    {"workload": ..., "seed": ..., "pass": ..., "mode": "setup"|"pass",
     "trace": bool, "tiny": bool, "spans": path or null}

The last line of its stdout is one JSON object. `ready` is time.monotonic()
once the package is imported; run.py subtracts its spawn time to get the
set-up time. In "setup" mode that is all the pass does.

The timed part drives the program only through its public entry points:
run_suite with a RunConfig for the suite workloads, cli.main for
cli-queries. Everything is checked after the timed part, so checking
never warms the program's caches before it is measured.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import forest_bialg
from forest_bialg import RunConfig, cli

import workloads
from hostspeed import HostSpeed

READY = time.monotonic()
perf = time.perf_counter

QUERY_BLOCK = 250


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def suite_pass(plan, tracer=None) -> dict:
    records, scaled = [], []
    with HostSpeed() as speed:
        for name, alphabet, bound, pinned in plan:
            m = speed.mark()
            try:
                # looked up on the package, so a traced pass sees its wrapper
                report, error = forest_bialg.run_suite(
                    name, RunConfig(alphabet=alphabet, max_vertices=bound)), None
            except Exception as e:  # an escaped exception fails the suite
                report, error = None, f"{type(e).__name__}: {e}"
            elapsed = speed.raw_since(m)
            records.append((name, pinned, report, error, elapsed))
            scaled.append(elapsed * speed.scale_since(m))
    out = {"wall_s": sum(scaled), "raw_wall_s": sum(r[4] for r in records),
           "peak_rss_mb": _peak_rss_mb(),
           "latencies_ms": [x * 1e3 for x in scaled]}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, suites=records)
    out.update(check_suites(records))
    return out


def check_suites(records) -> dict:
    """Compare every verdict and case count with its pinned value."""
    attempted = failed = 0
    problems, verdicts = [], []
    for name, pinned, report, error, _ in records:
        if report is None:
            attempted += pinned
            failed += pinned
            problems.append(f"{name}: {error}")
            continue
        n = max(report.cases, pinned)
        bad = len(report.failures) + abs(report.cases - pinned)
        attempted += n
        failed += min(n, bad)
        verdicts.append([name, report.cases, report.ok])
        if report.cases != pinned:
            problems.append(f"{name}: {report.cases} cases, pinned {pinned}")
        if not report.ok:
            problems.append(f"{name}: verdict fail, first {report.failures[0]['case']}")
    return {"ops": sum(r[2].cases for r in records if r[2] is not None),
            "attempted": attempted, "failed": failed, "problems": problems,
            "verdicts": verdicts}


def run_queries(queries, speed=None):
    """Call cli.main once per query with stdout and stderr captured.

    Returns [(exit code, stdout)] and the latencies in ms, in query order,
    with any sampling time of speed taken out.
    """
    speed = speed or HostSpeed()
    results, latencies = [], []
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            m = speed.mark()
            try:
                code = cli.main(q.argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # an escaped exception fails the query
                code = f"{type(e).__name__}: {e}"
            latencies.append(speed.raw_since(m) * 1e3)
        results.append((code, out.getvalue()))
    return results, latencies


def cli_pass(queries, tracer=None) -> dict:
    results, latencies = [], []
    wall = raw = 0.0
    with HostSpeed() as speed:
        for start in range(0, len(queries), QUERY_BLOCK):
            m = speed.mark()
            res, lat = run_queries(queries[start:start + QUERY_BLOCK], speed)
            elapsed = speed.raw_since(m)
            scale = speed.scale_since(m)
            results += res
            latencies += [x * scale for x in lat]
            wall += elapsed * scale
            raw += elapsed
    out = {"wall_s": wall, "raw_wall_s": raw, "peak_rss_mb": _peak_rss_mb(),
           "latencies_ms": latencies, "ops": len(queries)}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, cli_results=results)
    out.update(check_cli(queries, results))
    return out


def check_cli(queries, results) -> dict:
    """Check each query against its independent oracle."""
    failed, problems = 0, []
    for q, (code, stdout) in zip(queries, results):
        try:
            ok = workloads.check_query(q, code, stdout)
        except Exception as e:  # an oracle that cannot read the output
            ok = False
            stdout = f"{stdout!r} ({type(e).__name__}: {e})"
        if not ok:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{' '.join(q.argv)} -> {code}: {stdout[:200]}")
    return {"attempted": len(queries), "failed": failed, "problems": problems,
            "digest": workloads.digest(results)}


# ------------------------------------------------------------ layer metrics

def layer_metrics(tr, suites=(), cli_results=()) -> dict:
    """The per-layer metrics of a traced pass, by name."""
    st = tr.stats

    def calls(*keys):
        return sum(st[k].calls for k in keys)

    def secs(*keys):
        return sum(st[k].self_s for k in keys)

    def ratio(key):
        s = st[key]
        return s.hits / s.calls if s.calls else 0.0

    coeff_ops = ("freemod.coeff_add", "freemod.coeff_sub", "freemod.coeff_neg",
                 "freemod.coeff_mul")
    m = {
        "forest.enumerate_s": secs("forest.enumerate"),
        "forest.from_encoding_calls": calls("forest.from_encoding"),
        "forest.from_encoding_s": secs("forest.from_encoding"),
        "forest.from_encoding_hit_ratio": ratio("forest.from_encoding"),
        "forest.parse_calls": calls("forest.parse"),
        "forest.parse_s": secs("forest.parse"),
        "forest.trees_interned": tr.table_size("forest", "Tree._intern"),
        "forest.forests_interned": tr.table_size("forest", "Forest._intern"),
        "forest.encodings_interned": tr.table_size("forest", "_ENC_INTERN"),
        "kernel.postorder_calls": calls("kernel.postorder"),
        "kernel.postorder_s": secs("kernel.postorder"),
        "kernel.restrict_calls": calls("kernel.restrict"),
        "kernel.restrict_s": secs("kernel.restrict"),
        "kernel.biideal_splits_calls": calls("kernel.biideal_splits"),
        "kernel.biideal_splits_s": secs("kernel.biideal_splits"),
        "freemod.coeff_add_calls": calls("freemod.coeff_add"),
        "freemod.coeff_mul_calls": calls("freemod.coeff_mul"),
        "freemod.coeff_s": secs(*coeff_ops),
        "freemod.coeff_monomials_mean": (
            (st["freemod.coeff_add"].acc + st["freemod.coeff_mul"].acc)
            / (2 * max(1, calls("freemod.coeff_add", "freemod.coeff_mul")))),
        "freemod.subst_calls": calls("freemod.subst_mu", "freemod.subst_partial"),
        "freemod.subst_s": secs("freemod.subst_mu", "freemod.subst_partial"),
        "freemod.render_s": secs("freemod.coeff_str", "freemod.coeff_json",
                                 "freemod.lincomb_str", "freemod.lincomb_json"),
        "freemod.lincomb_add_calls": calls("freemod.lincomb_add"),
        "freemod.lincomb_add_s": secs("freemod.lincomb_add", "freemod.lincomb_sub",
                                      "freemod.lincomb_neg"),
        "freemod.lincomb_tensor_calls": calls("freemod.lincomb_tensor"),
        "freemod.lincomb_tensor_s": secs("freemod.lincomb_tensor"),
        "freemod.lincomb_apply_s": secs("freemod.lincomb_apply",
                                        "freemod.lincomb_scale",
                                        "freemod.lincomb_map_basis",
                                        "freemod.lincomb_map_coeff"),
        "freemod.lincomb_eq_s": secs("freemod.lincomb_eq"),
        "coalgebra.biideal_calls": calls("coalgebra.biideal"),
        "coalgebra.biideal_s": secs("coalgebra.biideal"),
        "coalgebra.biideal_hit_ratio": ratio("coalgebra.biideal"),
        "coalgebra.rec_calls": calls("coalgebra.rec"),
        "coalgebra.rec_s": secs("coalgebra.rec"),
        "coalgebra.rec_hit_ratio": ratio("coalgebra.rec"),
        "coalgebra.cache_entries": (tr.table_size("coalgebra", "_REC_CACHE")
                                    + tr.table_size("coalgebra", "_BIID_CACHE")),
        "dualprod.star_calls": calls("dualprod.star"),
        "dualprod.star_s": secs("dualprod.star", "dualprod.star_lin"),
        "dualprod.star_terms": st["dualprod.star"].acc,
        "dualprod.star_weighted_s": secs("dualprod.star_weighted"),
        "dualprod.pairing_s": secs("dualprod.pairing"),
        "morphisms.phi_calls": calls("morphisms.phi"),
        "morphisms.phi_s": secs("morphisms.phi", "morphisms.phi_at",
                                "morphisms.lc_concat"),
        "morphisms.phi_hit_ratio": ratio("morphisms.phi"),
        "morphisms.phi_subsets_s": secs("morphisms.phi_subsets"),
        "morphisms.phi_subsets_masks": st["morphisms.phi_subsets"].acc,
        "morphisms.theta_s": secs("morphisms.theta"),
        "prelie.prelie_calls": calls("prelie.prelie"),
        "prelie.prelie_s": secs("prelie.prelie", "prelie.bracket"),
        "prelie.sandwich_s": secs("prelie.sandwich"),
        "prelie.lin_s": secs("prelie.lin", "prelie.bracket_lin"),
        "verify.self_s": secs("verify.run_suite"),
        "cli.main_calls": calls("cli.main"),
        "cli.self_s": secs("cli.main"),
        "cli.stdout_bytes": sum(len(out.encode()) for _, out in cli_results),
        "cli.exit2": sum(1 for code, _ in cli_results if code == 2),
        "process.gc_s": tr.gc_s,
        "process.gc_collections": tr.gc_collections,
    }
    for name in workloads.SUITE_NAMES:
        m[f"verify.suite.{name}_s"] = 0.0
        m[f"verify.cases.{name}"] = 0
    for name, _, report, _, elapsed in suites:
        m[f"verify.suite.{name}_s"] = elapsed
        m[f"verify.cases.{name}"] = report.cases if report is not None else 0
    return m


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(forest_bialg.__file__).startswith(src + os.sep):
        print(f"forest_bialg was imported from {forest_bialg.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    result = {"ready": READY}
    if spec["mode"] == "pass":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer().install()
        name = spec["workload"]
        if name == "cli-queries":
            count = (workloads.TINY_QUERIES_PER_PASS if spec["tiny"]
                     else workloads.QUERIES_PER_PASS)
            queries = workloads.cli_queries(spec["seed"], spec["pass"], count)
            result.update(cli_pass(queries, tracer))
        else:
            plans = workloads.TINY_SUITE_PLANS if spec["tiny"] else workloads.SUITE_PLANS
            result.update(suite_pass(plans[name], tracer))
        if tracer is not None:
            tracer.uninstall_gc()
            result["absent"] = tracer.absent
            result["spans"] = len(tracer.spans["id"])
            if spec.get("spans"):
                tracer.write_spans(spec["spans"])
    result["python"] = platform.python_version()
    result["kernel_backend"] = getattr(forest_bialg, "KERNEL_BACKEND", "absent")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

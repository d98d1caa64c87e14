"""forest-bialg benchmark: time to verdict, query latency and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src
directory, so nothing needs installing. Workloads:

  laws-symbolic  the coproduct-family law suites, symbolic (seed unused)
  star-products  star census, star associativity and duality (seed unused)
  cli-queries    one closed-loop client calling cli.main in process on
                 queries generated from the seed

Every pass of a workload runs in a fresh interpreter (worker.py), so the
intern tables and coproduct caches start cold each time. A run makes a
fixed number of passes, set by --seconds and the workload's nominal pass
length, and also starts SETUP_SAMPLES interpreters that only import the
package, to time set-up.

With --trace 0 the last stdout line holds the end-to-end metrics (medians
over passes; latency percentiles over all operations of all passes);
times are corrected for the host's speed, see hostspeed.py. With
--trace 1 it holds the per-layer metrics of one traced pass, and
trace.overhead_s, its wall time minus that of an untraced pass run just
before it. Spans of the traced pass go to perfbench/out/. A line starting
"perfbench-meta" before the result records the Python version, kernel
backend, CPU count, commit, seed, pass count, raw wall times and stdout
digests. perfbench/README.md has the details.

--tiny shrinks every workload to a few seconds for the self-check
(selfcheck.py); results under it are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# seconds one untraced pass takes, start-up and checks included, on a
# 2-core x86 box at the seed commit; a run makes round(seconds / nominal)
# passes
NOMINAL_PASS_S = {"laws-symbolic": 21.0, "star-products": 15.0,
                  "cli-queries": 7.5}
SETUP_SAMPLES = 9
RUN_BUDGET_S = 175.0


class WorkerError(RuntimeError):
    pass


def _spawn(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, its result object)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spec = dict(spec, src=SRC)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {spec}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return t_spawn, json.loads(lines[-1])


def _percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _commit() -> str:
    """HEAD of the checkout's own git directory, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool):
    deadline = time.monotonic() + RUN_BUDGET_S
    base = {"workload": workload, "seed": seed, "trace": False, "tiny": tiny,
            "spans": None}
    setup = []
    ref = hostspeed.reference_s()
    for _ in range(SETUP_SAMPLES):
        t_spawn, res = _spawn(dict(base, mode="setup", **{"pass": -1}), deadline)
        before, ref = ref, hostspeed.reference_s()
        setup.append((res["ready"] - t_spawn) * hostspeed.scale([before, ref]))
    passes = 1 if tiny or trace else max(1, round(seconds / NOMINAL_PASS_S[workload]))
    results = [_spawn(dict(base, mode="pass", **{"pass": i}), deadline)[1]
               for i in range(passes)]
    traced = None
    if trace:
        spans = os.path.join(HERE, "out", f"spans-{workload}")
        _, traced = _spawn(dict(base, mode="pass", trace=True, spans=spans,
                                **{"pass": 0}), deadline)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "passes": passes,
        "python": results[0]["python"],
        "kernel_backend": results[0]["kernel_backend"],
        "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
        "setup_samples": len(setup),
        "raw_wall_s": [r["raw_wall_s"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "digests": [r["digest"] for r in results if "digest" in r],
        "verdicts": results[0].get("verdicts"),
        "problems": [p for r in results for p in r["problems"]][:10],
    }
    if traced is not None:
        meta.update(absent=traced["absent"], spans=traced["spans"],
                    problems=meta["problems"] + traced["problems"][:5])
    if trace:
        metrics = {k: (v, _layer_unit(k)) for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - results[0]["wall_s"], "s")
    else:
        latencies = [x for r in results for x in r["latencies_ms"]]
        meta["latency_samples"] = len(latencies)
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
            "ops_per_s": (statistics.median(r["ops"] / r["wall_s"] for r in results), "1/s"),
            "query_p50_ms": (_percentile(latencies, 50), "ms"),
            "query_p99_ms": (_percentile(latencies, 99), "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    return meta, {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mean"):
        return "monomials"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "forest_bialg", "__init__.py")):
        print(f"error: no forest_bialg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        meta, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.tiny)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

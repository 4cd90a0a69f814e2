"""Benchmark: run one catamerge workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload three_way --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the engine is imported from ``src/`` there.
The measuring time is shared by WORKERS worker processes run one after the
other, each with its own fixed PYTHONHASHSEED: string hashing decides how
the engine's dicts and sets are laid out, which can move a job's time from
one process to the next, so every run pools the same few layouts. Every job
is checked against the generator's own expectation, and its chase trace and
artifacts must equal those of the first job on the same document, across
workers too.

``--trace 0`` reports the end-to-end metrics from untraced jobs at the main
and the half size, with job times in units of the reference work timed next
to each job (``reference.py``), and the raw seconds in the details line. ``--trace 1`` reports per-layer metrics from traced
main-size jobs, with the tracing overhead against the untraced ones run in
between. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S
from tracing import MODULES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKERS = 4
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def run_workers(workload: str, seed: int, seconds: float, trace: int) -> list[dict] | None:
    """Run the workers in turn; None when one of them fails to run."""
    results: list[dict] = []
    reference: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    for k in range(WORKERS):
        share = max(deadline - time.perf_counter(), 0.0) / (WORKERS - k)
        command = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(share),
                   str(trace), json.dumps(reference)]
        # Without bytecode files every set-up compiles the engine from source,
        # whatever the environment, and nothing is written into the checkout.
        env = dict(os.environ, PYTHONHASHSEED=str(k + 1), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=share + 120)
        except subprocess.TimeoutExpired:
            print(f"error: worker {k + 1} did not finish", file=sys.stderr)
            return None
        if proc.returncode != 0:
            return None
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        reference = results[0]["fingerprints"]
    return results


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    at = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[at], 100.0 * at / len(ordered)


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Times in reference units: each job's or set-up's time divided by the
    reference work's time next to it (see reference.py); set-up times are
    then scaled to seconds by REFERENCE_S. Raw seconds go in the details."""
    main = [s for r in results for s in r["main"]]
    half = [s for r in results for s in r["half"]]
    ratios = [wall / ref_wall for wall, _, ref_wall, _ in main]
    p50 = statistics.median(ratios)
    p50_half = statistics.median(wall / ref_wall for wall, _, ref_wall, _ in half)
    tail_ref, tail_pct = tail(ratios)
    rows = results[0]["source_rows"]
    metrics = {
        "setup_s": (REFERENCE_S * statistics.median(
            setup / ref_wall for r in results for setup, ref_wall in r["setup_s"]), "s"),
        "job_ref.p50": (p50, "ref"),
        "job_ref.tail": (tail_ref, "ref"),
        "job_cpu_ref.p50": (statistics.median(cpu / ref_cpu for _, cpu, _, ref_cpu in main), "ref"),
        "rows_per_ref": (rows / p50, "rows/ref"),
        "scaling_slope": (math.log(p50 / p50_half) / math.log(2), "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MiB"),
    }
    walls = [wall for wall, *_ in main]
    job_s = statistics.median(walls)
    details = {
        "main_jobs": len(main),
        "half_jobs": len(half),
        "job_ref.tail_percentile": round(tail_pct, 1),
        "job_ref.half_p50": p50_half,
        "job_s.p50": job_s,
        "job_s.tail": tail(walls)[0],
        "job_cpu_s.p50": statistics.median(cpu for _, cpu, *_ in main),
        "rows_per_s": rows / job_s,
        "reference_s.p50": statistics.median(ref_wall for *_, ref_wall, _ in main),
        "setup_wall_s.p50": statistics.median(setup for r in results for setup, _ in r["setup_s"]),
    }
    return metrics, details


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or metric == "chase.s":
        return "s"
    if metric in ("chase.fire_yield", "trace.coverage"):
        return "ratio"
    if metric == "printer.bytes":
        return "bytes"
    return "count"


def per_layer(results: list[dict]) -> tuple[dict, dict]:
    layers = [job for r in results for job in r["layers"]]
    metrics = {
        name: (statistics.median(job[name] for job in layers), unit(name))
        for name in (layers[0] if layers else {})
    }
    p50 = statistics.median(wall for r in results for wall in r["untraced"])
    traced_p50 = statistics.median(wall for r in results for wall in r["traced"])
    metrics["trace.job_s.p50"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
    details = {
        "untraced_jobs": sum(len(r["untraced"]) for r in results),
        "traced_jobs": sum(len(r["traced"]) for r in results),
        "untraced_job_s.p50": p50,
        "spans": results[-1]["spans"],
        "last_traced_s": results[-1]["last_traced_s"],
    }
    return metrics, details


def report_layers(metrics: dict, details: dict) -> None:
    job = metrics["trace.job_s.p50"][0]
    print(f"traced job {job:.4f} s, untraced {details['untraced_job_s.p50']:.4f} s, "
          f"tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s")
    if "trace.coverage" in metrics:
        print(f"top-level spans cover {metrics['trace.coverage'][0]:.1%} of the traced job")
    last = details["last_traced_s"]
    print(f"spans of the last traced job ({last:.4f} s):")
    print(f"{'span':24} {'calls':>8} {'busy s':>9} {'self s':>9} {'self %':>7}")
    for name, s in details["spans"].items():
        print(f"{name:24} {s['calls']:>8} {s['busy_s']:>9.4f} {s['self_s']:>9.4f} "
              f"{s['self_s'] / last:>7.1%}")
    print("self time by module (median over traced jobs):")
    for module in MODULES:
        if f"{module}.self_s" in metrics:
            value = metrics[f"{module}.self_s"][0]
            print(f"  {module:10} {value:9.4f} s  {value / job:6.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    environment = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }
    results = run_workers(args.workload, args.seed, args.seconds, args.trace)
    if results is None:
        return 1
    if args.trace:
        metrics, details = per_layer(results)
        report_layers(metrics, details)
    else:
        metrics, details = end_to_end(results)
    attempted = sum(n for r in results for n in r["jobs"].values())
    failures = [f for r in results for f in r["failures"]]
    workload = WORKLOADS[args.workload]
    details.update(
        workload=workload.name,
        seed=args.seed,
        sizes={"main": workload.main, "half": workload.half},
        source_rows=results[0]["source_rows"],
        environment=environment,
        workers=WORKERS,
        fail_frac=len(failures) / attempted,
        fingerprints=results[0]["fingerprints"],
        failures=failures[:5],
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

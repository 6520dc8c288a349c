#!/usr/bin/env python3
"""Run the benchmark many times and summarize: the one command for a full picture.

    python3 perfbench/suite.py [--workloads a,b] [--runs 10] [--first-seed 1]
                               [--traced 1]

Every run is a fresh interpreter (perfbench/run.py), so set-up time and
peak memory are per run.  For each workload it prints every end-to-end
metric with its unit as median, quartiles and quartile spread against the
bound in BENCHMARK.json (and the pose queries' latencies), then the
per-module table of the traced runs (calls, inclusive and self
milliseconds per call) and whether the call counts repeat.  All runs land in perfbench/out/BENCH_<time>.json with
provenance.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import env

BENCH = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(env.ROOT / "perfbench" / "run.py")]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(BENCH["run_seconds"])]
    t0 = time.perf_counter()
    done = subprocess.run(
        [*command, *args, "--trace", str(trace)],
        cwd=env.ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} trace {trace}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((env.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "trace": trace, "run_s": elapsed, "result": result, "record": record}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def print_timed(workload: str, runs: list[dict]) -> dict:
    summary = {}
    print(f"\n{workload}: {len(runs)} timed runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
          f"{statistics.median(r['run_s'] for r in runs):.1f} s per run")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in BENCH["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        flag = "" if rel < metric["bound"] / 3 else "  <-- above a third of its bound"
        print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {metric['bound']:6.3f}"
              f" {metric['unit']}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "unit": metric["unit"]}
    if "latency_ms" in runs[0]["record"]["details"]:
        for name in runs[0]["record"]["details"]["latency_ms"]:
            values = [r["record"]["details"]["latency_ms"][name] for r in runs]
            med, q1, q3, rel = spread(values)
            print(f"  {name + '_ms':14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f}     -- ms")
            summary[name + "_ms"] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "unit": "ms"}
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    print(f"  {'failed_frac':14s} {failed / attempted:12.6g} ({failed} of {attempted} operations)")
    summary["failed_frac"] = failed / attempted
    return summary


def print_traced(workload: str, runs: list[dict]) -> dict:
    first = runs[0]["record"]
    totals = first["details"]["totals"]
    metrics = first["metrics"]
    print(f"\n{workload}: traced run, seed {runs[0]['seed']}")
    print(f"  {'function':36s} {'calls':>8s} {'ms/call':>10s} {'self ms/call':>13s} {'self s':>9s}")
    for name, agg in totals.items():
        if agg["calls"] == 0:
            continue
        calls = agg["calls"]
        print(f"  {name:36s} {calls:8d} {1e3 * agg['total_s'] / calls:10.4f} "
              f"{1e3 * agg['self_s'] / calls:13.4f} {agg['self_s']:9.3f}")
    for name in ("trace.wall_s", "trace.self_sum_s", "trace.overhead_s",
                 "sweep.invalid_cells", "sweep.outside_cells", "trace.count_mismatches"):
        print(f"  {name:36s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for note in first["notes"]:
        print(f"  note: {note}")
    calls = [
        {name: agg["calls"] for name, agg in r["record"]["details"]["totals"].items()}
        for r in runs
    ]
    if len(runs) > 1:
        print("  call counts repeat across traced runs: "
              + ("yes" if all(c == calls[0] for c in calls) else "NO"))
    return {"calls": calls[0], "totals": totals, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--runs", type=int, default=10, help="timed runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    args = parser.parse_args(argv)

    env.OUT.mkdir(parents=True, exist_ok=True)
    report = {"provenance": env.provenance(), "benchmark": BENCH, "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads.split(","):
        entry = report["workloads"].setdefault(workload, {"runs": args.runs})
        if args.runs:
            timed = [one_run(workload, seed, 0) for seed in seeds]
            entry["timed_runs"] = [r["result"] for r in timed]
            entry["timed"] = print_timed(workload, timed)
        if args.traced:
            traced = [one_run(workload, args.first_seed + k, 1) for k in range(args.traced)]
            entry["traced_runs"] = [r["result"] for r in traced]
            entry["traced"] = print_traced(workload, traced)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = env.OUT / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path.relative_to(env.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One benchmark run of pkm on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times whole jobs, each in a fresh interpreter (job.py), while
one more fits in S seconds, and measures set-up after each job.  A job is
never cut, so a run lasts at least one job.  --trace 1 runs one job in
this process with a span around each traced pkm function and reports the
per-layer metrics.  Outputs are checked after the timed region either
way, the last line of stdout is the JSON result, and a results file with
provenance goes to perfbench/out/.

Workloads: map_sweeps, pose_queries, compare_pool, compare_stock.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import env

# a fresh interpreter's set-up: import pkm, build both machines, evaluate
# the home-pose chain of one; prints where pkm came from and one stiffness
SETUP_CODE = """\
import pkm
z3 = pkm.MechanismParams(variant=pkm.Variant.Z3_PRS)
a3 = pkm.MechanismParams(variant=pkm.Variant.A3_RPS)
cp = pkm.solve_loop_closure(z3, 0.0, 0.0)
states = pkm.inverse_kinematics(z3, cp.pose)
jac = pkm.build_jacobian(z3, cp.pose, states)
result = pkm.assemble_stiffness(z3, cp.pose, states, jac)
print(pkm.__file__, repr(result.kpz), flush=True)
"""
SETUP_REPEATS = 2  # after each job
CHILD_TIMEOUT_S = 170

# call counts of one job at the seed code, which count-based claims rest on.
# compare_stock: 121^2 cells, 2 machines, 3 heave offsets.  map_sweeps:
# 21^2 cells, 2 machines, 6 closure solves per cell.  pose_queries: fixed
# per query and path, so the same for every seed.  compare_pool: the
# parent's calls only, as the cells are solved in pool workers.
EXPECTED_CALLS = {
    "map_sweeps": {
        "parasitic.solve_loop_closure": 5292,
        "parasitic.parasitic_map": 2,
        "kinematics.inverse_kinematics": 4410,
        "jacobian.build_jacobian": 4410,
        "stiffness.assemble_stiffness": 882,
        "stiffness.stiffness_map_rotational": 2,
        "geometry.pose_from_tilts": 5292,
        "grids.write_map_csv": 12,
        "svg.emit_heatmap_svg": 26,
        "sweep.condition_map": 2,
        "sweep.workspace_slice": 6,
        "cli.main": 12,
    },
    "pose_queries": {
        "parasitic.solve_loop_closure": 2000,
        "parasitic.integrate_parasitic_path": 25,
        "kinematics.inverse_kinematics": 4025,
        "jacobian.build_jacobian": 2000,
        "stiffness.assemble_stiffness": 2000,
        "stiffness.deflection_under_load": 2000,
        "geometry.pose_from_tilts": 2025,
    },
    "compare_pool": {
        "grids.write_map_csv": 14,
        "svg.emit_heatmap_svg": 26,
        "sweep.run_comparison": 1,
    },
    "compare_stock": {
        "parasitic.solve_loop_closure": 29282,
        "kinematics.inverse_kinematics": 87846,
        "jacobian.build_jacobian": 87846,
        "geometry.pose_from_tilts": 117128,
        "stiffness.assemble_stiffness": 29282,
        "grids.write_map_csv": 14,
        "svg.emit_heatmap_svg": 26,
    }
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    times, answers = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE],
            stdout=subprocess.PIPE,
            env=env.child_env(),
            cwd=env.ROOT,
            text=True,
        ) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        origin, _, kpz = line.strip().rpartition(" ")
        if code != 0 or Path(origin).parent.resolve() != (env.SRC / "pkm").resolve():
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        times.append(t1 - t0)
        answers.add(kpz)
    if len(answers) != 1:
        raise RuntimeError(f"set-up probes disagree: {sorted(answers)}")
    return times


def spawn_job(*args) -> dict:
    done = subprocess.run(
        [sys.executable, str(env.ROOT / "perfbench" / "job.py"), *map(str, args)],
        cwd=env.ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"job {args} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile_ms(values: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(values, q))


def timed_run(workload, args, scratch: Path):
    """Jobs, each in a fresh interpreter, while one more fits in the run.
    Set-up probes follow every job, so they sample the whole run too."""
    records, setups = [], []
    start = time.perf_counter()
    last_s = 0.0
    while not records or time.perf_counter() - start + last_s <= args.seconds:
        t0 = time.perf_counter()
        out_dir = scratch / f"job{len(records)}"
        records.append(spawn_job(workload.name, args.seed, len(records), out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        setups += measure_setup()
        last_s = time.perf_counter() - t0
    walls = [r["wall_s"] for r in records]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
    }
    notes = [
        f"wall_s and peak_rss_mb are medians over {len(walls)} jobs, each in a fresh "
        "interpreter; walls " + ", ".join(f"{w:.4g}" for w in walls),
        f"setup_s is the median of {len(setups)} fresh interpreters",
    ]
    details = {
        "jobs": len(records),
        "walls_s": walls,
        "setups_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    if workload.kind == "poses":
        # the latency of one query or path, as the percentile within each job
        # and the median over the run's jobs; printed, not in BENCHMARK.json
        def per_job(key: str, q: float) -> float:
            return statistics.median(percentile_ms(r[key], q) for r in records)

        details["latency_ms"] = {
            "query_p50": per_job("latencies_s", 50),
            "query_p99": per_job("latencies_s", 99),
            "path_p50": per_job("path_latencies_s", 50),
        }
        notes.append(
            "latency (wall clock, per job percentile, median over jobs): "
            + ", ".join(f"{k} {v:.4g} ms" for k, v in details["latency_ms"].items())
            + f"; {len(records[0]['latencies_s'])} queries and "
            f"{len(records[0]['path_latencies_s'])} paths a job"
        )
    return metrics, records, notes, details


def traced_run(pkm, workload, args, scratch: Path):
    import job
    import tracing

    per_call = tracing.wrapper_cost()
    tracer = tracing.Tracer([f"{m}.{f}" for m, f in tracing.TRACED])
    record = job.one_job(pkm, workload, args.seed, 0, scratch / "job0", tracer=tracer)
    totals = tracer.aggregate()

    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
        if name in tracing.WRITERS:
            metrics[f"{name}.bytes"] = (tracer.bytes[name], "bytes")
    mismatches = [
        f"{name}: {totals[name]['calls']} calls, expected {count}"
        for name, count in EXPECTED_CALLS[workload.name].items()
        if totals[name]["calls"] != count
    ]
    wall = record["wall_s"]
    spans = len(tracer.start)
    self_sum = sum(totals[name]["self_s"] for name in tracer.names)
    metrics.update(
        {
            "sweep.invalid_cells": (record["invalid_cells"], "count"),
            "sweep.outside_cells": (record["outside_cells"], "count"),
            "trace.overhead_s": (per_call * spans, "s"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_s": (self_sum, "s"),
            "trace.count_mismatches": (len(mismatches), "count"),
        }
    )
    notes = [
        f"{spans} spans; self times cover {100 * self_sum / wall:.2f}% of the traced wall",
        f"trace.overhead_s = {spans} spans x {1e6 * per_call:.3f} us per wrapped no-op call",
    ]
    if workload.params.get("workers", 1) > 1:
        notes.append("only parent-side spans are visible: spans inside pool workers are lost")
    notes.append(
        "call counts " + ("match the seed's" if not mismatches else "differ: " + "; ".join(mismatches))
    )
    return metrics, [record], notes, {"jobs": 1, "totals": totals}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkm = env.import_pkm()
    except env.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env.OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=env.OUT))
    try:
        if args.trace:
            metrics, records, notes, details = traced_run(pkm, workload, args, scratch)
        else:
            metrics, records, notes, details = timed_run(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]][:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "workload_params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": env.provenance(),
        "notes": notes,
        "problems": problems,
        "details": details,
        **result,
    }
    results_file = env.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{details['jobs']} job(s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    frac = failed / attempted
    print(f"  {'failed_frac':44s} {frac:14.6g} ({failed} of {attempted} operations)")
    for line in notes + problems:
        print(f"  note: {line}")
    print(f"  results file: {results_file.relative_to(env.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

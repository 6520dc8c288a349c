#!/usr/bin/env python3
"""One job of a workload, timed and then checked.

    python3 perfbench/job.py WORKLOAD SEED INDEX OUT_DIR

run.py starts each job in a fresh interpreter, so no warm state passes
from one job to the next, as with a user's own run.  A job reads its peak
resident memory right after the timed region, then checks every output
and prints one JSON line: wall time, memory, the pose queries' latencies
(pose_queries only) and the check counts.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import env


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def load_reference(name: str) -> dict:
    path = env.ROOT / "perfbench" / "reference" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def one_job(pkm, workload, seed: int, index: int, out_dir, tracer=None) -> dict:
    """Run, time and check one job; with a tracer, only the job itself is traced."""
    import workloads

    params = workloads.machines(pkm)
    inputs = None
    if workload.kind == "poses":
        # each job draws its own poses, so no two jobs see the same inputs
        inputs = workloads.pose_inputs(
            pkm, params, [seed, index], workload.params["queries"], workload.params["paths"]
        )
    if tracer is not None:
        tracer.install(pkm)
    try:
        t0 = time.perf_counter()
        if workload.kind == "compare":
            done = workloads.compare_job(pkm, params, workload, out_dir)
        elif workload.kind == "maps":
            done = workloads.maps_job(pkm, params, workload, out_dir)
        else:
            done = workloads.pose_job(pkm, params, inputs)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()

    invalid = outside = 0
    if workload.kind == "poses":
        tally = workloads.check_poses(pkm, params, inputs, done)
    else:
        summary = workloads.summarize_grid_output(workload, out_dir, done)
        reference = load_reference(workload.name)
        tally, invalid, outside = workloads.check_grid_output(summary, reference)
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "latencies_s": done["latencies"] if inputs else [],
        "path_latencies_s": done["path_latencies"] if inputs else [],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "invalid_cells": invalid,
        "outside_cells": outside,
    }


def main(argv: list[str]) -> int:
    pkm = env.import_pkm()
    import workloads

    name, seed, index, out_dir = argv
    record = one_job(pkm, workloads.WORKLOADS[name], int(seed), int(index), Path(out_dir))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

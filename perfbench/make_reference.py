#!/usr/bin/env python3
"""Write the reference summaries that the grid workloads' outputs are checked against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it on the code whose outputs are the reference (the seed code); it
runs each grid workload once and writes perfbench/reference/<name>.json.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import env


def main(argv: list[str]) -> int:
    pkm = env.import_pkm()
    import workloads

    names = argv or [w.name for w in workloads.WORKLOADS.values() if w.kind != "poses"]
    params = workloads.machines(pkm)
    env.OUT.mkdir(parents=True, exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        scratch = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=env.OUT))
        try:
            if workload.kind == "compare":
                done = workloads.compare_job(pkm, params, workload, scratch)
            else:
                done = workloads.maps_job(pkm, params, workload, scratch)
            summary = workloads.summarize_grid_output(workload, scratch, done)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        summary["produced_by"] = env.provenance()
        path = env.ROOT / "perfbench" / "reference" / f"{name}.json"
        path.write_text(json.dumps(summary, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(env.ROOT)} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

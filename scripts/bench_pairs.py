#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarised into a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV [--workloads pose_queries,...]
        [--pairs 10] [--first-seed N] [--tree DIR]
        [--out BENCH_<n>.json] [--claim TEXT] [--digests]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`, T being BENCHMARK.json's run_seconds, once in the parent tree
(`git archive REV`) and once in the change tree (the working tree's
tracked and unignored files), the parent first in odd-numbered pairs.
Before every run, that tree is extracted afresh to one fixed directory,
--tree, so both sides run from the same path.  Pair k of a workload runs
seed first-seed + k - 1 on both sides.

The output file keeps every run, and per workload and end-to-end metric of
BENCHMARK.json the parent's and the change's medians and quartiles, the
pairs the change won and a verdict.  A gain (or a loss) is resolved only
when there are at least 10 pairs, the change is better (or worse) in at
least 9 of 10 of them and the median gap exceeds the parent's
interquartile range; anything else is unresolved.  --digests runs this
tree's scripts/scalar_digest.py and scripts/output_digest.py in both trees
first and prints the outputs that differ.

The script changes nothing under perfbench/ or in BENCHMARK.json, and it
passes its own environment to every run unchanged, apart from PYTHONPATH
for the digest scripts.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import env  # noqa: E402  (perfbench's provenance: cores, CPU, Python and numpy)
import suite  # noqa: E402  (BENCHMARK.json as perfbench reads it, and its quartiles)

MIN_PAIRS = 10  # for a resolved gain or loss
WIN_SHARE = 0.9  # of the pairs, for a resolved gain or loss
DIGESTS = ("scalar_digest.py", "output_digest.py")
METRICS = [(m["name"], m["better"]) for m in suite.BENCH["end_to_end"]]


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3, as perfbench's suite computes them, to 4 decimals."""
    median, q1, q3, _ = suite.spread(values)
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def verdict(wins: int, losses: int, pairs: int, gap: float, spread: float) -> str:
    """gain, loss or unresolved; gap is the parent's median minus the change's,
    signed so that a positive gap favours the change, and spread the parent's IQR.
    Fewer than MIN_PAIRS pairs resolve nothing."""
    if pairs < MIN_PAIRS:
        return "unresolved"
    needed = math.ceil(WIN_SHARE * pairs)
    if wins >= needed and gap > spread:
        return "gain"
    if losses >= needed and -gap > spread:
        return "loss"
    return "unresolved"


def summarize(runs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """The workloads block of a BENCH file from its runs.

    A pair is the parent's and the change's run of one workload and seed.
    Per metric: each side's quartiles, the pairs the change won (strictly
    better), the pairs compared and the verdict.  Per workload: each side's
    failed operations.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_seed = {}
        for run in mine:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run
        pairs = [pair for pair in by_seed.values() if len(pair) == 2]
        block = {}
        for name, better in metrics:
            sign = 1.0 if better == "lower" else -1.0
            sides = {
                side: [run[name] for run in mine if run["side"] == side]
                for side in ("parent", "change")
            }
            stats = {side: quartiles(values) for side, values in sides.items()}
            diffs = [sign * (p["parent"][name] - p["change"][name]) for p in pairs]
            wins = sum(d > 0 for d in diffs)
            losses = sum(d < 0 for d in diffs)
            gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
            spread = stats["parent"]["q3"] - stats["parent"]["q1"]
            block[name] = {
                **stats,
                "wins": wins,
                "pairs": len(pairs),
                "verdict": verdict(wins, losses, len(pairs), gap, spread),
            }
        block["failed"] = {
            side: sum(run["failed"] for run in mine if run["side"] == side)
            for side in ("parent", "change")
        }
        summary[workload] = block
    return summary


def report(summary: dict, metrics: list[tuple[str, str]]) -> str:
    lines = [
        f"verdict rule: a gain (loss) is resolved when there are at least {MIN_PAIRS} "
        f"pairs, the change is better (worse) in at least {WIN_SHARE:.0%} of them and the "
        "median gap exceeds the parent's interquartile range; otherwise it is unresolved"
    ]
    for workload, block in summary.items():
        lines.append(f"{workload}: failed operations parent {block['failed']['parent']}, "
                     f"change {block['failed']['change']}")
        for name, better in metrics:
            entry = block[name]
            lines.append(f"  {name} ({better} is better)")
            for side in ("parent", "change"):
                q = entry[side]
                lines.append(f"    {side:6s} median {q['median']:<10.6g} "
                             f"quartiles {q['q1']:.6g} to {q['q3']:.6g}")
            lines.append(f"    change better in {entry['wins']} of {entry['pairs']} pairs: "
                         f"{entry['verdict']}")
    return "\n".join(lines)


def extract(side: str, parent: str, tree: Path) -> None:
    """Put the parent commit or the working tree's files at tree, afresh."""
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    if side == "parent":
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", parent],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        return
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the working tree
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)


def one_run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run.py in tree.  suite.one_run cannot serve: it runs the
    run.py of this checkout, in this checkout, and reads its record there."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(suite.BENCH["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"perfbench/run.py exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: result["metrics"][name]["value"] for name, _ in METRICS}
    return {**values, "failed": result["failed"], "correct": result["correct"]}


def digests(parent: str, tree: Path) -> None:
    """Run this tree's digest scripts in both trees and print what differs."""
    printed = {}
    for side in ("parent", "change"):
        extract(side, parent, tree)
        environ = {**os.environ, "PYTHONPATH": str(tree / "src")}
        for script in DIGESTS:
            shutil.copy2(ROOT / "scripts" / script, tree / "scripts" / script)
            done = subprocess.run([sys.executable, f"scripts/{script}"], cwd=tree, env=environ,
                                  capture_output=True, text=True, check=True)
            printed[side, script] = done.stdout.splitlines()
    for script in DIGESTS:
        before, after = printed["parent", script], printed["change", script]
        differ = [b for a, b in zip(before, after) if a != b] + after[len(before):]
        print(f"{script}: " + ("same output in both trees" if before == after else
                               "differs: " + "; ".join(differ)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--workloads", default="pose_queries",
                        help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--tree", type=Path,
                        default=Path(tempfile.gettempdir()) / "pkm-bench-pairs-tree")
    parser.add_argument("--out", type=Path, help="the BENCH file to write")
    parser.add_argument("--claim", default=None, help="the claimed gain, if any")
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")  # for quartiles
    tree = args.tree.resolve()
    if tree == ROOT or ROOT in tree.parents:
        parser.error("--tree must lie outside this checkout")
    workloads = args.workloads.split(",")
    if args.digests:
        digests(args.parent, tree)
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    runs = []
    for workload in workloads:
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                extract(side, args.parent, tree)
                run = one_run(tree, workload, seed)
                runs.append({"side": side, "workload": workload, "seed": seed, **run})
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{name} {run[name]:.6g}" for name, _ in METRICS)
                      + f", failed {run['failed']}", flush=True)
    shutil.rmtree(tree, ignore_errors=True)
    summary = summarize(runs, METRICS)
    print(report(summary, METRICS))
    if args.out:
        host = env.provenance()
        bench = {
            "claim": args.claim,
            "what": f"end-to-end metrics of {args.pairs} alternating parent/change pairs per "
                    f"workload against {args.parent}; each run is one `python3 perfbench/run.py "
                    f"--workload W --seed N --seconds {suite.BENCH['run_seconds']} --trace 0`, "
                    "both trees extracted in turn to one fixed path, the parent first in "
                    "odd-numbered pairs; runs lists every run",
            "cores": host["nproc"],
            "cpu": host["cpu_model"],
            "python": host["python"],
            "numpy": host["numpy"],
            "seeds": {w: f"{seeds[0]}-{seeds[-1]}" for w in workloads},
            "workloads": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

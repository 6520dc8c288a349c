"""The benchmark's workloads: inputs, the timed job, and the output check.

Grid workloads use fixed grids, because those are the settings users run;
only the pose queries and paths are drawn from the seed.  Every call into
pkm goes through a module attribute (``pkm.sweep.run_comparison``), so a
tracer that rebinds those attributes sees it.
"""
from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

TILT_MAX_DEG = 40.0
HEAVE_OFFSETS_MM = (0.0, -50.0, -100.0)
MAP_GRID = 21
MAP_TILT_MAX_DEG = 48.0
MAP_COMMANDS = ("parasitic-map", "condition-map", "stiffness-map")
MACHINES = ("z3", "a3")
QUERY_HEAVE_MM = (-100.0, 50.0)
QUERY_FORCE_N = 1000.0
QUERY_MOMENT_NMM = 1.0e5
PATH_STEPS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "compare", "maps" or "poses"
    params: dict


# compare_stock (about a minute a job) is not among the workloads in
# BENCHMARK.json; suite.py runs it for the call counts and 121^2 figures.
# Jobs are sized (21^2 maps, 2000 pose queries, a 45^2 pool comparison) to
# take 2 to 7 s on a 2-vCPU Xeon, so that a 30 s run holds 4 to 8 jobs and
# its median job rides out bursts of host speed that last a few seconds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare_stock",
            "compare",
            {"grid_n": 121, "tilt_max_deg": TILT_MAX_DEG, "heave_offsets_mm": HEAVE_OFFSETS_MM,
             "kappa_min_inv": 0.05, "workers": 1},
        ),
        Workload(
            "map_sweeps",
            "maps",
            {"grid_n": MAP_GRID, "tilt_max_deg": MAP_TILT_MAX_DEG, "commands": MAP_COMMANDS,
             "workspace_heave_offsets_mm": HEAVE_OFFSETS_MM, "machines": MACHINES},
        ),
        Workload(
            "pose_queries",
            "poses",
            {"queries": 2000, "paths": 25, "path_steps": PATH_STEPS, "tilt_max_deg": TILT_MAX_DEG,
             "heave_range_mm": QUERY_HEAVE_MM, "clients": 1, "loop": "closed"},
        ),
        Workload(
            "compare_pool",
            "compare",
            {"grid_n": 45, "tilt_max_deg": TILT_MAX_DEG, "heave_offsets_mm": HEAVE_OFFSETS_MM,
             "kappa_min_inv": 0.05, "workers": 2},
        ),
    )
}


def machines(pkm) -> dict:
    return {
        "z3": pkm.geometry.MechanismParams(variant=pkm.Variant.Z3_PRS),
        "a3": pkm.geometry.MechanismParams(variant=pkm.Variant.A3_RPS),
    }


# ---------------------------------------------------------------- grid jobs


def compare_job(pkm, params: dict, workload: Workload, out_dir: Path):
    p = workload.params
    sweep = pkm.SweepSettings(
        grid_n=p["grid_n"], tilt_max_deg=p["tilt_max_deg"], kappa_min_inv=p["kappa_min_inv"]
    )
    settings = pkm.sweep.CompareSettings(
        params_z3=params["z3"],
        params_a3=params["a3"],
        out_dir=out_dir,
        sweep=sweep,
        heave_offsets=HEAVE_OFFSETS_MM,
        workers=p["workers"],
    )
    pkm.sweep.run_comparison(settings)
    return {}


def map_invocations(pkm, params: dict, out_dir: Path) -> dict:
    """CLI argument lists by output subdirectory, both machines."""
    grid = ["--grid", str(MAP_GRID), "--tilt-max-deg", repr(MAP_TILT_MAX_DEG)]
    calls = {}
    for label in MACHINES:
        z0 = pkm.geometry.home_height(params[label])
        for command in MAP_COMMANDS:
            key = f"{label}_{command}"
            calls[key] = [command, "--machine", label, *grid, "--out", str(out_dir / key)]
        for dz in HEAVE_OFFSETS_MM:
            key = f"{label}_workspace_dz{dz:g}"
            height = ["--z", repr(z0 + dz)]
            out = ["--out", str(out_dir / key)]
            calls[key] = ["workspace", "--machine", label, *grid, *height, *out]
    return calls


def maps_job(pkm, params: dict, workload: Workload, out_dir: Path):
    console = {}
    for key, argv in map_invocations(pkm, params, out_dir).items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkm.cli.main(argv)
        console[key] = (code, buf.getvalue())
    return console


def summarize_grid_output(workload: Workload, out_dir: Path, console: dict) -> dict:
    """What the check compares: per output directory summaries and console lines."""
    if workload.kind == "compare":
        return {"dirs": {".": checks.summarize_dir(out_dir)}, "console": {}}
    return {
        "dirs": {key: checks.summarize_dir(out_dir / key) for key in sorted(console)},
        "console": {
            key: {"exit": code, "lines": checks.stdout_numbers(text)}
            for key, (code, text) in sorted(console.items())
        },
    }


def check_grid_output(summary: dict, reference: dict) -> tuple[checks.Tally, int, int]:
    tally = checks.Tally()
    for key, ref_dir in reference["dirs"].items():
        got = summary["dirs"].get(key)
        if got is None:
            tally.check(False, f"{key}: output directory missing", len(ref_dir["files"]))
            continue
        tally.add(checks.compare_dir(got, ref_dir, key))
    for key, ref in reference["console"].items():
        got = summary["console"].get(key, {"exit": None, "lines": []})
        tally.check(got["exit"] == 0 and ref["exit"] == 0, f"{key}: exit code {got['exit']}")
        tally.add(checks.compare_stdout(got["lines"], ref["lines"], key))
    invalid = outside = 0
    for got in summary["dirs"].values():
        i, o = checks.cell_counts(got)
        invalid += i
        outside += o
    return tally, invalid, outside


# ---------------------------------------------------------------- pose queries


@dataclass(frozen=True)
class PoseInputs:
    queries: list  # (machine, psi, theta, z, wrench)
    paths: list  # (machine, psi, theta, z)


def pose_inputs(pkm, params: dict, seed, n_queries: int, n_paths: int) -> PoseInputs:
    """Seeded compatible-pose queries, alternating machines, and RK4 path targets."""
    rng = np.random.default_rng(seed)
    tilt = math.radians(TILT_MAX_DEG)
    z0 = {label: pkm.geometry.home_height(p) for label, p in params.items()}

    def draw(n):
        psi = rng.uniform(-tilt, tilt, n)
        theta = rng.uniform(-tilt, tilt, n)
        dz = rng.uniform(*QUERY_HEAVE_MM, n)
        return psi, theta, dz

    psi, theta, dz = draw(n_queries)
    force = rng.uniform(-QUERY_FORCE_N, QUERY_FORCE_N, (n_queries, 3))
    moment = rng.uniform(-QUERY_MOMENT_NMM, QUERY_MOMENT_NMM, (n_queries, 3))
    queries = []
    for k in range(n_queries):
        label = MACHINES[k % 2]
        wrench = np.concatenate([force[k], moment[k]])
        queries.append((label, float(psi[k]), float(theta[k]), z0[label] + float(dz[k]), wrench))
    psi, theta, dz = draw(n_paths)
    paths = []
    for k in range(n_paths):
        label = MACHINES[k % 2]
        paths.append((label, float(psi[k]), float(theta[k]), z0[label] + float(dz[k])))
    return PoseInputs(queries=queries, paths=paths)


def pose_job(pkm, params: dict, inputs: PoseInputs) -> dict:
    """One closed-loop client: each call starts when the previous one returned.

    A call's latency is the wall time the caller waits for it.  The RK4
    paths are spread evenly between the queries, so both sets sample the
    same stretch of time.
    """
    clock = time.perf_counter
    errors = (pkm.PkmError, ValueError)
    every = max(1, len(inputs.queries) // max(1, len(inputs.paths)))
    latencies, outcomes, path_latencies, path_outcomes = [], [], [], []
    paths = iter(inputs.paths)
    for k, (label, psi, theta, z, wrench) in enumerate(inputs.queries):
        p = params[label]
        t0 = clock()
        try:
            cp = pkm.parasitic.solve_loop_closure(p, psi, theta, z)
            states = pkm.kinematics.inverse_kinematics(p, cp.pose)
            jac = pkm.jacobian.build_jacobian(p, cp.pose, states)
            result = pkm.stiffness.assemble_stiffness(p, cp.pose, states, jac)
            deflection = pkm.stiffness.deflection_under_load(result, wrench)
            outcome = (cp, result, deflection)
        except errors:
            outcome = None
        latencies.append(clock() - t0)
        outcomes.append(outcome)
        if k % every == every - 1 and len(path_outcomes) < len(inputs.paths):
            label, psi, theta, z = next(paths)
            t0 = clock()
            try:
                outcome = pkm.parasitic.integrate_parasitic_path(
                    params[label], psi, theta, z, steps=PATH_STEPS
                )
            except errors:
                outcome = None
            path_latencies.append(clock() - t0)
            path_outcomes.append(outcome)
    return {
        "latencies": latencies,
        "outcomes": outcomes,
        "path_latencies": path_latencies,
        "path_outcomes": path_outcomes,
    }


def check_poses(pkm, params: dict, inputs: PoseInputs, done: dict) -> checks.Tally:
    tally = checks.Tally()
    missing = len(inputs.paths) - len(done["path_outcomes"])
    tally.check(missing == 0, f"{missing} paths were not run", max(missing, 1))
    for k, ((label, psi, theta, z, wrench), outcome) in enumerate(
        zip(inputs.queries, done["outcomes"])
    ):
        ok = outcome is not None and checks.check_query(pkm, params[label], *outcome, wrench)
        tally.check(ok, f"query {k} ({label}, psi {psi:.6g}, theta {theta:.6g}, z {z:.6g}) failed")
    for k, ((label, psi, theta, z), cp) in enumerate(zip(inputs.paths, done["path_outcomes"])):
        ok = cp is not None and checks.check_path(pkm, params[label], cp, psi, theta, z)
        tally.check(ok, f"path {k} ({label}, psi {psi:.6g}, theta {theta:.6g}) failed")
    return tally

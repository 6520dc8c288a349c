"""Output checks behind the benchmark's correct / attempted / failed counts.

Grid workloads are compared with reference summaries written by
make_reference.py from the seed code:

- the file inventory and every report.txt flag must match exactly;
- every CSV row must have the reference's empty/non-empty pattern;
- 5 x 5 sampled cells per CSV, and each column's sum over valid cells,
  must match within 1e-9 relative.  Cells that are zero up to rounding
  (the odd parasitic fields on the psi = 0 line) have no relative scale,
  so differences below 1e-12 of the column's largest magnitude pass too.

Pose queries are checked against invariants that need no stored values.
An operation is one checked row, sampled cell, column sum, file, flag or
query; it fails when its check fails.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ZERO_TOL = 1e-12
SAMPLES_PER_AXIS = 5
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def close(a: float, b: float, scale: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    diff = abs(a - b)
    return diff <= REL_TOL * max(abs(a), abs(b)) or diff <= ZERO_TOL * scale


# ---------------------------------------------------------------- summaries


def _runs(flags) -> list[int]:
    """Run lengths of a boolean sequence, the first run counting False cells."""
    runs, current, count = [], False, 0
    for flag in flags:
        if flag != current:
            runs.append(count)
            current, count = flag, 0
        count += 1
    runs.append(count)
    return runs


def _unruns(runs) -> np.ndarray:
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    return np.repeat(values, runs)


def _sample_rows(n_psi: int, n_theta: int) -> list[int]:
    pick_psi = np.unique(np.round(np.linspace(0, n_psi - 1, SAMPLES_PER_AXIS)).astype(int))
    pick_theta = np.unique(np.round(np.linspace(0, n_theta - 1, SAMPLES_PER_AXIS)).astype(int))
    return [int(i * n_theta + j) for i in pick_psi for j in pick_theta]


def summarize_csv(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read().splitlines()
    comments = [line for line in text if line.startswith("#")]
    rows = list(csv.reader(line for line in text if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    psi = list(dict.fromkeys(row[0] for row in body))
    theta = list(dict.fromkeys(row[1] for row in body))
    columns = {}
    for c, name in enumerate(header[2:], start=2):
        cells = [row[c] for row in body]
        valid = [float(cell) for cell in cells if cell != ""]
        columns[name] = {
            "filled": _runs(cell != "" for cell in cells),
            "sum": math.fsum(valid),
            "abs_sum": math.fsum(abs(v) for v in valid),
            "max_abs": max((abs(v) for v in valid), default=0.0),
            "zeros": sum(1 for v in valid if v == 0.0),
        }
    samples = {
        str(r): [float(cell) if cell != "" else None for cell in body[r][2:]]
        for r in _sample_rows(len(psi), len(theta))
        if r < len(body)
    }
    return {
        "comments": comments,
        "header": header,
        "rows": len(body),
        "psi_deg": psi,
        "theta_deg": theta,
        "columns": columns,
        "samples": samples,
    }


def parse_report(path: Path) -> dict:
    metrics, flags, section = {}, {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("metric, machine"):
            section = "metrics"
        elif line == "flags":
            section = "flags"
        elif section == "metrics" and line:
            name, machine, *values = [part.strip() for part in line.split(",")]
            metrics[f"{name}/{machine}"] = [float(v) for v in values]
        elif section == "flags" and ": " in line:
            name, value = line.split(": ", 1)
            flags[name] = value
    return {"metrics": metrics, "flags": flags}


def summarize_dir(path: Path) -> dict:
    """Inventory, CSV summaries, SVG well-formedness and report of one output directory."""
    files = sorted(p.name for p in path.iterdir())
    summary = {"files": files, "csv": {}, "svg_ok": {}}
    for name in files:
        if name.endswith(".csv"):
            summary["csv"][name] = summarize_csv(path / name)
        elif name.endswith(".svg"):
            text = (path / name).read_text(encoding="utf-8")
            summary["svg_ok"][name] = text.lstrip().startswith(("<svg", "<?xml")) and (
                text.rstrip().endswith("</svg>")
            )
    if "report.txt" in files:
        summary["report"] = parse_report(path / "report.txt")
    return summary


def stdout_numbers(text: str) -> list[list]:
    """Console lines as (text with numbers blanked, numbers); path lines are skipped."""
    out = []
    for line in text.splitlines():
        if line.startswith("wrote "):
            continue
        out.append([_NUMBER.sub("#", line), [float(m) for m in _NUMBER.findall(line)]])
    return out


def cell_counts(summary: dict) -> tuple[int, int]:
    """(empty value cells, workspace cells outside) over a directory summary."""
    invalid = outside = 0
    for table in summary["csv"].values():
        for name, column in table["columns"].items():
            filled = sum(column["filled"][1::2])
            invalid += table["rows"] - filled
            if name.startswith("inside"):
                outside += column["zeros"]
    return invalid, outside


# ---------------------------------------------------------------- comparison


def compare_csv(got: dict, ref: dict, where: str) -> Tally:
    tally = Tally()
    tally.check(
        got["comments"] == ref["comments"] and got["header"] == ref["header"],
        f"{where}: header or comment differs",
    )
    tally.check(
        got["psi_deg"] == ref["psi_deg"] and got["theta_deg"] == ref["theta_deg"],
        f"{where}: tilt axes differ",
    )
    if got["rows"] != ref["rows"] or list(got["columns"]) != list(ref["columns"]):
        tally.check(False, f"{where}: {got['rows']} rows / columns differ", ref["rows"])
        return tally
    bad_rows = np.zeros(ref["rows"], dtype=bool)
    for name, column in ref["columns"].items():
        bad_rows |= _unruns(got["columns"][name]["filled"]) != _unruns(column["filled"])
    n_bad = int(bad_rows.sum())
    tally.check(True, "", ref["rows"] - n_bad)
    tally.check(n_bad == 0, f"{where}: {n_bad} rows with another empty/non-empty pattern", n_bad)
    for name, column in ref["columns"].items():
        mine = got["columns"][name]
        # odd fields sum to about zero, so the sum is compared on the scale of |values|
        tally.check(
            abs(mine["sum"] - column["sum"]) <= REL_TOL * column["abs_sum"]
            and mine["zeros"] == column["zeros"],
            f"{where}: column {name} sum {mine['sum']!r} != {column['sum']!r}",
        )
    scales = [column["max_abs"] for column in ref["columns"].values()]
    for row, values in ref["samples"].items():
        mine = got["samples"].get(row)
        ok = mine is not None and all(
            (a is None and b is None)
            or (a is not None and b is not None and close(a, b, scale))
            for a, b, scale in zip(mine, values, scales)
        )
        tally.check(ok, f"{where}: sampled row {row} differs: {mine} != {values}")
    return tally


def compare_dir(got: dict, ref: dict, where: str) -> Tally:
    tally = Tally()
    expected, present = set(ref["files"]), set(got["files"])
    for name in sorted(expected | present):
        tally.check(name in expected and name in present, f"{where}: inventory differs at {name}")
    for name, table in ref["csv"].items():
        if name in got["csv"]:
            tally.add(compare_csv(got["csv"][name], table, f"{where}/{name}"))
    for name, ok in got["svg_ok"].items():
        tally.check(ok, f"{where}/{name}: not a complete svg document")
    if "report" in ref:
        report = got.get("report", {"flags": {}, "metrics": {}})
        for name, value in ref["report"]["flags"].items():
            mine = report["flags"].get(name)
            tally.check(mine == value, f"{where}: flag {name} is {mine}, expected {value}")
        for name, values in ref["report"]["metrics"].items():
            mine = report["metrics"].get(name)
            ok = mine is not None and all(close(a, b) for a, b in zip(mine, values))
            tally.check(ok, f"{where}: report metric {name} is {mine}, expected {values}")
    return tally


def compare_stdout(got: list, ref: list, where: str) -> Tally:
    tally = Tally()
    for k, (text, numbers) in enumerate(ref):
        mine = got[k] if k < len(got) else None
        ok = (
            mine is not None
            and mine[0] == text
            and len(mine[1]) == len(numbers)
            and all(close(a, b) for a, b in zip(mine[1], numbers))
        )
        tally.check(ok, f"{where}: console line {k} is {mine}, expected {[text, numbers]}")
    tally.check(len(got) == len(ref), f"{where}: {len(got)} console lines, expected {len(ref)}")
    return tally


# ---------------------------------------------------------------- pose queries

IK_TOL_MM = 1e-6
MATRIX_TOL = 1e-8
SOLVE_TOL = 1e-9
PATH_TOL_MM = 1e-6
PATH_TOL_RAD = 1e-8


def check_query(pkm, params, cp, result, deflection, wrench) -> bool:
    """IK accepts the pose, K is symmetric PSD, kappa >= 1, the deflection solves."""
    try:
        pkm.kinematics.inverse_kinematics(params, cp.pose, constraint_tol=IK_TOL_MM)
    except pkm.PkmError:
        return False
    K = result.K
    scale = float(np.max(np.abs(K)))
    if not (np.all(np.isfinite(K)) and scale > 0.0):
        return False
    if np.max(np.abs(K - K.T)) > MATRIX_TOL * scale:
        return False
    if np.linalg.eigvalsh(0.5 * (K + K.T)).min() < -MATRIX_TOL * scale:
        return False
    if not result.jacobian.kappa >= 1.0:
        return False
    B = result.jacobian.feasible_basis
    K_ff = B.T @ K @ B
    delta_f = B.T @ deflection.platform
    lhs = K_ff @ delta_f
    rhs = B.T @ wrench
    bound = SOLVE_TOL * (np.linalg.norm(K_ff, 2) * np.linalg.norm(delta_f) + np.linalg.norm(rhs))
    return bool(np.linalg.norm(lhs - rhs) <= bound)


def check_path(pkm, params, cp, psi, theta, z) -> bool:
    """The RK4 end point is IK-compatible and agrees with the Newton closure."""
    try:
        pkm.kinematics.inverse_kinematics(params, cp.pose, constraint_tol=IK_TOL_MM)
        closed = pkm.parasitic.solve_loop_closure(params, psi, theta, z).parasitic
    except pkm.PkmError:
        return False
    tracked = cp.parasitic
    return (
        abs(tracked.x - closed.x) < PATH_TOL_MM
        and abs(tracked.y - closed.y) < PATH_TOL_MM
        and abs(tracked.gamma - closed.gamma) < PATH_TOL_RAD
    )

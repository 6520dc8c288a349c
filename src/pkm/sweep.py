"""Grid sweeps, their CSV/SVG figure writers and the two-machine comparison.

Every map and the comparison evaluate their tilt cells through one
evaluator.  Each cell is an independent pure evaluation, so sweeps can be
chunked across worker processes; results are assembled by grid index and
the emitted files are byte-identical for any worker count.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SweepSettings
from .errors import CELL_ERRORS
from .geometry import MechanismParams, home_height, pose_from_tilts
from .grids import SweepGrid, fmt12, grid_from_cells, tilt_axes, write_map_csv
from .jacobian import build_jacobian
from .kinematics import inverse_kinematics
from .parasitic import solve_loop_closure
from .stiffness import STIFFNESS_FIELDS, assemble_stiffness
from .svg import emit_heatmap_svg

DEFAULT_HEAVE_OFFSETS = (0.0, -50.0, -100.0)

_UNITS_NOTE = (
    "units: angles deg, lengths mm; kpx,kpy,kpz N/mm; kax,kay,kaz N*mm/rad; kappa dimensionless"
)


# columns of a cell record, followed by one workspace flag per heave offset
_RECORD = ("x_mm", "y_mm", "gamma_rad", "kappa", *STIFFNESS_FIELDS)


def _evaluate_row(task) -> np.ndarray:
    params, psi, theta_axis, z0, offsets, kappa_min_inv, stiffness = task
    out = np.full((len(theta_axis), len(_RECORD) + len(offsets)), np.nan)
    out[:, len(_RECORD) :] = 0.0
    lo, hi = params.stroke_limits()
    for j, theta in enumerate(theta_axis):
        try:
            cp = solve_loop_closure(params, psi, theta, z0, validate=False)
        except CELL_ERRORS:
            continue
        shift = cp.parasitic
        out[j, 0:3] = (shift.x, shift.y, shift.gamma)
        for k, dz in enumerate(offsets):
            # the parasitic triple does not depend on heave, reuse it
            if dz == 0.0:
                pose = cp.pose
            else:
                pose = pose_from_tilts(psi, theta, z0 + dz, shift.x, shift.y, shift.gamma)
            try:
                states = inverse_kinematics(params, pose)
                jac = build_jacobian(params, pose, states)
                if k == 0:
                    out[j, 3] = jac.kappa
                    if stiffness:
                        result = assemble_stiffness(params, pose, states, jac)
                        out[j, 4 : len(_RECORD)] = list(result.diagonal_measures().values())
            except CELL_ERRORS:
                continue
            strokes_ok = all(lo <= st.actuated_length <= hi for st in states)
            out[j, len(_RECORD) + k] = float(strokes_ok and 1.0 / jac.kappa >= kappa_min_inv)
    return out


def _evaluate_grid(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z0: float | None = None,
    offsets: tuple[float, ...] = (0.0,),
    kappa_min_inv: float = 0.05,
    stiffness: bool = False,
    workers: int = 1,
) -> dict[str, SweepGrid]:
    """Evaluate the per-cell chain closure -> IK -> Jacobian -> stiffness over a tilt grid.

    The closure is solved once per cell at heave z0 (default: home height),
    giving the fields x_mm, y_mm and gamma_rad.  For each heave offset, IK
    and the Jacobian give inside_k: 1 where the strokes stay within their
    limits and 1/kappa >= kappa_min_inv, else 0.  kappa, and with stiffness
    the diagonal stiffness measures, are taken at the first offset; fields
    of stages that were not run stay empty.  A cell whose stage raises one
    of CELL_ERRORS stays empty from that stage on, so its parasitic fields
    survive a later failure.
    """
    if z0 is None:
        z0 = home_height(params)
    tasks = [
        (params, float(psi), theta_axis, z0, offsets, kappa_min_inv, stiffness)
        for psi in psi_axis
    ]
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            rows = pool.map(_evaluate_row, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    else:
        rows = [_evaluate_row(task) for task in tasks]
    stacked = np.stack(rows)
    fields = {}
    for n, name in enumerate([*_RECORD, *(f"inside_{k}" for k in range(len(offsets)))]):
        values = stacked[:, :, n]
        mask = np.ones_like(values, dtype=bool) if name.startswith("inside_") else None
        fields[name] = grid_from_cells(psi_axis, theta_axis, values, mask)
    return fields


def _stiffness_table(fields: dict[str, SweepGrid]) -> dict[str, SweepGrid]:
    """Stiffness CSV columns: the parasitic translation, then the six measures."""
    return {
        "x_par_mm": fields["x_mm"],
        "y_par_mm": fields["y_mm"],
        **{name: fields[name] for name in STIFFNESS_FIELDS},
    }


def _area(grid: SweepGrid) -> float:
    psi, theta = grid.psi_axis, grid.theta_axis
    cell = float(psi[1] - psi[0]) * float(theta[1] - theta[0])
    return float(grid.values.sum()) * cell


def condition_map(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z: float | None = None,
) -> SweepGrid:
    """Homogenized condition number at the compatible pose of every cell."""
    return _evaluate_grid(params, psi_axis, theta_axis, z)["kappa"]


def workspace_slice(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z: float | None = None,
    kappa_min_inv: float = 0.05,
) -> tuple[SweepGrid, float]:
    """Boolean orientation-workspace slice at heave z and its tilt-space area.

    A cell is inside when the closure solves, the strokes stay within their
    limits and the conditioning clears 1/kappa >= kappa_min_inv.  The area
    is cell count times cell size, in rad^2.
    """
    grid = _evaluate_grid(params, psi_axis, theta_axis, z, kappa_min_inv=kappa_min_inv)["inside_0"]
    return grid, _area(grid)


def write_parasitic_figures(out_dir: Path, label: str, fields, units_note=_UNITS_NOTE) -> None:
    """{label}_parasitic.csv with x/y/gamma, and one coolwarm SVG per field."""
    write_map_csv(
        out_dir / f"{label}_parasitic.csv",
        {name: fields[name] for name in ("x_mm", "y_mm", "gamma_rad")},
        units_note=units_note,
    )
    for name, tag in (("x_mm", "x"), ("y_mm", "y"), ("gamma_rad", "gamma")):
        emit_heatmap_svg(
            fields[name],
            "coolwarm",
            out_dir / f"{label}_parasitic_{tag}.svg",
            title=f"{label} parasitic {tag}",
            value_label="mm" if tag != "gamma" else "rad",
        )


def write_condition_figures(out_dir: Path, label: str, grid, units_note=_UNITS_NOTE) -> None:
    """{label}_condition.csv and .svg of the kappa field."""
    write_map_csv(out_dir / f"{label}_condition.csv", {"kappa": grid}, units_note=units_note)
    emit_heatmap_svg(
        grid,
        "viridis",
        out_dir / f"{label}_condition.svg",
        title=f"{label} condition number",
        value_label="kappa",
    )


def write_workspace_figures(
    out_dir: Path, stem: str, title: str, grid, units_note=_UNITS_NOTE
) -> None:
    """{stem}.csv and .svg of one workspace slice."""
    write_map_csv(out_dir / f"{stem}.csv", {"inside": grid}, units_note=units_note)
    emit_heatmap_svg(grid, "viridis", out_dir / f"{stem}.svg", title=title, value_label="inside")


def write_stiffness_figures(out_dir: Path, label: str, table, units_note=_UNITS_NOTE) -> None:
    """{label}_stiffness_rotational.csv of a stiffness table and one SVG per measure."""
    write_map_csv(out_dir / f"{label}_stiffness_rotational.csv", table, units_note=units_note)
    for name in STIFFNESS_FIELDS:
        emit_heatmap_svg(
            table[name],
            "viridis",
            out_dir / f"{label}_stiffness_{name}.svg",
            title=f"{label} {name}",
            value_label="N/mm" if name.startswith("kp") else "N*mm/rad",
        )


@dataclass(frozen=True)
class CompareSettings:
    params_z3: MechanismParams
    params_a3: MechanismParams
    out_dir: str | Path
    sweep: SweepSettings = field(default_factory=SweepSettings)
    heave_offsets: tuple[float, ...] = DEFAULT_HEAVE_OFFSETS
    workers: int = 1


@dataclass(frozen=True)
class ComparisonReport:
    """Aggregates of the paired sweeps plus the qualitative verdict flags."""

    grid_n: int
    tilt_max_deg: float
    z0: float
    heave_offsets: tuple[float, ...]
    metrics: dict
    flags: dict

    def as_text(self) -> str:
        lines = ["two-machine kinetostatic comparison", "=" * 36, ""]
        lines.append(f"grid: {self.grid_n} x {self.grid_n} over +/-{fmt12(self.tilt_max_deg)} deg")
        offsets = ", ".join(fmt12(dz) for dz in self.heave_offsets)
        lines.append(f"heave: z0 = {fmt12(self.z0)} mm, offsets [{offsets}] mm")
        lines.append("")
        lines.append("metric, machine, min, max, mean (over valid cells)")
        for name in sorted(self.metrics):
            per_machine = self.metrics[name]
            for machine in sorted(per_machine):
                stats = per_machine[machine]
                lines.append(
                    f"{name}, {machine}, {fmt12(stats['min'])}, "
                    f"{fmt12(stats['max'])}, {fmt12(stats['mean'])}"
                )
        lines.append("")
        lines.append("flags")
        lines.append("-----")
        for name in sorted(self.flags):
            value = self.flags[name]
            text = str(value).lower() if isinstance(value, bool) else str(value)
            lines.append(f"{name}: {text}")
        lines.append("")
        return "\n".join(lines)


def _stats(grid: SweepGrid) -> dict:
    valid = grid.valid_values()
    if valid.size == 0:
        return {"min": math.nan, "max": math.nan, "mean": math.nan}
    return {"min": float(valid.min()), "max": float(valid.max()), "mean": float(valid.mean())}


def _home_cell(psi_axis, theta_axis) -> tuple[int, int]:
    return int(np.argmin(np.abs(psi_axis))), int(np.argmin(np.abs(theta_axis)))


def _dominant_home_machine(fields_by_machine, psi_axis, theta_axis) -> str:
    i, j = _home_cell(psi_axis, theta_axis)
    winners = set()
    for name in STIFFNESS_FIELDS:
        z3 = fields_by_machine["z3"][name].values[i, j]
        a3 = fields_by_machine["a3"][name].values[i, j]
        if math.isnan(z3) or math.isnan(a3):
            return "undetermined"
        scale = max(abs(z3), abs(a3), 1.0)
        if abs(z3 - a3) <= 1e-9 * scale:
            continue
        winners.add("z3" if z3 > a3 else "a3")
    if len(winners) == 1:
        return winners.pop()
    return "tie" if not winners else "mixed"


def run_comparison(settings: CompareSettings) -> ComparisonReport:
    """Run all paired sweeps, write the CSV/SVG bundle and summarize.

    Output naming is {machine}_{figure_class}[...].csv/.svg inside out_dir.
    Re-running with identical settings reproduces every file byte for byte.
    """
    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = settings.sweep
    z3 = settings.params_z3
    a3 = settings.params_a3
    z0 = sweep.z_mm if sweep.z_mm is not None else home_height(z3)
    psi_axis, theta_axis = tilt_axes(sweep.grid_n, sweep.tilt_max_deg)

    fields_by_machine = {
        label: _evaluate_grid(
            params,
            psi_axis,
            theta_axis,
            z0,
            settings.heave_offsets,
            sweep.kappa_min_inv,
            stiffness=True,
            workers=settings.workers,
        )
        for label, params in (("z3", z3), ("a3", a3))
    }

    metrics: dict = {}
    areas: dict = {}
    for label, fields in fields_by_machine.items():
        write_parasitic_figures(out_dir, label, fields)
        write_condition_figures(out_dir, label, fields["kappa"])
        for k, dz in enumerate(settings.heave_offsets):
            grid = fields[f"inside_{k}"]
            write_workspace_figures(
                out_dir,
                f"{label}_workspace_dz{fmt12(dz)}",
                f"{label} workspace at z0{fmt12(dz) if dz < 0 else '+' + fmt12(dz)}",
                grid,
            )
            area = _area(grid)
            areas.setdefault(label, []).append(area)
            metrics.setdefault(f"workspace_area_dz{fmt12(dz)}", {})[label] = {
                "min": area,
                "max": area,
                "mean": area,
            }
        table = _stiffness_table(fields)
        write_stiffness_figures(out_dir, label, table)
        write_map_csv(
            out_dir / f"{label}_stiffness_parasitic.csv",
            table,
            units_note=_UNITS_NOTE + "; rows keyed by (x_par_mm, y_par_mm)",
        )
        for name in ("x_mm", "y_mm", "gamma_rad", "kappa", *STIFFNESS_FIELDS):
            metrics.setdefault(name, {})[label] = _stats(fields[name])

    flags = _verdict_flags(fields_by_machine, areas, psi_axis, theta_axis)
    report = ComparisonReport(
        grid_n=sweep.grid_n,
        tilt_max_deg=sweep.tilt_max_deg,
        z0=z0,
        heave_offsets=settings.heave_offsets,
        metrics=metrics,
        flags=flags,
    )
    with open(out_dir / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.as_text())
    return report


def _verdict_flags(fields_by_machine, areas, psi_axis, theta_axis) -> dict:
    z3f = fields_by_machine["z3"]
    a3f = fields_by_machine["a3"]

    both = z3f["x_mm"].mask & a3f["x_mm"].mask
    dx = np.abs(z3f["x_mm"].values - a3f["x_mm"].values)[both]
    dy = np.abs(z3f["y_mm"].values - a3f["y_mm"].values)[both]
    dg = np.abs(z3f["gamma_rad"].values - a3f["gamma_rad"].values)[both]
    parasitic_identical = bool(
        both.any() and dx.max() <= 1e-8 and dy.max() <= 1e-8 and dg.max() <= 1e-10
    )

    kappa_z3 = z3f["kappa"].valid_values()
    kappa_a3 = a3f["kappa"].valid_values()
    if kappa_z3.size and kappa_a3.size:
        condition_peak = "z3" if kappa_z3.max() >= kappa_a3.max() else "a3"
    else:
        condition_peak = "undetermined"

    z3_areas = areas["z3"]
    a3_areas = areas["a3"]
    z3_invariant = bool(
        z3_areas[0] > 0.0
        and abs(z3_areas[-1] - z3_areas[0]) <= 0.01 * z3_areas[0]
    )
    a3_shrinks = bool(all(b < a for a, b in zip(a3_areas, a3_areas[1:])))

    return {
        "parasitic_fields_identical": parasitic_identical,
        "stiffness_home_dominant": _dominant_home_machine(
            fields_by_machine, psi_axis, theta_axis
        ),
        "condition_peak_machine": condition_peak,
        "workspace_z3_height_invariant": z3_invariant,
        "workspace_a3_shrinks_with_height": a3_shrinks,
    }


__all__ = [
    "CompareSettings",
    "ComparisonReport",
    "DEFAULT_HEAVE_OFFSETS",
    "condition_map",
    "run_comparison",
    "workspace_slice",
    "write_condition_figures",
    "write_parasitic_figures",
    "write_stiffness_figures",
    "write_workspace_figures",
]

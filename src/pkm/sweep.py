"""Grid sweeps, their CSV/SVG figure writers and the two-machine comparison.

Every map and the comparison evaluate their tilt cells through one
evaluator, the batched cell kernel, in the calling process.  The
comparison evaluates z3's grid and then a3's, which takes its closure from
the kernel's kept table, and only then writes both machines' files.
"""
from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SweepSettings
from .errors import ConfigError
from .geometry import MechanismParams, home_height
from .grids import SweepGrid, check_axes, fmt12, tilt_axes, write_map_csv
from .kernel import RECORD, evaluate_grid
from .stiffness import STIFFNESS_FIELDS, _stiffness_table
from .svg import emit_heatmap_svg

DEFAULT_HEAVE_OFFSETS = (0.0, -50.0, -100.0)

_UNITS_NOTE = (
    "units: angles deg, lengths mm; kpx,kpy,kpz N/mm; kax,kay,kaz N*mm/rad; kappa dimensionless"
)


def _area(grid: SweepGrid) -> float:
    """Inside cells times the size of the first cell: the axes must be evenly spaced."""
    psi, theta = grid.psi_axis, grid.theta_axis
    cell = float(psi[1] - psi[0]) * float(theta[1] - theta[0])
    return float(grid.values.sum()) * cell


def _check_area_axes(*axes) -> None:
    """Raise ValueError unless each axis passes check_axes, has two or more
    points, and every spacing is within 1e-9 of the first spacing, as
    _area assumes."""
    axes = [np.asarray(axis, dtype=float) for axis in axes]
    check_axes(*axes)
    for axis in axes:
        if axis.size < 2:
            raise ValueError("the workspace area needs axes of at least 2 points")
        steps = np.diff(axis)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * np.abs(steps[0])):
            raise ValueError("the workspace area needs evenly spaced axes")


def condition_map(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z: float | None = None,
) -> SweepGrid:
    """Homogenized condition number at the compatible pose of every cell."""
    return evaluate_grid(params, psi_axis, theta_axis, z)["kappa"]


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
    is cell count times cell size, in rad^2, so both axes must be evenly
    spaced with at least 2 points.
    """
    _check_area_axes(psi_axis, theta_axis)
    grid = evaluate_grid(params, psi_axis, theta_axis, z, kappa_min_inv=kappa_min_inv)["inside_0"]
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
    # accepted and ignored: run_comparison runs in the calling process
    workers: int = 1

    def __post_init__(self):
        if not self.heave_offsets or not all(map(math.isfinite, self.heave_offsets)):
            raise ConfigError("heave_offsets must be one or more finite offsets")
        # each offset names its workspace files and metric; 0.0 == -0.0 in the set
        if len(set(self.heave_offsets)) != len(self.heave_offsets):
            raise ConfigError("heave_offsets must not repeat an offset")


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


def _dominant_home_machine(tables) -> str:
    psi_axis, theta_axis = tables["z3"].psi_axis, tables["z3"].theta_axis
    i, j = int(np.argmin(np.abs(psi_axis))), int(np.argmin(np.abs(theta_axis)))
    winners = set()
    for name in STIFFNESS_FIELDS:
        z3 = tables["z3"][name].values[i, j]
        a3 = tables["a3"][name].values[i, j]
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
    Both grids are evaluated in this process, z3's first, before any file
    is written, so an error in either writes no file.  a3's grid takes its
    closure from z3's table when the heads share their platform geometry,
    as the stock heads do.  The heave offsets are taken highest first,
    whatever order they are listed in.
    """
    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = settings.sweep
    z3 = settings.params_z3
    a3 = settings.params_a3
    z0 = sweep.z_mm if sweep.z_mm is not None else home_height(z3)
    psi_axis, theta_axis = tilt_axes(sweep.grid_n, sweep.tilt_max_deg)
    # the kernel takes kappa and the stiffness columns at the first offset
    offsets = tuple(sorted(settings.heave_offsets, reverse=True))
    grid = (psi_axis, theta_axis, z0, offsets, sweep.kappa_min_inv)

    tables = {"z3": evaluate_grid(z3, *grid), "a3": evaluate_grid(a3, *grid)}
    for label, table in tables.items():
        _write_machine(out_dir, label, table, offsets)

    areas: dict = {}
    metrics: dict = {}
    for label, table in tables.items():
        areas[label] = [_area(table[f"inside_{k}"]) for k in range(len(offsets))]
        for dz, area in zip(offsets, areas[label]):
            stats = dict.fromkeys(("min", "max", "mean"), area)
            metrics.setdefault(f"workspace_area_dz{fmt12(dz)}", {})[label] = stats
        for name in RECORD:
            metrics.setdefault(name, {})[label] = _stats(table[name])
    report = ComparisonReport(
        grid_n=sweep.grid_n,
        tilt_max_deg=sweep.tilt_max_deg,
        z0=z0,
        heave_offsets=offsets,
        metrics=metrics,
        flags=_verdict_flags(tables, areas),
    )
    with open(out_dir / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.as_text())
    return report


def _write_machine(out_dir, label, table, heave_offsets) -> None:
    """Write one machine's figures."""
    write_parasitic_figures(out_dir, label, table)
    write_condition_figures(out_dir, label, table["kappa"])
    for k, dz in enumerate(heave_offsets):
        write_workspace_figures(
            out_dir,
            f"{label}_workspace_dz{fmt12(dz)}",
            f"{label} workspace at z0{fmt12(dz) if dz < 0 else '+' + fmt12(dz)}",
            table[f"inside_{k}"],
        )
    write_stiffness_figures(out_dir, label, _stiffness_table(table))
    # _parasitic.csv is the rotational CSV's rows under their own comment line,
    # copied: formatting its 8 columns again would cost a third of the CSV values
    stem = out_dir / f"{label}_stiffness"
    with open(f"{stem}_rotational.csv", "rb") as src, open(f"{stem}_parasitic.csv", "wb") as dst:
        src.readline()
        dst.write(f"# {_UNITS_NOTE}; rows keyed by (x_par_mm, y_par_mm)\n".encode())
        shutil.copyfileobj(src, dst)


def _verdict_flags(tables, areas) -> dict:
    z3f = tables["z3"]
    a3f = tables["a3"]

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

    # areas from the highest offset down, as run_comparison orders the offsets
    z3_areas, a3_areas = areas["z3"], areas["a3"]
    if len(z3_areas) < 2:
        z3_invariant = a3_shrinks = "undetermined"
    else:
        z3_invariant = bool(
            z3_areas[0] > 0.0
            and abs(z3_areas[-1] - z3_areas[0]) <= 0.01 * z3_areas[0]
        )
        a3_shrinks = bool(all(b < a for a, b in zip(a3_areas, a3_areas[1:])))

    return {
        "parasitic_fields_identical": parasitic_identical,
        "stiffness_home_dominant": _dominant_home_machine(tables),
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

"""Tilt-space sweep grids and their CSV serialization.

Scalar fields are sampled on a rectangular (psi, theta) grid, row-major
with psi as the outer axis.  Cells whose evaluation failed hold NaN and
serialize as empty CSV fields, never as sentinel numbers.  Floats are
written as decimal text with 12 significant digits, which re-parses and
re-emits byte-identically.
"""
from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import _freeze, _frozen


def fmt12(value: float) -> str:
    return f"{value:.12g}"


def check_axes(*axes: np.ndarray) -> None:
    """Raise ValueError unless every axis (a float array) is one-dimensional,
    non-empty, finite and strictly increasing."""
    for axis in axes:
        if axis.ndim != 1:
            raise ValueError("axes must be one-dimensional")
        if axis.size == 0:
            raise ValueError("axes must not be empty")
        if not np.all(np.isfinite(axis)):
            raise ValueError("axes must be finite")
        if np.any(np.diff(axis) <= 0.0):
            raise ValueError("axes must be strictly increasing")


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """One scalar field over a tilt grid, frozen; a non-finite value marks a missing cell."""

    psi_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        psi = _frozen(self.psi_axis)
        theta = _frozen(self.theta_axis)
        values = _frozen(self.values)
        check_axes(psi, theta)
        if values.shape != (psi.size, theta.size):
            raise ValueError("field shape must be (len(psi_axis), len(theta_axis))")
        mask = _freeze(np.isfinite(values))
        object.__setattr__(self, "psi_axis", psi)
        object.__setattr__(self, "theta_axis", theta)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    def valid_values(self) -> np.ndarray:
        return self.values[self.mask]


def tilt_axes(n: int, max_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric n-point tilt axes in radians over [-max_deg, max_deg]; ValueError
    unless n is an integer of at least 2 and max_deg is finite and positive."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"grid points per axis must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if not (max_deg > 0.0 and math.isfinite(max_deg)):
        raise ValueError(f"tilt range must be finite and positive, got {max_deg!r}")
    axis = np.radians(np.linspace(-max_deg, max_deg, n))
    return axis, axis.copy()


def write_map_csv(path, fields: dict[str, SweepGrid], units_note: str | None = None) -> None:
    """Emit named grid fields side by side, one row per (psi, theta) cell."""
    grids = list(fields.values())
    if not grids:
        raise ValueError("no fields to write")
    first = grids[0]
    for grid in grids[1:]:
        if not (
            np.array_equal(grid.psi_axis, first.psi_axis)
            and np.array_equal(grid.theta_axis, first.theta_axis)
        ):
            raise ValueError("all fields must share the same axes")
    psi_labels = [fmt12(math.degrees(psi)) for psi in first.psi_axis.tolist()]
    theta_labels = [fmt12(math.degrees(theta)) for theta in first.theta_axis.tolist()]
    # "%.12g" formats a float as f"{v:.12g}" does, and one %-format per column
    # and psi row is much cheaper than one f-string per cell
    template = "%.12g," * len(theta_labels)
    # theta indices of the non-finite cells, per field and psi row
    missing = [[[] for _ in psi_labels] for _ in grids]
    for gaps, grid in zip(missing, grids):
        for i, j in np.argwhere(~grid.mask).tolist():
            gaps[i].append(j)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if units_note:
            fh.write(f"# {units_note}\n")
        # the writer quotes field names as needed; numbers and empty fields need no quotes
        csv.writer(fh, lineterminator="\n").writerow(["psi_deg", "theta_deg", *fields.keys()])
        for i, psi in enumerate(psi_labels):
            columns = [itertools.repeat(psi), theta_labels]
            for grid, gaps in zip(grids, missing):
                cells = (template % tuple(grid.values[i].tolist())).split(",")
                for j in gaps[i]:
                    cells[j] = ""
                columns.append(cells)
            # zip drops the empty string that the split leaves after the last cell
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def read_map_csv(path) -> tuple[list[str], list[list[float | None]]]:
    """Parse a map CSV back into header names and per-row optional floats."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    rows = []
    for record in reader:
        rows.append([float(cell) if cell != "" else None for cell in record])
    return header, rows

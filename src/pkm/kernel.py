"""Batched cell kernel: closure -> IK -> Jacobian -> stiffness on numpy stacks.

Every tilt grid runs the chain of the scalar single-pose functions
(solve_loop_closure, inverse_kinematics, build_jacobian, assemble_stiffness)
on blocks of whole psi rows at once.  Each batched stage lives beside its
scalar twin and takes (N, ...) arrays with one entry per cell:
parasitic._solve_closure, kinematics._solve_limbs, jacobian._jacobian_stage,
and stiffness._limb_rates and stiffness._stiffness_matrix, which
assemble_stiffness itself calls; errors.first_failure records a CellStatus
code where the scalar function raises.  So every column of the table is
the scalar chain's bits.  This module only sequences the stages, lays out
the blocks and keeps the memo: the last table, whose closure the next call
on the same grid takes, since the closure does not depend on the head, the
heave or the map.  Results count only where the status is still OK.  The
scalar functions stay the public API and the reference the kernel is
tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jacobian, parasitic
from .errors import CellStatus, first_failure
from .geometry import MechanismParams, _attachments, home_height, rot_x, rot_y
from .grids import SweepGrid, check_axes
from .kinematics import CONSTRAINT_TOL, _solve_limbs
from .parasitic import _orientations, _solve_closure
from .stiffness import STIFFNESS_FIELDS, _limb_rates, _stiffness_matrix

# columns of a cell record, followed by one workspace flag per heave offset
RECORD = ("x_mm", "y_mm", "gamma_rad", "kappa", *STIFFNESS_FIELDS)
# cells per block.  The peak memory is the table plus one block's stacks (G,
# its QR factors); larger blocks run slightly faster but raise that peak in
# step (a3 at 45^2, three offsets, cold: 742 KiB at 256 cells, 2462 KiB at 1024)
BLOCK_CELLS = 256

OK = CellStatus.OK


@dataclass(frozen=True, eq=False)
class CellTable:
    """Stacked results of a tilt grid, indexed [psi, theta, ...].

    values holds RECORD followed by inside_0 .. inside_{n-1}: NaN where a
    stage failed or did not run, inside flags 0 or 1.  status holds
    CellStatus codes: column 0 for the closure, column 1 + k for IK and the
    Jacobian at heave offset k (a failed closure repeats its code there).
    table[name] is one column as a SweepGrid, valid where it is not NaN.
    """

    psi_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray
    status: np.ndarray

    def __getitem__(self, name: str) -> SweepGrid:
        offsets = self.values.shape[2] - len(RECORD)
        columns = {c: n for n, c in enumerate((*RECORD, *(f"inside_{k}" for k in range(offsets))))}
        return SweepGrid(self.psi_axis, self.theta_axis, self.values[:, :, columns[name]])


def _inverse_kinematics(
    params: MechanismParams,
    attachment: np.ndarray,
    u: np.ndarray,
    z: float,
    status: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """inverse_kinematics at heave z for every cell: l1, actuated lengths and axes, status."""
    joint = attachment.copy()
    joint[..., 0] += u[:, 0, None]
    joint[..., 1] += u[:, 1, None]
    joint[..., 2] += z
    _, l1, length, actuated, checks = _solve_limbs(params, joint, CONSTRAINT_TOL)
    return l1, length, actuated, first_failure(status, checks)


def _jacobian(
    params: MechanismParams,
    attachment: np.ndarray,
    l1: np.ndarray,
    actuated: np.ndarray,
    status: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_jacobian's stage on every cell: G (N, 6, 6), kappa (N,), NaN
    where the status is not OK, and the updated status."""
    G, _, kappa, checks = jacobian._jacobian_stage(
        params, attachment, l1, actuated, params.layout.tangent
    )
    status = first_failure(status, checks)
    kappa[status != OK] = np.nan
    return G, kappa, status


def _evaluate_cells(
    params: MechanismParams,
    ry: np.ndarray,
    rx: np.ndarray,
    u: np.ndarray,
    closure: np.ndarray,
    heaves: list[float],
    kappa_min_inv: float,
    values: np.ndarray,
    status: np.ndarray,
) -> None:
    """Fill the records (N, len(RECORD) + len(heaves)) and status codes of a
    stack of cells, given each cell's rot_y(theta), rot_x(psi), parasitic
    triple u and closure status; IK and the Jacobian run at each heave."""
    closed = closure == OK
    # a failed cell's record and status do not depend on its triple (NaN in a kept table)
    u = np.where(closed[:, None], u, 0.0)
    values[:, : len(RECORD)] = np.nan
    values[closed, :3] = u[closed]
    status[:, 0] = closure
    if not heaves:
        return
    # the parasitic triple does not depend on heave: one closure serves every offset
    attachment = _attachments(params, _orientations(ry, rx, u[:, 2]))
    lo, hi = params.stroke_limits()
    for k, z in enumerate(heaves):
        l1, length, actuated, ik_status = _inverse_kinematics(params, attachment, u, z, closure)
        # G, kappa and the status depend on the offset only through l1 and
        # the IK status: where both repeat the previous offset's bit for bit
        # in every cell (every rail-head block), the previous results stand
        repeats = (
            k > 0
            and np.array_equal(l1.view(np.uint64), last_l1.view(np.uint64))
            and np.array_equal(ik_status, last_status)
        )
        if not repeats:
            G, kappa, cell_status = _jacobian(params, attachment, l1, actuated, ik_status)
        last_l1, last_status = l1, ik_status
        ok = cell_status == OK
        if k == 0:
            values[ok, 3] = kappa[ok]
            K = _stiffness_matrix(G[ok], _limb_rates(params, l1[ok]))
            values[ok, 4 : len(RECORD)] = K.diagonal(0, -2, -1)
        strokes_ok = ((lo <= length) & (length <= hi)).all(axis=1)
        values[:, len(RECORD) + k] = ok & strokes_ok & (1.0 / kappa >= kappa_min_inv)
        status[:, 1 + k] = cell_status


# (key, table) of the last grid evaluated: the next call on the same grid
# takes its closure from the table (see evaluate_grid)
_last_table: tuple[tuple[bytes, ...], CellTable] | None = None


def evaluate_grid(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z0: float | None = None,
    offsets: tuple[float, ...] = (0.0,),
    kappa_min_inv: float = 0.05,
) -> CellTable:
    """Run the cell chain over a tilt grid in blocks of whole psi rows.

    The closure is solved once per cell, or taken from the table of the
    previous call if that ran on the same grid and platform; IK and the
    Jacobian run at heave z0 + dz for each offset, z0 the home height by
    default, and kappa and the stiffness diagonal come from the first
    (offsets=() solves only the closure).  inside_k is 1 where the chain
    succeeded at offset k, the strokes are within their limits and
    1/kappa >= kappa_min_inv.  Both axes must be one-dimensional,
    non-empty, finite and strictly increasing, z0 and every heave z0 + dz
    finite, and 0 < kappa_min_inv < 1, as SweepSettings requires.  The
    table's arrays, axis copies included, are read-only.
    """
    global _last_table
    psi_axis = np.array(psi_axis, dtype=float)
    theta_axis = np.array(theta_axis, dtype=float)
    check_axes(psi_axis, theta_axis)
    parasitic._check_tilt_bounds(np.abs(psi_axis).max(), np.abs(theta_axis).max())
    if z0 is None:
        z0 = home_height(params)
    heaves = [z0 + dz for dz in offsets]
    if not all(map(math.isfinite, (z0, *heaves))):
        raise ValueError(f"heaves must be finite, got z0 {z0!r} and offsets {offsets!r}")
    if not 0.0 < kappa_min_inv < 1.0:
        raise ValueError(f"kappa_min_inv must lie in (0, 1), got {kappa_min_inv!r}")
    # the closure reads nothing of a machine but its platform attachments and
    # limb azimuths, so both heads, every heave and every map of one geometry
    # share it.  The key holds the bits of exactly those inputs and of the
    # axes, so that a signed zero or one ulp apart solves anew.
    layout = params.layout
    key = tuple(a.tobytes() for a in (layout.body, layout.cos, layout.sin, psi_axis, theta_axis))
    last = _last_table  # one read: a concurrent caller at worst solves again
    kept = last[1] if last is not None and last[0] == key else None
    if kept is None:
        _last_table = None  # let the old table go before this grid runs
    shape = (psi_axis.size, theta_axis.size)
    values = np.empty((*shape, len(RECORD) + len(offsets)))
    status = np.empty((*shape, 1 + len(offsets)), dtype=np.int8)
    # row-major cells: each block fills its own rows of the one table
    cell_values = values.reshape(-1, values.shape[-1])
    cell_status = status.reshape(-1, status.shape[-1])
    rows = max(1, BLOCK_CELLS // theta_axis.size)
    # each tilt rotation depends on one axis value: build it once per value
    rx_axis = np.array([rot_x(a) for a in psi_axis.tolist()])
    ry_axis = np.array([rot_y(a) for a in theta_axis.tolist()])
    for start in range(0, psi_axis.size, rows):
        rx_rows = rx_axis[start : start + rows]
        ry = np.tile(ry_axis, (len(rx_rows), 1, 1))
        rx = np.repeat(rx_rows, theta_axis.size, axis=0)
        cells = slice(start * theta_axis.size, start * theta_axis.size + len(rx))
        if kept is None:
            u, closure = _solve_closure(params, ry, rx)
        else:
            u = kept.values.reshape(-1, kept.values.shape[-1])[cells, :3]
            closure = kept.status.reshape(-1, kept.status.shape[-1])[cells, 0]
        block = cell_values[cells], cell_status[cells]
        _evaluate_cells(params, ry, rx, u, closure, heaves, kappa_min_inv, *block)
    for a in (psi_axis, theta_axis, values, status):
        # read-only, so that the SweepGrid columns share them without a copy
        a.setflags(write=False)
    table = CellTable(psi_axis, theta_axis, values, status)
    _last_table = key, table
    return table

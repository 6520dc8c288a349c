"""Batched cell kernel: closure -> IK -> Jacobian -> stiffness on numpy stacks.

Every tilt grid runs the chain of the scalar single-pose functions
(solve_loop_closure, inverse_kinematics, build_jacobian, assemble_stiffness)
on blocks of whole psi rows at once.  Each stage takes (N, ...) arrays with
one entry per cell, applies the scalar function's arithmetic and checks in
the same order, and records in a CellStatus code where the scalar function
raises one of CELL_ERRORS.  The IK stage, the Jacobian stage and the limb
spring rates are the very functions the scalar chain runs on one pose.
Every stage computes every cell of a block, and its results count only
where the status is still OK.  The last table is kept, and the next call
on the same grid takes its closure from it: the closure does not depend
on the head, the heave or the map.  The scalar functions stay the public
API and the reference the kernel is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jacobian, parasitic
from .errors import CELL_ERRORS, CellStatus
from .geometry import MechanismParams, home_height, rot_x, rot_y
from .grids import SweepGrid, check_axes
from .kinematics import CONSTRAINT_TOL, _solve_limbs
from .parasitic import CLOSURE_MAX_ITER, CLOSURE_TOL, DAMPING_TRIES
from .stiffness import STIFFNESS_FIELDS, _limb_rates

# columns of a cell record, followed by one workspace flag per heave offset
RECORD = ("x_mm", "y_mm", "gamma_rad", "kappa", *STIFFNESS_FIELDS)
# cells per block.  The peak memory is the table plus one block's stacks (G,
# its QR factors); larger blocks run slightly faster but raise that peak in
# step (a3 at 45^2, three offsets: 729 kB at 256 cells, 2403 kB at 1024)
BLOCK_CELLS = 256

OK = CellStatus.OK
# the status code of each of CELL_ERRORS
_CODES = {error: CellStatus(code) for code, error in enumerate(CELL_ERRORS, start=1)}


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


def _orientations(ry: np.ndarray, rx: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """orientation_from_tilts for each cell from its rot_y(theta) and rot_x(psi).

    rot_z(gamma) is built entry for entry as geometry.rot_z builds it, with
    the cos and sin from math: the closure has to reproduce
    solve_loop_closure bit for bit, because the grid means of the odd
    parasitic fields cancel down to rounding noise, where a single bit of
    one cell shows.  np.matmul runs the same BLAS call per cell as the
    scalar function.
    """
    values = gamma.tolist()
    c = np.array([math.cos(a) for a in values])
    s = np.array([math.sin(a) for a in values])
    zero, one = np.zeros(len(values)), np.ones(len(values))
    rz = np.stack((c, -s, zero, s, c, zero, zero, zero, one), axis=1).reshape(-1, 3, 3)
    return rz @ ry @ rx


def _closure_residual(params: MechanismParams, ry: np.ndarray, rx: np.ndarray, u: np.ndarray):
    """parasitic._closure_rows for every cell at its triple u: g_iy (N, 3) and C1 (N, 3, 3)."""
    attachments = parasitic._attachments(params, _orientations(ry, rx, u[:, 2]))
    return parasitic._closure_rows(params, attachments, u)


def _solve_closure(
    params: MechanismParams, ry: np.ndarray, rx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """solve_loop_closure for every cell: the parasitic triples (N, 3) and their status.

    Each cell iterates until its own residual converges, with its own step
    halving.  A cell whose C1 has an exact zero pivot, where the scalar
    np.linalg.solve raises, fails with NO_CONVERGENCE like every other
    failed closure.
    """
    n = len(rx)
    u = np.zeros((n, 3))
    status = np.full(n, OK, dtype=np.int8)
    residual, jac = _closure_residual(params, ry, rx, u)
    norm = np.abs(residual).max(axis=1)
    live = np.flatnonzero(~(norm < CLOSURE_TOL))
    for _ in range(CLOSURE_MAX_ITER):
        if live.size == 0:
            break
        singular = np.linalg.det(jac[live]) == 0.0
        status[live[singular]] = CellStatus.NO_CONVERGENCE
        live = live[~singular]
        step = np.linalg.solve(jac[live], -residual[live][..., None])[..., 0]
        pending = np.arange(live.size)
        scale = 1.0
        for _halving in range(DAMPING_TRIES):
            cells = live[pending]
            trial = u[cells] + scale * step[pending]
            trial_residual, trial_jac = _closure_residual(params, ry[cells], rx[cells], trial)
            trial_norm = np.abs(trial_residual).max(axis=1)
            accept = (trial_norm < norm[cells]) | (trial_norm < CLOSURE_TOL)
            done = cells[accept]
            u[done] = trial[accept]
            residual[done] = trial_residual[accept]
            jac[done] = trial_jac[accept]
            norm[done] = trial_norm[accept]
            pending = pending[~accept]
            if pending.size == 0:
                break
            scale *= 0.5
        status[live[pending]] = CellStatus.NO_CONVERGENCE
        live = live[(status[live] == OK) & ~(norm[live] < CLOSURE_TOL)]
    status[live] = CellStatus.NO_CONVERGENCE
    return u, status


def _first_failure(status: np.ndarray, checks) -> np.ndarray:
    """status with each OK cell set to the code of its first failed check;
    checks are a shared stage's (failed (N,), error class, message), in order."""
    status = status.copy()
    # no pass when nothing failed; count_nonzero, unlike any(), runs no ufunc
    # reduction, whose code pages would add to a map run's peak memory
    if any(np.count_nonzero(failed) for failed, _, _ in checks):
        for failed, error, _ in checks:
            status[(status == OK) & failed] = _CODES[error]
    return status


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
    return l1, length, actuated, _first_failure(status, checks)


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
    status = _first_failure(status, checks)
    kappa[status != OK] = np.nan
    return G, kappa, status


def _stiffness_diagonal(params: MechanismParams, G: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """diag(K) of assemble_stiffness, (N, 6), for stacks of OK cells only."""
    return np.einsum("nrc,nc,nrc->nr", G, _limb_rates(params, l1), G)


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
    attachment = parasitic._attachments(params, _orientations(ry, rx, u[:, 2]))
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
            values[ok, 4 : len(RECORD)] = _stiffness_diagonal(params, G[ok], l1[ok])
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

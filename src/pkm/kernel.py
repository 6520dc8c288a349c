"""Batched cell kernel: closure -> IK -> Jacobian -> stiffness on numpy stacks.

Every tilt grid runs the chain of the scalar single-pose functions
(solve_loop_closure, inverse_kinematics, build_jacobian, assemble_stiffness)
on blocks of whole psi rows at once.  Each stage takes (N, ...) arrays with
one entry per cell, applies the scalar function's arithmetic and checks in
the same order, and records in a CellStatus code where the scalar function
raises one of CELL_ERRORS.  The elementwise stages compute every cell of a
block, and their results count only where the status is still OK.  The
scalar functions stay the public API and the reference the kernel is
tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parasitic
from .errors import CellStatus
from .geometry import MechanismParams, Variant, home_height
from .grids import SweepGrid, check_axes
from .jacobian import RANK_TOL, SINGULAR_LIMB_TOL, SINGULAR_TOL, _wrench_matrix
from .kinematics import CONSTRAINT_TOL, HINGE_TOL
from .parasitic import CLOSURE_MAX_ITER, CLOSURE_TOL, DAMPING_TRIES
from .stiffness import STIFFNESS_FIELDS

# columns of a cell record, followed by one workspace flag per heave offset
RECORD = ("x_mm", "y_mm", "gamma_rad", "kappa", *STIFFNESS_FIELDS)
# cells per block: one block's stacks (G, the SVD factors) stay within a few
# hundred kB at any grid size, and larger blocks measured no faster
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


@dataclass(frozen=True, eq=False)
class LimbStack:
    """inverse_kinematics of a stack of cells, indexed [cell, limb, ...]."""

    attachment: np.ndarray  # platform centre to spherical joint, world frame
    l1: np.ndarray
    length: np.ndarray  # actuated lengths, (N, 3)
    actuated: np.ndarray  # actuated joint axes

    def take(self, cells: np.ndarray) -> LimbStack:
        """The limbs of the given cells only, cells increasing as np.flatnonzero gives them."""
        if len(cells) == len(self.l1):
            return self  # every cell: a copy would only raise the peak memory
        return LimbStack(
            self.attachment[cells], self.l1[cells], self.length[cells], self.actuated[cells]
        )


def _rotate_z(c, s, v: np.ndarray) -> np.ndarray:
    """rot_z(angle) @ v over the last axis, given the angle's cos and sin."""
    return np.stack((c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1], v[..., 2]), -1)


def _rotate_y(c, s, v: np.ndarray) -> np.ndarray:
    """rot_y(angle) @ v over the last axis, given the angle's cos and sin."""
    return np.stack((c * v[..., 0] + s * v[..., 2], v[..., 1], c * v[..., 2] - s * v[..., 0]), -1)


def _rotations(angles: np.ndarray, axis: int) -> np.ndarray:
    """Stack of rot_x, rot_y or rot_z (axis 0, 1, 2), entry for entry as geometry builds them.

    The cos and sin come from math, as in the scalar functions: the closure
    has to reproduce solve_loop_closure bit for bit, because the grid means
    of the odd parasitic fields cancel down to rounding noise, where a
    single bit of one cell shows.  evaluate_grid builds rot_x(psi) and
    rot_y(theta) once per axis value and indexes them into its cells; the
    closure builds rot_z(gamma) per cell.
    """
    values = angles.tolist()
    c = np.array([math.cos(a) for a in values])
    s = np.array([math.sin(a) for a in values])
    i, j = (axis + 1) % 3, (axis + 2) % 3
    R = np.zeros((len(values), 3, 3))
    R[:, axis, axis] = 1.0
    R[:, i, i] = c
    R[:, j, j] = c
    R[:, i, j] = -s
    R[:, j, i] = s
    return R


def _orientations(ry: np.ndarray, rx: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """orientation_from_tilts for each cell from its rot_y(theta) and rot_x(psi).

    np.matmul runs the same BLAS call per cell as the scalar function.
    """
    return _rotations(gamma, 2) @ ry @ rx


def _closure_residual(params: MechanismParams, ry: np.ndarray, rx: np.ndarray, u: np.ndarray):
    """parasitic._closure_residual for every cell: g_iy (N, 3) and C1 (N, 3, 3)."""
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
    """status with each OK cell set to the code of its first failed check.

    checks are (failed, code) pairs with failed of shape (N, 3), taken limb
    by limb and, within a limb, in the order given.
    """
    status = status.copy()
    for limb in range(3):
        for failed, code in checks:
            status[(status == OK) & failed[:, limb]] = code
    return status


def _inverse_kinematics(
    params: MechanismParams,
    attachment: np.ndarray,
    u: np.ndarray,
    z: float,
    status: np.ndarray,
) -> tuple[LimbStack, np.ndarray]:
    """inverse_kinematics at heave z for every cell, with the same per-limb check order."""
    layout = params.layout
    joint = attachment.copy()
    joint[..., 0] += u[:, 0, None]
    joint[..., 1] += u[:, 1, None]
    joint[..., 2] += z
    g = _rotate_z(layout.cos, -layout.sin, joint)
    g[..., 0] -= params.r_base
    off_plane = np.abs(g[..., 1]) > CONSTRAINT_TOL
    l1 = joint - layout.anchor
    if params.variant is Variant.Z3_PRS:
        disc = params.link_length**2 - g[..., 0] ** 2 - g[..., 1] ** 2
        status = _first_failure(
            status,
            ((disc < 0.0, CellStatus.UNREACHABLE), (off_plane, CellStatus.CONSTRAINT_VIOLATION)),
        )
        length = g[..., 2] - np.sqrt(np.maximum(disc, 0.0))
        l1[..., 2] -= length
        actuated = np.broadcast_to(np.array([0.0, 0.0, 1.0]), l1.shape)
    else:
        length = np.hypot(g[..., 0], g[..., 2])
        status = _first_failure(
            status,
            ((off_plane, CellStatus.CONSTRAINT_VIOLATION), (length < HINGE_TOL, CellStatus.UNREACHABLE)),
        )
        norm = np.sqrt((l1 * l1).sum(axis=-1))
        actuated = l1 / np.where(norm > 0.0, norm, 1.0)[..., None]
    limbs = LimbStack(attachment=attachment, l1=l1, length=length, actuated=actuated)
    return limbs, status


def _jacobian(
    params: MechanismParams, limbs: LimbStack, status: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_jacobian for every cell: G (N, 6, 6), kappa (N,) and the updated status.

    The rank checks and the homogenized kappa run, as batched SVDs, only on
    the cells still OK; kappa is NaN elsewhere.  The full SVD of the scaled
    Gc runs first.  build_jacobian's check on the unscaled Gc then runs only
    where the scaled ratio is below 2 max(r, 1/r) RANK_TOL, r the platform
    radius: elsewhere ratio(Gc) >= ratio(scaled Gc) min(r, 1/r) rules rank
    loss out, with a factor 2 to spare for rounding.  Both checks set
    RANK_DEFICIENCY, so their order changes no status.
    """
    divisor = (limbs.l1 * limbs.actuated).sum(axis=-1)
    singular = np.abs(divisor) < SINGULAR_LIMB_TOL
    status = _first_failure(status, ((singular, CellStatus.SINGULAR_LIMB),))
    safe = np.where(singular, 1.0, divisor)
    G = _wrench_matrix(limbs.attachment, limbs.l1, safe, params.layout.tangent)

    kappa = np.full(len(G), np.nan)
    ok = np.flatnonzero(status == OK)
    r = params.r_platform
    # homogenized_jacobian: moment rows over the platform radius on Ga and Gc
    scaled = G[ok]
    scaled[:, 3:, :] /= r
    U, sigma, _ = np.linalg.svd(scaled[:, :, 3:], full_matrices=True)
    lost = sigma[:, -1] < RANK_TOL * sigma[:, 0]
    near = np.flatnonzero(~lost & (sigma[:, -1] < 2.0 * max(r, 1.0 / r) * RANK_TOL * sigma[:, 0]))
    sigma = np.linalg.svd(G[ok[near], :, 3:], compute_uv=False)
    lost[near] = sigma[:, -1] < RANK_TOL * sigma[:, 0]
    status[ok[lost]] = CellStatus.RANK_DEFICIENCY
    J = np.swapaxes(scaled[~lost, :, :3], 1, 2) @ U[~lost, :, 3:]
    ok = ok[~lost]
    sigma = np.linalg.svd(J, compute_uv=False)
    degenerate = sigma[:, -1] <= SINGULAR_TOL * sigma[:, 0]
    status[ok[degenerate]] = CellStatus.SINGULAR_CONFIGURATION
    kappa[ok[~degenerate]] = sigma[~degenerate, 0] / sigma[~degenerate, -1]
    return G, kappa, status


def _stiffness_diagonal(params: MechanismParams, G: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """diag(K) of assemble_stiffness, (N, 6), for stacks of OK cells only."""
    coeffs = params.stiffness
    # limb_series_stiffness: the spherical joint's rate about the revolute
    # axis, with R_spherical = rot_z(xi) @ rot_y(theta2) of the distal body
    c, s = params.layout.cos, params.layout.sin
    l1_limb = _rotate_z(c, -s, l1)
    theta2 = np.arctan2(l1_limb[..., 0], l1_limb[..., 2])
    axis = np.broadcast_to(params.layout.tangent, l1.shape)
    v = _rotate_z(c, s, _rotate_y(np.cos(theta2), np.sin(theta2), axis))
    k_s = (np.array([coeffs.k_sx, coeffs.k_sy, coeffs.k_sz]) * v * v).sum(axis=-1)
    k_c = 1.0 / (1.0 / k_s + 1.0 / coeffs.k_limb_body)
    rates = np.concatenate((np.full(k_c.shape, coeffs.actuation), k_c), axis=1)
    return np.einsum("nrc,nc,nrc->nr", G, rates, G)


def _evaluate_cells(
    params: MechanismParams,
    ry: np.ndarray,
    rx: np.ndarray,
    z0: float,
    offsets: tuple[float, ...],
    kappa_min_inv: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Records (N, len(RECORD) + len(offsets)) and status codes of a stack of
    cells, given each cell's rot_y(theta) and rot_x(psi)."""
    values = np.full((len(rx), len(RECORD) + len(offsets)), np.nan)
    values[:, len(RECORD) :] = 0.0
    status = np.empty((len(rx), 1 + len(offsets)), dtype=np.int8)
    u, status[:, 0] = _solve_closure(params, ry, rx)
    closed = status[:, 0] == OK
    values[closed, :3] = u[closed]
    if not offsets:
        return values, status
    # the parasitic triple does not depend on heave: one closure serves every offset
    attachment = parasitic._attachments(params, _orientations(ry, rx, u[:, 2]))
    lo, hi = params.stroke_limits()
    for k, dz in enumerate(offsets):
        limbs, ik_status = _inverse_kinematics(params, attachment, u, z0 + dz, status[:, 0])
        if k == 0:
            G, kappa, cell_status = _jacobian(params, limbs, ik_status)
        else:
            # G, kappa and the status depend on the offset only through l1 and
            # the IK status: where both are bit for bit the previous offset's
            # (every rail-head cell of the stock grids), the previous results stand
            same = (limbs.l1.view(np.uint64) == l1.view(np.uint64)).all(axis=(1, 2))
            fresh = np.flatnonzero(~(same & (ik_status == previous)))
            if fresh.size:
                G[fresh], kappa[fresh], cell_status[fresh] = _jacobian(
                    params, limbs.take(fresh), ik_status[fresh]
                )
        l1, previous = limbs.l1, ik_status
        ok = cell_status == OK
        if k == 0:
            values[ok, 3] = kappa[ok]
            values[ok, 4 : len(RECORD)] = _stiffness_diagonal(params, G[ok], limbs.l1[ok])
        strokes_ok = ((lo <= limbs.length) & (limbs.length <= hi)).all(axis=1)
        values[:, len(RECORD) + k] = ok & strokes_ok & (1.0 / kappa >= kappa_min_inv)
        status[:, 1 + k] = cell_status
    return values, status


def evaluate_grid(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z0: float | None = None,
    offsets: tuple[float, ...] = (0.0,),
    kappa_min_inv: float = 0.05,
) -> CellTable:
    """Run the cell chain over a tilt grid in blocks of whole psi rows.

    The closure is solved once per cell; IK and the Jacobian run at heave
    z0 + dz for each offset, z0 the home height by default, and kappa and
    the stiffness diagonal come from the first (offsets=() solves only the
    closure).  inside_k is 1 where the chain succeeded at offset k, the
    strokes are within their limits and 1/kappa >= kappa_min_inv.  Both
    axes must be one-dimensional, non-empty, finite and strictly
    increasing.  The table's arrays, axis copies included, are read-only.
    """
    psi_axis = np.array(psi_axis, dtype=float)
    theta_axis = np.array(theta_axis, dtype=float)
    check_axes(psi_axis, theta_axis)
    parasitic._check_tilt_bounds(np.abs(psi_axis).max(), np.abs(theta_axis).max())
    if z0 is None:
        z0 = home_height(params)
    rows = max(1, BLOCK_CELLS // theta_axis.size)
    # each tilt rotation depends on one axis value: build it once per value
    rx_axis, ry_axis = _rotations(psi_axis, 0), _rotations(theta_axis, 1)
    values, status = [], []
    for start in range(0, psi_axis.size, rows):
        rx_rows = rx_axis[start : start + rows]
        block = _evaluate_cells(
            params,
            np.tile(ry_axis, (len(rx_rows), 1, 1)),
            np.repeat(rx_rows, theta_axis.size, axis=0),
            z0,
            offsets,
            kappa_min_inv,
        )
        values.append(block[0])
        status.append(block[1])
    shape = (psi_axis.size, theta_axis.size, -1)
    values = np.concatenate(values).reshape(shape)
    status = np.concatenate(status).reshape(shape)
    for a in (psi_axis, theta_axis, values, status):
        # read-only, so that the SweepGrid columns share them without a copy
        a.setflags(write=False)
    return CellTable(psi_axis, theta_axis, values, status)

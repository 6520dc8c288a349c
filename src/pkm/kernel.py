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
from .geometry import MechanismParams, Variant
from .jacobian import RANK_TOL, SINGULAR_LIMB_TOL, SINGULAR_TOL
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
    """

    values: np.ndarray
    status: np.ndarray


@dataclass(frozen=True, eq=False)
class LimbStack:
    """inverse_kinematics of a stack of cells, indexed [cell, limb, ...]."""

    attachment: np.ndarray  # platform centre to spherical joint, world frame
    l1: np.ndarray
    length: np.ndarray  # actuated lengths, (N, 3)
    actuated: np.ndarray  # actuated joint axes
    revolute: np.ndarray  # revolute axes, (3, 3): the same for every cell


def _rotate_z(c, s, v: np.ndarray) -> np.ndarray:
    """rot_z(angle) @ v over the last axis, given the angle's cos and sin."""
    return np.stack((c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1], v[..., 2]), -1)


def _rotate_y(c, s, v: np.ndarray) -> np.ndarray:
    """rot_y(angle) @ v over the last axis, given the angle's cos and sin."""
    return np.stack((c * v[..., 0] + s * v[..., 2], v[..., 1], c * v[..., 2] - s * v[..., 0]), -1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx), -1)


def _rotations(angles: np.ndarray, axis: int) -> np.ndarray:
    """Stack of rot_x, rot_y or rot_z (axis 0, 1, 2), entry for entry as geometry builds them.

    The cos and sin come from math, as in the scalar functions: the closure
    has to reproduce solve_loop_closure bit for bit, because the grid means
    of the odd parasitic fields cancel down to rounding noise, where a
    single bit of one cell shows.
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
    c, s = parasitic._azimuth_trig(params)
    joint = attachment.copy()
    joint[..., 0] += u[:, 0, None]
    joint[..., 1] += u[:, 1, None]
    joint[..., 2] += z
    g = _rotate_z(c, -s, joint)
    g[..., 0] -= params.r_base
    off_plane = np.abs(g[..., 1]) > CONSTRAINT_TOL
    anchors = params.r_base * np.stack((c, s, np.zeros(3)), -1)
    l1 = joint - anchors
    revolute = np.stack((-s, c, np.zeros(3)), -1)
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
    limbs = LimbStack(
        attachment=attachment, l1=l1, length=length, actuated=actuated, revolute=revolute
    )
    return limbs, status


def _jacobian(
    params: MechanismParams, limbs: LimbStack, status: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_jacobian for every cell: G (N, 6, 6), kappa (N,) and the updated status.

    The rank check and the homogenized kappa run, as batched SVDs, only on
    the cells still OK; kappa is NaN elsewhere.
    """
    divisor = (limbs.l1 * limbs.actuated).sum(axis=-1)
    singular = np.abs(divisor) < SINGULAR_LIMB_TOL
    status = _first_failure(status, ((singular, CellStatus.SINGULAR_LIMB),))
    safe = np.where(singular, 1.0, divisor)[..., None]
    revolute = np.broadcast_to(limbs.revolute, limbs.l1.shape)
    G = np.empty(limbs.l1.shape[:1] + (6, 6))
    G[:, :3, :3] = np.swapaxes(limbs.l1 / safe, 1, 2)
    G[:, 3:, :3] = np.swapaxes(_cross(limbs.attachment, limbs.l1) / safe, 1, 2)
    G[:, :3, 3:] = np.swapaxes(revolute, 1, 2)
    G[:, 3:, 3:] = np.swapaxes(_cross(limbs.attachment, revolute), 1, 2)

    kappa = np.full(len(G), np.nan)
    ok = np.flatnonzero(status == OK)
    sigma = np.linalg.svd(G[ok, :, 3:], compute_uv=False)
    lost = sigma[:, -1] < RANK_TOL * sigma[:, 0]
    status[ok[lost]] = CellStatus.RANK_DEFICIENCY
    ok = ok[~lost]
    # homogenized_jacobian: moment rows over the platform radius on Ga and Gc
    scaled = G[ok]
    scaled[:, 3:, :] /= params.r_platform
    U, sigma, _ = np.linalg.svd(scaled[:, :, 3:], full_matrices=True)
    lost = sigma[:, -1] < RANK_TOL * sigma[:, 0]
    status[ok[lost]] = CellStatus.RANK_DEFICIENCY
    J = np.swapaxes(scaled[~lost, :, :3], 1, 2) @ U[~lost, :, 3:]
    ok = ok[~lost]
    sigma = np.linalg.svd(J, compute_uv=False)
    degenerate = sigma[:, -1] <= SINGULAR_TOL * sigma[:, 0]
    status[ok[degenerate]] = CellStatus.SINGULAR_CONFIGURATION
    kappa[ok[~degenerate]] = sigma[~degenerate, 0] / sigma[~degenerate, -1]
    return G, kappa, status


def _stiffness_diagonal(
    params: MechanismParams, G: np.ndarray, l1: np.ndarray, revolute: np.ndarray
) -> np.ndarray:
    """diag(K) of assemble_stiffness, (N, 6), for stacks of OK cells only."""
    coeffs = params.stiffness
    k_a = 1.0 / (1.0 / coeffs.k_carriage + 1.0 / coeffs.k_revolute + 1.0 / coeffs.k_limb_body)
    # limb_series_stiffness: the spherical joint's rate about the revolute
    # axis, with R_spherical = rot_z(xi) @ rot_y(theta2) of the distal body
    c, s = parasitic._azimuth_trig(params)
    l1_limb = _rotate_z(c, -s, l1)
    theta2 = np.arctan2(l1_limb[..., 0], l1_limb[..., 2])
    axis = np.broadcast_to(revolute, l1.shape)
    v = _rotate_z(c, s, _rotate_y(np.cos(theta2), np.sin(theta2), axis))
    k_s = (np.array([coeffs.k_sx, coeffs.k_sy, coeffs.k_sz]) * v * v).sum(axis=-1)
    k_c = 1.0 / (1.0 / k_s + 1.0 / coeffs.k_limb_body)
    rates = np.concatenate((np.full(k_c.shape, k_a), k_c), axis=1)
    return np.einsum("nrc,nc,nrc->nr", G, rates, G)


def _evaluate_cells(
    params: MechanismParams,
    psi: np.ndarray,
    theta: np.ndarray,
    z0: float,
    offsets: tuple[float, ...],
    kappa_min_inv: float,
    stiffness: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Records (N, len(RECORD) + len(offsets)) and status codes of a stack of cells."""
    values = np.full((psi.size, len(RECORD) + len(offsets)), np.nan)
    values[:, len(RECORD) :] = 0.0
    status = np.empty((psi.size, 1 + len(offsets)), dtype=np.int8)
    ry, rx = _rotations(theta, 1), _rotations(psi, 0)
    u, status[:, 0] = _solve_closure(params, ry, rx)
    closed = status[:, 0] == OK
    values[closed, :3] = u[closed]
    if not offsets:
        return values, status
    # the parasitic triple does not depend on heave: one closure serves every offset
    attachment = parasitic._attachments(params, _orientations(ry, rx, u[:, 2]))
    lo, hi = params.stroke_limits()
    for k, dz in enumerate(offsets):
        limbs, cell_status = _inverse_kinematics(params, attachment, u, z0 + dz, status[:, 0])
        G, kappa, cell_status = _jacobian(params, limbs, cell_status)
        ok = cell_status == OK
        if k == 0:
            values[ok, 3] = kappa[ok]
            if stiffness:
                values[ok, 4 : len(RECORD)] = _stiffness_diagonal(
                    params, G[ok], limbs.l1[ok], limbs.revolute
                )
        strokes_ok = ((lo <= limbs.length) & (limbs.length <= hi)).all(axis=1)
        values[:, len(RECORD) + k] = ok & strokes_ok & (1.0 / kappa >= kappa_min_inv)
        status[:, 1 + k] = cell_status
    return values, status


def evaluate_grid(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z0: float,
    offsets: tuple[float, ...] = (0.0,),
    kappa_min_inv: float = 0.05,
    stiffness: bool = False,
) -> CellTable:
    """Run the cell chain over a tilt grid in blocks of whole psi rows.

    The closure is solved once per cell; IK and the Jacobian run at heave
    z0 + dz for each offset.  kappa and, with stiffness, the diagonal
    stiffness measures are taken at the first offset.  inside_k is 1 where
    the chain succeeded at offset k, the strokes stay within their limits
    and 1/kappa >= kappa_min_inv.
    """
    psi_axis = np.asarray(psi_axis, dtype=float)
    theta_axis = np.asarray(theta_axis, dtype=float)
    parasitic._check_tilt_bounds(np.abs(psi_axis).max(), np.abs(theta_axis).max())
    rows = max(1, BLOCK_CELLS // theta_axis.size)
    values, status = [], []
    for start in range(0, psi_axis.size, rows):
        psi_rows = psi_axis[start : start + rows]
        block = _evaluate_cells(
            params,
            np.repeat(psi_rows, theta_axis.size),
            np.tile(theta_axis, psi_rows.size),
            z0,
            offsets,
            kappa_min_inv,
            stiffness,
        )
        values.append(block[0])
        status.append(block[1])
    shape = (psi_axis.size, theta_axis.size, -1)
    return CellTable(
        values=np.concatenate(values).reshape(shape),
        status=np.concatenate(status).reshape(shape),
    )

"""Parasitic motion: coupling, loop-closure solving and path integration.

Commanding tilts (psi, theta) forces the platform centre sideways and
twists it about z; heave is the one translation the constraints leave
alone.  Both machines share the same three constraint planes, so their
parasitic fields coincide identically.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CellStatus, CouplingSingular, IntegrationDiverged, NoConvergence
from .geometry import (
    MAX_TILT_DEG,
    MechanismParams,
    Pose,
    _attachments,
    _freeze,
    home_height,
    pose_from_tilts,
    rot_x,
    rot_y,
    rot_z,
)
from .grids import SweepGrid
from .kinematics import CONSTRAINT_TOL

TILT_LIMIT = math.radians(MAX_TILT_DEG) + 1e-12
CLOSURE_TOL = 1e-10  # mm, on the largest tangential offset
COUPLING_TOL = 1e-12  # times r_platform: the largest |det C1| that counts as singular
CLOSURE_MAX_ITER = 100
DAMPING_TRIES = 9  # the full Newton step, then up to 8 halvings


@dataclass(frozen=True, eq=False, slots=True)
class ParasiticCoupling:
    """C maps independent rates (w_x, w_y) to dependent rates (v_x, v_y, w_z)."""

    C1: np.ndarray
    C2: np.ndarray
    C: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
class ParasiticShift:
    x: float
    y: float
    gamma: float


@dataclass(frozen=True, eq=False, slots=True)
class CompatiblePose:
    """A pose on the constraint manifold, keyed by its commanded coordinates."""

    pose: Pose
    psi: float
    theta: float
    z: float
    parasitic: ParasiticShift


def _constraint_rows(params: MechanismParams, attachments: np.ndarray) -> np.ndarray:
    """C1 (..., 3, 3) from attachments of shape (..., 3, 3): limb i's row is
    (-sin xi_i, cos xi_i, a_ix cos xi_i + a_iy sin xi_i)."""
    c, s = params.layout.cos, params.layout.sin
    C1 = np.empty(attachments.shape)
    C1[..., 0] = -s
    C1[..., 1] = c
    C1[..., 2] = attachments[..., 0] * c + attachments[..., 1] * s
    return C1


def coupling_matrices(params: MechanismParams, pose: Pose) -> ParasiticCoupling:
    """Expand the constraint rows into the dependent/independent rate split:
    C = C1^-1 C2 by the path rates' Cramer's rule, column by column, with no
    LAPACK call.  Raises CouplingSingular where |det C1| <= COUPLING_TOL *
    r_platform, the path rates' rule too."""
    attachments = _attachments(params, pose.R)
    C1 = _freeze(_constraint_rows(params, attachments))
    az = attachments[..., 2]
    C2 = _freeze(np.stack((az * params.layout.cos, az * params.layout.sin), axis=-1))
    geometry, m = _path_geometry(params), C1[:, 2].tolist()
    singular = COUPLING_TOL * params.r_platform
    (det, first), (_, second) = (_solve_coupling(geometry, m, b, singular) for b in C2.T.tolist())
    if first is None:
        raise CouplingSingular(f"coupling system determinant {det:.3g} too small")
    return ParasiticCoupling(C1=C1, C2=C2, C=_freeze(np.array(list(zip(first, second)))))


def _orientations(ry: np.ndarray, rx: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """orientation_from_tilts for each cell from its rot_y(theta) and rot_x(psi).

    rot_z(gamma) is built entry for entry as geometry.rot_z builds it, with
    the cos and sin from math: the grid closure has to reproduce
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


def _closure_rows(params: MechanismParams, ry: np.ndarray, rx: np.ndarray, u: np.ndarray):
    """Tangential offsets g_iy (N, 3) and their Jacobian C1 (N, 3, 3) with respect to
    each cell's u = (x, y, gamma), at the orientation rot_z(gamma) @ ry @ rx; the
    heave does not enter, so neither does z."""
    attachments = _attachments(params, _orientations(ry, rx, u[:, 2]))
    c, s = params.layout.cos, params.layout.sin
    x, y = u[:, 0, None], u[:, 1, None]
    residual = -s * (x + attachments[..., 0]) + c * (y + attachments[..., 1])
    return residual, _constraint_rows(params, attachments)


def _closure_state(params: MechanismParams, ry: np.ndarray, rx: np.ndarray, u):
    """One pose's offsets g_iy and C1, as _closure_rows computes them, at
    u = (x, y, gamma) and the orientation rot_z(gamma) @ ry @ rx, where ry
    and rx are rot_y(theta) and rot_x(psi) of the tilts.

    The same floating-point operations on plain floats, after the numpy
    products: at one pose, a numpy call costs more than its arithmetic.
    g is a list, C1 a flat list of its rows.
    """
    x, y, gamma = u
    attachments = _attachments(params, rot_z(gamma) @ ry @ rx).tolist()
    layout = params.layout
    g, C1 = [], []
    for (ax, ay, _), c, s in zip(attachments, layout.cos.tolist(), layout.sin.tolist()):
        g.append(-s * (x + ax) + c * (y + ay))
        C1 += (-s, c, ax * c + ay * s)
    return g, C1


def _largest_magnitude(values) -> float:
    """max |v| over three values, NaN if one is NaN, as np.abs(values).max() gives it."""
    a, b, c = map(abs, values)
    return max(a, b, c) if a == a and b == b and c == c else math.nan


def _check_tilt_bounds(psi: float, theta: float) -> None:
    if math.isnan(psi) or math.isnan(theta):
        raise ValueError("tilt targets must be finite")
    if abs(psi) > TILT_LIMIT or abs(theta) > TILT_LIMIT:
        limit = f"{MAX_TILT_DEG:g} degrees"
        raise ValueError(f"tilt targets beyond {limit} are outside the supported range")


def solve_loop_closure(
    params: MechanismParams,
    psi: float,
    theta: float,
    z: float | None = None,
) -> CompatiblePose:
    """Newton solve for the parasitic coordinates (x, y, gamma) at given tilts.

    Steps are damped by halving (at most 8 times) whenever the residual
    norm fails to decrease.  The heave never enters the closure equations,
    so the returned parasitic triple is independent of z.  The pose is not
    checked against the limbs: inverse_kinematics raises UnreachablePose
    where they cannot reach it.
    """
    _check_tilt_bounds(psi, theta)
    # orientation_from_tilts, with the tilt rotations built once per solve
    ry, rx = rot_y(theta), rot_x(psi)
    u = (0.0, 0.0, 0.0)
    residual, C1 = _closure_state(params, ry, rx, u)
    norm = _largest_magnitude(residual)
    converged = norm < CLOSURE_TOL
    for _ in range(CLOSURE_MAX_ITER):
        if converged:
            break
        try:
            # the solve is odd in its right-hand side, bit for bit, so u - scale * step
            # is the Newton trial u + scale * solve(C1, -residual); np.reshape
            # of a list would cost three times more, in numpy's dispatch wrapper
            step = np.linalg.solve(np.array(C1).reshape(3, 3), residual).tolist()
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"closure Jacobian singular: {exc}", residual=norm)
        scale = 1.0
        for _halving in range(DAMPING_TRIES):
            trial = [a - scale * b for a, b in zip(u, step)]
            trial_residual, trial_C1 = _closure_state(params, ry, rx, trial)
            trial_norm = _largest_magnitude(trial_residual)
            if trial_norm < norm or trial_norm < CLOSURE_TOL:
                break
            scale *= 0.5
        else:
            raise NoConvergence("damping exhausted without residual decrease", residual=norm)
        u, residual, C1, norm = trial, trial_residual, trial_C1, trial_norm
        converged = norm < CLOSURE_TOL
    if not converged:
        raise NoConvergence(
            f"no convergence after {CLOSURE_MAX_ITER} iterations (residual {norm:.3g} mm)",
            residual=norm,
        )
    return _compatible_pose(params, psi, theta, z, u)


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
    status = np.full(n, CellStatus.OK, dtype=np.int8)
    residual, jac = _closure_rows(params, ry, rx, u)
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
            trial_residual, trial_jac = _closure_rows(params, ry[cells], rx[cells], trial)
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
        live = live[(status[live] == CellStatus.OK) & ~(norm[live] < CLOSURE_TOL)]
    status[live] = CellStatus.NO_CONVERGENCE
    return u, status


def _compatible_pose(params, psi, theta, z, u) -> CompatiblePose:
    """The pose of the closure u = (x, y, gamma) at the tilts and heave z, home by default."""
    if z is None:
        z = home_height(params)
    pose = pose_from_tilts(psi, theta, z, x=u[0], y=u[1], gamma=u[2])
    return CompatiblePose(
        pose=pose,
        psi=psi,
        theta=theta,
        z=z,
        parasitic=ParasiticShift(x=float(u[0]), y=float(u[1]), gamma=float(u[2])),
    )


def _path_geometry(params: MechanismParams):
    """The layout as both callers pass it to _solve_coupling: per limb (cos xi,
    sin xi, r cos xi, r sin xi), then k = c x s for c = (cos xi_i), s = (sin xi_i)."""
    c, s = params.layout.cos.tolist(), params.layout.sin.tolist()
    (c0, c1, c2), (s0, s1, s2) = c, s
    k = (c1 * s2 - c2 * s1, c2 * s0 - c0 * s2, c0 * s1 - c1 * s0)
    return (*zip(c, s, *params.layout.body[:, :2].T.tolist()), k)


def _solve_coupling(geometry, m, b, singular):
    """(det C1, (v_x, v_y, w_z) or None where |det C1| <= singular) for C1's
    columns (-s, c, m) and C1 (v_x, v_y, w_z) = b, by Cramer's rule on plain
    floats: det = m.k, and the numerators are b.(c x m), b.(s x m) and b.k."""
    (c0, s0, _, _), (c1, s1, _, _), (c2, s2, _, _), (k0, k1, k2) = geometry
    (m0, m1, m2), (b0, b1, b2) = m, b
    det = m0 * k0 + m1 * k1 + m2 * k2
    if not abs(det) > singular:  # negated, so that a NaN determinant fails too
        return det, None
    x = b0 * (c1 * m2 - c2 * m1) + b1 * (c2 * m0 - c0 * m2) + b2 * (c0 * m1 - c1 * m0)
    y = b0 * (s1 * m2 - s2 * m1) + b1 * (s2 * m0 - s0 * m2) + b2 * (s0 * m1 - s1 * m0)
    return det, (x / det, y / det, (b0 * k0 + b1 * k1 + b2 * k2) / det)


def _path_rates(geometry, singular, psi_target, theta_target, s, gamma):
    """State derivative (x', y', gamma') along the straight tilt path at s;
    it does not depend on x and y.  Raises IntegrationDiverged when
    |det C1| <= singular."""
    psi = s * psi_target
    theta = s * theta_target
    cp, sp = math.cos(psi), math.sin(psi)
    ct, st = math.cos(theta), math.sin(theta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    # columns 0 and 1 of Rz(gamma) Ry(theta) Rx(psi); the body attachments
    # have no z, so column 2 never enters
    r00, r10, r20 = cg * ct, sg * ct, -st
    r01, r11, r21 = cg * st * sp - sg * cp, sg * st * sp + cg * cp, ct * sp
    # world angular rate of the orientation; gamma_dot only enters w_z, so
    # the horizontal components are known a priori
    wx = -sg * theta_target + cg * ct * psi_target
    wy = cg * theta_target + sg * ct * psi_target
    # limb i, attachment a = R (r c, r s, 0): C1 row (-s, c, m) with
    # m = a_x c + a_y s, and b = C2 (w_x, w_y) = a_z (c w_x + s w_y)
    (c0, s0, rc0, rs0), (c1, s1, rc1, rs1), (c2, s2, rc2, rs2), _ = geometry
    m0 = (rc0 * r00 + rs0 * r01) * c0 + (rc0 * r10 + rs0 * r11) * s0
    m1 = (rc1 * r00 + rs1 * r01) * c1 + (rc1 * r10 + rs1 * r11) * s1
    m2 = (rc2 * r00 + rs2 * r01) * c2 + (rc2 * r10 + rs2 * r11) * s2
    b0 = (rc0 * r20 + rs0 * r21) * (c0 * wx + s0 * wy)
    b1 = (rc1 * r20 + rs1 * r21) * (c1 * wx + s1 * wy)
    b2 = (rc2 * r20 + rs2 * r21) * (c2 * wx + s2 * wy)
    det, rates = _solve_coupling(geometry, (m0, m1, m2), (b0, b1, b2), singular)
    if rates is None:
        raise IntegrationDiverged(f"coupling became singular mid-path: det C1 = {det:.3g}")
    return rates[0], rates[1], rates[2] + psi_target * st


def integrate_parasitic_path(
    params: MechanismParams,
    psi: float,
    theta: float,
    z: float | None = None,
    steps: int = 200,
) -> CompatiblePose:
    """Track the parasitic motion along the straight path from zero tilt.

    Classical fixed-step fourth-order Runge-Kutta on the path parameter,
    on plain floats.  The platform angular rate is the exact one of the
    time-varying orientation, not a small-angle approximation.  Raises
    IntegrationDiverged when the coupling turns singular (coupling_matrices's
    rule), when the state stops being finite, or when the end point drifts
    off the constraint manifold by more than the compatibility tolerance.
    Like solve_loop_closure, it does not check that the limbs reach the pose.
    """
    _check_tilt_bounds(psi, theta)
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(f"steps must be a positive integer, got {steps!r}") from None
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    geometry = _path_geometry(params)
    singular = COUPLING_TOL * params.r_platform
    h = 1.0 / steps
    half = 0.5 * h
    sixth = h / 6.0
    x = y = g = 0.0
    for k in range(steps):
        s = k * h
        x1, y1, g1 = _path_rates(geometry, singular, psi, theta, s, g)
        x2, y2, g2 = _path_rates(geometry, singular, psi, theta, s + half, g + half * g1)
        x3, y3, g3 = _path_rates(geometry, singular, psi, theta, s + half, g + half * g2)
        x4, y4, g4 = _path_rates(geometry, singular, psi, theta, s + h, g + h * g3)
        x = x + sixth * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
        y = y + sixth * (y1 + 2.0 * y2 + 2.0 * y3 + y4)
        g = g + sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(g)):
            raise IntegrationDiverged(f"state blew up at path parameter {s + h:.4g}")
    u = (x, y, g)
    residual, _ = _closure_state(params, rot_y(theta), rot_x(psi), u)
    drift = _largest_magnitude(residual)
    if drift > CONSTRAINT_TOL:
        raise IntegrationDiverged(f"end-point constraint residual {drift:.3g} mm")
    return _compatible_pose(params, psi, theta, z, u)


def parasitic_map(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z: float | None = None,
) -> dict[str, SweepGrid]:
    """Parasitic displacement fields over a tilt grid, keyed by CSV column name."""
    from .kernel import evaluate_grid  # the kernel imports this module

    table = evaluate_grid(params, psi_axis, theta_axis, z, offsets=())
    return {name: table[name] for name in ("x_mm", "y_mm", "gamma_rad")}

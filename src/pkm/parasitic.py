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

from .errors import CouplingSingular, IntegrationDiverged, NoConvergence
from .geometry import (
    MechanismParams,
    Pose,
    home_height,
    pose_from_tilts,
    rot_x,
    rot_y,
    rot_z,
)
from .grids import SweepGrid

TILT_LIMIT = math.radians(60.0) + 1e-12
CLOSURE_TOL = 1e-10  # mm, on the largest tangential offset
CLOSURE_MAX_ITER = 100
DAMPING_TRIES = 9  # the full Newton step, then up to 8 halvings


@dataclass(frozen=True, eq=False)
class ParasiticCoupling:
    """C maps independent rates (w_x, w_y) to dependent rates (v_x, v_y, w_z)."""

    C1: np.ndarray
    C2: np.ndarray
    C: np.ndarray


@dataclass(frozen=True, eq=False)
class ParasiticShift:
    x: float
    y: float
    gamma: float


@dataclass(frozen=True, eq=False)
class CompatiblePose:
    """A pose on the constraint manifold, keyed by its commanded coordinates."""

    pose: Pose
    psi: float
    theta: float
    z: float
    parasitic: ParasiticShift


def _attachments(params: MechanismParams, R: np.ndarray) -> np.ndarray:
    """Platform attachments, one row per limb, for R of shape (3, 3) or (N, 3, 3)."""
    return params.layout.body @ np.swapaxes(R, -1, -2)


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
    """Expand the constraint rows into the dependent/independent rate split."""
    attachments = _attachments(params, pose.R)
    C1 = _constraint_rows(params, attachments)
    az = attachments[..., 2]
    C2 = np.stack((az * params.layout.cos, az * params.layout.sin), axis=-1)
    det = np.linalg.det(C1)
    if abs(det) < 1e-9 * np.linalg.norm(C1, 2) ** 3:
        raise CouplingSingular(f"coupling system determinant {det:.3g} too small")
    C = np.linalg.solve(C1, C2)
    return ParasiticCoupling(C1=C1, C2=C2, C=C)


def _closure_rows(params: MechanismParams, attachments: np.ndarray, u: np.ndarray):
    """Tangential offsets g_iy and their Jacobian C1 with respect to u = (x, y, gamma).

    attachments (..., 3, 3) belong to the orientation at u[..., 2]; the
    heave does not enter, so neither does z.
    """
    c, s = params.layout.cos, params.layout.sin
    x, y = u[..., 0, None], u[..., 1, None]
    residual = -s * (x + attachments[..., 0]) + c * (y + attachments[..., 1])
    return residual, _constraint_rows(params, attachments)


def _closure_residual(params: MechanismParams, ry: np.ndarray, rx: np.ndarray, u):
    """_closure_rows at the orientation rot_z(u[2]) @ ry @ rx, where ry and
    rx are rot_y(theta) and rot_x(psi) of the tilts."""
    return _closure_rows(params, _attachments(params, rot_z(u[2]) @ ry @ rx), u)


def _check_tilt_bounds(psi: float, theta: float) -> None:
    # negated, so that a NaN tilt fails too
    if not (abs(psi) <= TILT_LIMIT and abs(theta) <= TILT_LIMIT):
        raise ValueError("tilt targets beyond 60 degrees are outside the supported range")


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
    if z is None:
        z = home_height(params)
    # orientation_from_tilts, with the tilt rotations built once per solve
    ry, rx = rot_y(theta), rot_x(psi)
    u = np.zeros(3)
    residual, jac = _closure_residual(params, ry, rx, u)
    norm = np.abs(residual).max()
    converged = norm < CLOSURE_TOL
    for _ in range(CLOSURE_MAX_ITER):
        if converged:
            break
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"closure Jacobian singular: {exc}", residual=norm)
        scale = 1.0
        for _halving in range(DAMPING_TRIES):
            trial = u + scale * step
            trial_residual, trial_jac = _closure_residual(params, ry, rx, trial)
            trial_norm = np.abs(trial_residual).max()
            if trial_norm < norm or trial_norm < CLOSURE_TOL:
                break
            scale *= 0.5
        else:
            raise NoConvergence("damping exhausted without residual decrease", residual=norm)
        u, residual, jac, norm = trial, trial_residual, trial_jac, trial_norm
        converged = norm < CLOSURE_TOL
    if not converged:
        raise NoConvergence(
            f"no convergence after {CLOSURE_MAX_ITER} iterations (residual {norm:.3g} mm)",
            residual=norm,
        )
    return _compatible_pose(psi, theta, z, u)


def _compatible_pose(psi, theta, z, u) -> CompatiblePose:
    pose = pose_from_tilts(psi, theta, z, x=u[0], y=u[1], gamma=u[2])
    return CompatiblePose(
        pose=pose,
        psi=psi,
        theta=theta,
        z=z,
        parasitic=ParasiticShift(x=float(u[0]), y=float(u[1]), gamma=float(u[2])),
    )


def _path_geometry(params: MechanismParams):
    """What the path rates need of the layout: per limb (cos xi, sin xi,
    r cos xi, r sin xi), then k = c x s for c = (cos xi_i), s = (sin xi_i)."""
    c, s = params.layout.cos.tolist(), params.layout.sin.tolist()
    (c0, c1, c2), (s0, s1, s2) = c, s
    k = (c1 * s2 - c2 * s1, c2 * s0 - c0 * s2, c0 * s1 - c1 * s0)
    return (*zip(c, s, *params.layout.body[:, :2].T.tolist()), k)


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
    (c0, s0, rc0, rs0), (c1, s1, rc1, rs1), (c2, s2, rc2, rs2), (k0, k1, k2) = geometry
    m0 = (rc0 * r00 + rs0 * r01) * c0 + (rc0 * r10 + rs0 * r11) * s0
    m1 = (rc1 * r00 + rs1 * r01) * c1 + (rc1 * r10 + rs1 * r11) * s1
    m2 = (rc2 * r00 + rs2 * r01) * c2 + (rc2 * r10 + rs2 * r11) * s2
    b0 = (rc0 * r20 + rs0 * r21) * (c0 * wx + s0 * wy)
    b1 = (rc1 * r20 + rs1 * r21) * (c1 * wx + s1 * wy)
    b2 = (rc2 * r20 + rs2 * r21) * (c2 * wx + s2 * wy)
    # Cramer's rule on the columns (-s, c, m): det = m.k, and the numerators
    # are b.(c x m), b.(s x m) and b.k
    det = m0 * k0 + m1 * k1 + m2 * k2
    if not abs(det) > singular:  # negated, so that a NaN determinant fails too
        raise IntegrationDiverged(f"coupling became singular mid-path: det C1 = {det:.3g}")
    x_dot = b0 * (c1 * m2 - c2 * m1) + b1 * (c2 * m0 - c0 * m2) + b2 * (c0 * m1 - c1 * m0)
    y_dot = b0 * (s1 * m2 - s2 * m1) + b1 * (s2 * m0 - s0 * m2) + b2 * (s0 * m1 - s1 * m0)
    w_z = b0 * k0 + b1 * k1 + b2 * k2
    return x_dot / det, y_dot / det, w_z / det + psi_target * st


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
    IntegrationDiverged when the coupling turns singular (|det C1| at most
    1e-12 r_platform), when the state stops being finite, or when the end
    point drifts off the constraint manifold by more than the
    compatibility tolerance.  Like solve_loop_closure, it does not check
    that the limbs reach the pose.
    """
    _check_tilt_bounds(psi, theta)
    if z is None:
        z = home_height(params)
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(f"steps must be a positive integer, got {steps!r}") from None
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    geometry = _path_geometry(params)
    singular = 1e-12 * params.r_platform
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
    u = np.array([x, y, g])
    residual, _ = _closure_residual(params, rot_y(theta), rot_x(psi), u)
    drift = float(np.abs(residual).max())
    if drift > 1e-6:
        raise IntegrationDiverged(f"end-point constraint residual {drift:.3g} mm")
    return _compatible_pose(psi, theta, z, u)


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

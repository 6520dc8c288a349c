"""Parasitic motion: coupling, loop-closure solving and path integration.

Commanding tilts (psi, theta) forces the platform centre sideways and
twists it about z; heave is the one translation the constraints leave
alone.  Both machines share the same three constraint planes, so their
parasitic fields coincide identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CouplingSingular, IntegrationDiverged, NoConvergence
from .geometry import (
    MechanismParams,
    Pose,
    home_height,
    orientation_from_tilts,
    pose_from_tilts,
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


def _azimuth_trig(params: MechanismParams) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the three limb azimuths."""
    return (
        np.array([math.cos(xi) for xi in params.azimuths]),
        np.array([math.sin(xi) for xi in params.azimuths]),
    )


def _attachments(params: MechanismParams, R: np.ndarray) -> np.ndarray:
    """Platform attachments, one row per limb, for R of shape (3, 3) or (N, 3, 3)."""
    body = params.r_platform * np.array(
        [[math.cos(xi), math.sin(xi), 0.0] for xi in params.azimuths]
    )
    return body @ np.swapaxes(R, -1, -2)


def _coupling_rows(params: MechanismParams, attachments: np.ndarray):
    """C1 (..., 3, 3) and C2 (..., 3, 2) from attachments of shape (..., 3, 3)."""
    c, s = _azimuth_trig(params)
    ax, ay, az = attachments[..., 0], attachments[..., 1], attachments[..., 2]
    C1 = np.empty(attachments.shape)
    C1[..., 0] = -s
    C1[..., 1] = c
    C1[..., 2] = ax * c + ay * s
    C2 = np.stack((az * c, az * s), axis=-1)
    return C1, C2


def coupling_matrices(params: MechanismParams, pose: Pose) -> ParasiticCoupling:
    """Expand the constraint rows into the dependent/independent rate split."""
    C1, C2 = _coupling_rows(params, _attachments(params, pose.R))
    det = np.linalg.det(C1)
    if abs(det) < 1e-9 * np.linalg.norm(C1, 2) ** 3:
        raise CouplingSingular(f"coupling system determinant {det:.3g} too small")
    C = np.linalg.solve(C1, C2)
    return ParasiticCoupling(C1=C1, C2=C2, C=C)


def _closure_rows(params: MechanismParams, attachments: np.ndarray, u: np.ndarray):
    """Tangential offsets g_iy and their Jacobian with respect to u = (x, y, gamma).

    attachments (..., 3, 3) belong to the orientation at u[..., 2]; the
    heave does not enter, so neither does z.
    """
    c, s = _azimuth_trig(params)
    x, y = u[..., 0, None], u[..., 1, None]
    residual = -s * (x + attachments[..., 0]) + c * (y + attachments[..., 1])
    C1, _ = _coupling_rows(params, attachments)
    return residual, C1


def _closure_residual(params: MechanismParams, psi: float, theta: float, u):
    """_closure_rows at the orientation for tilts (psi, theta) and torsion u[2]."""
    R = orientation_from_tilts(psi, theta, u[2])
    return _closure_rows(params, _attachments(params, R), u)


def _check_tilt_bounds(psi: float, theta: float) -> None:
    if abs(psi) > TILT_LIMIT or abs(theta) > TILT_LIMIT:
        raise ValueError("tilt targets beyond 60 degrees are outside the supported range")


def solve_loop_closure(
    params: MechanismParams,
    psi: float,
    theta: float,
    z: float | None = None,
    tol: float = CLOSURE_TOL,
    max_iter: int = CLOSURE_MAX_ITER,
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
    u = np.zeros(3)
    residual, jac = _closure_residual(params, psi, theta, u)
    norm = np.max(np.abs(residual))
    converged = norm < tol
    for _ in range(max_iter):
        if converged:
            break
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"closure Jacobian singular: {exc}", residual=norm)
        scale = 1.0
        for _halving in range(DAMPING_TRIES):
            trial = u + scale * step
            trial_residual, trial_jac = _closure_residual(params, psi, theta, trial)
            trial_norm = np.max(np.abs(trial_residual))
            if trial_norm < norm or trial_norm < tol:
                break
            scale *= 0.5
        else:
            raise NoConvergence("damping exhausted without residual decrease", residual=norm)
        u, residual, jac, norm = trial, trial_residual, trial_jac, trial_norm
        converged = norm < tol
    if not converged:
        raise NoConvergence(
            f"no convergence after {max_iter} iterations (residual {norm:.3g} mm)",
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


def _path_rates(params, psi_target, theta_target, s, u):
    """State derivative along the straight tilt path at parameter s."""
    psi = s * psi_target
    theta = s * theta_target
    gamma = u[2]
    cg, sg = math.cos(gamma), math.sin(gamma)
    ct = math.cos(theta)
    # world angular rate of Rz(gamma(s)) Ry(theta(s)) Rx(psi(s)); gamma_dot
    # only enters w_z, so the horizontal components are known a priori.
    wx = -sg * theta_target + cg * ct * psi_target
    wy = cg * theta_target + sg * ct * psi_target
    R = orientation_from_tilts(psi, theta, gamma)
    attachments = _attachments(params, R)
    C1, C2 = _coupling_rows(params, attachments)
    dependent = np.linalg.solve(C1, C2 @ np.array([wx, wy]))
    gamma_dot = dependent[2] + psi_target * math.sin(theta)
    return np.array([dependent[0], dependent[1], gamma_dot])


def integrate_parasitic_path(
    params: MechanismParams,
    psi: float,
    theta: float,
    z: float | None = None,
    steps: int = 200,
) -> CompatiblePose:
    """Track the parasitic motion along the straight path from zero tilt.

    Classical fixed-step fourth-order Runge-Kutta on the path parameter.
    The platform angular rate is the exact one of the time-varying
    orientation, not a small-angle approximation.  Raises
    IntegrationDiverged when the end point drifts off the constraint
    manifold by more than the compatibility tolerance.  Like
    solve_loop_closure, it does not check that the limbs reach the pose.
    """
    _check_tilt_bounds(psi, theta)
    if z is None:
        z = home_height(params)
    if steps < 1:
        raise ValueError("steps must be positive")
    h = 1.0 / steps
    u = np.zeros(3)
    for k in range(steps):
        s = k * h
        try:
            k1 = _path_rates(params, psi, theta, s, u)
            k2 = _path_rates(params, psi, theta, s + 0.5 * h, u + 0.5 * h * k1)
            k3 = _path_rates(params, psi, theta, s + 0.5 * h, u + 0.5 * h * k2)
            k4 = _path_rates(params, psi, theta, s + h, u + h * k3)
        except np.linalg.LinAlgError as exc:
            raise IntegrationDiverged(f"coupling became singular mid-path: {exc}")
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise IntegrationDiverged(f"state blew up at path parameter {s + h:.4g}")
    residual, _ = _closure_residual(params, psi, theta, u)
    drift = float(np.max(np.abs(residual)))
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
    from .sweep import _evaluate_grid  # sweep imports this module

    fields = _evaluate_grid(params, psi_axis, theta_axis, z, offsets=())
    return {name: fields[name] for name in ("x_mm", "y_mm", "gamma_rad")}

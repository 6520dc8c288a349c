"""Inverse position kinematics for both limb architectures.

Each limb lives in a vertical plane at azimuth xi_i.  The limb-frame
coordinate g_i of the spherical joint (x radial, y tangential, z up,
origin at the base anchor) drives everything: constraint compatibility
means g_iy = 0, and the actuated length falls out of the remaining two
components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, GimbalDegeneracy, UnreachablePose
from .errors import limb_by_limb, raise_first
from .geometry import (
    MechanismParams,
    Pose,
    Variant,
    _attachments,
    _freeze,
    _limb_row,
    home_height,
    rot_y,
    rot_z,
)

CONSTRAINT_TOL = 1e-6
HINGE_TOL = 1e-9  # mm; a strut shorter than this has its joint on the base hinge


@dataclass(frozen=True, eq=False, slots=True)
class LimbState:
    """Resolved geometry of one limb at a given pose.

    attachment runs from the platform centre to the spherical joint, world
    frame, as platform_attachment gives it.  l1 is the link vector along
    the limb (carriage-to-joint for the PRS head, hinge-to-joint for the RPS
    head).  actuated is the direction of the actuated prismatic joint,
    revolute the axis of the revolute joint: the limb-plane normal, which
    doubles as the constraint direction.
    """

    anchor: np.ndarray
    attachment: np.ndarray
    g: np.ndarray
    l1: np.ndarray
    actuated_length: float
    actuated: np.ndarray
    revolute: np.ndarray


def _solve_limbs(params: MechanismParams, joint: np.ndarray, constraint_tol: float):
    """The IK stage on spherical joint positions (..., 3, 3), world frame, one row per limb.

    Returns the limb-frame joint coordinates (gx, gy, gz), the link vectors
    l1, the actuated lengths and axes, and the checks in the order a pose
    takes them, limb by limb (see limb_by_limb).  Every limb is solved; its
    values count only where no check failed.
    The PRS head slides a fixed strut along a vertical rail (prismatic,
    then revolute), the RPS head telescopes a strut from a base hinge
    (revolute, then prismatic).
    """
    layout = params.layout
    c, s = layout.cos, layout.sin
    jx, jy, gz = joint[..., 0], joint[..., 1], joint[..., 2]
    gx = c * jx + s * jy - params.r_base
    gy = c * jy - s * jx
    off_plane = (
        np.abs(gy) > constraint_tol,
        ConstraintViolation,
        lambda i: f"limb {i + 1}: tangential residual {gy[i]:.6g} mm exceeds {constraint_tol:g}",
    )
    l1 = joint - layout.anchor
    if params.variant is Variant.Z3_PRS:
        disc = params.link_length**2 - gx**2 - gy**2
        # the strut's rise: gx, gy and disc do not involve the heave, so
        # neither does l1, bit for bit; the carriage takes up the rest of gz
        rise = np.sqrt(np.maximum(disc, 0.0))
        length = gz - rise
        l1[..., 2] = rise
        actuated = np.zeros(l1.shape)
        actuated[..., 2] = 1.0
        unreachable = (
            disc < 0.0,
            UnreachablePose,
            lambda i: f"limb {i + 1}: strut cannot span radial offset {gx[i]:.6g} mm",
        )
        checks = (unreachable, off_plane)
    else:
        length = np.hypot(gx, gz)
        norm = np.sqrt((l1 * l1).sum(axis=-1))
        actuated = l1 / np.where(norm > 0.0, norm, 1.0)[..., None]
        on_hinge = (
            length < HINGE_TOL,
            UnreachablePose,
            lambda i: f"limb {i + 1}: joint coincides with the base hinge",
        )
        checks = (off_plane, on_hinge)
    return (gx, gy, gz), l1, length, actuated, limb_by_limb(checks)


def inverse_kinematics(
    params: MechanismParams, pose: Pose, constraint_tol: float = CONSTRAINT_TOL
) -> list[LimbState]:
    """Per-limb joint solution for a constraint-compatible pose.

    Raises UnreachablePose when a limb cannot close and ConstraintViolation
    when the pose leaves a spherical joint off its limb plane by more than
    constraint_tol (millimetres), for the first limb that fails, and
    ValueError when constraint_tol is NaN or negative.  The revolute axis
    is the limb-plane normal for both heads.
    """
    if not constraint_tol >= 0.0:
        raise ValueError(f"constraint_tol must be a non-negative length, got {constraint_tol!r}")
    attachment = _freeze(_attachments(params, pose.R))
    g, l1, length, actuated, checks = _solve_limbs(params, attachment + pose.p, constraint_tol)
    raise_first(checks)
    layout = params.layout
    # each limb's rows are views of read-only stacks, like the layout's
    g, l1, actuated = _freeze(np.array(g)).T, _freeze(l1), _freeze(actuated)
    rows = zip(layout.anchor, attachment, g, l1, length.tolist(), actuated, layout.tangent)
    return [LimbState(*row) for row in rows]


def _euler_yxz(R: np.ndarray) -> tuple[float, float, float]:
    """Angles (a, b, c) with R = Ry(a) @ Rx(b) @ Rz(c)."""
    sb = -R[1, 2]
    sb = min(1.0, max(-1.0, sb))
    b = math.asin(sb)
    if abs(abs(b) - 0.5 * math.pi) < 1e-9:
        raise GimbalDegeneracy(f"middle angle {b:.12g} rad is degenerate")
    a = math.atan2(R[0, 2], R[2, 2])
    c = math.atan2(R[1, 0], R[1, 1])
    return a, b, c


def _home_distal_rotation(params: MechanismParams, limb: int) -> np.ndarray:
    theta2 = math.atan2(params.r_platform - params.r_base, home_height(params))
    return rot_z(params.azimuths[_limb_row(limb)]) @ rot_y(theta2)


def _distal_rotation(params: MechanismParams, limb: int, l1: np.ndarray) -> np.ndarray:
    """rot_z(xi) @ rot_y(pitch) of a limb's distal body, pitch the angle of
    its link vector l1 from vertical in its limb plane.  On plain floats
    with the products written out: at one pose, numpy calls cost more than
    this arithmetic."""
    row = _limb_row(limb)
    c, s = params.layout.cos.tolist()[row], params.layout.sin.tolist()[row]
    x, y, z = l1.tolist()
    pitch = math.atan2(c * x + s * y, z)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return np.array((c * cp, -s, c * sp, s * cp, c, s * sp, -sp, 0.0, cp)).reshape(3, 3)


def spherical_joint_frame(
    params: MechanismParams, pose: Pose, state: LimbState, limb: int
) -> np.ndarray:
    """World orientation of the spherical joint's limb-side frame.

    The frame rides on the distal limb body (z along the link, y along the
    revolute axis).  Raises GimbalDegeneracy when the joint articulation
    extracted against the home assembly hits the degenerate middle angle.
    """
    R = _distal_rotation(params, limb, state.l1)
    _articulation(params, pose, R, limb)
    return R


def spherical_joint_angles(
    params: MechanismParams, pose: Pose, state: LimbState, limb: int
) -> tuple[float, float, float]:
    """Spherical joint articulation away from the home assembly.

    The platform-side race is taken to be mounted at the home relative
    orientation, so all three angles vanish at the home pose.  Decomposition
    order is Ry, Rx, Rz in the joint frame.
    """
    return _articulation(params, pose, _distal_rotation(params, limb, state.l1), limb)


def _articulation(params: MechanismParams, pose: Pose, R: np.ndarray, limb: int):
    """spherical_joint_angles of a limb whose distal body has the rotation R."""
    return _euler_yxz(R.T @ pose.R @ _home_distal_rotation(params, limb))

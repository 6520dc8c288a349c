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
from .geometry import (
    MechanismParams,
    Pose,
    Variant,
    Z_AXIS,
    home_height,
    limb_azimuth,
    rot_y,
    rot_z,
)

CONSTRAINT_TOL = 1e-6
HINGE_TOL = 1e-9  # mm; a strut shorter than this has its joint on the base hinge


@dataclass(frozen=True, eq=False)
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
    R_spherical: np.ndarray


def _distal_rotation(rz: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """Orientation of the limb's distal body: azimuth turn rz = rot_z(xi),
    then revolute pitch."""
    l1_limb = rz.T @ l1
    theta2 = math.atan2(l1_limb[0], l1_limb[2])
    return rz @ rot_y(theta2)


def inverse_kinematics(
    params: MechanismParams, pose: Pose, constraint_tol: float = CONSTRAINT_TOL
) -> list[LimbState]:
    """Per-limb joint solution for a constraint-compatible pose.

    Raises UnreachablePose when a limb cannot close and ConstraintViolation
    when the pose leaves a spherical joint off its limb plane by more than
    constraint_tol (millimetres).  The two heads differ only in joint order:
    the PRS head slides a fixed strut along a vertical rail (prismatic, then
    revolute), the RPS head telescopes a strut from a base hinge (revolute,
    then prismatic).  The revolute axis is the limb-plane normal for both.
    """
    rail = params.variant is Variant.Z3_PRS
    layout = params.layout
    states = []
    for limb in (1, 2, 3):
        # the spherical joint in the world and in limb-frame coordinates g
        rz = layout.rz[limb - 1]
        attachment = pose.R @ layout.body[limb - 1]
        joint = pose.p + attachment
        g = rz.T @ joint
        g[0] -= params.r_base
        if rail:
            disc = params.link_length**2 - g[0] ** 2 - g[1] ** 2
            if disc < 0.0:
                raise UnreachablePose(
                    f"limb {limb}: strut cannot span radial offset {g[0]:.6g} mm"
                )
        if abs(g[1]) > constraint_tol:
            raise ConstraintViolation(
                f"limb {limb}: tangential residual {g[1]:.6g} mm exceeds {constraint_tol:g}"
            )
        anchor = layout.anchor[limb - 1]
        if rail:
            length = g[2] - math.sqrt(disc)
            l1 = joint - anchor - length * Z_AXIS
            actuated = Z_AXIS
        else:
            length = math.hypot(g[0], g[2])
            if length < HINGE_TOL:
                raise UnreachablePose(f"limb {limb}: joint coincides with the base hinge")
            l1 = joint - anchor
            actuated = l1 / math.sqrt(l1 @ l1)  # np.linalg.norm's arithmetic
        states.append(
            LimbState(
                anchor=anchor,
                attachment=attachment,
                g=g,
                l1=l1,
                actuated_length=length,
                actuated=actuated,
                revolute=layout.tangent[limb - 1],
                R_spherical=_distal_rotation(rz, l1),
            )
        )
    return states


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
    xi = limb_azimuth(params, limb)
    theta2 = math.atan2(params.r_platform - params.r_base, home_height(params))
    return rot_z(xi) @ rot_y(theta2)


def spherical_joint_frame(
    params: MechanismParams, pose: Pose, state: LimbState, limb: int
) -> np.ndarray:
    """World orientation of the spherical joint's limb-side frame.

    The frame rides on the distal limb body (z along the link, y along the
    revolute axis).  Raises GimbalDegeneracy when the joint articulation
    extracted against the home assembly hits the degenerate middle angle.
    """
    spherical_joint_angles(params, pose, state, limb)
    return state.R_spherical


def spherical_joint_angles(
    params: MechanismParams, pose: Pose, state: LimbState, limb: int
) -> tuple[float, float, float]:
    """Spherical joint articulation away from the home assembly.

    The platform-side race is taken to be mounted at the home relative
    orientation, so all three angles vanish at the home pose.  Decomposition
    order is Ry, Rx, Rz in the joint frame.
    """
    relative = state.R_spherical.T @ pose.R @ _home_distal_rotation(params, limb)
    return _euler_yxz(relative)

"""Constraint-embedded rate kinematics.

The full 6x6 matrix G stacks six wrench columns: three actuation wrenches
(link-line forces scaled so that G^T @ xdot returns actuated joint rates)
and three constraint wrenches (unit forces through each spherical joint
along the limb's revolute axis).  Wrench moments are taken about the
platform centre as attachment x direction, the sign that reproduces
finite-difference joint rates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiency, SingularConfiguration, SingularLimb
from .geometry import MechanismParams, Pose, TaskRate, platform_attachment
from .kinematics import LimbState, actuated_axis, inverse_kinematics, revolute_axis

MOMENT_CONVENTION = "moment = attachment x direction, about platform centre"
SINGULAR_LIMB_TOL = 1e-9  # |l1 . actuated axis| below this is a singular limb
RANK_TOL = 1e-10  # smallest/largest singular value of the constraint wrenches
SINGULAR_TOL = 1e-12  # smallest/largest singular value of the homogenized Jacobian


@dataclass(frozen=True, eq=False)
class JacobianSet:
    """G = [Ga | Gc], the feasible-space projector P and conditioning data."""

    G: np.ndarray
    Ga: np.ndarray
    Gc: np.ndarray
    P: np.ndarray
    feasible_basis: np.ndarray
    J_hom: np.ndarray
    kappa: float
    moment_convention: str = MOMENT_CONVENTION


def _line_wrench(direction: np.ndarray, attachment: np.ndarray) -> np.ndarray:
    """Plucker 6-vector (direction, moment) of a line through the attachment."""
    dx, dy, dz = direction.tolist()
    ax, ay, az = attachment.tolist()
    # attachment x direction spelt out: np.cross costs about ten times more on 3-vectors
    return np.array([dx, dy, dz, ay * dz - az * dy, az * dx - ax * dz, ax * dy - ay * dx])


def build_jacobian(
    params: MechanismParams, pose: Pose, states: list[LimbState] | None = None
) -> JacobianSet:
    """Assemble G for a compatible pose and derive projector and conditioning."""
    if states is None:
        states = inverse_kinematics(params, pose)
    active_cols = []
    constraint_cols = []
    for limb, state in enumerate(states, start=1):
        attachment = platform_attachment(params, pose.R, limb)
        divisor = float(state.l1 @ actuated_axis(params, state))
        if abs(divisor) < SINGULAR_LIMB_TOL:
            raise SingularLimb(
                f"limb {limb}: link orthogonal to its actuated axis ({divisor:.3g})"
            )
        active = _line_wrench(state.l1, attachment) / divisor
        constraint = _line_wrench(revolute_axis(params, state), attachment)
        active_cols.append(active)
        constraint_cols.append(constraint)
    Ga = np.column_stack(active_cols)
    Gc = np.column_stack(constraint_cols)
    G = np.hstack([Ga, Gc])
    P, basis = _projector_and_null_basis(Gc)
    J_hom, kappa = homogenized_jacobian(Ga, Gc, params)
    return JacobianSet(
        G=G, Ga=Ga, Gc=Gc, P=P, feasible_basis=basis, J_hom=J_hom, kappa=kappa
    )


def _projector_and_null_basis(Gc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    U, sigma, _ = np.linalg.svd(Gc, full_matrices=True)
    if sigma.min() < RANK_TOL * sigma.max():
        raise RankDeficiency(
            f"constraint wrenches span only rank {int(np.sum(sigma >= RANK_TOL * sigma.max()))}"
        )
    range_basis = U[:, :3]
    P = np.eye(6) - range_basis @ range_basis.T
    return P, U[:, 3:]


def constraint_projector(Gc: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the twists doing no work on the constraints.

    Computed as I - Gc @ pinv(Gc) through a rank-revealing decomposition;
    raises RankDeficiency when the three constraint wrenches degenerate.
    """
    P, _ = _projector_and_null_basis(np.asarray(Gc, dtype=float))
    return P


def project_task_rate(P: np.ndarray, xdot) -> TaskRate:
    """Feasible component of an arbitrary commanded twist."""
    if isinstance(xdot, TaskRate):
        xdot = xdot.as_vector()
    xdot = np.asarray(xdot, dtype=float)
    if xdot.shape != (6,):
        raise ValueError("task rate vector must have shape (6,)")
    return TaskRate.from_vector(np.asarray(P) @ xdot)


def homogenized_jacobian(
    Ga: np.ndarray, Gc: np.ndarray, params: MechanismParams
) -> tuple[np.ndarray, float]:
    """Dimensionless 3x3 actuation map on the feasible subspace and its kappa.

    Moment rows are divided by the platform radius (the characteristic
    length) on Ga and Gc alike: the length scaling is a change of twist
    metric, so the feasible-space basis must be orthonormal in the same
    scaled coordinates as the actuation rows.  Scaling only one of the two
    factors manufactures spurious rank loss where the warped null space
    happens to graze null(Ga^T).  kappa is invariant to the basis choice,
    so the comparison between machines is well defined even though the
    characteristic length itself is a modelling choice.
    """
    scaled_a = np.array(Ga, dtype=float)
    scaled_a[3:, :] /= params.r_platform
    scaled_c = np.array(Gc, dtype=float)
    scaled_c[3:, :] /= params.r_platform
    _, basis = _projector_and_null_basis(scaled_c)
    J = scaled_a.T @ basis
    sigma = np.linalg.svd(J, compute_uv=False)
    if sigma[-1] <= SINGULAR_TOL * sigma[0]:  # also a J that vanishes
        raise SingularConfiguration("homogenized Jacobian is singular")
    return J, float(sigma[0] / sigma[-1])

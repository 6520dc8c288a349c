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
from .kinematics import LimbState, inverse_kinematics

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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, spelt out: np.cross costs about ten times more on 3-vectors."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx), -1)


def _wrench_matrix(
    attachment: np.ndarray, l1: np.ndarray, divisor: np.ndarray, revolute: np.ndarray
) -> np.ndarray:
    """G (..., 6, 6) from limb rows (..., 3, 3) and per-limb divisors (..., 3).

    Column i is the actuation wrench (l1_i, attachment_i x l1_i) / divisor_i,
    column 3 + i the constraint wrench (revolute_i, attachment_i x revolute_i).
    """
    lead = attachment.shape[:-2]
    lines = np.empty(lead + (2, 3, 3))
    lines[..., 0, :, :] = l1
    lines[..., 1, :, :] = revolute
    moments = _cross(attachment[..., None, :, :], lines)
    G = np.empty(lead + (6, 6))
    G[..., :3, :] = np.swapaxes(lines.reshape(lead + (6, 3)), -1, -2)
    G[..., 3:, :] = np.swapaxes(moments.reshape(lead + (6, 3)), -1, -2)
    G[..., :3] /= divisor[..., None, :]
    return G


def build_jacobian(
    params: MechanismParams, pose: Pose, states: list[LimbState] | None = None
) -> JacobianSet:
    """Assemble G for a compatible pose and derive projector and conditioning."""
    if states is None:
        states = inverse_kinematics(params, pose)
    divisors = []
    for limb, state in enumerate(states, start=1):
        divisor = float(state.l1 @ state.actuated)
        if abs(divisor) < SINGULAR_LIMB_TOL:
            raise SingularLimb(
                f"limb {limb}: link orthogonal to its actuated axis ({divisor:.3g})"
            )
        divisors.append(divisor)
    G = _wrench_matrix(
        np.array([platform_attachment(params, pose.R, limb) for limb in (1, 2, 3)]),
        np.array([state.l1 for state in states]),
        np.array(divisors),
        np.array([state.revolute for state in states]),
    )
    Ga, Gc = G[:, :3], G[:, 3:]
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

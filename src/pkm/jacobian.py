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
from .geometry import MechanismParams, Pose, TaskRate
from .kinematics import LimbState, inverse_kinematics

MOMENT_CONVENTION = "moment = attachment x direction, about platform centre"
SINGULAR_LIMB_TOL = 1e-9  # |l1 . actuated axis| below this is a singular limb
RANK_TOL = 1e-10  # smallest/largest singular value of the constraint wrenches
SINGULAR_TOL = 1e-12  # smallest/largest singular value of the homogenized Jacobian
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


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


def _wrench_matrix(
    attachment: np.ndarray, l1: np.ndarray, divisor: np.ndarray, revolute: np.ndarray
) -> np.ndarray:
    """G (..., 6, 6) from limb rows (..., 3, 3) and per-limb divisors (..., 3).

    Column i is the actuation wrench (l1_i, attachment_i x l1_i) / divisor_i,
    column 3 + i the constraint wrench (revolute_i, attachment_i x revolute_i).
    """
    lead = attachment.shape[:-2]
    G = np.empty(lead + (6, 6))
    # G as [force or moment, component, actuation or constraint, limb]; the
    # cross products are spelt out: np.cross costs about ten times more on 3-vectors
    W = G.reshape(lead + (2, 3, 2, 3))
    W[..., 0, :, 0, :] = np.swapaxes(l1, -1, -2)
    W[..., 0, :, 1, :] = np.swapaxes(revolute, -1, -2)
    bx, by, bz = W[..., 0, 0, :, :], W[..., 0, 1, :, :], W[..., 0, 2, :, :]
    a = np.swapaxes(attachment, -1, -2)[..., None, :]
    ax, ay, az = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    W[..., 1, 0, :, :] = ay * bz - az * by
    W[..., 1, 1, :, :] = az * bx - ax * bz
    W[..., 1, 2, :, :] = ax * by - ay * bx
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
        np.array([state.attachment for state in states]),
        np.array([state.l1 for state in states]),
        np.array(divisors),
        np.array([state.revolute for state in states]),
    )
    Ga, Gc = G[:, :3], G[:, 3:]
    # one batched SVD for Gc and the homogenized (scaled) Gc, checked in that order
    pair = np.empty((2, 6, 3))
    pair[0] = Gc
    pair[1] = _scale_moments(Gc, params)
    U = _constraint_svd(pair)
    J_hom, kappa = _conditioning(_scale_moments(Ga, params), U[1, :, 3:])
    return JacobianSet(
        G=G,
        Ga=Ga,
        Gc=Gc,
        P=_projector(U[0]),
        # a view into a copy of Gc's factor alone: a view of U would keep both
        # factors alive, and a (6, 3) copy changes the bits of products with
        # the basis (BLAS reads it with another leading dimension)
        feasible_basis=U[0].copy()[:, 3:],
        J_hom=J_hom,
        kappa=kappa,
    )


def _constraint_svd(Gc: np.ndarray) -> np.ndarray:
    """U of the full SVD of a stack of constraint wrench columns (k, 6, 3).

    Raises RankDeficiency for the first member that has lost rank.
    """
    U, sigma, _ = np.linalg.svd(Gc, full_matrices=True)
    top = sigma.max(axis=-1)
    for k, lost in enumerate((sigma.min(axis=-1) < RANK_TOL * top).tolist()):
        if lost:
            raise RankDeficiency(
                f"constraint wrenches span only rank {int(np.sum(sigma[k] >= RANK_TOL * top[k]))}"
            )
    return U


def _projector(U: np.ndarray) -> np.ndarray:
    """I - Gc @ pinv(Gc) from the left singular vectors U (6, 6) of Gc."""
    range_basis = U[:, :3]
    return _EYE6 - range_basis @ range_basis.T


def constraint_projector(Gc: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the twists doing no work on the constraints.

    Computed as I - Gc @ pinv(Gc) through a rank-revealing decomposition;
    raises RankDeficiency when the three constraint wrenches degenerate.
    """
    return _projector(_constraint_svd(np.asarray(Gc, dtype=float)[None])[0])


def project_task_rate(P: np.ndarray, xdot) -> TaskRate:
    """Feasible component of an arbitrary commanded twist."""
    if isinstance(xdot, TaskRate):
        xdot = xdot.as_vector()
    xdot = np.asarray(xdot, dtype=float)
    if xdot.shape != (6,):
        raise ValueError("task rate vector must have shape (6,)")
    return TaskRate.from_vector(np.asarray(P) @ xdot)


def _scale_moments(columns: np.ndarray, params: MechanismParams) -> np.ndarray:
    """A copy of wrench columns (6, n) with the moment rows over the platform radius."""
    scaled = np.array(columns, dtype=float)
    scaled[3:, :] /= params.r_platform
    return scaled


def _conditioning(scaled_a: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """J = scaled_a^T @ basis and its condition number; raises SingularConfiguration."""
    J = scaled_a.T @ basis
    sigma = np.linalg.svd(J, compute_uv=False)
    if sigma[-1] <= SINGULAR_TOL * sigma[0]:  # also a J that vanishes
        raise SingularConfiguration("homogenized Jacobian is singular")
    return J, float(sigma[0] / sigma[-1])


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
    U = _constraint_svd(_scale_moments(Gc, params)[None])
    return _conditioning(_scale_moments(Ga, params), U[0, :, 3:])

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

from .errors import RankDeficiency, SingularConfiguration, SingularLimb, limb_by_limb, raise_first
from .geometry import MechanismParams, Pose, TaskRate, _freeze
from .kinematics import LimbState, inverse_kinematics

MOMENT_CONVENTION = "moment = attachment x direction, about platform centre"
SINGULAR_LIMB_TOL = 1e-9  # |l1 . actuated axis| below this is a singular limb
RANK_TOL = 1e-10  # smallest/largest singular value of the constraint wrenches
SINGULAR_TOL = 1e-12  # smallest/largest singular value of the homogenized Jacobian
_EYE6 = _freeze(np.eye(6))


@dataclass(frozen=True, eq=False, slots=True)
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
    W[..., 0, :, 0, :] = l1.swapaxes(-1, -2)
    W[..., 0, :, 1, :] = revolute.swapaxes(-1, -2)
    bx, by, bz = W[..., 0, 0, :, :], W[..., 0, 1, :, :], W[..., 0, 2, :, :]
    a = attachment.swapaxes(-1, -2)[..., None, :]
    ax, ay, az = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    W[..., 1, 0, :, :] = ay * bz - az * by
    W[..., 1, 1, :, :] = az * bx - ax * bz
    W[..., 1, 2, :, :] = ax * by - ay * bx
    G[..., :3] /= divisor[..., None, :]
    return G


def _jacobian_stage(params: MechanismParams, attachment, l1, actuated, revolute):
    """build_jacobian's stage on limb rows (..., 3, 3) of attachments, link
    vectors, actuated and revolute axes.

    Returns G (..., 6, 6), J (..., 3, 3), kappa (...) and the checks
    (failed (...), error class, message) in the order a pose takes them:
    SingularLimb limb by limb, then _homogenize's.  A singular limb gets a
    unit divisor.  The messages are those of one pose.
    """
    divisor = (l1 * actuated).sum(axis=-1)
    singular = np.abs(divisor) < SINGULAR_LIMB_TOL
    G = _wrench_matrix(attachment, l1, np.where(singular, 1.0, divisor), revolute)
    J, kappa, checks = _homogenize(G, params.r_platform)
    text = "limb {}: link orthogonal to its actuated axis ({:.3g})".format
    singular_limb = (singular, SingularLimb, lambda i: text(i + 1, divisor[i]))
    return G, J, kappa, (*limb_by_limb((singular_limb,)), *checks)


def _homogenize(G: np.ndarray, r: float):
    """J (..., 3, 3), kappa (...) and the checks RankDeficiency and
    SingularConfiguration of wrench matrices G (..., 6, 6).

    Moment rows are divided by r, the characteristic length, on Ga and Gc
    alike (see homogenized_jacobian): J = scaled Ga^T @ the feasible basis
    of the scaled Gc.  kappa is NaN where J is singular.
    """
    scaled = G.copy()
    scaled[..., 3:, :] /= r
    U, rank = _constraint_rank(scaled[..., 3:], G[..., 3:], r)
    J = scaled[..., :3].swapaxes(-1, -2) @ U[..., 3:]
    sigma = np.linalg.svd(J, compute_uv=False)
    degenerate = sigma[..., -1] <= SINGULAR_TOL * sigma[..., 0]  # also a J that vanishes
    # a NaN divisor, unlike a zero one, raises no floating-point warning
    kappa = sigma[..., 0] / np.where(degenerate, np.nan, sigma[..., -1])
    singular = (degenerate, SingularConfiguration, lambda: "homogenized Jacobian is singular")
    return J, kappa, (rank, singular)


def _constraint_rank(scaled: np.ndarray, Gc: np.ndarray, r: float):
    """Q (..., 6, 6), whose last three columns span the complement of scaled
    constraint wrenches (..., 6, 3), and the RankDeficiency check of them
    and of Gc, their moment rows times r.

    Q is the complete QR factor of scaled.  LAPACK's SVD of a 6 x 3 matrix
    starts from this very QR, so Q[..., 3:] is the full SVD's U[..., 3:]
    bit for bit (tests/test_jacobian.py guards this).  A cheap bound rules
    rank loss out for most cells: sigma3 / sigma1 >= |r11 r22 r33| / |R|_F^3,
    as |r11 r22 r33| = sigma1 sigma2 sigma3 and |R|_F >= sigma1 >= sigma2.
    Where the bound clears 4 max(r, 1/r) RANK_TOL, the cell keeps full rank
    with a factor 2 to spare for rounding.  The other cells take the full
    SVD of scaled, whose U replaces Q there, and the rank check runs on its
    ratio.  That check runs on Gc only where the scaled ratio is below
    2 max(r, 1/r) RANK_TOL.  Elsewhere ratio(Gc) >= ratio(scaled) min(r, 1/r)
    rules rank loss out, again with a factor 2 to spare for rounding.
    """
    Q, R = np.linalg.qr(scaled, mode="complete")
    # |R|_F^2 counts as at least 1e-200, where the bound could underflow; an
    # overflow or a NaN clears nothing (the product is at most 0.2 |R|_F^3)
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.abs(R.diagonal(0, -2, -1).prod(axis=-1))
        cube = np.maximum((R * R).sum(axis=(-2, -1)), 1e-200) ** 1.5
    bound = 2.0 * max(r, 1.0 / r) * RANK_TOL
    # an array at one pose too, where count_nonzero costs less
    unclear = np.asarray(~(product > 2.0 * bound * cube))
    lost = np.zeros(unclear.shape, dtype=bool)
    sigma = None
    if np.count_nonzero(unclear):
        U, sigma, _ = np.linalg.svd(scaled[unclear], full_matrices=True)
        Q[unclear] = U
        low, top = sigma[:, -1], sigma[:, 0]
        lost_here = low < RANK_TOL * top
        near = ~lost_here & (low < bound * top)
        if np.count_nonzero(near):
            unscaled = np.linalg.svd(Gc[unclear][near], compute_uv=False)
            sigma[near] = unscaled
            lost_here[near] = unscaled[:, -1] < RANK_TOL * unscaled[:, 0]
        lost[unclear] = lost_here

    def message():
        # asked at one pose that lost rank, so the gate did not clear it
        rank = np.count_nonzero(sigma[0] >= RANK_TOL * sigma[0, 0])
        return f"constraint wrenches span only rank {rank}"

    return Q, (lost, RankDeficiency, message)


def build_jacobian(
    params: MechanismParams, pose: Pose, states: list[LimbState] | None = None
) -> JacobianSet:
    """Assemble G for a compatible pose and derive projector and conditioning.

    Raises SingularLimb for the first singular limb, then RankDeficiency
    or SingularConfiguration.
    """
    if states is None:
        states = inverse_kinematics(params, pose)
    rows = np.array([(s.attachment, s.l1, s.actuated, s.revolute) for s in states])
    G, J_hom, kappa, checks = _jacobian_stage(params, *rows.swapaxes(0, 1))
    raise_first(checks)
    # frozen before Ga, Gc and feasible_basis are taken as views, so those are read-only too
    _freeze(G)
    U = _freeze(np.linalg.svd(G[:, 3:], full_matrices=True)[0])  # constraint | feasible twists
    return JacobianSet(
        G=G,
        Ga=G[:, :3],
        Gc=G[:, 3:],
        P=_freeze(_projector(U)),
        feasible_basis=U[:, 3:],
        J_hom=_freeze(J_hom),
        kappa=float(kappa),
    )


def _projector(U: np.ndarray) -> np.ndarray:
    """I - Gc @ pinv(Gc) from the left singular vectors U (6, 6) of Gc."""
    range_basis = U[:, :3]
    return _EYE6 - range_basis @ range_basis.T


def _finite_matrix(name: str, a, shape: tuple[int, int]) -> np.ndarray:
    """a as a float array, checked before any LAPACK call: a matrix of another
    shape gives a wrong rank, and a non-finite entry can hang the SVD."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite")
    return a


def constraint_projector(Gc: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the twists doing no work on the constraints.

    Computed as I - Gc @ pinv(Gc) through a rank-revealing decomposition;
    raises RankDeficiency when the three constraint wrenches degenerate,
    and ValueError when Gc is not a finite 6 x 3 matrix.
    """
    Gc = _finite_matrix("Gc", Gc, (6, 3))
    U, rank = _constraint_rank(Gc, Gc, 1.0)
    raise_first((rank,))
    return _projector(U)


def project_task_rate(P: np.ndarray, xdot) -> TaskRate:
    """Feasible component of an arbitrary commanded twist.

    Raises ValueError when P is not a finite 6 x 6 matrix or xdot not a 6-vector.
    """
    P = _finite_matrix("P", P, (6, 6))
    if isinstance(xdot, TaskRate):
        xdot = xdot.as_vector()
    xdot = np.asarray(xdot, dtype=float)
    if xdot.shape != (6,):
        raise ValueError("task rate vector must have shape (6,)")
    return TaskRate.from_vector(P @ xdot)


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
    characteristic length itself is a modelling choice.  Raises ValueError
    when Ga or Gc is not a finite 6 x 3 matrix.
    """
    Ga, Gc = (_finite_matrix(name, a, (6, 3)) for name, a in (("Ga", Ga), ("Gc", Gc)))
    G = np.concatenate((Ga, Gc), axis=1)
    J, kappa, checks = _homogenize(G, params.r_platform)
    raise_first(checks)
    return J, float(kappa)

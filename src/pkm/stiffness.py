"""Kinetostatic stiffness model.

Each limb contributes one actuation spring and one constraint spring acting
along its wrench lines; the platform-level 6x6 stiffness is the congruence
K = G @ diag(k) @ G^T.  Diagonal entries are reported as axial measures
(N/mm, translation slots) and torsional measures (N*mm/rad, rotation slots).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularStiffness
from .geometry import MechanismParams, Pose
from .grids import SweepGrid
from .jacobian import JacobianSet, build_jacobian
from .kinematics import LimbState, inverse_kinematics

STIFFNESS_FIELDS = ("kpx", "kpy", "kpz", "kax", "kay", "kaz")


@dataclass(frozen=True)
class LimbStiffness:
    """Scalar actuation and constraint spring rates of one limb."""

    k_a: float
    k_c: float


@dataclass(frozen=True, eq=False)
class StiffnessResult:
    K: np.ndarray
    kpx: float
    kpy: float
    kpz: float
    kax: float
    kay: float
    kaz: float
    jacobian: JacobianSet
    limb_stiffness: tuple[LimbStiffness, LimbStiffness, LimbStiffness]

    def diagonal_measures(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STIFFNESS_FIELDS}


@dataclass(frozen=True, eq=False)
class Deflection:
    """Platform deflection under a quasi-static load and the joint motions it implies."""

    platform: np.ndarray
    joints: np.ndarray


def spherical_stiffness_effective(
    params: MechanismParams, R_spherical: np.ndarray, axis: np.ndarray
) -> float:
    """Torsional rate of the spherical joint about a world-frame axis."""
    rotated = R_spherical.T @ params.stiffness.spherical @ R_spherical
    axis = np.asarray(axis, dtype=float)
    return float(axis @ rotated @ axis)


def limb_series_stiffness(params: MechanismParams, state: LimbState) -> LimbStiffness:
    """Series-spring reduction of one limb's actuation and constraint chains."""
    coeffs = params.stiffness
    k_s = spherical_stiffness_effective(params, state.R_spherical, state.revolute)
    if k_s <= 0.0:
        raise ValueError(f"effective spherical stiffness must be positive, got {k_s!r}")
    k_c = 1.0 / (1.0 / k_s + 1.0 / coeffs.k_limb_body)
    return LimbStiffness(k_a=coeffs.actuation, k_c=k_c)


def assemble_stiffness(
    params: MechanismParams,
    pose: Pose,
    states: list[LimbState] | None = None,
    jac: JacobianSet | None = None,
) -> StiffnessResult:
    """Platform stiffness at a compatible pose."""
    if states is None:
        states = inverse_kinematics(params, pose)
    if jac is None:
        jac = build_jacobian(params, pose, states)
    per_limb = tuple(limb_series_stiffness(params, state) for state in states)
    rates = np.array([ls.k_a for ls in per_limb] + [ls.k_c for ls in per_limb])
    K = (jac.G * rates) @ jac.G.T
    kpx, kpy, kpz, kax, kay, kaz = K.diagonal().tolist()
    return StiffnessResult(
        K=K,
        kpx=kpx,
        kpy=kpy,
        kpz=kpz,
        kax=kax,
        kay=kay,
        kaz=kaz,
        jacobian=jac,
        limb_stiffness=per_limb,
    )


def deflection_under_load(result: StiffnessResult, wrench: np.ndarray) -> Deflection:
    """Solve K restricted to the feasible subspace for the platform deflection.

    The constraint directions are rigid in this model, so the solve lives in
    the three-dimensional null space of the constraint wrenches; the
    returned platform motion is the full 6-vector, plus the joint
    deflections G^T @ delta it implies.  Raises ValueError for a wrench
    that is not a finite 6-vector, and SingularStiffness when the feasible
    block is not finite or its condition number exceeds 1e12.
    """
    wrench = np.asarray(wrench, dtype=float)
    if wrench.shape != (6,):
        raise ValueError("load wrench must have shape (6,)")
    if not all(map(math.isfinite, wrench.tolist())):
        raise ValueError("load wrench entries must be finite")
    basis = result.jacobian.feasible_basis
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite K fails below
        K_ff = basis.T @ result.K @ basis
    if not all(map(math.isfinite, K_ff.ravel().tolist())):
        raise SingularStiffness("feasible-space stiffness block is not finite")
    # the 2-norm condition number, as np.linalg.cond computes it; negated, so
    # that a zero smallest singular value (cond inf, or NaN for 0/0) fails
    sigma = np.linalg.svd(K_ff, compute_uv=False).tolist()
    if not (sigma[-1] > 0.0 and sigma[0] / sigma[-1] <= 1e12):
        raise SingularStiffness("feasible-space stiffness block is numerically singular")
    delta = basis @ np.linalg.solve(K_ff, basis.T @ wrench)
    return Deflection(platform=delta, joints=result.jacobian.G.T @ delta)


def stiffness_map_rotational(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z: float | None = None,
) -> dict[str, SweepGrid]:
    """Diagonal stiffness fields over the tilt grid, with the parasitic
    coordinates of every sample carried along for re-keying."""
    from .kernel import evaluate_grid  # the kernel imports this module

    return _stiffness_table(evaluate_grid(params, psi_axis, theta_axis, z))


def _stiffness_table(table) -> dict[str, SweepGrid]:
    """Stiffness CSV columns of a CellTable: the parasitic translation, then the six measures."""
    return {
        "x_par_mm": table["x_mm"],
        "y_par_mm": table["y_mm"],
        **{name: table[name] for name in STIFFNESS_FIELDS},
    }


def stiffness_map_parasitic(
    params: MechanismParams,
    psi_axis: np.ndarray,
    theta_axis: np.ndarray,
    z: float | None = None,
    rotational: dict[str, SweepGrid] | None = None,
) -> list[tuple[float, float, dict[str, float]]]:
    """The same stiffness samples re-keyed by their parasitic displacement.

    The image of the tilt grid in the (x, y) parasitic plane is scattered,
    so samples are returned as (x_par, y_par, values) triples in grid
    row-major order rather than resampled onto a rectangle.  Cells without
    stiffness values are left out, even where their parasitic shift solved.
    """
    if rotational is None:
        rotational = stiffness_map_rotational(params, psi_axis, theta_axis, z)
    x_grid = rotational["x_par_mm"]
    y_grid = rotational["y_par_mm"]
    solved = rotational[STIFFNESS_FIELDS[0]].mask
    samples = []
    for i in range(len(x_grid.psi_axis)):
        for j in range(len(x_grid.theta_axis)):
            if not solved[i, j]:
                continue
            values = {name: float(rotational[name].values[i, j]) for name in STIFFNESS_FIELDS}
            samples.append((float(x_grid.values[i, j]), float(y_grid.values[i, j]), values))
    return samples

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
from .geometry import MechanismParams, Pose, _freeze
from .grids import SweepGrid
from .jacobian import JacobianSet, build_jacobian
from .kinematics import LimbState, inverse_kinematics

STIFFNESS_FIELDS = ("kpx", "kpy", "kpz", "kax", "kay", "kaz")


@dataclass(frozen=True, slots=True)
class LimbStiffness:
    """Scalar actuation and constraint spring rates of one limb."""

    k_a: float
    k_c: float


def _diagonal(i: int) -> property:
    return property(lambda self: float(self.K[i, i]), doc=f"K[{i}, {i}] as a float.")


@dataclass(frozen=True, eq=False, slots=True)
class StiffnessResult:
    """K = G @ diag(rates) @ G^T, with the Jacobian and the spring rates it was built from.

    rates holds the actuation, then the constraint rates of the three limbs.
    The six diagonal measures and limb_stiffness are derived on each read.
    """

    K: np.ndarray
    jacobian: JacobianSet
    rates: np.ndarray

    kpx, kpy, kpz, kax, kay, kaz = map(_diagonal, range(6))

    @property
    def limb_stiffness(self) -> tuple[LimbStiffness, LimbStiffness, LimbStiffness]:
        return tuple(map(LimbStiffness, self.rates[:3].tolist(), self.rates[3:].tolist()))

    def diagonal_measures(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STIFFNESS_FIELDS}


@dataclass(frozen=True, eq=False, slots=True)
class Deflection:
    """Platform deflection under a quasi-static load and the joint motions it implies.

    Only platform and G, the wrench matrix of the solve's JacobianSet, are
    stored; joints, G^T @ platform, is built anew on each read.
    """

    platform: np.ndarray
    G: np.ndarray

    joints = property(lambda self: _freeze(self.G.T @ self.platform), doc="G^T @ platform.")


def _limb_rates(params: MechanismParams, l1: np.ndarray) -> np.ndarray:
    """Actuation, then constraint spring rates (..., 6) of limbs with link vectors l1 (..., 3, 3).

    A constraint spring is the spherical joint, k_s = a^T R^T S R a about
    the revolute axis a, with S = diag(k_sx, k_sy, k_sz) and R the distal
    body's orientation rot_z(xi) @ rot_y(pitch), pitch the angle of l1 from
    vertical in its limb plane, in series with the limb body.  R a is a unit
    vector, so k_s lies, up to rounding, between the least and largest of S.
    """
    coeffs = params.stiffness
    layout = params.layout
    c, s = layout.cos, layout.sin
    pitch = np.arctan2(c * l1[..., 0] + s * l1[..., 1], l1[..., 2])
    cp, sp = np.cos(pitch), np.sin(pitch)
    # v = R a for a = (-s, c, 0), elementwise: at one pose, stacking v costs
    # more than its arithmetic.  vx comes out negated, which k_s squares
    # away, and a's zero z would only change the signs of zeros.
    u = cp * s
    vx = c * u + s * c
    vy = c * c - s * u
    vz = sp * s
    k_s = coeffs.k_sx * vx * vx + coeffs.k_sy * vy * vy + coeffs.k_sz * vz * vz
    rates = np.empty(k_s.shape[:-1] + (6,))
    rates[..., :3] = coeffs.actuation
    # 1 / (1 / k_s + 1 / k_limb_body); np.reciprocal(x) is 1.0 / x without
    # the float operand, which costs numpy more than the division at one pose
    np.reciprocal(np.reciprocal(k_s) + 1.0 / coeffs.k_limb_body, out=rates[..., 3:])
    return rates


def _stiffness_matrix(G: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """K = G @ diag(rates) @ G^T (..., 6, 6) of wrench matrices G (..., 6, 6) and rates (..., 6)."""
    return (G * rates[..., None, :]) @ G.swapaxes(-1, -2)


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
    rates = _freeze(_limb_rates(params, np.array([state.l1 for state in states])))
    return StiffnessResult(K=_freeze(_stiffness_matrix(jac.G, rates)), jacobian=jac, rates=rates)


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
    delta = _freeze(basis @ np.linalg.solve(K_ff, basis.T @ wrench))
    return Deflection(platform=delta, G=result.jacobian.G)


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
) -> list[tuple[float, float, dict[str, float]]]:
    """The same stiffness samples re-keyed by their parasitic displacement.

    The image of the tilt grid in the (x, y) parasitic plane is scattered,
    so samples are returned as (x_par, y_par, values) triples in grid
    row-major order rather than resampled onto a rectangle.  Cells without
    stiffness values are left out, even where their parasitic shift solved.
    """
    rotational = stiffness_map_rotational(params, psi_axis, theta_axis, z)
    solved = np.flatnonzero(rotational[STIFFNESS_FIELDS[0]].mask)
    xs, ys, *columns = (
        rotational[name].values.ravel()[solved].tolist()
        for name in ("x_par_mm", "y_par_mm", *STIFFNESS_FIELDS)
    )
    return [(x, y, dict(zip(STIFFNESS_FIELDS, cell))) for x, y, *cell in zip(xs, ys, *columns)]

"""Shared value types, frames and rotation conventions.

Units are millimetres, radians, newtons and newton-millimetres throughout.
The platform orientation is always composed about fixed axes as
``Rz(gamma) @ Ry(theta) @ Rx(psi)``; (psi, theta) are the commanded tilts
and gamma sits in the torsion slot that the mechanisms themselves couple
to the tilts, so nominal orientation commands use gamma = 0.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
DEFAULT_AZIMUTHS = (0.0, TWO_THIRDS_PI, 2.0 * TWO_THIRDS_PI)

Z_AXIS = np.array([0.0, 0.0, 1.0])
Z_AXIS.setflags(write=False)
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
# mm; home_height squares the lengths, which overflows above about 1.3e154
MAX_LENGTH = 1e150


class Variant(enum.Enum):
    """Limb joint ordering: vertical-rail PRS head or base-hinged RPS head."""

    Z3_PRS = "z3"
    A3_RPS = "a3"


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def orientation_from_tilts(psi: float, theta: float, gamma: float = 0.0) -> np.ndarray:
    """Platform rotation matrix for tilts (psi, theta) and torsion gamma."""
    return rot_z(gamma) @ rot_y(theta) @ rot_x(psi)


@dataclass(frozen=True)
class StiffnessCoeffs:
    """Lumped joint stiffness coefficients of one limb.

    Axial entries are N/mm, the spherical-joint entries are torsional
    (N*mm/rad) about the joint frame axes.
    """

    k_carriage: float = 1.0e6
    k_revolute: float = 1.0e6
    k_limb_body: float = 1.0e6
    k_sx: float = 1.0e6
    k_sy: float = 1.0e6
    k_sz: float = 1.0e6

    def __post_init__(self):
        for name in ("k_carriage", "k_revolute", "k_limb_body", "k_sx", "k_sy", "k_sz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @functools.cached_property
    def actuation(self) -> float:
        """Series rate of the carriage, revolute and limb-body springs (N/mm)."""
        return 1.0 / (1.0 / self.k_carriage + 1.0 / self.k_revolute + 1.0 / self.k_limb_body)

    @functools.cached_property
    def spherical(self) -> np.ndarray:
        """diag(k_sx, k_sy, k_sz) of the spherical joint, read-only."""
        return _readonly(np.diag([self.k_sx, self.k_sy, self.k_sz]))

    def __getstate__(self):
        # copies and unpickled coefficients rebuild the cached rates: pickle
        # would hand back a writable matrix
        return {k: v for k, v in self.__dict__.items() if k not in ("actuation", "spherical")}


@dataclass(frozen=True, eq=False)
class LimbLayout:
    """Per limb, read-only: cos and sin of the azimuth xi, rot_z(xi) (rz),
    the spherical joint in the platform frame (body), the base point
    (anchor), and the limb-plane normal, which is the revolute axis
    (tangent)."""

    cos: np.ndarray
    sin: np.ndarray
    rz: np.ndarray
    body: np.ndarray
    anchor: np.ndarray
    tangent: np.ndarray


@dataclass(frozen=True)
class MechanismParams:
    """Geometry and joint stiffness of one machine.

    link_length is the fixed strut length for the PRS head and the
    nominal (home) telescopic length for the RPS head.  Stroke limits are
    absolute bounds on the actuated length; they default per variant, must
    leave a non-empty interval, and are only enforced by workspace sweeps.
    """

    variant: Variant
    r_base: float = 350.0
    r_platform: float = 250.0
    link_length: float = 642.3
    azimuths: tuple[float, float, float] = DEFAULT_AZIMUTHS
    stiffness: StiffnessCoeffs = field(default_factory=StiffnessCoeffs)
    stroke_min: float | None = None
    stroke_max: float | None = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")
        for name in ("r_base", "r_platform", "link_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
            if value > MAX_LENGTH:
                raise ValueError(f"{name} must be at most {MAX_LENGTH:g} mm, got {value!r}")
        if self.link_length <= abs(self.r_base - self.r_platform):
            raise ValueError("link_length too short to close the home configuration")
        if len(self.azimuths) != 3:
            raise ValueError("exactly three limb azimuths required")
        lo, hi = self.stroke_limits()
        if not lo < hi:  # also rejects NaN bounds
            default_lo, default_hi = self._default_stroke_limits()
            if None in (self.stroke_min, self.stroke_max) and default_lo == default_hi:
                raise ValueError(
                    "the default stroke interval [link_length - 300, link_length + 300] "
                    f"collapses to {default_lo!r} at link_length {self.link_length!r} mm; "
                    "set stroke_min and stroke_max"
                )
            raise ValueError(f"empty stroke interval [{lo}, {hi}]")

    @functools.cached_property
    def layout(self) -> LimbLayout:
        """The limb layout of this machine, built once from its azimuths."""
        cos, sin = (_readonly([f(xi) for xi in self.azimuths]) for f in (math.cos, math.sin))
        unit = np.stack((cos, sin, np.zeros(3)), -1)
        tangent = np.stack((-sin, cos, np.zeros(3)), -1)
        return LimbLayout(
            cos,
            sin,
            _readonly([rot_z(xi) for xi in self.azimuths]),
            _readonly(self.r_platform * unit),
            _readonly(self.r_base * unit),
            _readonly(tangent),
        )

    def __getstate__(self):
        # copies and unpickled machines rebuild the layout: pickle would hand back writable arrays
        return {name: value for name, value in self.__dict__.items() if name != "layout"}

    def _default_stroke_limits(self) -> tuple[float, float]:
        if self.variant is Variant.Z3_PRS:
            return -300.0, 300.0
        return self.link_length - 300.0, self.link_length + 300.0

    def stroke_limits(self) -> tuple[float, float]:
        """Resolved (lo, hi) actuated-length bounds for this variant."""
        lo, hi = self._default_stroke_limits()
        if self.stroke_min is not None:
            lo = self.stroke_min
        if self.stroke_max is not None:
            hi = self.stroke_max
        return lo, hi


def default_params(variant: Variant) -> MechanismParams:
    """Catalog geometry with every stiffness coefficient at 1e6."""
    return MechanismParams(variant=variant)


def _limb_row(limb: int) -> int:
    if limb not in (1, 2, 3):
        raise ValueError(f"limb index must be 1, 2 or 3, got {limb!r}")
    return limb - 1


def limb_azimuth(params: MechanismParams, limb: int) -> float:
    return params.azimuths[_limb_row(limb)]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Pose:
    """Platform position p and orientation R, world frame."""

    p: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        p = _readonly(self.p)
        R = _readonly(self.R)
        if p.shape != (3,) or R.shape != (3, 3):
            raise ValueError("Pose needs p of shape (3,) and R of shape (3, 3)")
        entries = R.ravel().tolist()
        if not all(map(math.isfinite, p.tolist() + entries)):
            raise ValueError("Pose entries must be finite")
        # no entry of an orthonormal R exceeds 1; a huge one would overflow R.T @ R
        if max(map(abs, entries)) > 1.0 + 1e-12 or np.abs(R.T @ R - _EYE3).max() > 1e-12:
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-12:
            raise ValueError("R must be proper (det +1)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "R", R)


def pose_from_tilts(
    psi: float, theta: float, z: float, x: float = 0.0, y: float = 0.0, gamma: float = 0.0
) -> Pose:
    """Pose with commanded tilts/heave and explicit parasitic components."""
    return Pose(p=np.array([x, y, z]), R=orientation_from_tilts(psi, theta, gamma))


@dataclass(frozen=True, eq=False)
class TaskRate:
    """Platform twist: translational rate v (mm/s) and angular rate w (rad/s)."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        v = _readonly(self.v)
        w = _readonly(self.w)
        if v.shape != (3,) or w.shape != (3,):
            raise ValueError("TaskRate needs two 3-vectors")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ValueError("TaskRate entries must be finite")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.v, self.w])

    @classmethod
    def from_vector(cls, xdot: np.ndarray) -> "TaskRate":
        xdot = np.asarray(xdot, dtype=float)
        if xdot.shape != (6,):
            raise ValueError("task rate vector must have shape (6,)")
        return cls(v=xdot[:3], w=xdot[3:])


def platform_attachment(params: MechanismParams, R: np.ndarray, limb: int) -> np.ndarray:
    """Vector from the platform centre to the limb's spherical joint, world frame."""
    return np.asarray(R) @ params.layout.body[_limb_row(limb)]


def base_anchor(params: MechanismParams, limb: int) -> np.ndarray:
    """Fixed base point of the limb (rail foot or hinge), world frame; read-only."""
    return params.layout.anchor[_limb_row(limb)]


def home_height(params: MechanismParams) -> float:
    """Platform centre height with all actuators at their nominal setting."""
    offset = params.r_base - params.r_platform
    return math.sqrt(params.link_length**2 - offset**2)


def home_pose(params: MechanismParams) -> Pose:
    return pose_from_tilts(0.0, 0.0, home_height(params))

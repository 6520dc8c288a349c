"""Exception taxonomy for kinematic, numeric and configuration failures."""

import enum
import functools

import numpy as np


class PkmError(Exception):
    """Base class for all package-specific failures."""


class UnreachablePose(PkmError):
    """A limb cannot reach its platform attachment point."""


class ConstraintViolation(PkmError):
    """Pose is incompatible with the limb constraint planes."""


class GimbalDegeneracy(PkmError):
    """Spherical joint angle extraction hit the degenerate middle angle."""


class SingularLimb(PkmError):
    """Limb direction is orthogonal to its actuated joint axis."""


class RankDeficiency(PkmError):
    """Constraint wrench system lost rank."""


class CouplingSingular(PkmError):
    """Parasitic coupling system C1 is singular: |det C1| is at most
    parasitic.COUPLING_TOL times r_platform, the rule that RK4 applies too."""


class IntegrationDiverged(PkmError):
    """Path integration drifted off the constraint manifold."""


class NoConvergence(PkmError):
    """Iterative solve did not reach tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularConfiguration(PkmError):
    """Homogenized Jacobian is singular at this pose."""


class SingularStiffness(PkmError):
    """Feasible-space stiffness block is too ill-conditioned to invert."""


class ConfigError(PkmError):
    """Malformed or inconsistent configuration input."""


def limb_by_limb(checks) -> list:
    """Per-limb checks (failed (..., 3), error class, message(i) for limb row i)
    as one (failed (...), error class, message()) per limb and check, in the
    order a pose takes them: limb by limb and, within a limb, as given."""
    return [(f[..., i], e, functools.partial(m, i)) for i in range(3) for f, e, m in checks]


def raise_first(checks) -> None:
    """Raise the first failed check of one pose, checks in the order it takes them."""
    for failed, error, message in checks:
        if failed:
            raise error(message())


def first_failure(status: np.ndarray, checks) -> np.ndarray:
    """status with each OK cell set to the code of its first failed check:
    raise_first for a stack of grid cells, checks a shared stage's
    (failed (N,), error class, message), in order."""
    status = status.copy()
    # no pass when nothing failed; count_nonzero, unlike any(), runs no ufunc
    # reduction, whose code pages would add to a map run's peak memory
    if any(np.count_nonzero(failed) for failed, _, _ in checks):
        for failed, error, _ in checks:
            status[(status == CellStatus.OK) & failed] = _CODES[error]
    return status


# failures that leave one grid cell empty instead of stopping a sweep,
# in the order of their CellStatus codes
CELL_ERRORS = (
    NoConvergence,
    ConstraintViolation,
    UnreachablePose,
    SingularLimb,
    SingularConfiguration,
    RankDeficiency,
)


class CellStatus(enum.IntEnum):
    """Outcome of one grid cell stage: OK, or the CELL_ERRORS member it stands for."""

    OK = 0
    NO_CONVERGENCE = 1
    CONSTRAINT_VIOLATION = 2
    UNREACHABLE = 3
    SINGULAR_LIMB = 4
    SINGULAR_CONFIGURATION = 5
    RANK_DEFICIENCY = 6


# the status code of each of CELL_ERRORS
_CODES = {error: CellStatus(code) for code, error in enumerate(CELL_ERRORS, start=1)}

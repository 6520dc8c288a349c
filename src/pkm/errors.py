"""Exception taxonomy for kinematic, numeric and configuration failures."""

import enum


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
    """Parasitic coupling system C1 is numerically singular."""


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


# failures that leave one grid cell empty instead of stopping a sweep,
# in the order of their CellStatus codes
CELL_ERRORS = (
    NoConvergence,
    CouplingSingular,
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
    COUPLING_SINGULAR = 2
    CONSTRAINT_VIOLATION = 3
    UNREACHABLE = 4
    SINGULAR_LIMB = 5
    SINGULAR_CONFIGURATION = 6
    RANK_DEFICIENCY = 7

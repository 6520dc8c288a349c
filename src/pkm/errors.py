"""Exception taxonomy for kinematic, numeric and configuration failures."""


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


# failures that leave one grid cell empty instead of stopping a sweep
CELL_ERRORS = (
    NoConvergence,
    CouplingSingular,
    ConstraintViolation,
    UnreachablePose,
    SingularLimb,
    SingularConfiguration,
    RankDeficiency,
)

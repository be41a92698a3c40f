"""Exception hierarchy shared across the package.

Two broad families: configuration/usage problems (``ConfigError``) and
numerical failures detected while validating data or running a solve.
The CLI maps them to distinct exit codes.
"""


class NcparabError(Exception):
    """Base class for all package errors."""


class ConfigError(NcparabError):
    """Bad configuration file, unknown preset, or invalid parameters."""


class NumericalError(NcparabError):
    """Base class for failures of numerical preconditions."""


class NonHermitian(NumericalError):
    """Principal coefficient matrix is not Hermitian at a sample point."""


class NotElliptic(NumericalError):
    """Real quadratic form of the principal part has no positive lower bound."""


class NotPositiveSemidefinite(NumericalError):
    """Principal matrix has an eigenvalue below the PSD tolerance."""


class DivisionByZeroB1(NumericalError):
    """b1 vanishes on a boundary point outside the constrained set."""


class InvalidDomain(NumericalError):
    """Unsupported or malformed domain description."""


class ConstraintOnAllDofs(NumericalError):
    """Eliminating the constrained nodes leaves no free degrees of freedom."""


class NotSPD(NumericalError):
    """Matrix expected to be symmetric positive definite is not."""


class NoConvergence(NumericalError):
    """Iterative eigenvalue kernel failed to converge."""


class SingularStepMatrix(NumericalError):
    """Implicit time-step matrix cannot be factorized."""


class TimeOffGrid(NumericalError):
    """Requested time does not lie on the trajectory grid."""


class NoOracle(ConfigError):
    """Convergence study requested for a preset without an exact solution."""


class SOutOfRange(NumericalError):
    """Sobolev index outside the admissible open interval (1/2, 1)."""

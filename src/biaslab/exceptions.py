"""Exception hierarchy shared across the library."""


class BiaslabError(Exception):
    """Base class for every error this library raises on purpose."""


class DegenerateVarianceError(BiaslabError):
    """A closed form or a population fit needs Var(X1) > 0 and the supplied moments have none."""


class AssumptionViolationError(BiaslabError):
    """Inputs violate an assumption a closed form depends on.

    The message names the violated assumption so callers can report it.
    """


class RankDeficiencyError(BiaslabError):
    """Design matrix is rank deficient; least squares has no unique solution."""


class SeparationError(BiaslabError):
    """Binary outcome is (quasi-)separable; the MLE diverges."""


class ConvergenceError(BiaslabError):
    """Iterative fit stopped without meeting its convergence tolerances."""


class EmptyGroupError(BiaslabError):
    """An audit group contains no rows."""


class ConfigError(BiaslabError, ValueError):
    """Input is malformed or unsupported; the message names the field. Also a ValueError."""


class InvalidCovarianceError(ConfigError):
    """Covariance matrix is not symmetric positive semi-definite."""

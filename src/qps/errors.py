"""Domain exception hierarchy.

Every error raised by this package derives from :class:`QpsError`, so
callers (in particular the CLI) can catch domain failures uniformly while
letting genuine bugs propagate.
"""


class QpsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(QpsError, ValueError):
    """An argument violates a documented precondition (non-finite value,
    malformed geometry, unsorted grid, ...)."""


class DegenerateDelayError(QpsError, ValueError):
    """A measured delay is physically inconsistent with its baseline:
    the range difference cannot exceed the baseline length."""


class SingularJacobianError(QpsError):
    """The delay Jacobian at an iterate is singular to working precision
    (condition number above the degeneracy threshold)."""


class NotConvergedError(QpsError):
    """The iterative solver exhausted its iteration budget, stalled or
    left its divergence bound before meeting the convergence criteria."""


class NoDipFoundError(QpsError):
    """A coincidence scan does not contain a statistically significant
    dip, so the balance point cannot be estimated."""


class FitDivergedError(QpsError):
    """The nonlinear dip fit failed to converge within its iteration
    budget."""

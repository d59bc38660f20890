"""Exception types shared across the library.

Every class derives from one of two roots, which decides the CLI's exit code:
InvalidParameterError, bad input of any kind, exits 2 ("configuration error");
NonConvergenceError, a solver that missed its answer, exits 3 ("solver failure").
"""


class InvalidParameterError(ValueError):
    """A parameter is outside its admissible range."""


class EvaluationError(InvalidParameterError):
    """A user-supplied function returned a non-finite or invalid value."""


class MeshError(InvalidParameterError):
    """A triangulation violates conformity or tagging invariants."""


class AssemblyError(InvalidParameterError):
    """Element matrices cannot be formed (e.g. degenerate triangle)."""


class MatrixError(InvalidParameterError):
    """A system matrix fails a definiteness requirement."""


class InsufficientDataError(InvalidParameterError):
    """Not enough usable rows to fit a convergence order."""


class ConfigError(InvalidParameterError):
    """Bad or unknown configuration key/value."""


class NonConvergenceError(RuntimeError):
    """A solver missed its answer: an iteration cap, a stalled line search or
    a failed cross-check.  Carries its residual and any best iterate."""

    def __init__(self, message, residual=None, best=None):
        super().__init__(message)
        self.residual = residual
        self.best = best


class CrossCheckError(NonConvergenceError):
    """Two independent solvers disagreed beyond the allowed tolerance."""


class LineSearchError(NonConvergenceError):
    """Backtracking line search stalled; carries the best iterate found."""

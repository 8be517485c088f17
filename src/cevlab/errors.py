"""Semantic exception hierarchy for cevlab.

Every error raised on purpose by this package derives from CevlabError so
callers can distinguish our failures from genuine bugs.
"""


class CevlabError(Exception):
    """Base class for all cevlab errors."""


class ValidationError(CevlabError, ValueError):
    """Inputs are well-formed but violate a model or configuration invariant."""


class ParseError(CevlabError, ValueError):
    """A config document or CLI flag is malformed or incomplete."""


class NegativeInner(CevlabError, ArithmeticError):
    """The deterministic inner expression went negative beyond the rounding
    clamp threshold; the step condition is violated or the inputs are
    numerically pathological.  Callers must not continue stepping.

    ``path`` is the offending path's position in the stepped batch; the
    block runner makes it the global path index, whose StreamKey replays the
    failure, and sets ``step``, the 0-based step (increment column) that
    failed.  ``step`` is None outside a block run."""

    def __init__(self, message: str, path: int | None = None, step: int | None = None):
        super().__init__(message)
        self.path = path
        self.step = step


class NonDivisibleFactor(CevlabError, ValueError):
    """Coarsening factor does not divide the increment count."""


class GridMismatch(CevlabError, ValueError):
    """Increment array and time grid disagree in length or step size."""


class InfeasibleLevel(ValidationError):
    """A grid step or refinement level's step size violates the stability
    conditions."""


class InsufficientPoints(CevlabError, ValueError):
    """Order fit needs at least two points with distinct step sizes."""


class NonPositiveValue(CevlabError, ValueError):
    """Log-log order fit requires strictly positive step sizes and errors."""


class NonFiniteResult(CevlabError, ArithmeticError):
    """A simulated path ended in a non-finite value, so the statistics built
    from it would be NaN or infinite."""


class CouplingError(CevlabError, ArithmeticError):
    """Coarse and fine driving paths stopped agreeing on the terminal
    Brownian value; indicates increment bookkeeping corruption."""

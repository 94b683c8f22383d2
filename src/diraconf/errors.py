"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "ConvergenceError",
    "BracketError",
    "WrongStateError",
    "ConditionViolationError",
    "NormalizationError",
]


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its tolerance.

    The best available partial result, if any, is attached as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BracketError(RuntimeError):
    """The supplied energy bracket does not enclose a sign change."""


class WrongStateError(RuntimeError):
    """An eigenvalue was found but its node count identifies another state."""

    def __init__(self, message, found_nodes=None, target_nodes=None):
        super().__init__(message)
        self.found_nodes = found_nodes
        self.target_nodes = target_nodes


class ConditionViolationError(ValueError):
    """A pointwise validity condition fails; ``radius`` locates the first offender."""

    def __init__(self, message, radius=None):
        super().__init__(message)
        self.radius = radius


class NormalizationError(RuntimeError):
    """A state cannot be normalized (divergent norm integral)."""

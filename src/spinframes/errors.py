"""Exception types shared across the toolkit."""

__all__ = [
    "ConvergenceError",
    "DomainError",
    "ProfileError",
    "UndefinedConditionalError",
]


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class UndefinedConditionalError(DomainError):
    """Conditioning event has probability zero."""


class ProfileError(ValueError):
    """Invalid mass-profile data (bad table, header, or monotonicity)."""


class ConvergenceError(RuntimeError):
    """Iterative routine failed to converge.

    Carries the best value found so callers can still inspect it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best

"""Exception types shared across the package."""


class BosecoolError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(BosecoolError, ValueError):
    """A state object violates one of its construction invariants."""


class InvalidUnitaryError(BosecoolError, ValueError):
    """A Gaussian unitary violates the symplectic constraints."""


class DimensionMismatchError(BosecoolError, ValueError):
    """Objects with incompatible mode counts or dimensions were combined."""


class DomainError(BosecoolError, ValueError):
    """A scalar parameter is outside its admissible range."""


class CutoffTooSmallError(BosecoolError, ValueError):
    """A Fock-space truncation cannot hold the requested state.

    Carries the measured tail mass in ``deficit``.  Its default lets pickle
    rebuild the error from its message, as for every package error.
    """

    def __init__(self, message: str, deficit: float = float("nan")):
        super().__init__(message)
        self.deficit = deficit


class ConvergenceError(BosecoolError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the best iterate and its residual for post-mortem inspection.
    """

    def __init__(self, message: str, best=None, residual: float = float("nan")):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ValidityError(BosecoolError, ValueError):
    """Requested evaluation lies outside the regime where a formula holds."""

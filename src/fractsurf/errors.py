"""Exception taxonomy shared across the package."""
from __future__ import annotations


class FractsurfError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGridError(FractsurfError):
    """The data grid is malformed (knots not increasing, shape mismatch, ...)."""


class OutOfDomainError(FractsurfError):
    """A query point lies outside the grid rectangle (or a map image)."""


class MagnitudeError(FractsurfError):
    """A vertical scaling field fails the |s| < 1 certification.

    Carries the offending point and the value/bound found there.
    """

    def __init__(self, message: str, witness: tuple[float, float], value: float):
        super().__init__(message)
        self.witness = witness
        self.value = value


class CurveValidationError(FractsurfError):
    """A boundary curve fails interpolation or continuity validation."""


class BlendCompatibilityError(FractsurfError):
    """The four boundary curves of a cell disagree at a shared corner."""


class BlendValidationError(FractsurfError):
    """An explicit blend table's edge restrictions do not match the curves."""


class ConfigurationError(FractsurfError):
    """One or more problems in a job configuration.

    ``errors`` is a list of (path, message) pairs covering every problem
    found, not just the first.
    """

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        lines = [f"  {path}: {msg}" for path, msg in self.errors]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


class ConvergenceError(FractsurfError):
    """The solve certified no surface within tolerance.

    Either the iteration cap came first (``last_bound``: the last bound, inf
    when none was measured), a residual was not finite (NaN, with a node),
    or rounding kept a lattice solve's bound above tolerance (that bound).
    """

    def __init__(self, message: str, last_bound: float):
        super().__init__(message)
        self.last_bound = last_bound


class ScaleResolutionError(FractsurfError):
    """A box-counting scale is finer than the surface sampling supports."""

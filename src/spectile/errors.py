"""Exception types raised by the exact and numeric pipelines."""

from __future__ import annotations


class SpectileError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SpectileError):
    pass


class OverlapError(SpectileError):
    """Two boxes of a would-be domain share interior points."""

    def __init__(self, i: int, j: int, point):
        self.indices = (i, j)
        self.point = point
        pretty = ", ".join(str(c) for c in point)
        super().__init__(f"boxes {i} and {j} overlap at ({pretty})")


class IrrationalData(SpectileError):
    """Non-rational input reached an exact-only code path."""


class NotDualPoint(SpectileError):
    """The frequency is not a point of the dual lattice."""


class RadiusTooSmall(SpectileError):
    pass


class BudgetExceeded(SpectileError):
    """A computation's pre-flight cost estimate exceeds its fixed budget."""


class MeasureNotOne(SpectileError):
    pass


class IntegralMismatch(SpectileError):
    pass


class PreconditionFailed(SpectileError):
    """A check's mathematical precondition does not hold for the given data."""


class MissingDependency(SpectileError):
    """A numeric route needs numpy, and this interpreter has none."""


class SchemaError(SpectileError):
    """A problem file does not match the expected JSON schema."""

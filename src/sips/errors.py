"""Exception types shared across the package."""


class SipsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SipsError, ValueError):
    """Parameter point fails the model's validity rules (e.g. no bound states)."""


class LevelOutOfRangeError(SipsError, IndexError):
    """Requested level index n at or above the number of bound states."""


class GridTooCoarseError(SipsError, ValueError):
    """Grid too coarse, or with too few points, for the levels the referee is asked for."""


class NotSO21Error(SipsError, ValueError):
    """Model's remainder function is not linear with slope 2, so no SO(2,1) algebra."""


class UnitarityError(SipsError, ValueError):
    """(j, m) pair lies outside every unitary multiplet (negative ladder radicand)."""

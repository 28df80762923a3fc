"""Uniform 1D grids, sampled functions, and finite-difference helpers.

Derivatives use 5-point stencils (fourth order): central at interior points,
one-sided at the two outermost points on each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n_points`` nodes on ``[x_min, x_max]``."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"need at least 3 points, got {self.n_points}")
        # a finite h² (the stencils divide by it) implies finite bounds
        if not (self.x_min < self.x_max and np.isfinite(self.h * self.h)):
            raise ValueError(
                f"need finite x_min < x_max and h² finite, got [{self.x_min}, {self.x_max}], h={self.h}"
            )

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> NDArray[np.float64]:
        return np.linspace(self.x_min, self.x_max, self.n_points)



@dataclass
class SampledFunction:
    """A real function tabulated on a uniform grid."""

    grid: Grid
    values: NDArray[np.float64] = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")

    def norm(self) -> float:
        """Trapezoidal L2 norm on the grid."""
        return float(np.sqrt(np.trapezoid(self.values**2, dx=self.grid.h)))

    def normalized(self) -> "SampledFunction":
        """The state convention shared by every route: unit trapezoidal norm,
        sign chosen so the first value above 1% of the peak is positive."""
        n = self.norm()
        if not np.isfinite(n) or n == 0.0:
            raise ValueError(f"cannot normalize: norm is {n}")
        values = self.values / n
        first = np.argmax(np.abs(values) > 1e-2 * np.max(np.abs(values)))
        return SampledFunction(self.grid, -values if values[first] < 0 else values)


# O(h^4) first-derivative stencils. Rows: offsets and weights/(12h) for the
# first two points from an edge; interior uses the symmetric 5-point formula.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])


def derivative(values: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """First derivative of sampled values by 5-point finite differences.

    Requires at least 7 points so the one-sided edge stencils do not overlap
    the central region.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 7:
        from .errors import GridTooCoarseError

        raise GridTooCoarseError(f"5-point stencils need >= 7 points, got {n}")
    out = np.empty_like(values)
    out[2:-2] = (
        values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]
    ) / (12.0 * h)
    out[0] = _EDGE0 @ values[:5] / (12.0 * h)
    out[1] = _EDGE1 @ values[:5] / (12.0 * h)
    out[-1] = -(_EDGE0 @ values[-1:-6:-1]) / (12.0 * h)
    out[-2] = -(_EDGE1 @ values[-1:-6:-1]) / (12.0 * h)
    return out


def node_count(f: SampledFunction, threshold: float = 1e-8) -> int:
    """Number of strict sign changes among values above a relative threshold.

    Values with ``|value| <= threshold * max|f|`` are ignored so that numerical
    noise in the exponential tails does not register as nodes.
    """
    vals = f.values
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        return 0
    significant = vals[np.abs(vals) > threshold * peak]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))

"""Uniform 1D grids, sampled functions and their node count.

Nothing here differentiates: every derivative the package uses is in closed
form (W' in the catalog, the ladder's (ψ, ψ'), the algebra's jets).

Importing the module loads no numpy: a Grid is checked with ``math``, and
the functions that sample or read arrays import numpy when they run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray


class Grid(NamedTuple("Grid", [("x_min", float), ("x_max", float), ("n_points", int)])):
    """Uniform grid of ``n_points`` nodes on ``[x_min, x_max]``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, x_min: float, x_max: float, n_points: int):
        self = super().__new__(cls, x_min, x_max, n_points)
        if n_points < 3:
            raise ValueError(f"need at least 3 points, got {n_points}")
        # the referee's second difference divides by h², so h² and 1/h² must
        # be finite; a finite h² implies finite bounds
        h2 = self.h * self.h
        if not (x_min < x_max and math.isfinite(h2) and h2 > 0.0 and math.isfinite(1.0 / h2)):
            raise ValueError(
                f"need finite x_min < x_max and finite h² and 1/h², got "
                f"[{x_min}, {x_max}], h={self.h}"
            )
        return self

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> NDArray[np.float64]:
        import numpy as np

        return np.linspace(self.x_min, self.x_max, self.n_points)



class SampledFunction(NamedTuple("SampledFunction", [("grid", Grid), ("values", "NDArray[np.float64]")])):
    """A real function tabulated on a uniform grid."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, grid: Grid, values):
        import numpy as np

        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_points} points)"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values contain non-finite entries")
        return super().__new__(cls, grid, values)

    def norm(self) -> float:
        """Trapezoidal L2 norm on the grid."""
        import numpy as np

        return float(np.sqrt(np.trapezoid(self.values**2, dx=self.grid.h)))

    def normalized(self) -> "SampledFunction":
        """The state convention shared by every route: unit trapezoidal norm,
        sign chosen so the first value above 1% of the peak is positive."""
        import numpy as np

        n = self.norm()
        if not np.isfinite(n) or n == 0.0:
            raise ValueError(f"cannot normalize: norm is {n}")
        values = self.values / n
        first = np.argmax(np.abs(values) > 1e-2 * np.max(np.abs(values)))
        return SampledFunction(self.grid, -values if values[first] < 0 else values)


# Relative size below which node_count ignores a value.
_NODE_THRESHOLD = 1e-8


def node_count(f: SampledFunction) -> int:
    """Number of strict sign changes among values above a relative threshold.

    Values with ``|value| <= _NODE_THRESHOLD * max|f|`` are ignored so that
    numerical noise in the exponential tails does not register as nodes.
    """
    import numpy as np

    vals = f.values
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        return 0
    significant = vals[np.abs(vals) > _NODE_THRESHOLD * peak]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] * signs[:-1] < 0))

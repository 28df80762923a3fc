"""Bound-state construction from shape invariance.

The partner of V-(x, a) reproduces V-(x, a + δ) up to the constant R(a), so
energies follow from the recursion E₀ = 0, E_n = Σ_{k<n} R(a_k) with
a_k = a₀ + k·δ, and the n-th wavefunction is a chain of raising operators
(-d/dx + W) applied to the ground state of the n-times-shifted member. The
chain carries (ψ, ψ′) and takes no derivative on the grid. With W = W(x; a_k),
the step at a_k is ψₖ = W·ψ - ψ′ and ψₖ′ = ε·ψ - W·ψₖ, exact because ψ solves
H+(a_k) = (d/dx + W)(-d/dx + W) at the energy ε = Σ_{j≥k} R(a_j).

The spectrum is scalar work, a tuple of floats, so importing the module
loads no numpy; the identity check and the ladder import it when they run.
"""

from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, NamedTuple

from .catalog import (
    ParameterPoint,
    _require_level,
    default_grid,
    evaluate_superpotential,
    get_model,
    max_bound_states,
)
from .grids import Grid, SampledFunction, node_count

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

__all__ = [
    "Spectrum",
    "ShapeInvarianceReport",
    "shift_params",
    "spectrum_by_shape_invariance",
    "verify_shape_invariance",
    "ground_state",
    "excited_state_by_ladder",
    "node_count",
    "ROUNDING_FLOOR",
]


class Spectrum:
    """Energies of one potential-family member plus the parameter ladder that
    produced them (a_k for each level). ``len`` is the number of levels."""

    __slots__ = ("model_id", "p0", "energies", "level_params")

    def __init__(self, model_id: str, p0: ParameterPoint, energies, level_params: list[ParameterPoint]):
        energies = tuple(map(float, energies))
        if not energies or energies[0] != 0.0:
            raise ValueError("bound spectra start at exactly E = 0")
        # a difference, not b <= a: levels that overflow to inf are left for
        # the report's finiteness check to name
        if any(b - a <= 0 for a, b in zip(energies, energies[1:])):
            raise ValueError("bound-state energies must increase strictly")
        self.model_id, self.p0, self.energies, self.level_params = model_id, p0, energies, level_params

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __len__(self) -> int:
        return len(self.energies)

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "params": self.p0.as_dict(),
            "energies": list(self.energies),
            "level_a": [p.a for p in self.level_params],
        }


def shift_params(model, p0: ParameterPoint, k: int) -> ParameterPoint:
    """Parameter point after k shifts: a = a₀ + k·δ, auxiliaries unchanged."""
    if k < 0:
        raise ValueError("shift count must be >= 0")
    model = get_model(model)
    return p0.with_a(p0.a + k * model.param_step)


def spectrum_by_shape_invariance(model, p0: ParameterPoint, n_max: int) -> Spectrum:
    """Spectrum from the shape-invariance recursion, truncated to the bound range.

    energies[n] = Σ_{k<n} R(a_k); the ground level is exactly 0. The sums run
    left to right, as numpy's cumsum adds them.
    """
    model = get_model(model)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n_levels = min(n_max, max_bound_states(model, p0))
    points = [shift_params(model, p0, k) for k in range(n_levels)]
    remainders = (model.remainder(p) for p in points[:-1])
    energies = itertools.accumulate(remainders, initial=0.0) if points else ()
    return Spectrum(model.id, p0, energies, points)


class ShapeInvarianceReport(NamedTuple):
    """Max-residual check of V+(x, a_k) = V-(x, a_{k+1}) + R(a_k) per shift k.

    ``residuals`` are the raw max |V+ - V- - R| over the grid; ``excess`` is
    the max over the grid of each point's residual beyond its own rounding
    floor (0 when every point is within it), the figure a verdict judges.
    """

    model_id: str
    p0: ParameterPoint
    grid: Grid
    residuals: NDArray[np.float64]
    excess: NDArray[np.float64]

    @property
    def max_residual(self) -> float:
        import numpy as np

        return float(np.max(self.residuals, initial=0.0))

    @property
    def max_excess(self) -> float:
        import numpy as np

        return float(np.max(self.excess, initial=0.0))

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "params": self.p0.as_dict(),
            "grid": [self.grid.x_min, self.grid.x_max, self.grid.n_points],
            "residuals": self.residuals.tolist(),
            "max_residual": self.max_residual,
            "excess": self.excess.tolist(),
            "max_excess": self.max_excess,
        }


# V+ and V- are each rounded to a few eps of the terms they sum, and on a
# steep wall those are huge (morse at x = -20: V± ≈ 2.4e17, eps·V± ≈ 53), so
# the residual there is rounding. 16·eps times
# |V+| + |V-| + |R| at a point bounds that rounding with room to spare; in
# the well it is ~1e-14, so a wrong identity still shows at full sensitivity.
# The algebra's closure checks and its route comparison scale the same floor.
ROUNDING_FLOOR = 16.0 * sys.float_info.epsilon


def verify_shape_invariance(
    model, p0: ParameterPoint, grid: Grid | None = None, k_max: int = 3
) -> ShapeInvarianceReport:
    """Evaluate the shape-invariance identity numerically for k = 0..k_max-1.

    Residual k is max over interior grid points of
    |V+(x, a_k) - V-(x, a_{k+1}) - R(a_k)|; excess k is the max over the same
    points of that residual less its rounding floor, 16·eps times
    |V+(x, a_k)| + |V-(x, a_{k+1})| + |R(a_k)|. All parameter points through
    a_{k_max} must be valid (InvalidParameterError otherwise).

    W and W′ are evaluated once at each a_k, and V+(a_k) = W_k² + W′_k and
    V-(a_{k+1}) = W_{k+1}² - W′_{k+1} are built from them, the sums
    ``potential_plus`` and ``potential_minus`` form.
    """
    import numpy as np

    model = get_model(model)
    grid = grid or default_grid(model)
    points = [shift_params(model, p0, k) for k in range(k_max + 1)]
    x = grid.x[1:-1]
    residuals = np.empty(k_max)
    excess = np.empty(k_max)
    for k, p in enumerate(points if k_max > 0 else ()):
        # evaluate_superpotential checks p as the partner potentials do
        square, slope = evaluate_superpotential(model, x, p) ** 2, model.w_prime(x, p)
        if k:
            r = model.remainder(points[k - 1])
            lhs = below[0] + below[1]  # V+(a_{k-1})
            v_minus = square - slope  # V-(a_k)
            diff = np.abs(lhs - (v_minus + r))
            floor = ROUNDING_FLOOR * (np.abs(lhs) + np.abs(v_minus) + abs(r))
            residuals[k - 1] = np.max(diff)
            excess[k - 1] = np.max(np.maximum(diff - floor, 0.0))
        below = square, slope
    return ShapeInvarianceReport(model.id, p0, grid, residuals, excess)


def ground_state(model, p: ParameterPoint, grid: Grid | None = None) -> SampledFunction:
    """Nodeless ground state ψ₀ ∝ exp(-∫W): the ladder at n = 0."""
    return excited_state_by_ladder(model, p, 0, grid)


def excited_state_by_ladder(
    model, p0: ParameterPoint, n: int, grid: Grid | None = None
) -> SampledFunction:
    """n-th bound state as a raising chain over the shifted family.

    Anchors on ψ₀(a_n) = exp(-∫W(a_n)), with ψ′ = -W(a_n)·ψ₀, and steps
    (ψ, ψ′) ← (W·ψ - ψ′, ε·ψ - W·(W·ψ - ψ′)) at a_{n-1}, ..., a_0 as the
    module docstring derives; n = 0 returns the ground state itself,
    normalized as every state is (SampledFunction.normalized).
    """
    import numpy as np

    model = get_model(model)
    grid = grid or default_grid(model)
    _require_level(model, p0, n)
    x = grid.x
    top = shift_params(model, p0, n)
    # (ψ, ψ′) = e^log_scale·(u, v), rescaled pointwise at each step: neither a
    # ψ₀ that underflows on a coarse grid nor a growing Wⁿ can lose the state
    log_scale = -np.asarray(model.w_integral(x, top), dtype=float)
    u, v = np.ones_like(x), -model.w(x, top)
    energy = 0.0
    for k in range(n - 1, -1, -1):
        p = shift_params(model, p0, k)
        w = model.w(x, p)
        energy += model.remainder(p)
        u, v = w * u - v, energy * u
        v -= w * u
        scale = np.maximum(np.abs(u), np.abs(v))
        scale[scale == 0.0] = 1.0
        u, v, log_scale = u / scale, v / scale, log_scale + np.log(scale)
    with np.errstate(divide="ignore"):
        log_scale += np.log(np.abs(u))
    psi = np.copysign(np.exp(log_scale - np.max(log_scale)), u)
    return SampledFunction(grid, psi).normalized()

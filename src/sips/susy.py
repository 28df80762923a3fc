"""Bound-state construction from shape invariance.

The partner of V-(x, a) reproduces V-(x, a + δ) up to the constant R(a), so
energies follow from the recursion E₀ = 0, E_n = Σ_{k<n} R(a_k) with
a_k = a₀ + k·δ, and the n-th wavefunction is a chain of raising operators
(-d/dx + W) applied to the ground state of the n-times-shifted member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import cumulative_simpson

from .catalog import (
    ParameterPoint,
    _require_valid,
    get_model,
    max_bound_states,
    potential_minus,
    potential_plus,
)
from .errors import InvalidParameterError, LevelOutOfRangeError
from .grids import DEFAULT_GRID, Grid, SampledFunction, derivative, node_count

__all__ = [
    "Spectrum",
    "ShapeInvarianceReport",
    "shift_params",
    "spectrum_by_shape_invariance",
    "verify_shape_invariance",
    "ground_state",
    "apply_a_plus",
    "excited_state_by_ladder",
    "node_count",
]


@dataclass
class Spectrum:
    """Energies of one potential-family member plus the parameter ladder that
    produced them (a_k for each level)."""

    model_id: str
    p0: ParameterPoint
    energies: NDArray[np.float64]
    level_params: list[ParameterPoint]

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        if self.energies.size == 0 or self.energies[0] != 0.0:
            raise ValueError("bound spectra start at exactly E = 0")
        if np.any(np.diff(self.energies) <= 0):
            raise ValueError("bound-state energies must increase strictly")

    def __len__(self) -> int:
        return self.energies.size

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "params": {"a": self.p0.a, **dict(self.p0.aux)},
            "energies": self.energies.tolist(),
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

    energies[n] = Σ_{k<n} R(a_k); the ground level is exactly 0.
    """
    model = get_model(model)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n_levels = min(n_max, max_bound_states(model, p0))
    points = [shift_params(model, p0, k) for k in range(n_levels)]
    energies = np.zeros(n_levels)
    if n_levels > 1:
        energies[1:] = np.cumsum([model.remainder(p) for p in points[:-1]])
    return Spectrum(model.id, p0, energies, points)


@dataclass
class ShapeInvarianceReport:
    """Max-residual check of V+(x, a_k) = V-(x, a_{k+1}) + R(a_k) per shift k."""

    model_id: str
    p0: ParameterPoint
    grid: Grid
    residuals: NDArray[np.float64]

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals, initial=0.0))

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "params": {"a": self.p0.a, **dict(self.p0.aux)},
            "grid": [self.grid.x_min, self.grid.x_max, self.grid.n_points],
            "residuals": self.residuals.tolist(),
            "max_residual": self.max_residual,
        }


def verify_shape_invariance(
    model, p0: ParameterPoint, grid: Grid | None = None, k_max: int = 3
) -> ShapeInvarianceReport:
    """Evaluate the shape-invariance identity numerically for k = 0..k_max-1.

    Residual k is max over interior grid points of
    |V+(x, a_k) - V-(x, a_{k+1}) - R(a_k)|; all parameter points through
    a_{k_max} must be valid.
    """
    model = get_model(model)
    grid = grid or DEFAULT_GRID
    points = [shift_params(model, p0, k) for k in range(k_max + 1)]
    for p in points:
        if not model.param_valid(p):
            raise InvalidParameterError(
                f"{model.id}: shifted parameter a={p.a} leaves the valid range "
                f"({model.validity}); reduce k_max or start higher"
            )
    x = grid.x[1:-1]
    residuals = np.empty(k_max)
    for k in range(k_max):
        lhs = potential_plus(model, x, points[k])
        rhs = potential_minus(model, x, points[k + 1]) + model.remainder(points[k])
        residuals[k] = np.max(np.abs(lhs - rhs))
    return ShapeInvarianceReport(model.id, p0, grid, residuals)


def ground_state(
    model,
    p: ParameterPoint,
    grid: Grid | None = None,
    x_ref: float = 0.0,
) -> SampledFunction:
    """Nodeless ground state ψ₀ ∝ exp(-∫_{x_ref}^x W), trapezoid-normalized.

    The exponent is accumulated by cumulative Simpson quadrature and kept in
    log space until the very end, so steep superpotentials cannot overflow.
    The reference point only changes ψ₀ by a constant factor, which
    normalization removes.
    """
    model = get_model(model)
    grid = grid or DEFAULT_GRID
    _require_valid(model, p)
    x = grid.x
    w = np.asarray(model.w(x, p), dtype=float)
    integral = cumulative_simpson(w, dx=grid.h, initial=0.0)
    log_psi = -(integral - np.interp(x_ref, x, integral))
    log_psi -= np.max(log_psi)
    psi = SampledFunction(grid, np.exp(log_psi))
    norm = psi.norm()
    if not np.isfinite(norm) or norm == 0.0:
        raise InvalidParameterError(
            f"{model.id}: ground state at a={p.a} is not normalizable on this grid"
        )
    return SampledFunction(grid, psi.values / norm)


def apply_a_plus(model, p: ParameterPoint, f: SampledFunction) -> SampledFunction:
    """Raising operator (-d/dx + W(x; p)) applied with 5-point stencils."""
    model = get_model(model)
    w = np.asarray(model.w(f.grid.x, p), dtype=float)
    raised = -derivative(f.values, f.grid.h) + w * f.values
    return SampledFunction(f.grid, raised)


def _sign_fixed(values: NDArray[np.float64]) -> NDArray[np.float64]:
    sizable = np.abs(values) > 1e-2 * np.max(np.abs(values))
    first = int(np.argmax(sizable))
    return -values if values[first] < 0 else values


def excited_state_by_ladder(
    model, p0: ParameterPoint, n: int, grid: Grid | None = None
) -> SampledFunction:
    """n-th bound state as a raising chain over the shifted family.

    Anchors on the ground state of the n-times-shifted member and applies the
    raising operator at a_{n-1}, ..., a_0; n = 0 returns the ground state
    itself. Unit norm, sign fixed so the leading lobe is positive.
    """
    model = get_model(model)
    grid = grid or DEFAULT_GRID
    n_levels = max_bound_states(model, p0)
    if not 0 <= n < n_levels:
        raise LevelOutOfRangeError(
            f"{model.id}: level n={n} outside bound range 0..{n_levels - 1}"
        )
    psi = ground_state(model, shift_params(model, p0, n), grid)
    for k in range(n - 1, -1, -1):
        psi = apply_a_plus(model, shift_params(model, p0, k), psi)
    psi = psi.normalized()
    return SampledFunction(grid, _sign_fixed(psi.values))

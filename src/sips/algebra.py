"""SO(2,1) potential algebra realized on m-sectors.

The auxiliary angle that carries the ladder index is never discretized: a
function f(x)·e^{imφ} is represented by the pair (m, f), and the e^{±iφ}
factors in the ladder generators act exactly as m → m ± 1. On sector m the
generators reduce to first-order operators in x with the superpotential
evaluated at the operator-valued parameter, i.e. at a = m ± 1/2:

    j₊ : (m, f) → (m + 1, [ +f' - W(x, m + 1/2)·f ])
    j₋ : (m, f) → (m - 1, [ -f' - W(x, m - 1/2)·f ])
    j₃ : (m, f) → (m, m·f)

For models whose remainder R(a) is linear with slope 2 (scarf, poschl_teller,
morse) the three close into SO(2,1): [j₃, j±] = ±j± and [j₊, j₋] = -2·j₃, and
the product j₊j₋ on sector m is the member Hamiltonian at a = m - 1/2. The
closure checks below verify all of this numerically; W enters analytically
and only f is differentiated (5-point stencils).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .catalog import ParameterPoint, _partner_potential, get_model, max_bound_states
from .errors import BoundaryContaminationError, NotSO21Error
from .grids import SampledFunction, derivative
from .susy import Spectrum

__all__ = [
    "SectorFunction",
    "So21Check",
    "apply_j3",
    "apply_j_plus",
    "apply_j_minus",
    "commutator_j3_residual",
    "closure_residual",
    "energy_from_algebra",
    "algebra_spectrum",
    "is_so21",
]

# Probe points for the linearity test on R(a).
_R_PROBES = (0.75, 1.5, 2.0, 3.25, 5.0)


@dataclass
class SectorFunction:
    """A grid function tagged with its ladder index m (the j₃ eigenvalue)."""

    m: float
    f: SampledFunction


def _sector_point(m_shifted: float, p: ParameterPoint | None) -> ParameterPoint:
    # Algebra bookkeeping may pass through a = m ± 1/2 values that a bound-state
    # calculation would reject (e.g. a = 0), so W is evaluated unchecked.
    return ParameterPoint(m_shifted, p.aux if p is not None else {})


def apply_j3(s: SectorFunction) -> SectorFunction:
    """j₃ is diagonal on sectors: multiplies by m."""
    return SectorFunction(s.m, SampledFunction(s.f.grid, s.m * s.f.values))


def _apply_ladder(model, s: SectorFunction, p: ParameterPoint | None, sign: float) -> SectorFunction:
    model = get_model(model)
    grid = s.f.grid
    w = np.asarray(model.w(grid.x, _sector_point(s.m + 0.5 * sign, p)), dtype=float)
    values = sign * derivative(s.f.values, grid.h) - w * s.f.values
    return SectorFunction(s.m + sign, SampledFunction(grid, values))


def apply_j_plus(model, s: SectorFunction, p: ParameterPoint | None = None) -> SectorFunction:
    """Raise the sector: m → m + 1, values +f' - W(x, m + 1/2)·f."""
    return _apply_ladder(model, s, p, 1.0)


def apply_j_minus(model, s: SectorFunction, p: ParameterPoint | None = None) -> SectorFunction:
    """Lower the sector: m → m - 1, values -f' - W(x, m - 1/2)·f."""
    return _apply_ladder(model, s, p, -1.0)


def _l2(values: NDArray[np.float64]) -> float:
    return float(np.linalg.norm(values))


def commutator_j3_residual(model, s: SectorFunction, p: ParameterPoint | None = None) -> dict:
    """Residuals of [j₃, j±] = ±j± on the given sector function.

    Exact up to float rounding: the sector shift is bookkeeping, so this is a
    regression guard, not a discretization test.
    """
    out = {}
    for name, ladder, sign in (
        ("plus", apply_j_plus, +1.0),
        ("minus", apply_j_minus, -1.0),
    ):
        jf = ladder(model, s, p)
        j3_jf = apply_j3(jf).f.values
        j_j3f = ladder(model, SectorFunction(s.m, apply_j3(s).f), p).f.values
        commutator = j3_jf - j_j3f
        out[name] = _l2(commutator - sign * jf.f.values) / _l2(jf.f.values)
    return out


def _check_boundary(s: SectorFunction) -> None:
    grid = s.f.grid
    x = grid.x
    outside = (x < grid.x_min + 2.0) | (x > grid.x_max - 2.0)
    total = _l2(s.f.values)
    if total == 0.0 or _l2(s.f.values[outside]) > 1e-10 * total:
        raise BoundaryContaminationError(
            "test function is not negligible within 2 units of the grid edge; "
            "widen the box or use a more compact function"
        )


def closure_residual(model, s: SectorFunction, p: ParameterPoint | None = None) -> dict:
    """Residual of the closure relation [j₊, j₋] = -R(a = m + 1/2) on sector m.

    For slope-2 models R(m + 1/2) = 2m, i.e. the commutator acts as -2·j₃.
    Returns the relative residual together with the two operator-product
    residuals against their second-order forms:

        j₊j₋ ↔ -f'' + V-(x, m - 1/2)·f
        j₋j₊ ↔ -f'' + V+(x, m + 1/2)·f

    The second derivative is applied as two passes of the first-derivative
    stencil, exactly as the commutator itself computes it.
    """
    model = get_model(model)
    _check_boundary(s)
    grid = s.f.grid
    f = s.f.values
    norm_f = _l2(f)

    jp_jm = apply_j_plus(model, apply_j_minus(model, s, p), p).f.values
    jm_jp = apply_j_minus(model, apply_j_plus(model, s, p), p).f.values
    commutator = jp_jm - jm_jp
    p_minus = _sector_point(s.m - 0.5, p)
    p_plus = _sector_point(s.m + 0.5, p)
    r_value = model.remainder(p_plus)
    closure = _l2(commutator + r_value * f) / norm_f

    # Same double-stencil second derivative for the reference Hamiltonians.
    f_xx = derivative(derivative(f, grid.h), grid.h)
    v_minus = _partner_potential(model, grid.x, p_minus, -1.0)
    v_plus = _partner_potential(model, grid.x, p_plus, 1.0)
    product_pm = _l2(jp_jm - (-f_xx + v_minus * f)) / norm_f
    product_mp = _l2(jm_jp - (-f_xx + v_plus * f)) / norm_f

    return {
        "closure": closure,
        "remainder_value": r_value,
        "product_plus_minus": product_pm,
        "product_minus_plus": product_mp,
    }


def energy_from_algebra(m: float, j: float) -> float:
    """Energy of the |j, m⟩ state of the sector Hamiltonian: m² - m - j(j+1)."""
    return m * m - m - j * (j + 1.0)


@dataclass
class So21Check:
    """Outcome of the SO(2,1) membership test with per-probe diagnostics."""

    model_id: str
    is_so21: bool
    reason: str
    probe_a: tuple[float, ...] = _R_PROBES
    probe_residuals: tuple[float, ...] = ()

    def __bool__(self) -> bool:
        return self.is_so21


def is_so21(model) -> So21Check:
    """A model joins the SO(2,1) class iff δ = -1 and R(a) = 2a - 1 exactly.

    Linearity with slope 2 is probed at five parameter values; anything else
    (e.g. the oscillator's constant R with δ = 0) is rejected with the probe
    residuals attached.
    """
    model = get_model(model)
    residuals = tuple(
        abs(model.remainder(ParameterPoint(a)) - (2.0 * a - 1.0)) for a in _R_PROBES
    )
    if model.param_step != -1.0:
        return So21Check(model.id, False, f"parameter step is {model.param_step}, not -1", _R_PROBES, residuals)
    if max(residuals) >= 1e-12:
        return So21Check(
            model.id, False, "remainder is not 2a - 1 at probe points", _R_PROBES, residuals
        )
    return So21Check(model.id, True, "remainder linear with slope 2 and step -1", _R_PROBES, residuals)


def algebra_spectrum(model, m: float, n_max: int, aux: dict | None = None) -> Spectrum:
    """Spectrum through the algebra route: sector m hosts the family member
    with a₀ = m - 1/2, and E_n is the catalog's closed form n·(2a₀ - n).

    Only defined for models in the SO(2,1) class.
    """
    model = get_model(model)
    check = is_so21(model)
    if not check:
        raise NotSO21Error(f"{model.id}: {check.reason}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a0 = m - 0.5
    p0 = ParameterPoint(a0, aux or {})
    n_levels = min(n_max, max_bound_states(model, p0))
    energies = [model.energy(p0, n) for n in range(n_levels)]
    points = [p0.with_a(a0 - k) for k in range(n_levels)]
    return Spectrum(model.id, p0, energies, points)

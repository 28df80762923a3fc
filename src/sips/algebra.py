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
closure [j₊, j₋] = -R(m + 1/2) is the shape-invariance identity
V+(x, m + 1/2) = V-(x, m - 1/2) + R(m + 1/2) in operator form.

Nothing is differentiated on the grid: a test function is carried as its jet
(f, f', f''), and a ladder step maps it to (g, g') with g = ±f' - W·f and
g' = ±f'' - W'·f - W·f', from W and W' alone, as the susy ladder carries
(ψ, ψ'). The checks below therefore measure the algebra to within rounding.

The spectrum is read off representation labels (``unireps``): the member a
sits in sector m = a + 1/2 (``sector_of``, whose inverse is ``member_of``),
and its level n is |j = n - m, m⟩ in the D⁺ multiplet with bottom
m₀ = m - n, at the energy m² - m - j(j+1). ``compare_routes`` sets those
levels against Σ R for the same member and gives the verdict that
``spectrum --route both`` reports.
That route is scalar, so importing the module loads no numpy; the jet and
closure functions import it when they run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .catalog import ParameterPoint, _partner_potential, get_model, max_bound_states
from .errors import NotSO21Error
from .grids import Grid, SampledFunction
from .susy import ROUNDING_FLOOR, Spectrum
from .unireps import classify

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

__all__ = [
    "SectorFunction",
    "So21Check",
    "RouteComparison",
    "sector_of",
    "member_of",
    "gaussian_suite",
    "apply_j3",
    "apply_j_plus",
    "apply_j_minus",
    "commutator_j3_residual",
    "closure_residual",
    "energy_from_algebra",
    "algebra_spectrum",
    "compare_routes",
    "is_so21",
]

# Probe points for the linearity test on R(a).
_R_PROBES = (0.75, 1.5, 2.0, 3.25, 5.0)


class SectorFunction(
    NamedTuple(
        "SectorFunction",
        [("m", float), ("f", SampledFunction), ("derivatives", "tuple[NDArray[np.float64], ...]")],
    )
):
    """A test function on sector m (the j₃ eigenvalue), carried as a jet:
    ``f`` and its exact derivatives on the same grid, ``derivatives`` =
    (f',) or (f', f''). Each ladder step uses up one derivative."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: float, f: SampledFunction, derivatives=()):
        import numpy as np

        derivatives = tuple(np.asarray(d, dtype=float) for d in derivatives)
        # the ladder knows W and W' only, so it can carry no derivative past f''
        if len(derivatives) > 2 or any(d.shape != f.values.shape for d in derivatives):
            raise ValueError("a jet holds f' and at most f'', each sampled on the grid of f")
        return super().__new__(cls, m, f, derivatives)


def sector_of(a: float) -> float:
    """The sector m = a + 1/2 in which the member a sits."""
    return a + 0.5


def member_of(m: float) -> float:
    """The member a = m - 1/2 that sits in sector m: ``sector_of`` inverted."""
    return m - 0.5


def gaussian_suite(grid: Grid, m: float) -> dict[str, SectorFunction]:
    """The closure checks' test functions on sector m, each with its
    closed-form f' and f'': e^{-x²}, x·e^{-x²} and e^{-(x-1)²/2}."""
    import numpy as np

    x = grid.x
    g = np.exp(-(x**2))
    u = x - 1.0
    g_off = np.exp(-(u**2) / 2.0)
    jets = {
        "gaussian": (g, -2.0 * x * g, (4.0 * x**2 - 2.0) * g),
        "odd_gaussian": (x * g, (1.0 - 2.0 * x**2) * g, (4.0 * x**2 - 6.0) * x * g),
        "offset_gaussian": (g_off, -u * g_off, (u**2 - 1.0) * g_off),
    }
    return {
        name: SectorFunction(m, SampledFunction(grid, f), derivatives)
        for name, (f, *derivatives) in jets.items()
    }


def _sector_point(m_shifted: float, p: ParameterPoint | None) -> ParameterPoint:
    # Algebra bookkeeping may pass through a = m ± 1/2 values that a bound-state
    # calculation would reject (e.g. a = 0), so W is evaluated unchecked.
    return ParameterPoint(m_shifted, p.aux if p is not None else {})


def apply_j3(s: SectorFunction) -> SectorFunction:
    """j₃ is diagonal on sectors: multiplies the jet by m."""
    return SectorFunction(
        s.m, SampledFunction(s.f.grid, s.m * s.f.values), tuple(s.m * d for d in s.derivatives)
    )


def _apply_ladder(model, s: SectorFunction, p: ParameterPoint | None, sign: float) -> SectorFunction:
    import numpy as np

    if not s.derivatives:
        raise ValueError("the test function's jet has no derivative left for a ladder step")
    model = get_model(model)
    grid = s.f.grid
    x = grid.x  # a fresh linspace on each read
    point = _sector_point(s.m + 0.5 * sign, p)
    w = np.asarray(model.w(x, point), dtype=float)
    f, (df, *d2f) = s.f.values, s.derivatives
    dg = tuple(sign * d2 - model.w_prime(x, point) * f - w * df for d2 in d2f)
    return SectorFunction(s.m + sign, SampledFunction(grid, sign * df - w * f), dg)


def apply_j_plus(model, s: SectorFunction, p: ParameterPoint | None = None) -> SectorFunction:
    """Raise the sector: m → m + 1, values +f' - W(x, m + 1/2)·f."""
    return _apply_ladder(model, s, p, 1.0)


def apply_j_minus(model, s: SectorFunction, p: ParameterPoint | None = None) -> SectorFunction:
    """Lower the sector: m → m - 1, values -f' - W(x, m - 1/2)·f."""
    return _apply_ladder(model, s, p, -1.0)


def _l2(values: NDArray[np.float64]) -> float:
    import numpy as np

    return float(np.linalg.norm(values))


def commutator_j3_residual(model, s: SectorFunction, p: ParameterPoint | None = None) -> dict:
    """Residuals of [j₃, j±] = ±j± on the given sector function.

    Exact up to float rounding: the sector shift is bookkeeping, so this is a
    regression guard, not a discretization test.
    """
    # one ladder step reads only f', so the jet is cut there
    s = SectorFunction(s.m, s.f, s.derivatives[:1])
    out = {}
    for name, ladder, sign in (
        ("plus", apply_j_plus, +1.0),
        ("minus", apply_j_minus, -1.0),
    ):
        jf = ladder(model, s, p)
        j3_jf = apply_j3(jf).f.values
        j_j3f = ladder(model, apply_j3(s), p).f.values
        commutator = j3_jf - j_j3f
        out[name] = _l2(commutator - sign * jf.f.values) / _l2(jf.f.values)
    return out


def closure_residual(model, s: SectorFunction, p: ParameterPoint | None = None) -> dict:
    """Residual of the closure relation [j₊, j₋] = -R(a = m + 1/2) on sector m.

    For slope-2 models R(m + 1/2) = 2m, i.e. the commutator acts as -2·j₃.
    Returns the relative residual together with the two operator-product
    residuals against their second-order forms, which use the jet's f'':

        j₊j₋ ↔ -f'' + V-(x, m - 1/2)·f
        j₋j₊ ↔ -f'' + V+(x, m + 1/2)·f

    and ``rounding_floor``, 16·eps·max(‖(|V+| + |V-| + |R|)·f‖ / ‖f‖, |m|),
    what rounding alone can give these residuals (verify_shape_invariance's
    floor) and commutator_j3_residual's (j₃ scales the jet by m).
    """
    import numpy as np

    model = get_model(model)
    f = s.f.values
    norm_f = _l2(f)
    if norm_f == 0.0:
        raise ValueError("test function vanishes on the grid; no residual can be scaled by its norm")

    jp_jm = apply_j_plus(model, apply_j_minus(model, s, p), p).f.values
    jm_jp = apply_j_minus(model, apply_j_plus(model, s, p), p).f.values
    commutator = jp_jm - jm_jp
    p_minus = _sector_point(s.m - 0.5, p)
    p_plus = _sector_point(s.m + 0.5, p)
    r_value = model.remainder(p_plus)
    closure = _l2(commutator + r_value * f) / norm_f

    f_xx = s.derivatives[1]
    x = s.f.grid.x
    v_minus = _partner_potential(model, x, p_minus, -1.0)
    v_plus = _partner_potential(model, x, p_plus, 1.0)
    product_pm = _l2(jp_jm - (-f_xx + v_minus * f)) / norm_f
    product_mp = _l2(jm_jp - (-f_xx + v_plus * f)) / norm_f
    floor = max(_l2((np.abs(v_plus) + np.abs(v_minus) + abs(r_value)) * f) / norm_f, abs(s.m))

    return {
        "closure": closure,
        "remainder_value": r_value,
        "product_plus_minus": product_pm,
        "product_minus_plus": product_mp,
        "rounding_floor": ROUNDING_FLOOR * floor,
    }


def energy_from_algebra(m: float, j: float) -> float:
    """Energy of the |j, m⟩ state of the sector Hamiltonian, m² - m - j(j+1),
    factored as (m + j)(m - j - 1): no cancellation, exactly 0 at j = m - 1."""
    return (m + j) * (m - j - 1.0)


class So21Check(NamedTuple):
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


def algebra_spectrum(model, p0: ParameterPoint, n_max: int) -> Spectrum:
    """Spectrum of the member p0 through the algebra route, for SO(2,1) models
    only: the member a = p0.a sits in sector m = a + 1/2, and level n is
    |j = n - m, m⟩ in the D⁺ multiplet ``classify(n - m, m - n)`` with bottom
    m₀ = m - n. Its energy is the Casimir form m² - m - j(j+1) = n·((m - 1) + m₀),
    one rounding in the sum; the step count n stands for m + j, which loses n
    once m > 2⁵³. Level 0, the bottom of the multiplet, is 0 exactly, also
    where (m - 1) + m₀ overflows. Levels run while the bottom member a - n is
    bound (n below max_bound_states at p0), where j < -1/2: every label is D⁺.
    """
    model = get_model(model)
    check = is_so21(model)
    if not check:
        raise NotSO21Error(f"{model.id}: {check.reason}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = sector_of(p0.a)
    n_levels = min(n_max, max_bound_states(model, p0))
    labels = [classify(n - m, m - n) for n in range(n_levels)]
    energies = [n * ((m - 1.0) + label.m0) if n else 0.0 for n, label in enumerate(labels)]
    points = [p0.with_a(p0.a - k) for k in range(n_levels)]
    return Spectrum(model.id, p0, energies, points)


class RouteComparison(NamedTuple):
    """The two routes' levels for one member, side by side: the largest
    |E_shape - E_algebra| and whether every level n agrees to within the
    rounding floor ROUNDING_FLOOR·n·|E_n|."""

    max_discrepancy: float
    agree: bool


def compare_routes(shape: Spectrum, algebra: Spectrum) -> RouteComparison:
    """Set the shape-invariance spectrum against the algebra's for the same
    member. Level n of the shape route is a partial sum of n positive terms,
    which rounds by about n·eps·E_n, so a gap at level n counts as a
    disagreement only beyond ROUNDING_FLOOR·n·|E_n|, with E_n the algebra's
    level; both ground levels are exactly 0."""
    gaps = [abs(e_shape - e) for e_shape, e in zip(shape.energies, algebra.energies)]
    agree = not any(
        gap > ROUNDING_FLOOR * n * abs(e) for n, (gap, e) in enumerate(zip(gaps, algebra.energies))
    )
    return RouteComparison(max(gaps), agree)

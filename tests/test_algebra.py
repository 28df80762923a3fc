import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sips import (
    Grid,
    NotSO21Error,
    ParameterPoint,
    RepClass,
    SampledFunction,
    SectorFunction,
    algebra_spectrum,
    apply_j3,
    apply_j_minus,
    apply_j_plus,
    closure_residual,
    commutator_j3_residual,
    energy_from_algebra,
    get_model,
    ground_state,
    is_so21,
    spectrum,
    spectrum_by_shape_invariance,
)
from sips import algebra, unireps
from sips.algebra import gaussian_suite
from sips.susy import ROUNDING_FLOOR, Spectrum


_SUITE_NAMES = {"gaussian": "gaussian", "odd": "odd_gaussian", "offset": "offset_gaussian"}


def gaussian_sector(grid, m, kind="gaussian"):
    return gaussian_suite(grid, m)[_SUITE_NAMES[kind]]


def test_suite_jets_match_numerical_derivatives():
    # each closed-form f' and f'' against second-order differences of the
    # closed form one level down, on a grid fine enough for 1e-6
    grid = Grid(-10.0, 10.0, 40001)
    for name, s in gaussian_suite(grid, 0.0).items():
        f, (df, d2f) = s.f.values, s.derivatives
        assert np.max(np.abs(np.gradient(f, grid.h) - df)[1:-1]) < 1e-6, name
        assert np.max(np.abs(np.gradient(df, grid.h) - d2f)[1:-1]) < 1e-6, name


def test_each_ladder_step_uses_up_one_derivative(ref_grid):
    s = gaussian_sector(ref_grid, 2.0)
    once = apply_j_plus("scarf", s)
    twice = apply_j_minus("scarf", once)
    assert (len(s.derivatives), len(once.derivatives), len(twice.derivatives)) == (2, 1, 0)
    with pytest.raises(ValueError, match="no derivative left"):
        apply_j_plus("scarf", twice)


def test_jet_derivatives_must_share_the_grid(ref_grid):
    f = SampledFunction(ref_grid, np.zeros(ref_grid.n_points))
    with pytest.raises(ValueError, match="grid of f"):
        SectorFunction(1.0, f, (np.zeros(3),))
    with pytest.raises(ValueError, match="at most f''"):
        SectorFunction(1.0, f, (f.values,) * 3)


def test_j3_scales_by_sector_index(ref_grid):
    for m in (2.0, 0.0, -1.5):
        s = gaussian_sector(ref_grid, m)
        out = apply_j3(s)
        assert out.m == m
        assert np.allclose(out.f.values, m * s.f.values)


def test_ladder_changes_sector_by_one(ref_grid):
    s = gaussian_sector(ref_grid, 2.0)
    assert apply_j_plus("scarf", s, ParameterPoint(2.0, {"B": 1.0})).m == 3.0
    assert apply_j_minus("scarf", s, ParameterPoint(2.0, {"B": 1.0})).m == 1.0


def test_ladder_is_linear_in_zero(ref_grid):
    zeros = np.zeros(ref_grid.n_points)
    zero = SectorFunction(1.0, SampledFunction(ref_grid, zeros), (zeros, zeros))
    assert np.all(apply_j_plus("scarf", zero).f.values == 0.0)
    assert np.all(apply_j_minus("scarf", zero).f.values == 0.0)


def test_lowering_annihilates_sector_ground_state(ref_grid):
    # j+j- equals the member Hamiltonian at a = m - 1/2, whose ground state
    # must therefore be killed by j-
    m = 3.5
    p = ParameterPoint(m - 0.5, {"B": 1.0})
    psi0 = ground_state("scarf", p, ref_grid)
    # ψ₀' = -W(a)·ψ₀
    dpsi0 = -get_model("scarf").w(ref_grid.x, p) * psi0.values
    out = apply_j_minus("scarf", SectorFunction(m, psi0, (dpsi0,)), p)
    assert np.linalg.norm(out.f.values) < 1e-12 * np.linalg.norm(psi0.values)
    assert out.m == m - 1.0


@pytest.mark.parametrize(
    "model_id,m,aux",
    [("scarf", 2.0, {"B": 1.0}), ("oscillator", 1.0, {}), ("scarf", -0.5, {"B": 1.0})],
)
def test_j3_ladder_commutator(ref_grid, model_id, m, aux):
    s = gaussian_sector(ref_grid, m)
    residuals = commutator_j3_residual(model_id, s, ParameterPoint(m, aux))
    assert residuals["plus"] < 1e-12
    assert residuals["minus"] < 1e-12


@pytest.mark.parametrize("m", [0.5, 2.0, 3.5])
@pytest.mark.parametrize("kind", ["gaussian", "odd", "offset"])
def test_closure_scarf(ref_grid, m, kind):
    s = gaussian_sector(ref_grid, m, kind)
    report = closure_residual("scarf", s, ParameterPoint(m, {"B": 1.0}))
    # exact derivatives: what is left is rounding
    assert report["closure"] < 1e-12
    assert report["remainder_value"] == pytest.approx(2.0 * m)
    assert report["product_plus_minus"] < 1e-12
    assert report["product_minus_plus"] < 1e-12
    assert report["rounding_floor"] < 1e-12


def test_closure_oscillator_constant_remainder(ref_grid):
    # R = 2 is constant, yet on any one sector [j+, j-] = -R still holds
    report = closure_residual("oscillator", gaussian_sector(ref_grid, 1.3))
    assert report["closure"] < 1e-12
    assert report["remainder_value"] == 2.0


@pytest.mark.parametrize("m", [10.0, 1e3, 1e6])
@pytest.mark.parametrize("model_id,aux", [("scarf", {"B": 1.0}), ("morse", {"B": 1.0}), ("oscillator", {})])
def test_rounding_floor_bounds_residuals_at_large_m(model_id, aux, m):
    # V± grow like m² and j3 scales by m: the residuals grow with them, and
    # the floor must stay above every one
    grid = Grid(*get_model(model_id).default_box, 4001)
    p = ParameterPoint(m, aux)
    for s in gaussian_suite(grid, m).values():
        closure = closure_residual(model_id, s, p)
        j3 = commutator_j3_residual(model_id, s, p)
        residuals = (j3["plus"], j3["minus"], closure["closure"],
                     closure["product_plus_minus"], closure["product_minus_plus"])
        assert max(residuals) < closure["rounding_floor"]


def test_energy_from_algebra_values():
    assert energy_from_algebra(3.5, -2.5) == pytest.approx(5.0)
    assert energy_from_algebra(3.5, -1.5) == pytest.approx(8.0)


@given(m=st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_energy_vanishes_on_ground_label(m):
    # j = m - 1 makes |j, m> the zero-energy state of its sector
    assert energy_from_algebra(m, m - 1.0) == pytest.approx(0.0, abs=1e-10)


def test_energy_from_algebra_exact_at_large_m():
    # m² - m - j(j+1) cancels to 4000000000 here; (m + j)(m - j - 1) is exact
    m = 1e9 + 0.5
    assert energy_from_algebra(m, 2.0 - m) == 3999999996.0


@given(a=st.floats(0.0, 1e200, exclude_min=True), n_max=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_algebra_route_labels_are_d_plus(a, n_max):
    # level n of the member a, in sector m = a + 1/2, is the bound-below
    # multiplet whose bottom is m - n
    m = a + 0.5
    labels = []

    def recording(j, m0):
        labels.append((j, m0, unireps.classify(j, m0)))
        return labels[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "classify", recording)
        spec = algebra_spectrum("scarf", ParameterPoint(a, {"B": 1.0}), n_max)
    assert len(labels) == len(spec)
    for n, (j, m0, label) in enumerate(labels):
        assert (j, m0) == (n - m, m - n)
        assert label.rep_class is RepClass.D_PLUS
        assert label.m0 == m - n


def test_algebra_spectrum_scarf():
    spec = algebra_spectrum("scarf", ParameterPoint(3.0, {"B": 1.0}), 3)
    assert np.allclose(spec.energies, [0.0, 5.0, 8.0], atol=0)
    assert spec.energies[0] == 0.0


@pytest.mark.parametrize("a", [1e308, 9e307, 1.7976931348623157e308])
def test_algebra_spectrum_ground_level_is_zero_where_levels_overflow(a):
    # (m - 1) + m₀ overflows, and level 0 is not 0·inf = nan: the spectrum
    # stands, and the report's finiteness check names the inf level
    spec = algebra_spectrum("poschl_teller", ParameterPoint(a), 3)
    assert spec.energies == (0.0, np.inf, np.inf)


def test_algebra_spectrum_rejects_oscillator():
    with pytest.raises(NotSO21Error):
        algebra_spectrum("oscillator", ParameterPoint(1.5), 3)


@pytest.mark.parametrize("n_max", [0, -1])
def test_both_routes_reject_empty_spectrum(n_max):
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        algebra_spectrum("scarf", ParameterPoint(3.0, {"B": 1.0}), n_max)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        spectrum_by_shape_invariance("scarf", ParameterPoint(3.0, {"B": 1.0}), n_max)


@pytest.mark.parametrize(
    "model_id,expected", [("scarf", True), ("poschl_teller", True), ("morse", True), ("oscillator", False)]
)
def test_is_so21(model_id, expected):
    check = is_so21(model_id)
    assert bool(check) is expected
    assert len(check.probe_residuals) == 5
    if expected:
        assert max(check.probe_residuals) < 1e-12


@pytest.mark.parametrize("m,a0,n", [(3.5, 3.0, 3), (5.5, 5.0, 5)])
def test_two_routes_agree(m, a0, n):
    # sector m hosts the member a0 = m - 1/2, and both routes take that member
    p0 = ParameterPoint(a0, {"B": 1.0})
    assert p0.a + 0.5 == m
    by_shape = spectrum_by_shape_invariance("scarf", p0, n)
    by_algebra = algebra_spectrum("scarf", p0, n)
    assert len(by_shape) == len(by_algebra) == n
    assert np.max(np.abs(np.asarray(by_shape.energies) - by_algebra.energies)) < 1e-12


def test_two_routes_agree_poschl_teller():
    by_shape = spectrum_by_shape_invariance("poschl_teller", ParameterPoint(4.0), 4)
    by_algebra = algebra_spectrum("poschl_teller", ParameterPoint(4.0), 4)
    assert np.max(np.abs(np.asarray(by_shape.energies) - by_algebra.energies)) < 1e-12


def test_sector_hamiltonian_spectrum_matches_oracle(ref_grid):
    # the sector product j+j- on sector m = a + 1/2 is the member Hamiltonian
    # at a; its closed-form levels must match the eigensolver on that potential
    p0 = ParameterPoint(3.0, {"B": 1.0})
    spec = algebra_spectrum("scarf", p0, 3)
    numeric = spectrum("scarf", p0, ref_grid, 3)
    assert np.max(np.abs(spec.energies - numeric)) < 2e-3


@given(st.integers(-2**40, 2**40).map(lambda k: k / 64.0))
def test_sector_map_round_trip(a):
    # the member a sits in sector m = a + 1/2, and that sector hosts a again
    m = algebra.sector_of(a)
    assert m == a + 0.5
    assert algebra.member_of(m) == a
    assert algebra.sector_of(algebra.member_of(m)) == m


@pytest.mark.parametrize("ulps,agree", [(31, True), (32, True), (33, False)])
def test_route_verdict_at_the_rounding_floor(ulps, agree):
    # level 2 at E = 4 may differ by ROUNDING_FLOOR·2·4 = 128·eps, 32 ulps of 4
    p = ParameterPoint(3.0)
    ulp = np.spacing(4.0)
    assert ROUNDING_FLOOR * 2 * 4.0 == 32 * ulp
    by_algebra = Spectrum("scarf", p, (0.0, 2.0, 4.0), [p] * 3)
    by_shape = Spectrum("scarf", p, (0.0, 2.0, 4.0 + ulps * ulp), [p] * 3)
    assert algebra.compare_routes(by_shape, by_algebra) == algebra.RouteComparison(ulps * ulp, agree)
    # the floor scales with the level: the same gap at level 1 is beyond it
    by_shape = Spectrum("scarf", p, (0.0, 2.0 + ulps * ulp, 4.0), [p] * 3)
    assert algebra.compare_routes(by_shape, by_algebra) == algebra.RouteComparison(ulps * ulp, False)

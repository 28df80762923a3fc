import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sips import (
    BoundaryContaminationError,
    NotSO21Error,
    ParameterPoint,
    SampledFunction,
    SectorFunction,
    algebra_spectrum,
    apply_j3,
    apply_j_minus,
    apply_j_plus,
    closure_residual,
    commutator_j3_residual,
    energy_from_algebra,
    ground_state,
    is_so21,
    spectrum,
    spectrum_by_shape_invariance,
)


def gaussian_sector(grid, m, kind="gaussian"):
    x = grid.x
    if kind == "gaussian":
        values = np.exp(-(x**2))
    elif kind == "odd":
        values = x * np.exp(-(x**2))
    else:
        values = np.exp(-((x - 1.0) ** 2) / 2.0)
    return SectorFunction(m, SampledFunction(grid, values))


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
    zero = SectorFunction(1.0, SampledFunction(ref_grid, np.zeros(ref_grid.n_points)))
    assert np.all(apply_j_plus("scarf", zero).f.values == 0.0)
    assert np.all(apply_j_minus("scarf", zero).f.values == 0.0)


def test_lowering_annihilates_sector_ground_state(ref_grid):
    # j+j- equals the member Hamiltonian at a = m - 1/2, whose ground state
    # must therefore be killed by j-
    m = 3.5
    p = ParameterPoint(m - 0.5, {"B": 1.0})
    psi0 = ground_state("scarf", p, ref_grid)
    out = apply_j_minus("scarf", SectorFunction(m, psi0), p)
    assert np.linalg.norm(out.f.values) < 1e-6 * np.linalg.norm(psi0.values)
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
    assert report["closure"] < 1e-4
    assert report["remainder_value"] == pytest.approx(2.0 * m)
    assert report["product_plus_minus"] < 1e-4
    assert report["product_minus_plus"] < 1e-4


def test_closure_oscillator_constant_remainder(ref_grid):
    report = closure_residual("oscillator", gaussian_sector(ref_grid, 1.3))
    assert report["closure"] < 1e-4
    assert report["remainder_value"] == 2.0


def test_boundary_contamination_rejected(ref_grid):
    wide = SectorFunction(
        2.0, SampledFunction(ref_grid, np.exp(-ref_grid.x**2 / 200.0))
    )
    with pytest.raises(BoundaryContaminationError):
        closure_residual("scarf", wide, ParameterPoint(2.0, {"B": 1.0}))


def test_energy_from_algebra_values():
    assert energy_from_algebra(3.5, -2.5) == pytest.approx(5.0)
    assert energy_from_algebra(3.5, -1.5) == pytest.approx(8.0)


@given(m=st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_energy_vanishes_on_ground_label(m):
    # j = m - 1 makes |j, m> the zero-energy state of its sector
    assert energy_from_algebra(m, m - 1.0) == pytest.approx(0.0, abs=1e-10)


def test_algebra_spectrum_scarf():
    spec = algebra_spectrum("scarf", 3.5, 3, {"B": 1.0})
    assert np.allclose(spec.energies, [0.0, 5.0, 8.0], atol=0)
    assert spec.energies[0] == 0.0


def test_algebra_spectrum_rejects_oscillator():
    with pytest.raises(NotSO21Error):
        algebra_spectrum("oscillator", 2.0, 3)


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
    by_shape = spectrum_by_shape_invariance("scarf", ParameterPoint(a0, {"B": 1.0}), n)
    by_algebra = algebra_spectrum("scarf", m, n, {"B": 1.0})
    assert len(by_shape) == len(by_algebra) == n
    assert np.max(np.abs(by_shape.energies - by_algebra.energies)) < 1e-12


def test_two_routes_agree_poschl_teller():
    by_shape = spectrum_by_shape_invariance("poschl_teller", ParameterPoint(4.0), 4)
    by_algebra = algebra_spectrum("poschl_teller", 4.5, 4)
    assert np.max(np.abs(by_shape.energies - by_algebra.energies)) < 1e-12


def test_sector_hamiltonian_spectrum_matches_oracle(ref_grid):
    # the sector product j+j- is the member Hamiltonian at a = m - 1/2; its
    # closed-form levels must match the eigensolver on that potential
    m = 3.5
    spec = algebra_spectrum("scarf", m, 3, {"B": 1.0})
    numeric = spectrum("scarf", ParameterPoint(m - 0.5, {"B": 1.0}), ref_grid, 3)
    assert np.max(np.abs(spec.energies - numeric)) < 2e-3

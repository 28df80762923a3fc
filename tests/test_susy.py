import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sips import (
    Grid,
    GridTooCoarseError,
    InvalidParameterError,
    LevelOutOfRangeError,
    ParameterPoint,
    SampledFunction,
    apply_a_plus,
    closed_form_energy,
    discretize_hamiltonian,
    excited_state_by_ladder,
    ground_state,
    max_bound_states,
    node_count,
    potential_minus,
    potential_plus,
    residual_norm,
    shift_params,
    spectrum,
    spectrum_by_shape_invariance,
    verify_shape_invariance,
)
from sips.catalog import get_model

from conftest import model_grid


def test_shift_params():
    p = ParameterPoint(3.0, {"B": 1.0})
    assert shift_params("scarf", p, 1).a == 2.0
    assert shift_params("scarf", p, 0).a == 3.0
    assert shift_params("scarf", p, 1).aux == {"B": 1.0}
    assert shift_params("oscillator", ParameterPoint(1.0), 7).a == 1.0


@given(i=st.integers(0, 5), j=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_shift_composes(i, j):
    p = ParameterPoint(20.0, {"B": 2.0})
    twice = shift_params("scarf", shift_params("scarf", p, i), j)
    assert twice == shift_params("scarf", p, i + j)


def test_spectrum_recursion_values(scarf_p):
    spec = spectrum_by_shape_invariance("scarf", scarf_p, 3)
    assert np.allclose(spec.energies, [0.0, 5.0, 8.0], atol=0)
    assert [p.a for p in spec.level_params] == [3.0, 2.0, 1.0]
    osc = spectrum_by_shape_invariance("oscillator", ParameterPoint(1.0), 4)
    assert np.allclose(osc.energies, [0.0, 2.0, 4.0, 6.0], atol=0)


def test_spectrum_truncates_at_bound_count(scarf_p):
    spec = spectrum_by_shape_invariance("scarf", scarf_p, 99)
    assert len(spec) == 3


@pytest.mark.parametrize(
    "model_id,points",
    [
        ("scarf", [ParameterPoint(3, {"B": 1}), ParameterPoint(4.5, {"B": -2}), ParameterPoint(2.2, {"B": 0.5})]),
        ("poschl_teller", [ParameterPoint(3), ParameterPoint(4.5), ParameterPoint(1.7)]),
        ("morse", [ParameterPoint(3, {"B": 1}), ParameterPoint(4.5, {"B": 2}), ParameterPoint(2.5, {"B": 0.8})]),
        ("oscillator", [ParameterPoint(1.0), ParameterPoint(2.0), ParameterPoint(-3.0)]),
    ],
)
def test_recursion_equals_closed_form(model_id, points):
    for p in points:
        n_levels = min(max_bound_states(model_id, p), 6)
        spec = spectrum_by_shape_invariance(model_id, p, n_levels)
        closed = np.array([closed_form_energy(model_id, p, n) for n in range(n_levels)])
        assert np.max(np.abs(spec.energies - closed)) < 1e-12


def test_shape_invariance_residuals(scarf_p):
    report = verify_shape_invariance("scarf", scarf_p, Grid(-20, 20, 2001), k_max=2)
    assert report.max_residual < 1e-10
    report = verify_shape_invariance("oscillator", ParameterPoint(1.0), Grid(-20, 20, 2001), k_max=3)
    assert report.max_residual < 1e-12


def test_shape_invariance_wrong_shift_is_loud(scarf_p):
    broken = dataclasses.replace(get_model("scarf"), id="scarf_bad_step", param_step=1.0)
    report = verify_shape_invariance(broken, scarf_p, Grid(-20, 20, 2001), k_max=2)
    assert report.max_residual > 0.1


def test_shape_invariance_invalid_shift(scarf_p):
    # a_3 = 0 leaves the valid range, so k_max = 3 must be rejected for a0 = 3
    with pytest.raises(InvalidParameterError):
        verify_shape_invariance("scarf", scarf_p, Grid(-20, 20, 2001), k_max=3)


def test_shape_invariance_no_shifts():
    # a single bound state leaves no shift to check; the empty report passes
    report = verify_shape_invariance("scarf", ParameterPoint(1.0, {"B": 1.0}), k_max=0)
    assert report.residuals.size == 0
    assert report.max_residual == 0.0


def test_ground_state_rejects_nonfinite_params(ref_grid):
    with pytest.raises(InvalidParameterError, match="finite"):
        ground_state("scarf", ParameterPoint(3.0, {"B": np.inf}), ref_grid)


def test_ground_state_oscillator(ref_grid):
    psi = ground_state("oscillator", ParameterPoint(1.0), ref_grid)
    x = ref_grid.x
    i0 = np.argmin(np.abs(x))
    i1 = np.argmin(np.abs(x - 1.0))
    assert psi.values[i1] / psi.values[i0] == pytest.approx(np.exp(-0.5), rel=1e-8)
    assert node_count(psi) == 0
    assert np.all(psi.values > 0)
    assert psi.norm() == pytest.approx(1.0)


def test_ground_state_scarf_symmetric(ref_grid):
    psi = ground_state("scarf", ParameterPoint(3.0, {"B": 0.0}), ref_grid)
    exact = np.cosh(ref_grid.x) ** -3.0
    exact /= np.sqrt(np.trapezoid(exact**2, dx=ref_grid.h))
    assert np.max(np.abs(psi.values - exact)) < 1e-6
    assert np.max(np.abs(psi.values - psi.values[::-1])) < 1e-12


def test_ground_state_reference_point_is_immaterial(ref_grid, scarf_p):
    base = ground_state("scarf", scarf_p, ref_grid, x_ref=0.0)
    shifted = ground_state("scarf", scarf_p, ref_grid, x_ref=-3.7)
    assert np.max(np.abs(base.values - shifted.values)) < 1e-12


def test_ground_state_oracle_residual(ref_grid, scarf_p):
    psi = ground_state("scarf", scarf_p, ref_grid)
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    assert residual_norm(T, psi, 0.0) < 1e-3


def test_ground_state_steep_wall_no_overflow():
    # the morse wall grows like e^(2|x|) on the left; log-space quadrature
    # has to survive a box that reaches far into it
    psi = ground_state("morse", ParameterPoint(3.0, {"B": 1.0}), Grid(-20.0, 20.0, 4001))
    assert np.all(np.isfinite(psi.values))
    assert node_count(psi) == 0


def test_apply_a_plus_oscillator(ref_grid):
    p = ParameterPoint(1.0)
    psi0 = ground_state("oscillator", p, ref_grid)
    raised = apply_a_plus("oscillator", p, psi0)
    target = 2.0 * ref_grid.x * psi0.values
    assert np.max(np.abs(raised.values - target)) < 1e-6 * np.max(np.abs(target))


def test_apply_a_plus_linear_in_zero(ref_grid):
    zero = SampledFunction(ref_grid, np.zeros(ref_grid.n_points))
    out = apply_a_plus("scarf", ParameterPoint(3.0, {"B": 1.0}), zero)
    assert np.all(out.values == 0.0)


def test_apply_a_plus_single_step(ref_grid, scarf_p):
    # one raising step from the shifted ground state lands on the first
    # excited level of the unshifted member
    p1 = shift_params("scarf", scarf_p, 1)
    psi = apply_a_plus("scarf", scarf_p, ground_state("scarf", p1, ref_grid)).normalized()
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    assert residual_norm(T, psi, 5.0) < 1e-3


def test_apply_a_plus_needs_enough_points():
    grid = Grid(-1.0, 1.0, 5)
    f = SampledFunction(grid, np.ones(5))
    with pytest.raises(GridTooCoarseError):
        apply_a_plus("oscillator", ParameterPoint(1.0), f)


@pytest.mark.parametrize("n,energy", [(0, 0.0), (1, 5.0), (2, 8.0)])
def test_ladder_states_scarf(ref_grid, scarf_p, n, energy):
    psi = excited_state_by_ladder("scarf", scarf_p, n, ref_grid)
    assert node_count(psi) == n
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    assert residual_norm(T, psi, energy) < 1e-3


def test_ladder_level_zero_is_ground_state(ref_grid, scarf_p):
    direct = ground_state("scarf", scarf_p, ref_grid)
    chained = excited_state_by_ladder("scarf", scarf_p, 0, ref_grid)
    assert np.max(np.abs(direct.values - chained.values)) < 1e-12


def test_ladder_oscillator_second_level(ref_grid):
    psi = excited_state_by_ladder("oscillator", ParameterPoint(1.0), 2, ref_grid)
    assert node_count(psi) == 2
    T = discretize_hamiltonian(
        lambda x: potential_minus("oscillator", x, ParameterPoint(1.0)), ref_grid
    )
    assert residual_norm(T, psi, 4.0) < 1e-3


def test_ladder_out_of_range(ref_grid, scarf_p):
    with pytest.raises(LevelOutOfRangeError):
        excited_state_by_ladder("scarf", scarf_p, 3, ref_grid)


def test_node_count_oscillator_states(ref_grid):
    p = ParameterPoint(1.0)
    assert node_count(ground_state("oscillator", p, ref_grid)) == 0
    assert node_count(excited_state_by_ladder("oscillator", p, 2, ref_grid)) == 2


def test_node_count_scarf_second_level_matches_oracle(ref_grid, scarf_p):
    from sips import eigenvector

    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    assert node_count(eigenvector(T, 2)) == 2
    assert node_count(excited_state_by_ladder("scarf", scarf_p, 2, ref_grid)) == 2


def test_isospectral_partners(ref_grid, scarf_p):
    # V+ spectrum at level n-1 equals V- spectrum at level n
    minus = spectrum("scarf", scarf_p, ref_grid, 3)
    T_plus = discretize_hamiltonian(lambda x: potential_plus("scarf", x, scarf_p), ref_grid)
    from sips import lowest_eigenvalues

    plus = lowest_eigenvalues(T_plus, 2)
    assert np.max(np.abs(plus - minus[1:])) < 2e-3


def test_morse_ladder_state():
    grid = model_grid("morse")
    p = ParameterPoint(3.0, {"B": 1.0})
    psi = excited_state_by_ladder("morse", p, 1, grid)
    assert node_count(psi) == 1
    T = discretize_hamiltonian(lambda x: potential_minus("morse", x, p), grid)
    assert residual_norm(T, psi, 5.0) < 1e-3

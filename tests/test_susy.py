import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sips import (
    Grid,
    InvalidParameterError,
    LevelOutOfRangeError,
    ParameterPoint,
    SampledFunction,
    closed_form_energy,
    default_grid,
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


@given(
    model_id=st.sampled_from(["scarf", "poschl_teller", "morse", "oscillator"]),
    exponent=st.floats(-0.2, 12),
    levels=st.integers(1, 1000),
)
@settings(max_examples=200, deadline=None)
def test_spectrum_sums_as_numpy_cumsum(model_id, exponent, levels):
    # the partial sums run left to right from an exact 0, the order numpy's
    # cumsum adds in, so the levels are the same floats bit for bit
    p = ParameterPoint(10.0**exponent, {"B": 1.0})
    spec = spectrum_by_shape_invariance(model_id, p, levels)
    model = get_model(model_id)
    remainders = [model.remainder(shift_params(model, p, k)) for k in range(len(spec) - 1)]
    expected = np.concatenate([[0.0], np.cumsum(remainders)])
    assert type(spec.energies) is tuple and {type(e) for e in spec.energies} == {float}
    assert np.array(spec.energies).tobytes() == expected.tobytes()


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
    broken = get_model("scarf")._replace(id="scarf_bad_step", param_step=1.0)
    report = verify_shape_invariance(broken, scarf_p, Grid(-20, 20, 2001), k_max=2)
    assert report.max_residual > 0.1


def test_shape_invariance_invalid_shift(scarf_p):
    # a_3 = 0 leaves the valid range, so k_max = 3 must be rejected for a0 = 3
    with pytest.raises(InvalidParameterError, match="invalid parameters a=0.0"):
        verify_shape_invariance("scarf", scarf_p, Grid(-20, 20, 2001), k_max=3)


def test_shape_invariance_no_shifts():
    # a single bound state leaves no shift to check; the empty report passes
    report = verify_shape_invariance("scarf", ParameterPoint(1.0, {"B": 1.0}), k_max=0)
    assert report.residuals.size == 0
    assert report.max_residual == 0.0


def _identity_by_partner_potentials(model, p0, grid, k_max):
    # the reference: V+(a_k) and V-(a_{k+1}) from the catalog's partner
    # potentials at each k, so W and W′ at a_1..a_{k_max-1} are evaluated twice
    model = get_model(model)
    points = [shift_params(model, p0, k) for k in range(k_max + 1)]
    x = grid.x[1:-1]
    residuals, excess = np.empty(k_max), np.empty(k_max)
    for k in range(k_max):
        r = model.remainder(points[k])
        lhs = potential_plus(model, x, points[k])
        v_minus = potential_minus(model, x, points[k + 1])
        diff = np.abs(lhs - (v_minus + r))
        floor = 16.0 * np.finfo(float).eps * (np.abs(lhs) + np.abs(v_minus) + abs(r))
        residuals[k] = np.max(diff)
        excess[k] = np.max(np.maximum(diff - floor, 0.0))
    return residuals, excess


@given(
    model_id=st.sampled_from(["scarf", "poschl_teller", "morse", "oscillator"]),
    a=st.floats(0.05, 12.0) | st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, float("nan")]),
    B=st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1.0]),
    box=st.sampled_from([(-20.0, 20.0), (-6.0, 20.0), (-3.0, 5.0)]),
    n_points=st.integers(3, 2001),
    k_max=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_shape_invariance_matches_partner_potentials(model_id, a, B, box, n_points, k_max):
    # W and W′ once per shifted a give the residuals and excess of the
    # per-k partner potentials bit for bit, and an invalid shifted point the
    # same error
    p0, grid = ParameterPoint(a, {"B": B} if model_id in ("scarf", "morse") else {}), Grid(*box, n_points)
    try:
        residuals, excess = _identity_by_partner_potentials(model_id, p0, grid, k_max)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as raised:
            verify_shape_invariance(model_id, p0, grid, k_max=k_max)
        assert str(raised.value) == str(exc)
        return
    report = verify_shape_invariance(model_id, p0, grid, k_max=k_max)
    assert report.residuals.tobytes() == residuals.tobytes()
    assert report.excess.tobytes() == excess.tobytes()


def test_shape_invariance_default_grid_is_model_box():
    # on a fixed [-20, 20] box e^(-2x) costs W² its digits (residual 64)
    report = verify_shape_invariance("morse", ParameterPoint(5.0, {"B": 1.0}))
    assert report.max_residual < 1e-9
    assert report.grid == default_grid("morse")


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


def test_ground_state_oracle_residual(ref_grid, scarf_p):
    psi = ground_state("scarf", scarf_p, ref_grid)
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    assert residual_norm(T, psi, 0.0) < 1e-3


def test_ground_state_steep_wall_no_overflow():
    # the morse wall grows like e^(2|x|) on the left; the exponent -∫W has to
    # survive a box that reaches far into it
    psi = ground_state("morse", ParameterPoint(3.0, {"B": 1.0}), Grid(-20.0, 20.0, 4001))
    assert np.all(np.isfinite(psi.values))
    assert node_count(psi) == 0


def test_ground_state_wide_box_no_overflow():
    # cosh(800) overflows a double; the closed-form ∫W = a·ln cosh x must not
    p = ParameterPoint(6.0)
    edges = get_model("poschl_teller").w_integral(np.array([-800.0, 800.0]), p)
    assert edges == pytest.approx(6.0 * (800.0 - np.log(2.0)), rel=1e-15)
    psi = ground_state("poschl_teller", p, Grid(-800.0, 800.0, 160001))
    assert np.all(np.isfinite(psi.values))
    assert psi.norm() == pytest.approx(1.0, rel=1e-12)
    assert node_count(psi) == 0


def test_normalized_fixes_norm_and_sign(ref_grid):
    # the leading (left) lobe starts negative and comes out positive
    x = ref_grid.x
    psi = SampledFunction(ref_grid, 3.0 * x * np.exp(-(x**2))).normalized()
    assert psi.norm() == pytest.approx(1.0, rel=1e-12)
    assert np.all(psi.values[x < 0] >= 0.0)


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


@pytest.mark.parametrize(
    "model_id,p,n,grid,lobes",
    [
        # ψ₀ underflows one point from its peak (e^-5000) where ψ₁ lives
        ("poschl_teller", ParameterPoint(1e8), 1, Grid(-0.05, 0.05, 11), (4, 6)),
        # x³¹ overflows at the box edge where ψ₀ is long dead
        ("oscillator", ParameterPoint(1.0), 31, Grid(-1e12, 1e12, 5), (1, 3)),
    ],
)
def test_ladder_state_beyond_double_range(model_id, p, n, grid, lobes):
    # the odd state's exact samples: ±1/√(2h) on the two points beside its node
    psi = excited_state_by_ladder(model_id, p, n, grid)
    exact = np.zeros(grid.n_points)
    exact[list(lobes)] = np.array([1.0, -1.0]) / np.sqrt(2.0 * grid.h)
    assert np.allclose(psi.values, exact, rtol=1e-12, atol=0.0)


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


# boxes that hold the n = 4 state, so the residual's Dirichlet term is not the box
_HOLDING_BOX = {"oscillator": (-20.0, 20.0), "morse": (-6.0, 40.0),
                "poschl_teller": (-20.0, 20.0), "scarf": (-40.0, 40.0)}


@pytest.mark.parametrize(
    "model_id,p",
    [
        ("oscillator", ParameterPoint(1.0)),
        ("morse", ParameterPoint(5.0, {"B": 1.0})),
        ("poschl_teller", ParameterPoint(6.0)),
        ("scarf", ParameterPoint(5.0, {"B": 1.0})),
    ],
)
def test_ladder_node_count_on_fine_grid(model_id, p):
    # a chain that differentiates on the grid amplifies roundoff as h shrinks:
    # spurious nodes on the default box, a residual that grows with refinement
    psi = excited_state_by_ladder(model_id, p, 4, model_grid(model_id, 64001))
    assert node_count(psi) == 4
    energy = closed_form_energy(model_id, p, 4)
    residuals = []
    for n_points in (4001, 16001, 64001):
        grid = Grid(*_HOLDING_BOX[model_id], n_points)
        T = discretize_hamiltonian(lambda x: potential_minus(model_id, x, p), grid)
        residuals.append(residual_norm(T, excited_state_by_ladder(model_id, p, 4, grid), energy))
    assert residuals[0] >= residuals[1] >= residuals[2]

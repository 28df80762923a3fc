import numpy as np
import pytest

from sips import (
    Grid,
    ParameterPoint,
    SampledFunction,
    compare_spectra,
    discretize_hamiltonian,
    eigenvector,
    lowest_eigenvalues,
    node_count,
    potential_minus,
    residual_norm,
    spectrum,
    spectrum_by_shape_invariance,
    sturm_count,
)


def test_discretization_stencil():
    # V = 0 with h = 1 and three interior points
    T = discretize_hamiltonian(lambda x: np.zeros_like(x), Grid(0.0, 4.0, 5))
    assert np.allclose(T.diag, [2.0, 2.0, 2.0])
    assert np.allclose(T.off, [-1.0, -1.0])


def test_nonfinite_potential_rejected():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            discretize_hamiltonian(lambda x: 1.0 / x, Grid(-1.0, 1.0, 21))


def test_particle_in_a_box_modes():
    grid = Grid(0.0, np.pi, 2001)
    T = discretize_hamiltonian(lambda x: np.zeros_like(x), grid)
    energies = lowest_eigenvalues(T, 3)
    assert np.allclose(energies, [1.0, 4.0, 9.0], atol=1e-3)
    # second mode has a single interior node
    psi = eigenvector(T, 1)
    assert node_count(psi) == 1


def test_matches_discrete_box_spectrum():
    # the V = 0 Dirichlet box has the closed-form discrete spectrum
    # (2 - 2cos(jπh/L))/h², independent of any eigensolver
    length = 10.0
    grid = Grid(0.0, length, 801)
    T = discretize_hamiltonian(lambda x: np.zeros_like(x), grid)
    j = np.arange(1, 5)
    exact = (2.0 - 2.0 * np.cos(j * np.pi * grid.h / length)) / grid.h**2
    assert np.allclose(lowest_eigenvalues(T, 4), exact, atol=1e-9)


def test_oscillator_ground_level(ref_grid):
    energies = spectrum("oscillator", ParameterPoint(1.0), ref_grid, 1)
    assert abs(energies[0]) < 1e-4


def test_scarf_levels(ref_grid, scarf_p):
    energies = spectrum("scarf", scarf_p, ref_grid, 3)
    assert np.allclose(energies, [0.0, 5.0, 8.0], atol=1e-3)


def test_morse_levels():
    from conftest import model_grid

    energies = spectrum("morse", ParameterPoint(3.0, {"B": 1.0}), model_grid("morse"), 3)
    assert np.allclose(energies, [0.0, 5.0, 8.0], atol=2e-3)


def test_eigenvalues_sorted_and_deterministic(ref_grid, scarf_p):
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    first = lowest_eigenvalues(T, 3)
    second = lowest_eigenvalues(T, 3)
    assert np.all(np.diff(first) > 0)
    assert np.array_equal(first, second)


def test_sturm_count_between_levels(ref_grid, scarf_p):
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    energies = lowest_eigenvalues(T, 3)
    for k in range(2):
        midpoint = 0.5 * (energies[k] + energies[k + 1])
        assert sturm_count(T, midpoint) == k + 1


def test_exact_discrete_eigenpair_residual():
    # sin(kx) with eigenvalue (2 - 2cos(kh))/h^2 is an exact eigenpair of the
    # discrete box operator, so the residual is pure rounding
    grid = Grid(0.0, np.pi, 201)
    T = discretize_hamiltonian(lambda x: np.zeros_like(x), grid)
    k = 2
    psi = SampledFunction(grid, np.sin(k * grid.x))
    E = (2.0 - 2.0 * np.cos(k * grid.h)) / grid.h**2
    assert residual_norm(T, psi, E) < 1e-10


def test_wrong_energy_residual_is_order_one(ref_grid):
    p = ParameterPoint(1.0)
    T = discretize_hamiltonian(lambda x: potential_minus("oscillator", x, p), ref_grid)
    energies = lowest_eigenvalues(T, 1)
    psi = eigenvector(T, 0)
    assert residual_norm(T, psi, energies[0] + 1.0) == pytest.approx(1.0, abs=1e-2)


def test_grid_mismatch_rejected(ref_grid):
    T = discretize_hamiltonian(lambda x: np.zeros_like(x), ref_grid)
    other = SampledFunction(Grid(-20.0, 20.0, 801), np.ones(801))
    with pytest.raises(ValueError, match="grid"):
        residual_norm(T, other, 0.0)


def test_eigenvector_matches_gaussian(ref_grid):
    p = ParameterPoint(1.0)
    T = discretize_hamiltonian(lambda x: potential_minus("oscillator", x, p), ref_grid)
    psi = eigenvector(T, 0)
    exact = np.exp(-ref_grid.x**2 / 2.0)
    exact /= np.sqrt(np.trapezoid(exact**2, dx=ref_grid.h))
    assert np.max(np.abs(psi.values - exact)) < 1e-4


def test_eigenvector_node_counts(ref_grid, scarf_p):
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    assert node_count(eigenvector(T, 1)) == 1
    assert node_count(eigenvector(T, 2)) == 2


def test_richardson_convergence_factor():
    # halving h should cut the eigenvalue error of the second-order stencil
    # by about four; probed on the first excited oscillator level
    errors = []
    for n_points in (1001, 2001):
        grid = Grid(-20.0, 20.0, n_points)
        energies = spectrum("oscillator", ParameterPoint(1.0), grid, 2)
        errors.append(abs(energies[1] - 2.0))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_compare_spectra_pass(ref_grid, scarf_p):
    analytic = spectrum_by_shape_invariance("scarf", scarf_p, 3)
    numeric = spectrum("scarf", scarf_p, ref_grid, 3)
    report = compare_spectra(analytic, numeric, tol=1e-3)
    assert report.passed
    assert report.max_abs_diff < 1e-3


def test_compare_spectra_fail_control(scarf_p):
    # spectra from genuinely different parameter points must fail loudly
    analytic = spectrum_by_shape_invariance("scarf", scarf_p, 3)
    mismatched = spectrum(
        "morse", ParameterPoint(2.5, {"B": 0.8}), Grid(-6.0, 20.0, 2001), 3
    )
    report = compare_spectra(analytic, mismatched, tol=1e-3)
    assert not report.passed
    assert report.worst_level == 2
    assert report.max_abs_diff == pytest.approx(2.0, abs=1e-2)


def test_compare_spectra_length_check(scarf_p):
    analytic = spectrum_by_shape_invariance("scarf", scarf_p, 3)
    with pytest.raises(ValueError, match="levels"):
        compare_spectra(analytic, [0.0, 5.0], tol=1e-3)

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sips import (
    Grid,
    GridTooCoarseError,
    ParameterPoint,
    SampledFunction,
    TridiagonalOperator,
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
from sips.catalog import default_grid, get_model, max_bound_states
from sips.cli import parse_params


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


# zero or 1e-3 to 100 in size, either sign: dstebz takes an off-diagonal
# whose square is below its safe minimum for zero, so a T of only such tiny
# entries is counted to an absolute accuracy, not to one relative to ‖T‖₁
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 100.0), st.floats(-100.0, -1e-3))


@st.composite
def _tridiagonals(draw):
    # zero off-diagonals split T into blocks, some of them 1×1
    n = draw(st.integers(1, 13))
    diag = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    off = draw(st.lists(_ENTRIES, min_size=n - 1, max_size=n - 1))
    return TridiagonalOperator(diag, off, Grid(0.0, 1.0, n + 2))


@settings(max_examples=300, deadline=500)
@given(_tridiagonals(), st.floats(-300.0, 300.0, allow_subnormal=False))
def test_sturm_count_matches_dense_count(T, E):
    # away from the eigenvalues, where either count may fall either way
    levels = np.linalg.eigvalsh(np.diag(T.diag) + np.diag(T.off, 1) + np.diag(T.off, -1))
    norm = np.abs(T.diag).max() + 2.0 * np.abs(T.off).max(initial=0.0)
    assume(np.min(np.abs(levels - E)) > 1e-9 * norm)
    assert sturm_count(T, E) == np.sum(levels < E)


def test_sturm_count_rejects_nan():
    T = TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, -1.0], Grid(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="below nan"):
        sturm_count(T, np.nan)


def test_sturm_count_at_infinity(capfd):
    # no LAPACK call: dstebz would print its illegal-argument message for -inf
    T = TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, -1.0], Grid(0.0, 1.0, 5))
    assert sturm_count(T, -np.inf) == 0
    assert sturm_count(T, np.inf) == 3
    assert capfd.readouterr() == ("", "")


def test_sturm_count_one_point_operator():
    T = TridiagonalOperator([2.5], [], Grid(0.0, 1.0, 3))
    assert [sturm_count(T, E) for E in (-np.inf, 2.0, 2.5, 3.0, np.inf)] == [0, 0, 0, 1, 1]


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


def test_residual_of_state_zero_inside_rejected():
    # the one interior node of a 3-point grid sits on the node of psi_1
    grid = Grid(-1.0, 1.0, 3)
    T = discretize_hamiltonian(lambda x: x**2, grid)
    with pytest.raises(ValueError, match="zero at every interior"):
        residual_norm(T, SampledFunction(grid, [1.0, 0.0, -1.0]), 3.0)


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


@pytest.mark.parametrize(
    "bounds", [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308), (0.0, 1e-300), (0.0, 1e-160)]
)
def test_grid_must_be_finite(bounds):
    # (-1e308, 1e308) is finite, but its spacing overflows; on the last two
    # h² underflows to zero or a subnormal, so 1/h² overflows
    with pytest.raises(ValueError, match="finite"):
        Grid(*bounds, 11)


def test_spectrum_rejects_unresolved_well():
    # the a = 1e9 well is about 1/a wide: h = 0.01 cannot see it, although
    # the Sturm count finds enough levels below the edge
    with pytest.raises(GridTooCoarseError, match="cannot resolve"):
        spectrum("poschl_teller", ParameterPoint(1e9), default_grid("poschl_teller"), 3)


def _single_solve(T, k, abstol=0.0):
    # one stebz call on the whole of T: the reference for the split solve
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(T.diag, T.off, select="i", select_range=(0, k - 1), tol=abstol)


@pytest.fixture
def stebz_sizes(monkeypatch):
    # the size of every tridiagonal the referee hands to stebz
    import sips.oracle

    solve = sips.oracle._stebz
    sizes = []

    def recorded(diag, off, k, abstol):
        sizes.append(len(diag))
        return solve(diag, off, k, abstol)

    monkeypatch.setattr(sips.oracle, "_stebz", recorded)
    return sizes


def test_persymmetric_split_matches_dense_solve(stebz_sizes):
    # mirror-symmetric T of every size 1..13, with off-diagonals of either
    # sign and zeros (which cut T into blocks), against a dense solve
    rng = np.random.default_rng(1976)
    eps = np.finfo(float).eps
    for n in range(1, 14):
        for _ in range(20):
            half = rng.normal(size=(n + 1) // 2)
            diag = np.concatenate([half, half[: n // 2][::-1]])
            bonds = rng.uniform(0.5, 2.0, n - 1) * rng.choice([0.0, 1.0], n - 1, p=[0.25, 0.75])
            i = np.arange(n - 1)
            off = np.where(i <= i[::-1], bonds, bonds[::-1]) * rng.choice([-1.0, 1.0], n - 1)
            T = TridiagonalOperator(diag, off, Grid(0.0, 1.0, n + 2))
            exact = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0)
            for k in range(1, n + 1):
                stebz_sizes.clear()
                levels = lowest_eigenvalues(T, k)
                assert max(stebz_sizes) <= (n + 1) // 2
                assert np.max(np.abs(levels - exact[:k])) <= 8.0 * eps * norm, (n, k)


@pytest.mark.parametrize("n_points", [4001, 4000])  # an odd and an even interior count
@pytest.mark.parametrize(
    "model,text,k", [("oscillator", None, 32), ("poschl_teller", "a=6", 5), ("scarf", "a=4,B=0", 4)]
)
def test_parity_symmetric_levels_match_single_solve(stebz_sizes, model, text, k, n_points):
    # an even potential on a box centred on its well gives a persymmetric T,
    # solved as two halves, each level within ABSTOL + eps·‖T‖₁ of the
    # single solve to LAPACK's most accurate setting
    p = parse_params(model, text)
    grid = Grid(-20.0, 20.0, n_points)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
    best = _single_solve(T, k, abstol=2.0 * np.finfo(float).tiny)
    norm = np.max(np.abs(T.diag)) + 2.0 / grid.h**2
    for tol in (1e-2, 1e-3, 1e-6):
        stebz_sizes.clear()
        levels = spectrum(model, p, grid, k, tol)
        assert max(stebz_sizes) <= (T.size + 1) // 2
        bound = 1e-3 * min(tol, 1e-3) + np.finfo(float).eps * norm
        assert np.max(np.abs(levels - best)) <= bound, tol


@pytest.mark.parametrize(
    "model,text,bounds",
    [
        ("scarf", "a=3,B=1", (-20.0, 20.0, 4001)),
        ("morse", "a=3,B=1", (-6.0, 20.0, 4001)),
        ("poschl_teller", "a=6", (-20.0, 19.5, 4001)),  # an even well off the box centre
    ],
)
def test_asymmetric_operator_gets_single_solve(stebz_sizes, model, text, bounds):
    p = parse_params(model, text)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), Grid(*bounds))
    for k in (1, 2, 3):
        for abstol in (0.0, 1e-6):
            expected = _single_solve(T, k, abstol)
            stebz_sizes.clear()
            assert np.array_equal(lowest_eigenvalues(T, k, abstol), expected)
            assert stebz_sizes == [T.size]


# an asymmetric T, and persymmetric ones with an odd and an even interior count
_HINT_OPERATORS = [
    ("scarf", "a=3,B=1", (-20.0, 20.0, 4001)),
    ("poschl_teller", "a=6", (-20.0, 20.0, 4001)),
    ("poschl_teller", "a=6", (-20.0, 20.0, 4000)),
]


def _wrong_hints(levels, k):
    # levels holds the k + 1 lowest; windows start at a half-width of 1e-3
    # (1e3·ABSTOL at ABSTOL 1e-6)
    exact = levels[:k]
    return {
        "shifted by 10·tol": exact + 1e-2,
        "shifted by one level": levels[1:],
        "reversed": exact[::-1],
        "duplicated": np.repeat(exact, 2)[:k],
        "closely spaced": exact[0] + 5e-4 * np.arange(k),
        "overlapping windows": np.concatenate(([levels[1] - 1e-3], exact[1:])),
        "too short": exact[:-1],
        "nan": np.full(k, np.nan),
        "one nan": np.where(np.arange(k) == 1, np.nan, exact),
        "inf": np.full(k, np.inf),
        "width that rounds away": np.full(k, 1e20),
        "top window above every level": np.concatenate((exact[:-1], [1e9])),
    }


@pytest.mark.parametrize("model,text,bounds", _HINT_OPERATORS)
@pytest.mark.parametrize("k", [1, 3, 5])
def test_wrong_hint_moves_no_level_beyond_abstol(stebz_sizes, model, text, bounds, k):
    p = parse_params(model, text)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), Grid(*bounds))
    abstol = 1e-6
    plain = lowest_eigenvalues(T, k, abstol)
    levels = lowest_eigenvalues(T, k + 1, abstol)
    bound = abstol + np.finfo(float).eps * (np.max(np.abs(T.diag)) + 2.0 * np.max(np.abs(T.off)))
    for name, near in _wrong_hints(levels, k).items():
        hinted = lowest_eigenvalues(T, k, abstol, near=near)
        assert np.max(np.abs(hinted - plain)) <= bound, name
    # a hint within the half-width 1e-3 of every level takes no unhinted
    # solve, nor does one 1e-2 off where windows widened twice (to 6.4e-2)
    # stay apart; the box states above scarf's edge lie closer than that
    spaced = np.min(np.diff(levels)) > 0.2
    for shift in (5e-4, 1e-2) if spaced else (5e-4,):
        stebz_sizes.clear()
        hinted = lowest_eigenvalues(T, k, abstol, near=plain + shift)
        assert stebz_sizes == []
        assert np.max(np.abs(hinted - plain)) <= bound


def _unhinted_solve_runs(capfd, stebz_sizes, T, k, abstol, near):
    plain = lowest_eigenvalues(T, k, abstol)
    stebz_sizes.clear()
    assert np.array_equal(lowest_eigenvalues(T, k, abstol, near=near), plain)
    assert stebz_sizes == [T.size]
    # no window reached dstebz that it refuses with a line on standard output
    assert capfd.readouterr() == ("", "")


def _scarf_operator():
    p = parse_params("scarf", "a=3,B=1")
    return discretize_hamiltonian(lambda x: potential_minus("scarf", x, p), Grid(-20.0, 20.0, 4001))


@pytest.mark.parametrize(
    "name", ["shifted by one level", "reversed", "duplicated", "closely spaced",
             "overlapping windows", "too short", "nan", "width that rounds away",
             "top window above every level"],
)
def test_uncertified_hint_takes_the_unhinted_solve(capfd, stebz_sizes, name):
    T = _scarf_operator()
    near = _wrong_hints(lowest_eigenvalues(T, 4, 1e-6), 3)[name]
    _unhinted_solve_runs(capfd, stebz_sizes, T, 3, 1e-6, near)


def test_overflowing_window_takes_the_unhinted_solve(capfd, stebz_sizes):
    # ABSTOL 1e304 opens windows of half-width 1e307 about -1e308; the top
    # one is empty, and widening it 8 times overflows its lower end
    _unhinted_solve_runs(capfd, stebz_sizes, _scarf_operator(), 3, 1e304, np.full(3, -1e308))


_SWEEP_FAMILIES = ("oscillator", "poschl_teller", "scarf", "morse")


@settings(max_examples=50, deadline=5000)
@given(
    st.sampled_from(_SWEEP_FAMILIES),
    st.floats(0.6, 12.0),
    st.floats(-2.0, 1.0),
    st.integers(1001, 16001),
    st.integers(1, 40),
)
def test_closed_form_hint_keeps_every_referee_outcome(model, a, log_b, n_points, oscillator_levels):
    # drawn as the referee sweeps are: every family, a ~ U(0.6, 12),
    # B = 10^U(-2, 1), oscillator levels ~ U{1..40}, on the family's box
    text = {"oscillator": None, "poschl_teller": f"a={a!r}"}.get(model, f"a={a!r},B={10.0**log_b!r}")
    p = parse_params(model, text)
    k = oscillator_levels if model == "oscillator" else min(5, max_bound_states(model, p))
    box = get_model(model).default_box
    grid = Grid(box[0], box[1], n_points)
    hint = spectrum_by_shape_invariance(model, p, k).energies
    try:
        plain = spectrum(model, p, grid, k)
    except GridTooCoarseError as exc:
        with pytest.raises(GridTooCoarseError) as got:
            spectrum(model, p, grid, k, near=hint)
        assert str(got.value) == str(exc)
        return
    hinted = spectrum(model, p, grid, k, near=hint)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
    bound = 1e-6 + np.finfo(float).eps * (np.max(np.abs(T.diag)) + 2.0 / grid.h**2)
    assert np.max(np.abs(hinted - plain)) <= bound


def _sturm_certified_spectrum(model, p, grid, k, tol=1e-3):
    # Reference certificate: count the levels below the edge with the Sturm
    # sequence first, then check the spacing, then solve to the same ABSTOL.
    model = get_model(model)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
    edge = model.continuum_edge(p)
    below = sturm_count(T, edge)
    if below < k:
        raise GridTooCoarseError(
            f"{grid.n_points}-point grid on [{grid.x_min:g}, {grid.x_max:g}] "
            f"holds {below} of {k} levels below the continuum edge {edge:g}"
        )
    depth = edge - (np.min(T.diag) - 2.0 / grid.h**2)
    if grid.h * np.sqrt(max(depth, 0.0)) > 1.0:
        raise GridTooCoarseError(
            f"grid spacing h={grid.h:g} cannot resolve a well {depth:g} deep (need h·√depth <= 1)"
        )
    return lowest_eigenvalues(T, k, abstol=1e-3 * min(tol, 1e-3))


_EDGE_POINTS = {
    "scarf": ["a=3,B=1", "a=8,B=2", "a=2.7,B=-1.5"],
    "poschl_teller": ["a=3", "a=6", "a=4.2"],
    "morse": ["a=3,B=1", "a=10,B=1", "a=3,B=0.01", "a=2.8,B=2.5"],
}
# Boxes so narrow or coarse that they hold 0..k levels, a box that cuts the
# morse well, the model boxes, and the benchmark's referee grids.
_CERTIFICATE_GRIDS = [
    (-20.0, 20.0, 5), (-1.0, 1.0, 11), (-3.0, 3.0, 4), (-20.0, 20.0, 7), (-2.0, 2.0, 41),
    (-20.0, 20.0, 101), (-10.0, 10.0, 1001), (-6.0, 14.0, 1001), (-6.0, 20.0, 4001),
    (-20.0, 20.0, 4001), (-6.0, 20.0, 16001), (-20.0, 20.0, 16001),
]


@pytest.mark.parametrize("model", sorted(_EDGE_POINTS))
def test_certificate_matches_sturm_count(model):
    for text in _EDGE_POINTS[model]:
        p = parse_params(model, text)
        for bounds in _CERTIFICATE_GRIDS:
            if bounds[2] == 16001 and text != _EDGE_POINTS[model][0]:
                continue  # one point per family at the finest grid keeps this fast
            grid = Grid(*bounds)
            # n_points - 2 solves for every interior level; n_points - 1 is one too many
            small = (grid.n_points - 2,) if grid.n_points <= 101 else ()
            for k in (1, 2, 3, 5, 8, *small, grid.n_points - 1):
                try:
                    expected = _sturm_certified_spectrum(model, p, grid, k)
                except GridTooCoarseError as exc:
                    with pytest.raises(GridTooCoarseError) as got:
                        spectrum(model, p, grid, k)
                    assert str(got.value) == str(exc)
                else:
                    assert np.array_equal(spectrum(model, p, grid, k), expected)


_PRECISION_POINTS = {**{model: points[0] for model, points in _EDGE_POINTS.items()}, "oscillator": None}


@pytest.mark.parametrize("model", sorted(_PRECISION_POINTS))
def test_levels_are_bisected_to_a_thousandth_of_tol(model):
    # against LAPACK's most accurate setting, ABSTOL = 2·tiny, every level
    # lies within 1e-3·min(tol, 1e-3) plus the eps·‖T‖₁ both solves share
    # (Kahan); tol = 1e6 checks that a large tol does not coarsen the levels
    p = parse_params(model, _PRECISION_POINTS[model])
    certified = 0
    for bounds in _CERTIFICATE_GRIDS:
        grid = Grid(*bounds)
        T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
        norm = np.max(np.abs(T.diag)) + 2.0 / grid.h**2
        for tol in (1e-2, 1e-3, 1e-6, 1e6):
            try:
                levels = spectrum(model, p, grid, 3, tol)
            except GridTooCoarseError:
                continue
            certified += 1
            best = _single_solve(T, 3, abstol=2.0 * np.finfo(float).tiny)
            bound = 1e-3 * min(tol, 1e-3) + np.finfo(float).eps * norm
            assert np.max(np.abs(levels - best)) <= bound, (bounds, tol)
    assert certified >= 9


def test_certified_grid_needs_no_sturm_count(monkeypatch):
    import sips.oracle
    from conftest import model_grid

    def no_count(T, E):
        raise AssertionError("sturm_count called on a certified grid")

    monkeypatch.setattr(sips.oracle, "sturm_count", no_count)
    for model, text in (("scarf", "a=3,B=1"), ("poschl_teller", "a=6"), ("morse", "a=10,B=1")):
        for n_points in (1001, 4001, 16001):
            assert spectrum(model, parse_params(model, text), model_grid(model, n_points), 3).size == 3


def test_oscillator_grid_with_too_few_points():
    with pytest.raises(GridTooCoarseError, match="9-point grid on \\[-5, 5\\] has 7 interior points"):
        spectrum("oscillator", ParameterPoint(1.0), Grid(-5.0, 5.0, 9), 20)


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


@pytest.mark.parametrize("model,text", [("oscillator", None), ("scarf", "a=3,B=1")])
def test_eigenvector_matches_scipy_eigh_tridiagonal(ref_grid, model, text):
    # the referee calls stebz and stein itself, as eigh_tridiagonal does
    from scipy.linalg import eigh_tridiagonal

    T = discretize_hamiltonian(lambda x: potential_minus(model, x, parse_params(model, text)), ref_grid)
    for index in range(3):
        _, vectors = eigh_tridiagonal(T.diag, T.off, select="i", select_range=(index, index))
        full = np.zeros(ref_grid.n_points)
        full[1:-1] = vectors[:, 0]
        expected = SampledFunction(ref_grid, full).normalized()  # the sign convention
        psi = eigenvector(T, index)
        assert np.max(np.abs(psi.values - expected.values)) <= 1e-12 * np.max(np.abs(expected.values))


def test_lapack_fallback_without_extension_spec(monkeypatch, ref_grid, scarf_p):
    # a scipy whose _flapack is not on its path: the public scipy.linalg.lapack
    # hands the referee the same f2py functions
    import sys
    from importlib.machinery import PathFinder

    import scipy.linalg.lapack

    import sips.oracle

    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, scarf_p), ref_grid)
    expected = [lowest_eigenvalues(T, 3, abstol) for abstol in (0.0, 1e-6)]
    expected_psi = eigenvector(T, 2)
    find_spec = PathFinder.find_spec

    def no_flapack(name, path=None, target=None):
        return None if name == "scipy.linalg._flapack" else find_spec(name, path, target)

    monkeypatch.setattr(PathFinder, "find_spec", staticmethod(no_flapack))
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    sips.oracle._lapack.cache_clear()
    try:
        assert sips.oracle._lapack() is scipy.linalg.lapack
        for levels, abstol in zip(expected, (0.0, 1e-6)):
            assert np.array_equal(lowest_eigenvalues(T, 3, abstol), levels)
        assert np.array_equal(eigenvector(T, 2).values, expected_psi.values)
    finally:
        sips.oracle._lapack.cache_clear()


def test_one_point_operator():
    # LAPACK's f2py wrappers reject the empty off-diagonal of a 1×1 T
    T = TridiagonalOperator([2.5], [], Grid(0.0, 1.0, 3))
    assert np.array_equal(lowest_eigenvalues(T, 1), [2.5])
    assert np.allclose(eigenvector(T, 0).values, [0.0, np.sqrt(2.0), 0.0], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "diag,off", [([1.0, np.nan, 1.0], [-1.0, -1.0]), ([1.0, 2.0, 3.0], [-np.inf, -1.0]),
                 ([np.inf, 2.0, np.inf], [-1.0, -1.0])]
)
def test_nonfinite_operator_rejected(diag, off):
    # a usage error raised before LAPACK runs, not a LinAlgError from it
    T = TridiagonalOperator(diag, off, Grid(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="infs or NaNs"):
        lowest_eigenvalues(T, 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvector(T, 0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        sturm_count(T, 0.0)


@pytest.mark.parametrize("index", [-1, 3])
def test_eigenvector_index_outside_operator(index):
    T = TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, -1.0], Grid(0.0, 1.0, 5))
    with pytest.raises(ValueError, match=f"level {index} is outside a 3-point operator"):
        eigenvector(T, index)


def test_lapack_failure_raises(monkeypatch):
    import types

    import sips.oracle

    def failed(d, e, *args):
        return 0, np.zeros(d.size), np.zeros(d.size, np.int32), np.zeros(d.size, np.int32), 4

    monkeypatch.setattr(sips.oracle, "_lapack", lambda: types.SimpleNamespace(dstebz=failed))
    T = TridiagonalOperator([1.0, 2.0, 3.0], [-1.0, -1.0], Grid(0.0, 1.0, 5))
    with pytest.raises(np.linalg.LinAlgError, match="dstebz failed \\(info=4\\)"):
        lowest_eigenvalues(T, 2)
    with pytest.raises(np.linalg.LinAlgError, match="dstebz"):
        eigenvector(T, 0)
    with pytest.raises(np.linalg.LinAlgError, match="dstebz failed \\(info=4\\)"):
        sturm_count(T, 2.0)


def test_persymmetric_operator_near_the_largest_float():
    # a finite T whose mirrored diagonal entries would overflow when summed:
    # the even and odd halves average them without the sum
    T = TridiagonalOperator([1.5e308, 2.0, 1.5e308], [-1.0, -1.0], Grid(0.0, 1.0, 5))
    assert sturm_count(T, 3.0) == 1
    # the exact levels are 2 - 2/1.5e308 and 1.5e308 twice (to within 1e-308)
    assert np.allclose(lowest_eigenvalues(T, 3), [2.0, 1.5e308, 1.5e308], rtol=4e-16, atol=0.0)


@pytest.mark.parametrize(
    "diag,off,bounds",
    [([1.5e308, 0.0, -1.5e308], [-1.0, -1.0], "‖T‖₁ <= 1.5e+308, width <= inf"),
     ([1.79e308, 1.79e308, 1.79e308], [-1e307, -1e307], "‖T‖₁ <= inf, width <= 4e+307")],
)
def test_overflowing_gershgorin_interval_rejected(diag, off, bounds):
    # finite entries whose eigenvalues may span more than the largest float
    # (the spread of diag) or lie beyond it (a wall plus its bonds): a usage
    # error naming the bound, raised before LAPACK runs and with no warning
    T = TridiagonalOperator(diag, off, Grid(0.0, 1.0, 5))
    message = re.escape(f"Gershgorin interval overflows ({bounds})")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            lowest_eigenvalues(T, 3)
        with pytest.raises(ValueError, match=message):
            eigenvector(T, 0)
        with pytest.raises(ValueError, match=message):
            sturm_count(T, 0.0)

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np

from sips import (
    Grid,
    ParameterPoint,
    RepClass,
    RepLabel,
    SampledFunction,
    SectorFunction,
    algebra_spectrum,
    classify,
    closure_residual,
    commutator_j3_residual,
    discretize_hamiltonian,
    excited_state_by_ladder,
    ladder_coefficient,
    lowest_eigenvalues,
    node_count,
    potential_minus,
    potential_plus,
    residual_norm,
    spectrum,
    spectrum_by_shape_invariance,
    verify_shape_invariance,
)

from conftest import model_grid

REF_GRID = Grid(-20.0, 20.0, 4001)
SCARF_P = ParameterPoint(3.0, {"B": 1.0})


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_scarf_spectrum():
    """Scarf a0=3, B=1: recursion gives {0, 5, 8}; eigensolver agrees to 1e-3;
    the whole check runs in under 10 s."""
    start = time.perf_counter()
    spec = spectrum_by_shape_invariance("scarf", SCARF_P, 3)
    exact = np.max(np.abs(spec.energies - np.array([0.0, 5.0, 8.0])))
    numeric = spectrum("scarf", SCARF_P, REF_GRID, 3)
    diff = np.max(np.abs(numeric - spec.energies))
    elapsed = time.perf_counter() - start
    report(
        1,
        exact == 0.0 and diff < 1e-3 and elapsed < 10.0,
        f"recursion {list(spec.energies)}, oracle max|diff| {diff:.2e} "
        f"(tol 1e-3), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_two_route_equality():
    """Algebra route at m = a0 + 1/2 matches the recursion level-by-level to
    1e-12, at (m=3.5, a0=3, n<=2) and (m=5.5, a0=5, n<=4)."""
    worst = 0.0
    for a0, n in ((3.0, 3), (5.0, 5)):
        p0 = ParameterPoint(a0, {"B": 1.0})
        shape = spectrum_by_shape_invariance("scarf", p0, n)
        alg = algebra_spectrum("scarf", p0, n)
        worst = max(worst, float(np.max(np.abs(np.asarray(shape.energies) - alg.energies))))
    report(2, worst <= 1e-12, f"max level discrepancy {worst:.2e} (tol 1e-12)")


def test_criterion_3_shape_invariance_identity():
    """V+(x, a_k) - V-(x, a_{k+1}) - R(a_k) vanishes to 1e-9 on the grid for
    all four models at two parameter points each, k = 0..2."""
    cases = {
        "scarf": [ParameterPoint(4.0, {"B": 1.0}), ParameterPoint(5.5, {"B": 2.0})],
        "poschl_teller": [ParameterPoint(4.0), ParameterPoint(5.5)],
        "morse": [ParameterPoint(4.0, {"B": 1.0}), ParameterPoint(5.5, {"B": 1.0})],
        "oscillator": [ParameterPoint(1.0), ParameterPoint(2.0)],
    }
    worst = 0.0
    for model_id, points in cases.items():
        grid = model_grid(model_id, 2001)
        for p in points:
            rep = verify_shape_invariance(model_id, p, grid, k_max=3)
            worst = max(worst, rep.max_residual)
    report(3, worst < 1e-9, f"max identity residual {worst:.2e} (tol 1e-9)")


def test_criterion_4_algebra_closure():
    """[j+, j-] + 2m acts as zero to 1e-4 on the smooth test suite for scarf
    at m = 0.5, 2, 3.5; the [j3, j±] relation holds to 1e-12."""
    x = REF_GRID.x
    g = np.exp(-(x**2))
    h = np.exp(-((x - 1.0) ** 2) / 2.0)
    # each test function with its exact f' and f''
    suite = {
        "gaussian": (g, -2.0 * x * g, (4.0 * x**2 - 2.0) * g),
        "odd_gaussian": (x * g, (1.0 - 2.0 * x**2) * g, (4.0 * x**3 - 6.0 * x) * g),
        "offset_gaussian": (h, -(x - 1.0) * h, ((x - 1.0) ** 2 - 1.0) * h),
    }
    worst_closure, worst_j3 = 0.0, 0.0
    for m in (0.5, 2.0, 3.5):
        p = ParameterPoint(m, {"B": 1.0})
        for f, df, d2f in suite.values():
            sector = SectorFunction(m, SampledFunction(REF_GRID, f), (df, d2f))
            worst_closure = max(worst_closure, closure_residual("scarf", sector, p)["closure"])
            j3 = commutator_j3_residual("scarf", sector, p)
            worst_j3 = max(worst_j3, j3["plus"], j3["minus"])
    report(
        4,
        worst_closure < 1e-4 and worst_j3 < 1e-12,
        f"closure residual {worst_closure:.2e} (tol 1e-4), "
        f"j3 commutator residual {worst_j3:.2e} (tol 1e-12)",
    )


def test_criterion_5_isospectrality():
    """Partner spectra interlace: E+_{n-1} = E-_n within 2e-3 for n = 1, 2 at
    scarf a0=3."""
    minus = spectrum("scarf", SCARF_P, REF_GRID, 3)
    T_plus = discretize_hamiltonian(
        lambda x: potential_plus("scarf", x, SCARF_P), REF_GRID
    )
    plus = lowest_eigenvalues(T_plus, 2)
    diff = np.max(np.abs(plus - minus[1:]))
    report(5, diff < 2e-3, f"max |E+_(n-1) - E-_n| {diff:.2e} (tol 2e-3)")


def test_criterion_6_ladder_wavefunctions():
    """Ladder-built scarf states have n nodes and eigen-residual < 1e-3 for
    n = 0, 1, 2."""
    T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, SCARF_P), REF_GRID)
    ok = True
    details = []
    for n, energy in enumerate((0.0, 5.0, 8.0)):
        psi = excited_state_by_ladder("scarf", SCARF_P, n, REF_GRID)
        nodes = node_count(psi)
        res = residual_norm(T, psi, energy)
        details.append(f"n={n}: nodes={nodes}, residual={res:.2e}")
        ok = ok and nodes == n and res < 1e-3
    report(6, ok, "; ".join(details) + " (tol 1e-3)")


def test_criterion_7_unirep_suite():
    """Classification matches the four-class table on a 12-case fixture; edge
    annihilation is exact; labels j and -j-1 give identical multiplets for 10
    random j."""
    fixture = [
        (-1.5, 1.5, RepClass.D_PLUS),
        (-1.5, -1.5, RepClass.D_MINUS),
        (-3.0, 3.0, RepClass.D_PLUS),
        (-3.0, -3.0, RepClass.D_MINUS),
        (-0.25, 0.25, RepClass.D_PLUS),
        (-0.25, -0.25, RepClass.D_MINUS),
        (-0.5, 0.0, RepClass.D_S),
        (-0.4, 0.2, RepClass.D_S),
        (-1.5, 0.0, RepClass.INVALID),
        (-1.5, 1.0, RepClass.INVALID),
        (2.0, 2.0, RepClass.INVALID),
        (-0.4, 0.45, RepClass.INVALID),
    ]
    table_ok = all(classify(j, m0).rep_class is expected for j, m0, expected in fixture)

    edges_ok = all(
        ladder_coefficient(RepLabel.bounded_below(j).j, RepLabel.bounded_below(j).m0, "lower") == 0.0
        and ladder_coefficient(RepLabel.bounded_above(j).j, RepLabel.bounded_above(j).m0, "raise") == 0.0
        for j in (-1.5, -3.0, -0.75, -4.25)
    )

    from sips import enumerate_multiplet

    rng = np.random.default_rng(7)
    mirror_ok = True
    for j in -5.0 * rng.random(10) - 1e-6:
        a = enumerate_multiplet(RepLabel.bounded_below(j), 6)
        b = enumerate_multiplet(RepLabel.bounded_below(-j - 1.0), 6)
        mirror_ok = mirror_ok and a.m_values == b.m_values and a.casimir == b.casimir

    report(
        7,
        table_ok and edges_ok and mirror_ok,
        f"12-case table {'ok' if table_ok else 'FAIL'}, "
        f"edge annihilation {'exact' if edges_ok else 'FAIL'}, "
        f"mirror equivalence over 10 random j {'ok' if mirror_ok else 'FAIL'}",
    )


def test_criterion_8_oscillator_control():
    """Oscillator: recursion gives E_n = 2n for n <= 3; eigensolver agrees to
    1e-4; halving h improves the eigenvalue error by ~4x."""
    p = ParameterPoint(1.0)
    spec = spectrum_by_shape_invariance("oscillator", p, 4)
    exact = np.max(np.abs(spec.energies - np.array([0.0, 2.0, 4.0, 6.0])))
    numeric = spectrum("oscillator", p, Grid(-20.0, 20.0, 8001), 4)
    diff = np.max(np.abs(numeric - spec.energies))
    errors = []
    for n_points in (1001, 2001):
        grid = Grid(-20.0, 20.0, n_points)
        energies = spectrum("oscillator", p, grid, 2)
        errors.append(abs(energies[1] - 2.0))
    ratio = errors[0] / errors[1]
    report(
        8,
        exact == 0.0 and diff < 1e-4 and 3.5 < ratio < 4.5,
        f"recursion {list(spec.energies)}, oracle max|diff| {diff:.2e} "
        f"(tol 1e-4), Richardson factor {ratio:.3f} (expect ~4)",
    )

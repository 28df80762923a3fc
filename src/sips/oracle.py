"""Independent finite-difference eigensolver for -d²/dx² + V(x).

This is the numerical referee for every analytic claim in the package, so it
deliberately shares nothing with the analytic machinery: second-order central
differences (the ladder code uses fourth-order stencils), Dirichlet walls at
the box edges, and LAPACK's tridiagonal bisection (stebz) and inverse
iteration (stein) for eigenpairs. A Sturm-sequence count, computed here
independently of LAPACK, certifies how many levels lie below an energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .catalog import ParameterPoint, get_model, potential_minus
from .errors import GridTooCoarseError
from .grids import Grid, SampledFunction

__all__ = [
    "TridiagonalOperator",
    "discretize_hamiltonian",
    "sturm_count",
    "lowest_eigenvalues",
    "eigenvector",
    "spectrum",
    "residual_norm",
    "compare_spectra",
    "SpectrumComparison",
]


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of -d²/dx² + V with ψ = 0 at the
    box edges. ``diag`` and ``off`` cover the interior nodes only."""

    diag: NDArray[np.float64] = field(repr=False)
    off: NDArray[np.float64] = field(repr=False)
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.off.shape != (self.diag.size - 1,):
            raise ValueError("off-diagonal must be one entry shorter than diagonal")

    @property
    def size(self) -> int:
        return self.diag.size

    def apply(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def discretize_hamiltonian(V: Callable, grid: Grid) -> TridiagonalOperator:
    """Standard 3-point discretization: diag = 2/h² + V(x_i), off = -1/h²."""
    x_interior = grid.x[1:-1]
    v = np.asarray(V(x_interior), dtype=float)
    if v.shape != x_interior.shape:
        v = np.broadcast_to(v, x_interior.shape).astype(float)
    if not np.all(np.isfinite(v)):
        bad = x_interior[~np.isfinite(v)][:3]
        raise ValueError(f"potential is non-finite at grid points {bad}")
    inv_h2 = 1.0 / grid.h**2
    diag = 2.0 * inv_h2 + v
    off = np.full(v.size - 1, -inv_h2)
    return TridiagonalOperator(diag, off, grid)


def sturm_count(T: TridiagonalOperator, E: float) -> int:
    """Number of eigenvalues of T strictly below E (Sturm sequence sign count)."""
    return _sturm_count(T.diag.tolist(), (T.off**2).tolist(), float(E))


def _sturm_count(diag: list, off2: list, E: float) -> int:
    # LDLᵀ pivots of T - E; count of negative pivots = eigenvalues below E.
    # Plain-float loop: ~1 ms on 4000 nodes, far below numpy per-op overhead.
    count = 0
    q = diag[0] - E
    if q < 0.0:
        count += 1
    tiny = 1e-300
    for i in range(1, len(diag)):
        if q == 0.0:
            q = tiny
        q = diag[i] - E - off2[i - 1] / q
        if q < 0.0:
            count += 1
    return count


def lowest_eigenvalues(T: TridiagonalOperator, k: int) -> NDArray[np.float64]:
    """The k smallest eigenvalues, ascending, from LAPACK bisection (stebz)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > T.size:
        raise ValueError(f"requested {k} eigenvalues from a {T.size}-point operator")
    return eigvalsh_tridiagonal(T.diag, T.off, select="i", select_range=(0, k - 1))


def eigenvector(T: TridiagonalOperator, index: int) -> SampledFunction:
    """Unit-norm eigenvector of level ``index`` (0 = lowest), from LAPACK
    inverse iteration (stein).

    Returns the wavefunction on the full grid (zeros re-attached at the
    Dirichlet walls), trapezoid-normalized, with the sign fixed so the first
    sizable component is positive.
    """
    _, vectors = eigh_tridiagonal(
        T.diag, T.off, select="i", select_range=(index, index)
    )
    v = vectors[:, 0]
    first = np.argmax(np.abs(v) > 1e-2 * np.max(np.abs(v)))
    if v[first] < 0:
        v = -v
    full = np.zeros(T.grid.n_points)
    full[1:-1] = v
    return SampledFunction(T.grid, full).normalized()


def spectrum(model, p: ParameterPoint, grid: Grid, k: int) -> NDArray[np.float64]:
    """The k lowest levels of -d²/dx² + V-(x; p) discretized on ``grid``.

    For families with a continuum edge, the Sturm count certifies that the
    discretized H holds at least k levels below it; a grid too coarse to
    resolve them raises GridTooCoarseError instead of returning box states.
    """
    model = get_model(model)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
    edge = model.continuum_edge(p)
    if edge is not None:
        below = sturm_count(T, edge)
        if below < k:
            raise GridTooCoarseError(
                f"{grid.n_points}-point grid on [{grid.x_min:g}, {grid.x_max:g}] "
                f"holds {below} of {k} levels below the continuum edge {edge:g}"
            )
    return lowest_eigenvalues(T, k)


def residual_norm(T: TridiagonalOperator, psi: SampledFunction, E: float) -> float:
    """Relative eigen-residual ||Tψ - Eψ||₂ / ||ψ||₂ over interior points."""
    if psi.grid != T.grid:
        raise ValueError("wavefunction grid does not match operator grid")
    v = psi.values[1:-1]
    r = T.apply(v) - E * v
    return float(np.linalg.norm(r) / np.linalg.norm(v))


@dataclass
class SpectrumComparison:
    """Per-level comparison of an analytic spectrum against numeric values."""

    analytic: NDArray[np.float64]
    numeric: NDArray[np.float64]
    abs_diff: NDArray[np.float64]
    tol: float
    passed: bool
    worst_level: int

    @property
    def max_abs_diff(self) -> float:
        return float(self.abs_diff[self.worst_level])

    def to_dict(self) -> dict:
        return {
            "analytic": self.analytic.tolist(),
            "numeric": self.numeric.tolist(),
            "abs_diff": self.abs_diff.tolist(),
            "tol": self.tol,
            "passed": self.passed,
            "worst_level": self.worst_level,
            "max_abs_diff": self.max_abs_diff,
        }


def compare_spectra(analytic, numeric: Sequence[float], tol: float) -> SpectrumComparison:
    """Levelwise |analytic - numeric| against tol; extra numeric levels are
    ignored (the numeric solver does not know the bound-state cutoff)."""
    analytic_energies = np.asarray(
        getattr(analytic, "energies", analytic), dtype=float
    )
    numeric = np.asarray(numeric, dtype=float)
    if numeric.size < analytic_energies.size:
        raise ValueError(
            f"numeric spectrum has {numeric.size} levels, "
            f"need at least {analytic_energies.size}"
        )
    numeric = numeric[: analytic_energies.size]
    diff = np.abs(analytic_energies - numeric)
    worst = int(np.argmax(diff)) if diff.size else 0
    return SpectrumComparison(
        analytic=analytic_energies,
        numeric=numeric,
        abs_diff=diff,
        tol=tol,
        passed=bool(np.all(diff < tol)),
        worst_level=worst,
    )

"""Independent finite-difference eigensolver for -d²/dx² + V(x).

This is the numerical referee for every analytic claim in the package, so it
deliberately shares nothing with the analytic machinery: second-order central
differences (the ladder takes no derivative), Dirichlet walls at
the box edges, and LAPACK's tridiagonal bisection (stebz) and inverse
iteration (stein) for eigenpairs. Both come from scipy's compiled LAPACK
module, loaded on the first solve without importing ``scipy.linalg``, whose
array-API layer would triple a cold ``sips verify`` (``_lapack``).
``lowest_eigenvalues`` splits an operator that is symmetric about its centre
(an even potential on a centred box) into its even and odd halves, two
problems of half the size. ``spectrum`` bisects each level only as far as
the verdict needs, to 1e-3·min(tol, 1e-3) in energy units (LAPACK's ABSTOL),
and certifies that a grid holds the requested levels from the eigenvalues
stebz returns, with a margin of that ABSTOL plus 8·eps·‖T‖₁. Given estimates
of the levels (``verify`` passes the closed forms it judges), each level is
bisected in a window about its estimate, moved after the lowest level by
the offset from their estimates of the levels found below it, and Sturm
counts certify that the windows hold the lowest levels, one each; a hint
they do not certify is dropped, so it never decides a level, only how long
the bisection takes.
``sturm_count`` counts the levels below any energy with one stebz call and
no bisection step; ``spectrum`` calls it only for a grid that the
eigenvalues do not certify.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

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


class TridiagonalOperator(
    NamedTuple(
        "TridiagonalOperator", [("diag", NDArray[np.float64]), ("off", NDArray[np.float64]), ("grid", Grid)]
    )
):
    """Symmetric tridiagonal discretization of -d²/dx² + V with ψ = 0 at the
    box edges. ``diag`` and ``off`` cover the interior nodes only."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, diag, off, grid: Grid):
        diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
        if off.shape != (diag.size - 1,):
            raise ValueError("off-diagonal must be one entry shorter than diagonal")
        return super().__new__(cls, diag, off, grid)

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
    """Number of eigenvalues of T strictly below E: the count of one LAPACK
    dstebz call on (-inf, nextafter(E, -inf)] (RANGE='V'; dstebz clips -inf
    to its Gershgorin bound), whose ABSTOL = +inf leaves out every bisection
    step. Exact for T with off-diagonals perturbed by a few eps (Kahan), so
    an E within about eps·‖T‖₁ of an eigenvalue may count either way.
    """
    E = float(E)
    if np.isnan(E):
        raise ValueError("cannot count the eigenvalues below nan")
    _check_finite(T.diag, T.off)
    if T.size == 1 or np.isinf(E):  # f2py rejects an empty off-diagonal, dstebz VL >= VU
        return int(np.count_nonzero(T.diag < E))
    m, _, _, _, info = _lapack().dstebz(
        T.diag, T.off, 1, -np.inf, np.nextafter(E, -np.inf), 0, 0, np.inf, "E"
    )
    _checked("dstebz", info)
    return m


def lowest_eigenvalues(
    T: TridiagonalOperator,
    k: int,
    abstol: float = 0.0,
    near: Sequence[float] | None = None,
) -> NDArray[np.float64]:
    """The k smallest eigenvalues, ascending, from LAPACK bisection (stebz).

    ``abstol`` is stebz's ABSTOL, the width in energy units to which each
    eigenvalue is bisected; 0.0 keeps LAPACK's default, eps·‖T‖₁.

    ``near``, ascending estimates of the k levels, lets stebz bisect each
    level in a window about its estimate instead of from T's Gershgorin
    interval (``_windowed``); the windows after the first follow the offset
    from their estimates of the levels below. The window's half-width
    starts at 1e3·abstol, which is the tol of ``spectrum`` for tol <= 1e-3
    (with abstol = 0 no window opens). Sturm counts certify the windows, so
    a wrong hint costs time and never a level: windows that do not certify
    the k levels send the solve to the bisection without a hint. Either way
    each level is bisected to ``abstol``, so the two agree to within it.

    A T symmetric about its centre (persymmetric: a parity-symmetric
    potential on a box centred on its well) is solved as its even and odd
    blocks, two tridiagonals of about half its size (Cantoni and Butler,
    Linear Algebra Appl. 13 (1976) 275), so each level is bisected on about
    half the nodes. Each is still bisected to ``abstol``, so it may differ
    from a single solve of the whole T by up to that, plus at most eps·‖T‖₁
    (``_persymmetric_halves``).
    Any other T gets the single solve.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > T.size:
        raise ValueError(f"requested {k} eigenvalues from a {T.size}-point operator")
    if near is not None:
        near = [float(e) for e in near]
    _check_finite(T.diag, T.off)
    halves = _persymmetric_halves(T)
    if halves is None:
        blocks = [(T.diag, T.off, k, near)]
    else:
        # The odd block is a leading principal submatrix of the even one (odd
        # size), or the even block plus a positive rank-one term (even size),
        # so by Cauchy interlacing the levels alternate even, odd, even, ...:
        # the k lowest are the ⌈k/2⌉ lowest even ones and the ⌊k/2⌋ lowest odd
        # ones, whose estimates are near[0::2] and near[1::2].
        blocks = [
            (diag, off, count, None if near is None else near[parity::2])
            for parity, ((diag, off), count) in enumerate(zip(halves, ((k + 1) // 2, k // 2)))
            if count
        ]
    levels = []
    for diag, off, count, hint in blocks:
        # a hint whose windows do not certify the levels is dropped
        found = None if hint is None else _windowed(diag, off, count, abstol, hint)
        levels.append(_stebz(diag, off, count, abstol) if found is None else found)
    return levels[0] if halves is None else np.sort(np.concatenate(levels))


@functools.cache
def _lapack():
    """scipy's f2py LAPACK module, which holds dstebz and dstein.

    ``scipy.linalg`` would cost a cold process about 0.3 s, two thirds of it
    scipy's array-API layer (numpy.f2py, numpy.testing, numpy.random), none
    of which the referee uses. Top-level ``scipy`` (its platform set-up,
    such as DLL paths on Windows) and the one extension module
    ``scipy.linalg._flapack``, found on scipy's own path, cost about 20 ms.
    It stays out of ``sys.modules``, since loaded before its package it would
    never be set as its attribute; ``import scipy.linalg`` rebuilds it from
    CPython's extension cache, with the same functions. A scipy without it on
    its path gets them from the public ``scipy.linalg.lapack``.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is already imported
        return sys.modules[name]
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec

    spec = PathFinder.find_spec(name, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)  # single-phase init registers it
    return module


def _checked(routine: str, info: int) -> None:
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def _check_finite(diag: NDArray[np.float64], off: NDArray[np.float64]) -> None:
    # as scipy's wrappers do: a nan or inf is the caller's error, and stebz
    # has no check of its own. Each public solver checks its T once; the
    # helpers below trust T and the blocks derived from it.
    # stebz bisects from T's Gershgorin interval, whose ends lie within
    # max|diag| + 2·max|off| (a bound on ‖T‖₁) of 0, and which is at most
    # max(diag) - min(diag) + 4·max|off| wide: both must be finite floats
    # (Python floats, whose overflow is inf, with no numpy warning; a nan or
    # inf entry makes the width nan or inf).
    top, bottom = float(diag.max()), float(diag.min())
    radius = 2.0 * float(np.abs(off).max(initial=0.0))
    norm, width = max(top, -bottom) + radius, top - bottom + 2.0 * radius
    if math.isfinite(norm) and math.isfinite(width):
        return
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("tridiagonal operator must not contain infs or NaNs")
    raise ValueError(
        f"tridiagonal operator's Gershgorin interval overflows (‖T‖₁ <= {norm:.3g}, "
        f"width <= {width:.3g}): its eigenvalues may span more than the largest float"
    )


def _stebz(diag, off, k: int, abstol: float) -> NDArray[np.float64]:
    """The k lowest eigenvalues of one tridiagonal, ascending: the stebz call
    of ``scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
    select_range=(0, k - 1), tol=abstol)``, bit for bit."""
    if diag.size == 1:  # f2py rejects an empty off-diagonal
        return diag.copy()
    m, w, _, _, info = _lapack().dstebz(diag, off, 2, 0.0, 0.0, 1, k, abstol, "E")
    _checked("dstebz", info)
    return w[:m]


def _windowed(diag, off, k: int, abstol: float, near: list):
    """The k lowest eigenvalues of one tridiagonal, ascending, each bisected to
    ``abstol`` by one LAPACK dstebz call (RANGE='V') on its own window
    (c_i - w, c_i + w], or None when the windows do not certify them.

    ``_stebz`` bisects every level from T's Gershgorin interval, about 6e5
    wide at 16001 points, to ABSTOL; a window about a good estimate leaves out
    most of those Sturm counts. The top window and level 0's are centred on
    their estimates, c_i = near[i]. The others follow the levels below, whose
    offsets d_j = levels[j] - near[j] are known by then: c_1 = near[1] + d_0,
    and c_i = near[i] + 2·d_{i-1} - d_{i-2}, the offset extrapolated linearly,
    for i >= 2. On a coarse grid the offsets grow smoothly with the level
    (the oscillator's 32 at 4001 points reach -1.2e-2, twelve first
    half-widths), so a window about near[i] alone would be widened and
    bisected again. w starts at 1e3·abstol and an empty window, which costs
    only its two end counts, is widened 8 times, up to three times. The
    levels are certified when each window holds exactly one, the windows are
    finite, ascending and disjoint, and one count (ABSTOL = +inf, as in
    ``sturm_count``) finds exactly k levels at or below the top window's
    upper end. That count comes first, for the top window, so every
    window bisected lies where at most k levels do, and no call bisects more
    than k however wide its window. Sturm counts at the same energy agree
    from call to call, so the certificate is as exact as ``sturm_count``
    (Kahan).
    """
    if len(near) != k or diag.size == 1:  # f2py rejects an empty off-diagonal
        return None
    dstebz = _lapack().dstebz
    levels = np.empty(k)
    floor, ceiling = -np.inf, np.inf  # above the windows below, below the top one
    for i in (k - 1, *range(k - 1)):  # the top window first
        # found - near of the levels below, extrapolated linearly to level i
        offset = 0.0 if i in (0, k - 1) else levels[i - 1] - near[i - 1]
        if 1 < i < k - 1:
            offset += offset - (levels[i - 2] - near[i - 2])
        centre, w = near[i] + offset, 1e3 * abstol
        for _ in range(4):
            lo, hi = centre - w, centre + w
            # this also stops a nan, an overflow and a width that rounds away
            # (dstebz refuses VL >= VU, and prints a line on standard output)
            if not (-np.inf < lo < hi < np.inf and floor <= lo and hi <= ceiling):
                return None
            if i == k - 1:  # exactly k levels at or below the top window
                below, _, _, _, info = dstebz(diag, off, 1, -np.inf, hi, 0, 0, np.inf, "E")
                if info or below > k:
                    return None
                if below < k:
                    w *= 8.0
                    continue
            m, found, _, _, info = dstebz(diag, off, 1, lo, hi, 0, 0, abstol, "E")
            if info or m > 1:
                return None
            if m:
                break
            w *= 8.0
        else:
            return None
        levels[i] = found[0]
        if i == k - 1:
            ceiling = lo
        else:
            floor = hi
    return levels


def _persymmetric_halves(T: TridiagonalOperator):
    """The even and odd blocks of a persymmetric T, each a (diag, off) pair,
    or None when T is not persymmetric.

    T counts as persymmetric when ``|off|`` is a palindrome and ``diag`` is one
    to within 2·eps·‖T‖₁ (bounded, as in ``spectrum``, by max|diag| +
    2·max|off|); ``diag`` is then replaced by its average with its mirror
    image, which moves each level by at most eps·‖T‖₁ (Weyl). Replacing
    ``off`` by -|off|, a ±1 similarity, keeps the spectrum and the symmetry;
    then the vectors even about the centre see, for an odd size with centre
    node m, ``diag[:m + 1]`` with the bond to the centre scaled by √2, and the
    odd ones, zero at the centre, the leading m×m block. For an even size 2m
    the centre bond -|c| is added to the last entry of ``diag[:m]`` for the
    even block and subtracted for the odd one. Off-diagonal signs do not
    change a tridiagonal's spectrum, so the blocks keep |off|.
    """
    diag, off = T.diag, np.abs(T.off)
    mirror = diag[::-1]
    # finite, as _check_finite found, which keeps every block below finite
    norm = np.abs(diag).max() + 2.0 * off.max(initial=0.0)
    palindrome = np.abs(diag - mirror).max() <= 2.0 * np.finfo(float).eps * norm
    if not (palindrome and np.array_equal(off, off[::-1])):
        return None
    # halved before the sum, which overflows for entries near the largest
    # float: the same bits as 0.5·(diag + mirror) wherever that does not
    # overflow, except for entries below 2⁻¹⁰²¹, whose halves round
    diag = 0.5 * diag + 0.5 * mirror
    m = diag.size // 2
    if diag.size % 2:
        even_off = off[:m].copy()
        even_off[-1:] *= np.sqrt(2.0)  # the bond to the centre (none if n = 1)
        return (diag[: m + 1], even_off), (diag[:m], off[: m - 1])
    centre = off[m - 1]
    even_diag, odd_diag = diag[:m].copy(), diag[:m].copy()
    even_diag[-1] -= centre
    odd_diag[-1] += centre
    return (even_diag, off[: m - 1]), (odd_diag, off[: m - 1])


def eigenvector(T: TridiagonalOperator, index: int) -> SampledFunction:
    """Unit-norm eigenvector of level ``index`` (0 = lowest), from LAPACK
    inverse iteration (stein).

    Returns the wavefunction on the full grid (zeros re-attached at the
    Dirichlet walls), normalized as every state is (SampledFunction.normalized).
    These are the calls ``scipy.linalg.eigh_tridiagonal(T.diag, T.off,
    select="i", select_range=(index, index))`` makes.
    """
    if not 0 <= index < T.size:
        raise ValueError(f"level {index} is outside a {T.size}-point operator")
    _check_finite(T.diag, T.off)
    full = np.zeros(T.grid.n_points)
    if T.size == 1:
        full[1] = 1.0
    else:
        lapack = _lapack()
        # block order ("B"), which stein needs
        m, w, iblock, isplit, info = lapack.dstebz(
            T.diag, T.off, 2, 0.0, 0.0, index + 1, index + 1, 0.0, "B"
        )
        _checked("dstebz", info)
        vectors, info = lapack.dstein(T.diag, T.off, w[:m], iblock, isplit)
        _checked("dstein", info)
        full[1:-1] = vectors[:, 0]
    return SampledFunction(T.grid, full).normalized()


def spectrum(
    model,
    p: ParameterPoint,
    grid: Grid,
    k: int,
    tol: float = 1e-3,
    near: Sequence[float] | None = None,
) -> NDArray[np.float64]:
    """The k lowest levels of -d²/dx² + V-(x; p) discretized on ``grid``.

    ``tol`` is the verdict tolerance the levels will be judged against; each
    level is bisected to 1e-3·min(tol, 1e-3) in energy units (stebz's
    ABSTOL), so the solve adds at most that to the discretization error being
    judged, and a large tol still reports the discretized levels.

    ``near``, estimates of the k levels such as the analytic spectrum being
    judged, places each level's bisection in a window of half-width
    min(tol, 1e-3), 1e3 times that ABSTOL, about its estimate, widened if
    empty; after the lowest level a window's centre also follows the offset
    of the levels found below it (``lowest_eigenvalues``). Sturm counts
    certify the windows, and any hint they do not certify is ignored, so the
    hint can move a level by at most that ABSTOL and changes no verdict,
    certificate or error; a hint within that half-width of each level, or
    off from the levels by an offset that changes slowly with the level,
    saves a third to a half of the bisection time.

    For families with a continuum edge, the grid must hold k levels below it
    (the k-th lowest eigenvalue lies below the edge), and h·√(edge - min V)
    <= 1 must hold (the spacing resolves the shortest local wavelength). A
    grid too coarse for either, or with fewer interior points than k, raises
    GridTooCoarseError instead of returning box states. A k-th level below
    the edge by more than that ABSTOL + 8·eps·‖T‖₁ certifies the grid; otherwise
    ``sturm_count`` decides.
    """
    model = get_model(model)
    T = discretize_hamiltonian(lambda x: potential_minus(model, x, p), grid)
    abstol = 1e-3 * min(tol, 1e-3)
    edge = model.continuum_edge(p)
    where = f"{grid.n_points}-point grid on [{grid.x_min:g}, {grid.x_max:g}]"
    if edge is None:
        if k > T.size:
            raise GridTooCoarseError(f"{where} has {T.size} interior points, too few for {k} levels")
        return lowest_eigenvalues(T, k, abstol, near)
    depth = edge - (np.min(T.diag) - 2.0 / grid.h**2)
    unresolved = grid.h * np.sqrt(max(depth, 0.0)) > 1.0
    # A grid that cannot pass is not solved: that would cost O(k·N).
    levels = None if k > T.size or unresolved else lowest_eigenvalues(T, k, abstol, near)
    # dstebz (LAPACK 3.x documentation of ABSTOL and dlaebz) stops once the
    # bisection interval is narrower than max(ABSTOL, 2·eps·|λ|) and returns
    # its midpoint, at most ABSTOL/2 + eps·‖T‖₁ from the eigenvalue its
    # Sturm counts see (|λ| ≤ ‖T‖₁); those counts are exact for T with
    # off-diagonals perturbed by a few eps (Kahan), another ~2.5·eps·‖T‖₁.
    # A persymmetric T is solved as the halves of its symmetrization
    # (lowest_eigenvalues), whose levels lie within eps·‖T‖₁ of T's (Weyl).
    # A steep wall makes the eps terms larger than the levels themselves
    # (morse on [-20, 20]: ‖T‖₁ ≈ 2e17). A k-th eigenvalue below the edge by
    # ABSTOL + 8·eps·‖T‖₁, nearly twice the sum, certifies the grid; otherwise
    # the Sturm count, O(N), decides and gives the error its level count.
    norm = np.max(np.abs(T.diag)) + 2.0 / grid.h**2
    margin = abstol + 8.0 * np.finfo(float).eps * norm
    if levels is None or levels[-1] >= edge - margin:
        below = sturm_count(T, edge)
        if below < k:
            raise GridTooCoarseError(
                f"{where} holds {below} of {k} levels below the continuum edge {edge:g}"
            )
    if unresolved:
        raise GridTooCoarseError(
            f"grid spacing h={grid.h:g} cannot resolve a well {depth:g} deep (need h·√depth <= 1)"
        )
    return levels


def residual_norm(T: TridiagonalOperator, psi: SampledFunction, E: float) -> float:
    """Relative eigen-residual ||Tψ - Eψ||₂ / ||ψ||₂ over interior points."""
    if psi.grid != T.grid:
        raise ValueError("wavefunction grid does not match operator grid")
    v = psi.values[1:-1]
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("wavefunction is zero at every interior grid point")
    return float(np.linalg.norm(T.apply(v) - E * v) / norm)


class SpectrumComparison(NamedTuple):
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

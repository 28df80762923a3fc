"""Closed forms and independent numerics the benchmark checks `sips` against.

Nothing here imports `sips`: energies, eigenfunctions and potentials are
written out from the superpotentials, the finite-difference reference uses
LAPACK instead of the program's bisection, and the SO(2,1) regions are
recomputed from the two positivity inequalities.

Superpotentials (x real, ψ on the full line):

    scarf          W = a·tanh x + B·sech x
    poschl_teller  W = a·tanh x
    morse          W = a - B·e^(-x)
    oscillator     W = x

V- = W² - W'. For the three families with R(a) = 2a - 1 the energies are
E_n = a² - (a - n)² with ceil(a) bound levels; the oscillator has E_n = 2n.
Eigenfunctions follow Cooper, Khare and Sukhatme, Phys. Rep. 251 (1995) 267
(polynomial × ground state): Hermite, Gegenbauer in tanh x, Jacobi in
i·sinh x, and Laguerre in 2B·e^(-x).
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("scarf", "poschl_teller", "morse", "oscillator")
SO21_FAMILIES = ("scarf", "poschl_teller", "morse")


def bound_levels(model: str, a: float) -> int:
    """Number of normalizable levels; the oscillator is uncapped here."""
    if model == "oscillator":
        return 1 << 30
    return max(0, math.ceil(a))


def energy(model: str, a: float, n: int) -> float:
    if model == "oscillator":
        return 2.0 * n
    return a * a - (a - n) ** 2


def energies(model: str, a: float, levels: int) -> np.ndarray:
    return np.array([energy(model, a, n) for n in range(min(levels, bound_levels(model, a)))])


def superpotential(model: str, x: np.ndarray, a: float, B: float = 0.0):
    """(W, W') on x."""
    if model == "scarf":
        t, s = np.tanh(x), 1.0 / np.cosh(x)
        return a * t + B * s, a * s * s - B * s * t
    if model == "poschl_teller":
        s = 1.0 / np.cosh(x)
        return a * np.tanh(x), a * s * s
    if model == "morse":
        e = np.exp(-x)
        return a - B * e, B * e
    if model == "oscillator":
        return np.asarray(x, dtype=float), np.ones_like(x, dtype=float)
    raise ValueError(f"unknown family {model!r}")


def potential_minus(model: str, x: np.ndarray, a: float, B: float = 0.0) -> np.ndarray:
    w, w_prime = superpotential(model, x, a, B)
    return w * w - w_prime


def lapack_levels(model: str, a: float, B: float, box: tuple[float, float, int], k: int) -> np.ndarray:
    """Lowest k eigenvalues of the 3-point Dirichlet discretization of
    -d²/dx² + V- on the box, from LAPACK (bisection + inverse iteration in
    `stebz`, no code shared with the program)."""
    from scipy.linalg import eigh_tridiagonal

    x_min, x_max, n_points = box
    x = np.linspace(x_min, x_max, n_points)[1:-1]
    h = (x_max - x_min) / (n_points - 1)
    diag = 2.0 / h**2 + potential_minus(model, x, a, B)
    off = np.full(x.size - 1, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1))


def _binom(top: complex, k: int) -> complex:
    out = 1.0 + 0.0j
    for i in range(k):
        out *= (top - i) / (i + 1)
    return out


def _jacobi(n: int, alpha: complex, beta: complex, z: np.ndarray) -> np.ndarray:
    # Explicit sum: no three-term recursion, so no division by 2k + α + β.
    total = np.zeros_like(z, dtype=complex)
    for s in range(n + 1):
        total += (_binom(n + alpha, n - s) * _binom(n + beta, s)
                  * ((z - 1.0) / 2.0) ** s * ((z + 1.0) / 2.0) ** (n - s))
    return total


def _gegenbauer(n: int, lam: float, t: np.ndarray) -> np.ndarray:
    prev, cur = np.zeros_like(t), np.ones_like(t)
    for k in range(n):
        prev, cur = cur, (2.0 * t * (k + lam) * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1.0)
    return cur


def _hermite(n: int, x: np.ndarray) -> np.ndarray:
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur


def _laguerre(n: int, alpha: float, y: np.ndarray) -> np.ndarray:
    prev, cur = np.zeros_like(y), np.ones_like(y)
    for k in range(n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - y) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur


def _unnormalized_state(model: str, x: np.ndarray, a: float, B: float, n: int) -> np.ndarray:
    if model == "oscillator":
        return _hermite(n, x) * np.exp(-0.5 * x * x)
    if model == "poschl_teller":
        return np.exp(-(a - n) * np.log(np.cosh(x))) * _gegenbauer(n, a - n + 0.5, np.tanh(x))
    if model == "scarf":
        log_env = -a * np.log(np.cosh(x)) - B * np.arctan(np.sinh(x))
        poly = (1j) ** n * _jacobi(n, -1j * B - a - 0.5, 1j * B - a - 0.5, 1j * np.sinh(x))
        return np.exp(log_env - np.max(log_env)) * poly.real
    if model == "morse":
        s = a - n
        log_y = math.log(2.0 * B) - x
        log_env = s * log_y - 0.5 * np.exp(log_y)
        return np.exp(log_env - np.max(log_env)) * _laguerre(n, 2.0 * s, np.exp(log_y))
    raise ValueError(f"unknown family {model!r}")


def eigenfunction(model: str, x: np.ndarray, a: float, B: float, n: int) -> np.ndarray:
    """Closed-form ψ_n on the uniform grid x, trapezoid-normalized, with the
    sign convention of the program's documentation: the first sample above
    1% of the peak is positive."""
    psi = _unnormalized_state(model, np.asarray(x, dtype=float), a, B, n)
    psi = psi / math.sqrt(trapezoid_norm2(x, psi))
    first = int(np.argmax(np.abs(psi) > 1e-2 * np.max(np.abs(psi))))
    return -psi if psi[first] < 0 else psi


def trapezoid_norm2(x: np.ndarray, values: np.ndarray) -> float:
    h = (x[-1] - x[0]) / (x.size - 1)
    v2 = values * values
    return float(h * (v2.sum() - 0.5 * (v2[0] + v2[-1])))


def node_count(values: np.ndarray, threshold: float = 1e-6) -> int:
    """Sign changes among samples above ``threshold`` times the peak, so the
    exponentially small tails cannot register roundoff as nodes."""
    big = values[np.abs(values) > threshold * np.max(np.abs(values))]
    return int(np.count_nonzero(big[1:] * big[:-1] < 0))


# ------------------------------------------------------------ SO(2,1) side


def positivity(j, m):
    """(⟨j₊j₋⟩, ⟨j₋j₊⟩) = (m(m-1) - j(j+1), m(m+1) - j(j+1))."""
    c = j * (j + 1.0)
    return m * (m - 1.0) - c, m * (m + 1.0) - c


REGION_CODES = {"bounded_above_region": -1, "square_region": 0, "bounded_below_region": 1, "forbidden": 2}


def region(j, m) -> np.ndarray:
    """REGION_CODES of arrays of (j, m) from the unitarity inequalities:
    both orderings nonnegative; m >= 1/2 bounded below, m <= -1/2 bounded
    above, and in the band the strict bound j(j+1) < (|m| - 1)|m|."""
    j = np.asarray(j, dtype=float)
    m = np.asarray(m, dtype=float)
    lower, upper = positivity(j, m)
    allowed = (lower >= 0.0) & (upper >= 0.0)
    band = allowed & (np.abs(m) < 0.5) & (j * (j + 1.0) < (np.abs(m) - 1.0) * np.abs(m))
    out = np.full(j.shape, REGION_CODES["forbidden"])
    out[allowed & (m >= 0.5)] = REGION_CODES["bounded_below_region"]
    out[allowed & (m <= -0.5)] = REGION_CODES["bounded_above_region"]
    out[band] = REGION_CODES["square_region"]
    return out


def mirror(codes: np.ndarray) -> np.ndarray:
    """Region codes under m -> -m: the two triangles swap."""
    return np.where(np.abs(codes) == 1, -codes, codes)


def rep_class(j: float, m0: float) -> str:
    """Class of the label (j, m0): D_plus on m0 = -j, D_minus on m0 = j (both
    for j < 0), D_s in the supplementary band, else invalid."""
    if j < 0.0 and m0 == -j:
        return "D_plus"
    if j < 0.0 and m0 == j:
        return "D_minus"
    if abs(m0) < 0.5 and j * (j + 1.0) < (abs(m0) - 1.0) * abs(m0):
        return "D_s"
    return "invalid"

"""Bound-state spectra two ways: shift recursion vs potential algebra.

The scarf family illustrates the whole story. Its partner potential is the
same potential with a -> a - 1 plus the constant R(a) = 2a - 1, so energies
are partial sums of R. Independently, the family Hamiltonians appear as
products of SO(2,1) ladder operators on sectors labeled m, where the sector
Hamiltonian is the a = m - 1/2 member and E = m^2 - m - j(j+1). Both routes
must produce the same numbers, and a finite-difference eigensolver referees.
"""

import numpy as np

from sips import (
    Grid,
    ParameterPoint,
    algebra_spectrum,
    discretize_hamiltonian,
    list_models,
    lowest_eigenvalues,
    potential_minus,
    spectrum_by_shape_invariance,
    verify_shape_invariance,
)

print("== the catalog ==")
for entry in list_models():
    print(f"  {entry['id']:<14} params={','.join(entry['param_names'])}  "
          f"step={entry['param_step']:+g}")

p = ParameterPoint(3.0, {"B": 1.0})
grid = Grid(-20.0, 20.0, 4001)

print("\n== shape-invariance identity, scarf a0=3 ==")
report = verify_shape_invariance("scarf", p, grid, k_max=2)
for k, r in enumerate(report.residuals):
    print(f"  shift k={k}: max |V+(a_k) - V-(a_k+1) - R(a_k)| = {r:.2e}")

print("\n== route 1: sum the remainders ==")
spec = spectrum_by_shape_invariance("scarf", p, 3)
for n, (energy, pk) in enumerate(zip(spec.energies, spec.level_params)):
    print(f"  E_{n} = {energy:g}   (a_{n} = {pk.a:g})")

print("\n== route 2: the SO(2,1) ladder at m = a0 + 1/2 ==")
alg = algebra_spectrum("scarf", 3.5, 3, {"B": 1.0})
print(f"  energies: {alg.energies.tolist()}")
print(f"  max discrepancy between routes: "
      f"{np.max(np.abs(spec.energies - alg.energies)):.2e}")

print("\n== referee: finite-difference eigensolver ==")
T = discretize_hamiltonian(lambda x: potential_minus("scarf", x, p), grid)
numeric = lowest_eigenvalues(T, 3)
for n, (analytic, num) in enumerate(zip(spec.energies, numeric)):
    print(f"  level {n}: analytic {analytic:8.5f}   numeric {num:8.5f}   "
          f"|diff| {abs(analytic - num):.2e}")

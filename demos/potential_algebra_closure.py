"""Watching the ladder operators close into SO(2,1), numerically.

Functions carry a sector index m; the ladder operators shift it by one while
acting as first-order operators in x with the parameter frozen at m -/+ 1/2.
For slope-2 remainders the commutator [j+, j-] collapses to -2 j3 — that
collapse is exactly the shape-invariance identity in operator clothing. Test
functions travel as jets (f, f', f'') in closed form, so the residuals below
are rounding, not discretization error. The oscillator (constant remainder, zero shift) sits outside the class and the
membership check says so.
"""

import numpy as np

from sips import (
    Grid,
    ParameterPoint,
    SectorFunction,
    apply_j_minus,
    apply_j_plus,
    closure_residual,
    commutator_j3_residual,
    get_model,
    ground_state,
    is_so21,
)
from sips.algebra import gaussian_suite

grid = Grid(-20.0, 20.0, 4001)

print("== membership: which models carry the algebra? ==")
for model in ("scarf", "poschl_teller", "morse", "oscillator"):
    check = is_so21(model)
    print(f"  {model:<14} {'yes' if check else 'no':<4} ({check.reason})")

print("\n== sector bookkeeping ==")
s = gaussian_suite(grid, 2.0)["gaussian"]
print(f"  start at m = {s.m}")
print(f"  j+ sends it to m = {apply_j_plus('scarf', s).m}")
print(f"  j- sends it to m = {apply_j_minus('scarf', s).m}")

print("\n== commutators on a Gaussian test function ==")
for m in (0.5, 2.0, 3.5):
    sector = gaussian_suite(grid, m)["gaussian"]
    p = ParameterPoint(m, {"B": 1.0})
    j3 = commutator_j3_residual("scarf", sector, p)
    closure = closure_residual("scarf", sector, p)
    print(f"  m={m}: [j3, j+] residual {j3['plus']:.1e}   "
          f"[j+, j-] + {closure['remainder_value']:g} residual {closure['closure']:.2e}")

print("\n== j+j- on sector m is the a = m - 1/2 Hamiltonian ==")
m = 3.5
p0 = ParameterPoint(m - 0.5, {"B": 1.0})
psi0 = ground_state("scarf", p0, grid)
dpsi0 = -get_model("scarf").w(grid.x, p0) * psi0.values  # psi0' = -W psi0
annihilated = apply_j_minus("scarf", SectorFunction(m, psi0, (dpsi0,)), p0)
ratio = np.linalg.norm(annihilated.f.values) / np.linalg.norm(psi0.values)
print(f"  lowering the sector ground state: |j- psi0| / |psi0| = {ratio:.2e}")

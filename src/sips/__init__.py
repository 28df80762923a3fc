"""Shape-invariant potentials: spectra by two algebraic routes, wavefunctions
by ladder operators, SO(2,1) representation theory, and an independent
finite-difference eigensolver that certifies all of it.

The names below are exported lazily (PEP 562): ``import sips`` loads no
submodule and no numpy, and ``sips.classify`` or ``from sips import
Spectrum`` imports only the submodule that defines the name (and what that
submodule imports). The submodules themselves resolve the same way.
"""

import sys

__version__ = "0.1.0"

# submodule -> the names it exports at the top level
_EXPORTS = {
    "algebra": (
        "SectorFunction",
        "So21Check",
        "algebra_spectrum",
        "apply_j3",
        "apply_j_minus",
        "apply_j_plus",
        "closure_residual",
        "commutator_j3_residual",
        "energy_from_algebra",
        "is_so21",
    ),
    "catalog": (
        "MODELS",
        "ParameterPoint",
        "SuperpotentialModel",
        "closed_form_energy",
        "default_grid",
        "evaluate_superpotential",
        "get_model",
        "list_models",
        "max_bound_states",
        "potential_minus",
        "potential_plus",
    ),
    "errors": (
        "GridTooCoarseError",
        "InvalidParameterError",
        "LevelOutOfRangeError",
        "NotSO21Error",
        "SipsError",
        "UnitarityError",
    ),
    "grids": ("Grid", "SampledFunction", "node_count"),
    "oracle": (
        "SpectrumComparison",
        "TridiagonalOperator",
        "compare_spectra",
        "discretize_hamiltonian",
        "eigenvector",
        "lowest_eigenvalues",
        "residual_norm",
        "spectrum",
        "sturm_count",
    ),
    "susy": (
        "ShapeInvarianceReport",
        "Spectrum",
        "excited_state_by_ladder",
        "ground_state",
        "shift_params",
        "spectrum_by_shape_invariance",
        "verify_shape_invariance",
    ),
    "unireps": (
        "Multiplet",
        "Region",
        "RepClass",
        "RepLabel",
        "classify",
        "enumerate_multiplet",
        "ladder_coefficient",
        "positivity_check",
        "region_of",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "export")

# `from sips import *` binds the exported names and the submodules defining them
__all__ = [*_OWNER, *_EXPORTS]


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path (importlib.import_module bypasses it),
    # so -X importtime reports the submodule as it did before
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _OWNER:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

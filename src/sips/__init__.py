"""Shape-invariant potentials: spectra by two algebraic routes, wavefunctions
by ladder operators, SO(2,1) representation theory, and an independent
finite-difference eigensolver that certifies all of it."""

from .algebra import (
    SectorFunction,
    So21Check,
    algebra_spectrum,
    apply_j3,
    apply_j_minus,
    apply_j_plus,
    closure_residual,
    commutator_j3_residual,
    energy_from_algebra,
    is_so21,
)
from .catalog import (
    MODELS,
    ParameterPoint,
    SuperpotentialModel,
    closed_form_energy,
    default_grid,
    evaluate_superpotential,
    get_model,
    list_models,
    max_bound_states,
    potential_minus,
    potential_plus,
)
from .errors import (
    BoundaryContaminationError,
    GridTooCoarseError,
    InvalidParameterError,
    LevelOutOfRangeError,
    NotSO21Error,
    SipsError,
    UnitarityError,
)
from .grids import Grid, SampledFunction, derivative, node_count
from .oracle import (
    SpectrumComparison,
    TridiagonalOperator,
    compare_spectra,
    discretize_hamiltonian,
    eigenvector,
    lowest_eigenvalues,
    residual_norm,
    spectrum,
    sturm_count,
)
from .susy import (
    ShapeInvarianceReport,
    Spectrum,
    apply_a_plus,
    excited_state_by_ladder,
    ground_state,
    shift_params,
    spectrum_by_shape_invariance,
    verify_shape_invariance,
)
from .unireps import (
    Multiplet,
    Region,
    RepClass,
    RepLabel,
    classify,
    enumerate_multiplet,
    ladder_coefficient,
    positivity_check,
    region_of,
)

__version__ = "0.1.0"

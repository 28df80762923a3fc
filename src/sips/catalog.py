"""Catalog of shape-invariant superpotentials.

Each entry defines a family of 1D Hamiltonians through a superpotential
W(x; a, ...) whose partner potentials are V∓ = W² ∓ W'. Under the parameter
shift a → a + δ the partner reproduces the original shape up to an additive
remainder R(a), and the bound-state energies follow as partial sums of R
(E₀ = 0 by construction). The catalog stores W, W' and ∫W in closed form,
the shift δ, R, the closed-form energies, and parameter-validity rules.
Only W, W' and ∫W take arrays, and they import numpy when they run: the rest
is scalar, so importing the catalog loads no numpy.

Shipping entries:

    scarf          W = a·tanh x + B·sech x    ∫W = a·ln cosh x + 2B·arctan(tanh(x/2))  δ = -1  R(a) = 2a - 1
    poschl_teller  W = a·tanh x               ∫W = a·ln cosh x                         δ = -1  R(a) = 2a - 1
    morse          W = a - B·e^(-x)  (B > 0)  ∫W = a·x + B·e^(-x)                      δ = -1  R(a) = 2a - 1
    oscillator     W = x                      ∫W = x²/2                                δ = 0   R = 2

Each ∫W is one antiderivative (its constant is arbitrary); the ground state
is ψ₀ ∝ exp(-∫W).

All entries live on the full line. The oscillator is a degenerate-shift
control: its R is constant rather than linear with slope 2, so the algebra
module reports it as outside the SO(2,1) class.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .errors import InvalidParameterError, LevelOutOfRangeError
from .grids import Grid

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ParameterPoint",
    "SuperpotentialModel",
    "MODELS",
    "get_model",
    "list_models",
    "evaluate_superpotential",
    "potential_minus",
    "potential_plus",
    "closed_form_energy",
    "max_bound_states",
    "default_grid",
]

# Levels reported for the oscillator, which has no normalizability cutoff.
OSCILLATOR_LEVEL_CAP = 32


class ParameterPoint(NamedTuple):
    """A concrete parameter assignment: the shifting parameter ``a`` plus any
    auxiliary constants (e.g. ``B`` for scarf and morse)."""

    a: float
    aux: Mapping[str, float] = MappingProxyType({})

    def with_a(self, a: float) -> "ParameterPoint":
        return ParameterPoint(a, self.aux)

    def get(self, name: str, default: float = 0.0) -> float:
        return float(self.aux.get(name, default))

    def as_dict(self) -> dict:
        """``{"a": a, **aux}``, the form every report prints."""
        return {"a": self.a, **dict(self.aux)}


class SuperpotentialModel(NamedTuple):
    """One family of shape-invariant potentials.

    ``w``, ``w_prime`` and ``w_integral`` (an antiderivative of W, up to a
    constant) accept ``(x, p)`` with scalar or array ``x`` and return the
    same shape. ``remainder`` is R(a) as a function of the parameter
    point; ``energy`` is the closed-form E_n; ``bound_states``
    counts normalizable levels; ``continuum_edge`` returns the threshold
    energy above which the spectrum is continuous (None if the potential
    confines on both sides). ``default_a`` is the a of a member given
    without one, or None when a must be given (the oscillator's a is inert,
    so it may be left out and reads 1).
    """

    id: str
    domain: str
    param_names: tuple[str, ...]
    param_step: float
    w: Callable[[np.ndarray, ParameterPoint], np.ndarray]
    w_prime: Callable[[np.ndarray, ParameterPoint], np.ndarray]
    w_integral: Callable[[np.ndarray, ParameterPoint], np.ndarray]
    remainder: Callable[[ParameterPoint], float]
    energy: Callable[[ParameterPoint, int], float]
    bound_states: Callable[[ParameterPoint], int]
    param_valid: Callable[[ParameterPoint], bool]
    validity: str
    continuum_edge: Callable[[ParameterPoint], float | None]
    # Box on which wavefunction tails at sensible parameters are negligible
    # and the closed-form V± evaluate without catastrophic cancellation.
    default_box: tuple[float, float]
    default_a: float | None = None

    def describe(self) -> dict:
        return {
            "id": self.id,
            "domain": self.domain,
            "param_names": list(self.param_names),
            "param_step": self.param_step,
            "validity": self.validity,
        }


def _sip_level_count(p: ParameterPoint) -> int:
    # Levels with a - n > 0 strictly; the threshold state a - n = 0 sits at
    # the continuum edge a² and is not normalizable.
    return max(0, math.ceil(p.a))


def _sip_energy(p: ParameterPoint, n: int) -> float:
    # a² - (a - n)², factored: no cancellation at large a, no overflow of a².
    return n * (2.0 * p.a - n)


def _sip_remainder(p: ParameterPoint) -> float:
    return 2.0 * p.a - 1.0


def _log_cosh(x):
    import numpy as np

    # ln cosh x = |x| + ln(1 + e^(-2|x|)) - ln 2, finite wherever x is
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _scarf_w(x, p: ParameterPoint):
    import numpy as np

    return p.a * np.tanh(x) + p.get("B") / np.cosh(x)


def _scarf_w_prime(x, p: ParameterPoint):
    import numpy as np

    sech = 1.0 / np.cosh(x)
    return p.a * sech**2 - p.get("B") * sech * np.tanh(x)


def _scarf_w_integral(x, p: ParameterPoint):
    import numpy as np

    # ∫sech x dx = gd(x) = 2·arctan(tanh(x/2))
    x = np.asarray(x, dtype=float)
    return p.a * _log_cosh(x) + 2.0 * p.get("B") * np.arctan(np.tanh(0.5 * x))


def _poschl_teller_w(x, p: ParameterPoint):
    import numpy as np

    return p.a * np.tanh(x)


def _poschl_teller_w_prime(x, p: ParameterPoint):
    import numpy as np

    return p.a / np.cosh(x) ** 2


def _poschl_teller_w_integral(x, p: ParameterPoint):
    return p.a * _log_cosh(x)


def _morse_w(x, p: ParameterPoint):
    import numpy as np

    return p.a - p.get("B") * np.exp(-np.asarray(x, dtype=float))


def _morse_w_prime(x, p: ParameterPoint):
    import numpy as np

    return p.get("B") * np.exp(-np.asarray(x, dtype=float))


def _morse_w_integral(x, p: ParameterPoint):
    import numpy as np

    x = np.asarray(x, dtype=float)
    return p.a * x + p.get("B") * np.exp(-x)


def _oscillator_w(x, p: ParameterPoint):
    import numpy as np

    return np.asarray(x, dtype=float)


def _oscillator_w_prime(x, p: ParameterPoint):
    import numpy as np

    return np.ones_like(np.asarray(x, dtype=float))


def _oscillator_w_integral(x, p: ParameterPoint):
    import numpy as np

    return 0.5 * np.asarray(x, dtype=float) ** 2


# The slope-2 class (Cooper, Khare and Sukhatme, Phys. Rep. 251 (1995) 267): δ = -1,
# R(a) = 2a - 1, E_n = n(2a - n), ⌈a⌉ levels below the edge a², valid for a > 0.
_slope_two = functools.partial(
    SuperpotentialModel,
    domain="full-line",
    param_step=-1.0,
    remainder=_sip_remainder,
    energy=_sip_energy,
    bound_states=_sip_level_count,
    param_valid=lambda p: p.a > 0,
    continuum_edge=lambda p: p.a**2,
)

_SCARF = _slope_two(
    id="scarf",
    param_names=("a", "B"),
    w=_scarf_w,
    w_prime=_scarf_w_prime,
    w_integral=_scarf_w_integral,
    validity="a > 0; B any real (ground state ~ cosh^-a(x) e^(-B gd(x)) is normalizable for all B)",
    default_box=(-20.0, 20.0),
)

_POSCHL_TELLER = _slope_two(
    id="poschl_teller",
    param_names=("a",),
    w=_poschl_teller_w,
    w_prime=_poschl_teller_w_prime,
    w_integral=_poschl_teller_w_integral,
    validity="a > 0",
    default_box=(-20.0, 20.0),
)

# Closed forms for morse are catalog-supplied and certified against the
# finite-difference eigensolver in the test suite (three parameter points).
_MORSE = _slope_two(
    id="morse",
    param_names=("a", "B"),
    w=_morse_w,
    w_prime=_morse_w_prime,
    w_integral=_morse_w_integral,
    param_valid=lambda p: p.a > 0 and p.get("B") > 0,
    validity="a > 0 and B > 0",
    # e^(-2x) grows so fast to the left that W² loses the digits the
    # shape-invariance identity needs; -6 keeps V below ~1e6 at B ~ 1 while
    # the ground state (peaked near x = -ln(B/a)) is long dead by the edge.
    default_box=(-6.0, 20.0),
)

_OSCILLATOR = SuperpotentialModel(
    id="oscillator",
    domain="full-line",
    param_names=("a",),
    param_step=0.0,
    w=_oscillator_w,
    w_prime=_oscillator_w_prime,
    w_integral=_oscillator_w_integral,
    remainder=lambda p: 2.0,
    energy=lambda p, n: 2.0 * n,
    bound_states=lambda p: OSCILLATOR_LEVEL_CAP,
    param_valid=lambda p: True,
    validity=f"any parameters (level count capped at {OSCILLATOR_LEVEL_CAP})",
    continuum_edge=lambda p: None,
    default_box=(-20.0, 20.0),
    default_a=1.0,
)

MODELS: dict[str, SuperpotentialModel] = {
    m.id: m for m in (_SCARF, _POSCHL_TELLER, _MORSE, _OSCILLATOR)
}


def get_model(model: str | SuperpotentialModel) -> SuperpotentialModel:
    """Resolve a model id to its catalog entry (pass-through for models)."""
    if isinstance(model, SuperpotentialModel):
        return model
    try:
        return MODELS[model]
    except KeyError:
        raise KeyError(
            f"unknown model {model!r}; available: {', '.join(sorted(MODELS))}"
        ) from None


def list_models() -> list[dict]:
    """Metadata for every catalog entry (ids, parameters, domains, validity)."""
    return [m.describe() for m in MODELS.values()]


def _require_valid(model: SuperpotentialModel, p: ParameterPoint) -> None:
    if not all(map(math.isfinite, (p.a, *p.aux.values()))):
        raise InvalidParameterError(
            f"{model.id}: parameters must be finite, got a={p.a}, aux={dict(p.aux)}"
        )
    if not model.param_valid(p):
        raise InvalidParameterError(
            f"{model.id}: invalid parameters a={p.a}, aux={dict(p.aux)} "
            f"(need {model.validity})"
        )


def evaluate_superpotential(model, x, p: ParameterPoint):
    """W(x; p) for a valid parameter point."""
    model = get_model(model)
    _require_valid(model, p)
    return model.w(x, p)


def _partner_potential(model: SuperpotentialModel, x, p: ParameterPoint, sign: float):
    # V∓ = W² ∓ W' (sign -1 gives V-), unchecked: the algebra evaluates it at
    # sector points a = m ± 1/2 that may lie outside the valid range.
    return model.w(x, p) ** 2 + sign * model.w_prime(x, p)


def potential_minus(model, x, p: ParameterPoint):
    """V-(x; p) = W² - W', the potential whose ground state sits at E = 0."""
    model = get_model(model)
    _require_valid(model, p)
    return _partner_potential(model, x, p, -1.0)


def potential_plus(model, x, p: ParameterPoint):
    """V+(x; p) = W² + W', the partner potential."""
    model = get_model(model)
    _require_valid(model, p)
    return _partner_potential(model, x, p, 1.0)


def _require_level(model: SuperpotentialModel, p: ParameterPoint, n: int) -> None:
    n_max = max_bound_states(model, p)
    if not 0 <= n < n_max:
        raise LevelOutOfRangeError(
            f"{model.id}: level n={n} outside bound range 0..{n_max - 1}"
        )


def closed_form_energy(model, p: ParameterPoint, n: int) -> float:
    """Closed-form energy of level n (0-indexed; E₀ = 0)."""
    model = get_model(model)
    _require_level(model, p, n)
    return float(model.energy(p, n))


def max_bound_states(model, p: ParameterPoint) -> int:
    """Number of normalizable levels for this parameter point."""
    model = get_model(model)
    _require_valid(model, p)
    return int(model.bound_states(p))


def default_grid(model) -> Grid:
    """The grid used wherever none is given, in the library and the CLI:
    the model's default box at 4001 points."""
    box = get_model(model).default_box
    return Grid(box[0], box[1], 4001)

"""Catalog of shape-invariant superpotentials.

Each entry defines a family of 1D Hamiltonians through a superpotential
W(x; a, ...) whose partner potentials are V∓ = W² ∓ W'. Under the parameter
shift a → a + δ the partner reproduces the original shape up to an additive
remainder R(a), and the bound-state energies follow as partial sums of R
(E₀ = 0 by construction). The catalog stores W and W' in closed form, the
shift δ, R, the closed-form energies, and parameter-validity rules.

Shipping entries:

    scarf          W = a·tanh x + B·sech x      δ = -1   R(a) = 2a - 1
    poschl_teller  W = a·tanh x                 δ = -1   R(a) = 2a - 1
    morse          W = a - B·e^(-x)  (B > 0)    δ = -1   R(a) = 2a - 1
    oscillator     W = x                        δ = 0    R = 2

All entries live on the full line. The oscillator is a degenerate-shift
control: its R is constant rather than linear with slope 2, so the algebra
module reports it as outside the SO(2,1) class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidParameterError, LevelOutOfRangeError

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
]

# Levels reported for the oscillator, which has no normalizability cutoff.
OSCILLATOR_LEVEL_CAP = 32


@dataclass(frozen=True)
class ParameterPoint:
    """A concrete parameter assignment: the shifting parameter ``a`` plus any
    auxiliary constants (e.g. ``B`` for scarf and morse)."""

    a: float
    aux: Mapping[str, float] = field(default_factory=dict)

    def with_a(self, a: float) -> "ParameterPoint":
        return ParameterPoint(a, self.aux)

    def get(self, name: str, default: float = 0.0) -> float:
        return float(self.aux.get(name, default))


@dataclass(frozen=True)
class SuperpotentialModel:
    """One family of shape-invariant potentials.

    ``w`` and ``w_prime`` accept ``(x, p)`` with scalar or array ``x`` and
    return the same shape. ``remainder`` is R(a) as a function of the
    parameter point; ``energy`` is the closed-form E_n; ``bound_states``
    counts normalizable levels; ``continuum_edge`` returns the threshold
    energy above which the spectrum is continuous (None if the potential
    confines on both sides).
    """

    id: str
    domain: str
    param_names: tuple[str, ...]
    param_step: float
    w: Callable[[np.ndarray, ParameterPoint], np.ndarray]
    w_prime: Callable[[np.ndarray, ParameterPoint], np.ndarray]
    remainder: Callable[[ParameterPoint], float]
    energy: Callable[[ParameterPoint, int], float]
    bound_states: Callable[[ParameterPoint], int]
    param_valid: Callable[[ParameterPoint], bool]
    validity: str
    continuum_edge: Callable[[ParameterPoint], float | None]
    # Box on which wavefunction tails at sensible parameters are negligible
    # and the closed-form V± evaluate without catastrophic cancellation.
    default_box: tuple[float, float]

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
    return p.a**2 - (p.a - n) ** 2


def _sip_remainder(p: ParameterPoint) -> float:
    return 2.0 * p.a - 1.0


def _scarf_w(x, p: ParameterPoint):
    return p.a * np.tanh(x) + p.get("B") / np.cosh(x)


def _scarf_w_prime(x, p: ParameterPoint):
    sech = 1.0 / np.cosh(x)
    return p.a * sech**2 - p.get("B") * sech * np.tanh(x)


def _poschl_teller_w(x, p: ParameterPoint):
    return p.a * np.tanh(x)


def _poschl_teller_w_prime(x, p: ParameterPoint):
    return p.a / np.cosh(x) ** 2


def _morse_w(x, p: ParameterPoint):
    return p.a - p.get("B") * np.exp(-np.asarray(x, dtype=float))


def _morse_w_prime(x, p: ParameterPoint):
    return p.get("B") * np.exp(-np.asarray(x, dtype=float))


def _oscillator_w(x, p: ParameterPoint):
    return np.asarray(x, dtype=float)


def _oscillator_w_prime(x, p: ParameterPoint):
    return np.ones_like(np.asarray(x, dtype=float))


_SCARF = SuperpotentialModel(
    id="scarf",
    domain="full-line",
    param_names=("a", "B"),
    param_step=-1.0,
    w=_scarf_w,
    w_prime=_scarf_w_prime,
    remainder=_sip_remainder,
    energy=_sip_energy,
    bound_states=_sip_level_count,
    param_valid=lambda p: p.a > 0,
    validity="a > 0; B any real (ground state ~ cosh^-a(x) e^(-B gd(x)) is normalizable for all B)",
    continuum_edge=lambda p: p.a**2,
    default_box=(-20.0, 20.0),
)

_POSCHL_TELLER = SuperpotentialModel(
    id="poschl_teller",
    domain="full-line",
    param_names=("a",),
    param_step=-1.0,
    w=_poschl_teller_w,
    w_prime=_poschl_teller_w_prime,
    remainder=_sip_remainder,
    energy=_sip_energy,
    bound_states=_sip_level_count,
    param_valid=lambda p: p.a > 0,
    validity="a > 0",
    continuum_edge=lambda p: p.a**2,
    default_box=(-20.0, 20.0),
)

# Closed forms for morse are catalog-supplied and certified against the
# finite-difference eigensolver in the test suite (three parameter points).
_MORSE = SuperpotentialModel(
    id="morse",
    domain="full-line",
    param_names=("a", "B"),
    param_step=-1.0,
    w=_morse_w,
    w_prime=_morse_w_prime,
    remainder=_sip_remainder,
    energy=_sip_energy,
    bound_states=_sip_level_count,
    param_valid=lambda p: p.a > 0 and p.get("B") > 0,
    validity="a > 0 and B > 0",
    continuum_edge=lambda p: p.a**2,
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
    remainder=lambda p: 2.0,
    energy=lambda p, n: 2.0 * n,
    bound_states=lambda p: OSCILLATOR_LEVEL_CAP,
    param_valid=lambda p: True,
    validity=f"any parameters (level count capped at {OSCILLATOR_LEVEL_CAP})",
    continuum_edge=lambda p: None,
    default_box=(-20.0, 20.0),
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


def potential_minus(model, x, p: ParameterPoint):
    """V-(x; p) = W² - W', the potential whose ground state sits at E = 0."""
    model = get_model(model)
    _require_valid(model, p)
    return model.w(x, p) ** 2 - model.w_prime(x, p)


def potential_plus(model, x, p: ParameterPoint):
    """V+(x; p) = W² + W', the partner potential."""
    model = get_model(model)
    _require_valid(model, p)
    return model.w(x, p) ** 2 + model.w_prime(x, p)


def closed_form_energy(model, p: ParameterPoint, n: int) -> float:
    """Closed-form energy of level n (0-indexed; E₀ = 0)."""
    model = get_model(model)
    _require_valid(model, p)
    n_max = model.bound_states(p)
    if not 0 <= n < n_max:
        raise LevelOutOfRangeError(
            f"{model.id}: level n={n} outside bound range 0..{n_max - 1}"
        )
    return float(model.energy(p, n))


def max_bound_states(model, p: ParameterPoint) -> int:
    """Number of normalizable levels for this parameter point."""
    model = get_model(model)
    _require_valid(model, p)
    return int(model.bound_states(p))

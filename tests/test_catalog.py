import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sips import (
    InvalidParameterError,
    LevelOutOfRangeError,
    ParameterPoint,
    closed_form_energy,
    evaluate_superpotential,
    list_models,
    max_bound_states,
    potential_minus,
    potential_plus,
    spectrum,
)
from sips.catalog import MODELS, get_model

from conftest import model_grid


def test_list_models_contents():
    entries = {m["id"]: m for m in list_models()}
    assert set(entries) == {"scarf", "poschl_teller", "morse", "oscillator"}
    assert entries["scarf"]["param_names"] == ["a", "B"]
    assert entries["oscillator"]["param_step"] == 0.0
    assert all(m["domain"] == "full-line" for m in entries.values())


def test_superpotential_values():
    assert evaluate_superpotential("scarf", 0.0, ParameterPoint(3, {"B": 1})) == pytest.approx(1.0)
    # tanh -> 1 and sech -> 0, so W -> a far to the right
    assert evaluate_superpotential("scarf", 20.0, ParameterPoint(3, {"B": 1})) == pytest.approx(3.0, abs=1e-8)
    assert evaluate_superpotential("morse", 0.0, ParameterPoint(3, {"B": 1})) == pytest.approx(2.0)


def test_partner_potentials_at_origin():
    p = ParameterPoint(3, {"B": 1})
    assert potential_minus("scarf", 0.0, p) == pytest.approx(-2.0)
    assert potential_plus("scarf", 0.0, p) == pytest.approx(4.0)
    assert potential_minus("oscillator", 0.0, ParameterPoint(1.0)) == pytest.approx(-1.0)


def test_closed_form_energies():
    p = ParameterPoint(3, {"B": 1})
    assert closed_form_energy("scarf", p, 0) == 0.0
    assert closed_form_energy("scarf", p, 1) == pytest.approx(5.0)
    assert closed_form_energy("morse", p, 2) == pytest.approx(8.0)
    with pytest.raises(LevelOutOfRangeError):
        closed_form_energy("scarf", p, 3)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        evaluate_superpotential("scarf", 0.0, ParameterPoint(-1.0, {"B": 1}))
    with pytest.raises(InvalidParameterError):
        max_bound_states("morse", ParameterPoint(3.0, {"B": -1.0}))
    with pytest.raises(InvalidParameterError):
        closed_form_energy("poschl_teller", ParameterPoint(0.0), 0)


@pytest.mark.parametrize(
    "p",
    [ParameterPoint(np.inf, {"B": 1.0}), ParameterPoint(np.nan), ParameterPoint(3.0, {"B": np.nan})],
)
def test_nonfinite_parameters_rejected(p):
    with pytest.raises(InvalidParameterError, match="finite"):
        max_bound_states("scarf", p)


def test_max_bound_states():
    assert max_bound_states("scarf", ParameterPoint(3, {"B": 1})) == 3
    assert max_bound_states("poschl_teller", ParameterPoint(2.0)) == 2
    assert max_bound_states("scarf", ParameterPoint(0.5, {"B": 0.1})) == 1


def test_scarf_bound_count_matches_oracle(scarf_p, ref_grid):
    # the discrete spectrum should hold exactly ceil(a) levels below the
    # continuum edge a^2
    from sips import discretize_hamiltonian, sturm_count

    T = discretize_hamiltonian(
        lambda x: potential_minus("scarf", x, scarf_p), ref_grid
    )
    # count strictly below the edge, minus a margin for box-discretized
    # continuum states just under it
    assert sturm_count(T, scarf_p.a**2 - 0.2) == max_bound_states("scarf", scarf_p)


def test_unknown_model():
    with pytest.raises(KeyError):
        get_model("rosen_morse")


_POINTS = {
    "scarf": [ParameterPoint(3, {"B": 1}), ParameterPoint(4.5, {"B": -2.5}), ParameterPoint(2.2, {"B": 6})],
    "poschl_teller": [ParameterPoint(3), ParameterPoint(4.5), ParameterPoint(1.2)],
    "morse": [ParameterPoint(3, {"B": 1}), ParameterPoint(4.5, {"B": 1}), ParameterPoint(2.5, {"B": 0.8})],
    "oscillator": [ParameterPoint(1.0)],
}


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_w_prime_matches_finite_difference(model_id):
    # analytic derivative vs 5-point central difference, h = 1e-3
    model = get_model(model_id)
    h = 1e-3
    box = model.default_box
    x = np.linspace(box[0] + 1.0, box[1] - 1.0, 101)
    for p in _POINTS[model_id]:
        fd = (
            model.w(x - 2 * h, p)
            - 8 * model.w(x - h, p)
            + 8 * model.w(x + h, p)
            - model.w(x + 2 * h, p)
        ) / (12 * h)
        assert np.max(np.abs(model.w_prime(x, p) - fd)) < 1e-6


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_partner_difference_is_twice_w_prime(model_id):
    model = get_model(model_id)
    x = model_grid(model_id, 801).x
    for p in _POINTS[model_id]:
        lhs = potential_minus(model, x, p) - potential_plus(model, x, p)
        assert np.max(np.abs(lhs + 2.0 * model.w_prime(x, p))) < 1e-10


@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_energies_increase_and_start_at_zero(model_id):
    model = get_model(model_id)
    for p in _POINTS[model_id]:
        n_max = min(max_bound_states(model, p), 8)
        energies = [closed_form_energy(model, p, n) for n in range(n_max)]
        assert energies[0] == 0.0
        assert np.all(np.diff(energies) > 0)


@given(a=st.floats(0.3, 8.0), b=st.floats(-5.0, 5.0), x=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_scarf_derivative_property(a, b, x):
    model = get_model("scarf")
    p = ParameterPoint(a, {"B": b})
    h = 1e-3
    fd = (
        model.w(x - 2 * h, p)
        - 8 * model.w(x - h, p)
        + 8 * model.w(x + h, p)
        - model.w(x + 2 * h, p)
    ) / (12 * h)
    assert abs(model.w_prime(x, p) - fd) < 1e-6


# Certification of the catalog-supplied morse closed forms against the
# independent eigensolver, at three parameter points (kept as the release
# gate for this entry).
@pytest.mark.parametrize(
    "a,B,expected",
    [
        (3.0, 1.0, [0.0, 5.0, 8.0]),
        (4.5, 1.0, [0.0, 8.0, 14.0, 18.0, 20.0]),
        (2.5, 0.8, [0.0, 4.0, 6.0]),
    ],
)
def test_morse_closed_forms_certified(a, B, expected):
    p = ParameterPoint(a, {"B": B})
    assert max_bound_states("morse", p) == len(expected)
    closed = [closed_form_energy("morse", p, n) for n in range(len(expected))]
    assert closed == pytest.approx(expected)
    numeric = spectrum("morse", p, model_grid("morse"), len(expected))
    assert np.max(np.abs(numeric - np.array(expected))) < 2e-3

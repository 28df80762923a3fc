import pytest

from sips import Grid, ParameterPoint
from sips.catalog import get_model


@pytest.fixture
def ref_grid():
    return Grid(-20.0, 20.0, 4001)


@pytest.fixture
def scarf_p():
    return ParameterPoint(3.0, {"B": 1.0})


def model_grid(model, n_points=4001):
    box = get_model(model).default_box
    return Grid(box[0], box[1], n_points)

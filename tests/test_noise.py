import numpy as np
import pytest

from sppm.errors import ValidationError
from sppm.noise import FAMILIES, NoiseModel
from sppm.rng import RngStream


def gen(label="noise"):
    return RngStream(41).child(label).generator()


@pytest.mark.parametrize("family", FAMILIES)
def test_draw_shape_and_determinism(family):
    m = NoiseModel(family=family, sigma=2.0, nu=3.0)
    a = m.draw(gen(family), 100, 5)
    b = m.draw(gen(family), 100, 5)
    assert a.shape == (100, 5)
    assert np.array_equal(a, b)


def test_student_t_needs_finite_variance():
    with pytest.raises(ValidationError):
        NoiseModel(family="student_t", sigma=1.0, nu=2.0)


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        NoiseModel(family="cauchy", sigma=1.0)


def test_negative_sigma_rejected():
    with pytest.raises(ValidationError):
        NoiseModel(family="gaussian", sigma=-0.5)

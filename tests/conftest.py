import numpy as np
import pytest
from hypothesis import settings

from sppm.config import ProblemSpec
from sppm.generate import generate_problem
from sppm.noise import NoiseModel
from sppm.props import CountingNoise

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ball_problem():
    """Small quadratic-over-ball instance shared by solver tests."""
    spec = ProblemSpec(kind="quadratic-ball", dim=6, mu=1.0, L=4.0,
                       radius=0.5, instance_seed=7)
    return generate_problem(spec)


@pytest.fixture(scope="session")
def finite_sum_problem():
    spec = ProblemSpec(kind="ridge-l1-box", dim=5, mu=1.0, L=3.0,
                       box_halfwidth=1.0, components=40, instance_seed=11)
    return generate_problem(spec)


@pytest.fixture
def counting_noise():
    return CountingNoise(NoiseModel(family="gaussian", sigma=1.0))

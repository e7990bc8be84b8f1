import numpy as np
import pytest

from sppm.booster import PbConfig, pb, q_floor, tau_from_eps
from sppm.errors import ValidationError
from sppm.noise import NoiseModel
from sppm.rng import RngStream


def rows_at(points):
    """(Z, W) with z = w = points[j] in row j."""
    P = np.array(points, float)
    return P, P.copy()


def test_tau_from_eps_frozen():
    assert tau_from_eps(0.1) == pytest.approx(0.8, abs=1e-15)
    assert tau_from_eps(0.1, markov_factor=1.0) == pytest.approx(0.1)
    with pytest.raises(ValidationError):
        tau_from_eps(-0.1)


def test_q_floor_frozen():
    # ceil(18 (1 + lam mu) sigma^2 / (lam L^2 tau)) at lam=3, mu=1,
    # sigma=1, L=2, tau=0.5: ceil(72/6) = 12
    assert q_floor(3.0, 1.0, 1.0, 2.0, 0.5) == 12
    assert q_floor(3.0, 1.0, 0.0, 2.0, 0.5) == 1  # noiseless floor


def test_pb_replay_bitwise(ball_problem):
    gen = RngStream(55).child("pts").generator()
    pts = 0.05 * gen.standard_normal((9, ball_problem.dim))
    Z, W = rows_at(pts)
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    cfg = PbConfig(q=4, lam=3.0, z_bar=ball_problem.h.interior_point(ball_problem.dim))
    a = pb(Z, W, cfg, ball_problem, noise, RngStream(56))
    b = pb(Z, W, cfg, ball_problem, noise, RngStream(56))
    assert a.selected_index == b.selected_index
    assert np.array_equal(a.selected[1], b.selected[1])


def test_pb_validation(ball_problem):
    Z, W = rows_at([np.zeros(ball_problem.dim)] * 3)
    with pytest.raises(ValidationError):
        PbConfig(q=0, lam=3.0, z_bar=np.zeros(ball_problem.dim))
    cfg = PbConfig(q=2, lam=3.0, z_bar=np.zeros(ball_problem.dim))
    noiseless = NoiseModel(family="gaussian", sigma=0.0)
    for z, w in ((Z, W[:2]), (Z, W[:, :2]), (Z[0], W[0])):
        with pytest.raises(ValidationError):
            pb(z, w, cfg, ball_problem, noiseless, RngStream(1))


def test_selected_rows_are_copies(ball_problem):
    gen = RngStream(57).child("pts").generator()
    Z = 0.05 * gen.standard_normal((5, ball_problem.dim))
    W = 0.05 * gen.standard_normal((5, ball_problem.dim))
    cfg = PbConfig(q=2, lam=3.0, z_bar=ball_problem.h.interior_point(ball_problem.dim))
    out = pb(Z, W, cfg, ball_problem, NoiseModel(family="gaussian", sigma=1.0), RngStream(58))
    z, w = out.selected
    assert np.array_equal(z, Z[out.selected_index]) and np.array_equal(w, W[out.selected_index])
    assert not np.shares_memory(z, Z) and not np.shares_memory(w, W)

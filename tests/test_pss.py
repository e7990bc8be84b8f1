import tracemalloc

import numpy as np
import pytest

from sppm.config import ProblemSpec
from sppm.errors import DomainError, ValidationError
from sppm.noise import NoiseModel
from sppm.generate import generate_problem
from sppm.problems import CompositeProblem
from sppm.props import CountingNoise
from sppm.pss import (
    PssConfig,
    alpha_floor,
    epsilon_k_bound,
    pss_run_batch,
)
from sppm.regularizers import Zero
from sppm.rng import RngStream

NOISELESS = NoiseModel(family="gaussian", sigma=0.0)


def quad_1d():
    return CompositeProblem(
        dim=1, f=lambda x: 0.5 * float(x @ x), grad_f=lambda x: np.array(x),
        h=Zero(), mu=1.0, L=1.0,
    )


def test_alpha_floor_frozen_values():
    # (I/2 + lam L) / (1 + I/2 + lam L): hand-reduced fractions
    assert alpha_floor(50, 3.0, 4.0) == pytest.approx(37.0 / 38.0, abs=1e-15)
    assert alpha_floor(8, 0.5, 2.0) == pytest.approx(5.0 / 6.0, abs=1e-15)
    with pytest.raises(ValidationError):
        alpha_floor(0, 3.0, 4.0)


def test_epsilon_k_bound_frozen_value():
    # alpha = 37/38, I = 50, lam = 3, sigma = 1, D = 1, L = 4
    got = epsilon_k_bound(37.0 / 38.0, 50, 3.0, 1.0, 1.0, 4.0)
    assert got == pytest.approx(0.8507289278658652, abs=1e-14)


def test_noiseless_draws_are_counted(ball_problem):
    noise = CountingNoise(NOISELESS)
    x0 = ball_problem.h.interior_point(ball_problem.dim)
    cfg = PssConfig(x0=x0, alpha=alpha_floor(9, 3.0, ball_problem.L), lam=3.0, inner_iters=9)
    pss_run_batch(ball_problem, noise, cfg, [RngStream(2).child("pss", j) for j in range(3)])
    assert noise.draws == 3 * 10


def test_replay_is_bitwise(ball_problem):
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    x0 = ball_problem.h.interior_point(ball_problem.dim)
    a = alpha_floor(20, 3.0, ball_problem.L)
    cfg = PssConfig(x0=x0, alpha=a, lam=3.0, inner_iters=20)
    one = pss_run_batch(ball_problem, noise, cfg, [RngStream(8).child("k", 1)])
    two = pss_run_batch(ball_problem, noise, cfg, [RngStream(8).child("k", 1)])
    assert np.array_equal(one[0], two[0])
    assert np.array_equal(one[1], two[1])


def test_averaged_iterate_reconstruction(ball_problem):
    # y_{I+1} = alpha^I x_1 + sum_{i>=2} (1-alpha) alpha^{I+1-i} x_i
    noise = NoiseModel(family="gaussian", sigma=1.0)
    x0 = ball_problem.h.interior_point(ball_problem.dim)
    I = 12
    a = alpha_floor(I, 3.0, ball_problem.L)
    xs = []
    (z,), (w,) = pss_run_batch(
        ball_problem, noise, PssConfig(x0=x0, alpha=a, lam=3.0, inner_iters=I),
        [RngStream(3)], observer=lambda i, G, S, X, Y: xs.append(np.array(X[0])),
    )
    coef = [a ** I] + [(1 - a) * a ** (I + 1 - i) for i in range(2, I + 2)]
    assert sum(coef) == pytest.approx(1.0, abs=1e-12)
    recon = sum(c * x for c, x in zip(coef, xs))
    assert np.linalg.norm(recon - w) <= 1e-10
    assert ball_problem.h.contains(w)
    assert np.array_equal(xs[-1], z)


def test_long_run_converges_noiseless():
    # alpha fixed at 2/3 (validated off: the floor grows with I), the
    # noiseless chain contracts to the prox point x0/(1+lam) = 0.5.
    cfg = PssConfig(x0=np.array([1.0]), alpha=2.0 / 3.0, lam=1.0,
                    inner_iters=500, validated=False)
    with pytest.warns(UserWarning):
        Z, _ = pss_run_batch(quad_1d(), NOISELESS, cfg, [RngStream(0)])
    assert abs(Z[0, 0] - 0.5) <= 1e-3


def test_alpha_floor_enforced(ball_problem):
    x0 = ball_problem.h.interior_point(ball_problem.dim)
    cfg = PssConfig(x0=x0, alpha=0.5, lam=3.0, inner_iters=50)
    with pytest.raises(ValidationError):
        pss_run_batch(ball_problem, NOISELESS, cfg, [RngStream(1)])


def test_center_outside_domain_rejected(ball_problem):
    far = np.full(ball_problem.dim, 50.0)
    cfg = PssConfig(x0=far, alpha=0.99, lam=3.0, inner_iters=10)
    with pytest.raises(DomainError):
        pss_run_batch(ball_problem, NOISELESS, cfg, [RngStream(1)])


def test_batch_matches_sequential(ball_problem):
    # n rows at once against n one-row solves: same draws per row, and
    # the row arithmetic may round differently with the row count.
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    x0 = ball_problem.h.interior_point(ball_problem.dim)
    I = 40
    a = alpha_floor(I, 3.0, ball_problem.L)
    cfg = PssConfig(x0=x0, alpha=a, lam=3.0, inner_iters=I)
    streams = [RngStream(12).child("pss", j) for j in range(6)]
    Z, W = pss_run_batch(ball_problem, noise, cfg, streams)
    assert Z.shape == W.shape == (6, ball_problem.dim)
    for j, s in enumerate(streams):
        (z,), (w,) = pss_run_batch(ball_problem, noise, cfg, [s])
        assert np.allclose(Z[j], z, atol=1e-12)
        assert np.allclose(W[j], w, atol=1e-12)


def test_batch_matches_sequential_finite_sum(finite_sum_problem):
    oracle = finite_sum_problem.meta["oracle"]
    x0 = finite_sum_problem.h.interior_point(finite_sum_problem.dim)
    I = 25
    a = alpha_floor(I, 3.0, finite_sum_problem.L)
    cfg = PssConfig(x0=x0, alpha=a, lam=3.0, inner_iters=I)
    streams = [RngStream(13).child("pss", j) for j in range(4)]
    Z, W = pss_run_batch(finite_sum_problem, oracle, cfg, streams)
    for j, s in enumerate(streams):
        (z,), (w,) = pss_run_batch(finite_sum_problem, oracle, cfg, [s])
        assert np.allclose(Z[j], z, atol=1e-12)
        assert np.allclose(W[j], w, atol=1e-12)


@pytest.mark.parametrize("noise", [NoiseModel(family="student_t", sigma=1.0, nu=3.0), NOISELESS])
def test_batch_rejects_empty_stream_list(ball_problem, noise):
    x0 = ball_problem.h.interior_point(ball_problem.dim)
    cfg = PssConfig(x0=x0, alpha=alpha_floor(5, 3.0, ball_problem.L), lam=3.0, inner_iters=5)
    with pytest.raises(ValidationError, match="at least one stream"):
        pss_run_batch(ball_problem, noise, cfg, [])


def test_config_validation():
    with pytest.raises(ValidationError):
        PssConfig(x0=np.zeros(1), alpha=1.0, lam=1.0, inner_iters=5)
    with pytest.raises(ValidationError):
        PssConfig(x0=np.zeros(1), alpha=0.9, lam=0.0, inner_iters=5)
    with pytest.raises(ValidationError):
        PssConfig(x0=np.zeros(1), alpha=0.9, lam=1.0, inner_iters=0)


def test_batch_memory_does_not_grow_with_inner_iters():
    # The heavy-tail instance at eps = 2e-3 derives n = 57, I = 21,000:
    # a one-shot plan would be 57 * 21,001 * 10 doubles (96 MB).
    spec = ProblemSpec(kind="quadratic-ball", dim=10, mu=1.0, L=4.0,
                       radius=0.5, instance_seed=20260819)
    problem = generate_problem(spec)
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    I = 21_000
    cfg = PssConfig(x0=problem.start, alpha=alpha_floor(I, 3.0, problem.L), lam=3.0, inner_iters=I)
    streams = [RngStream(15).child("pss", j) for j in range(57)]
    tracemalloc.start()
    try:
        Z, W = pss_run_batch(problem, noise, cfg, streams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.shape == W.shape == (57, problem.dim)
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

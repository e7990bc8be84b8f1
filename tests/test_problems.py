import math

import numpy as np
import pytest

from sppm import problems
from sppm.errors import DomainError, ValidationError
from sppm.noise import NoiseModel
from sppm.problems import (
    CompositeProblem,
    GradientSampler,
    RowSampler,
    evaluate_phi,
    exact_prox_point,
    minimize_phi,
    sample_gradient_batch,
    shifted_value,
    supports_rows,
)
from sppm.regularizers import L2Ball, Zero, prox_map
from sppm.rng import RngStream

from conftest import CountingNoise


def quad_1d():
    return CompositeProblem(
        dim=1, f=lambda x: 0.5 * float(x @ x), grad_f=lambda x: np.array(x),
        h=Zero(), mu=1.0, L=1.0,
    )


def test_evaluate_phi_hand_values():
    p = CompositeProblem(
        dim=2, f=lambda x: 0.5 * float(x @ x), grad_f=lambda x: np.array(x),
        h=L2Ball(center=np.zeros(2), radius=10.0), mu=1.0, L=1.0,
    )
    assert evaluate_phi(p, np.array([3.0, 4.0])) == pytest.approx(12.5)
    assert evaluate_phi(p, np.array([30.0, 0.0])) == math.inf
    # shifted: phi + ||x - c||^2 / (2 lam) = 12.5 + 25/4
    got = shifted_value(p, np.array([3.0, 4.0]), np.zeros(2), 2.0)
    assert got == pytest.approx(12.5 + 6.25)


def test_problem_validation():
    with pytest.raises(ValidationError):
        CompositeProblem(dim=0, f=None, grad_f=None, h=Zero(), mu=1.0, L=1.0)
    with pytest.raises(ValidationError):
        CompositeProblem(dim=1, f=None, grad_f=None, h=Zero(), mu=2.0, L=1.0)


def test_sample_batch_accounting_and_determinism(ball_problem, counting_noise):
    x = ball_problem.h.interior_point(ball_problem.dim)
    s = RngStream(5).child("draws")
    rows = sample_gradient_batch(ball_problem, counting_noise, x, 17, s)
    assert rows.shape == (17, ball_problem.dim)
    assert counting_noise.draws == 17
    again = sample_gradient_batch(ball_problem, counting_noise.inner, x, 17, s)
    assert np.array_equal(rows, again)


def test_sample_batch_outside_domain_rejected(ball_problem):
    noise = NoiseModel(family="gaussian", sigma=1.0)
    far = np.full(ball_problem.dim, 100.0)
    with pytest.raises(DomainError):
        sample_gradient_batch(ball_problem, noise, far, 3, RngStream(5))


def test_sample_batch_noiseless_is_exact_gradient(ball_problem):
    noise = NoiseModel(family="gaussian", sigma=0.0)
    x = ball_problem.h.interior_point(ball_problem.dim)
    rows = sample_gradient_batch(ball_problem, noise, x, 4, RngStream(5))
    assert np.allclose(rows, ball_problem.grad_f(x)[None, :])


def test_sample_batch_unbiased(ball_problem):
    noise = NoiseModel(family="gaussian", sigma=1.0)
    x = ball_problem.h.interior_point(ball_problem.dim)
    rows = sample_gradient_batch(ball_problem, noise, x, 40_000, RngStream(6))
    err = np.linalg.norm(rows.mean(axis=0) - ball_problem.grad_f(x))
    assert err < 5.0 / math.sqrt(40_000)


def test_gradient_sampler_matches_batch_additive(ball_problem):
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    x = ball_problem.h.interior_point(ball_problem.dim) + 0.05
    s = RngStream(9).child("plan")
    sampler = GradientSampler(ball_problem, noise, 11, s)
    batch = sample_gradient_batch(ball_problem, noise, x, 11, s)
    for i in range(11):
        assert np.array_equal(sampler.sample(i, x), batch[i])


def test_gradient_sampler_matches_batch_finite_sum(finite_sum_problem):
    oracle = finite_sum_problem.meta["oracle"]
    x = finite_sum_problem.h.interior_point(finite_sum_problem.dim)
    s = RngStream(9).child("fs")
    sampler = GradientSampler(finite_sum_problem, oracle, 13, s)
    batch = sample_gradient_batch(finite_sum_problem, oracle, x, 13, s)
    for i in range(13):
        assert np.array_equal(sampler.sample(i, x), batch[i])


def test_row_sampler_matches_per_candidate_plans(ball_problem):
    noise = NoiseModel(family="gaussian", sigma=1.0)
    streams = [RngStream(3).child("cand", j) for j in range(5)]
    rows = RowSampler(ball_problem, noise, 7, streams)
    singles = [GradientSampler(ball_problem, noise, 7, s) for s in streams]
    gen = RngStream(3).child("x").generator(shared=False)
    for i in range(7):
        X = 0.05 * gen.standard_normal((5, ball_problem.dim))
        got = rows.sample_rows(i, X)
        for j in range(5):
            assert np.allclose(got[j], singles[j].sample(i, X[j]), atol=1e-15)


def test_row_sampler_matches_per_candidate_finite_sum(finite_sum_problem):
    oracle = finite_sum_problem.meta["oracle"]
    assert supports_rows(finite_sum_problem, oracle)
    streams = [RngStream(4).child("cand", j) for j in range(4)]
    rows = RowSampler(finite_sum_problem, oracle, 6, streams)
    singles = [GradientSampler(finite_sum_problem, oracle, 6, s) for s in streams]
    gen = RngStream(4).child("x").generator(shared=False)
    for i in range(6):
        X = 0.2 * gen.standard_normal((4, finite_sum_problem.dim))
        got = rows.sample_rows(i, X)
        for j in range(4):
            assert np.allclose(got[j], singles[j].sample(i, X[j]), atol=1e-15)


@pytest.mark.parametrize("family", ["gaussian", "student_t", "rademacher", "sphere", "finite_sum"])
def test_chunked_plans_match_one_shot_plans(monkeypatch, ball_problem, finite_sum_problem, family):
    finite = family == "finite_sum"
    if finite:
        problem, noise = finite_sum_problem, finite_sum_problem.meta["oracle"]
    else:
        problem = ball_problem
        noise = CountingNoise(NoiseModel(family=family, sigma=1.0, nu=3.0))
    count, n, d = 50, 3, problem.dim
    streams = [RngStream(21).child("cand", j) for j in range(n)]
    # Reference: each stream's whole plan in one draw, (count, n[, d]).
    if finite:
        want = np.stack([s.generator().integers(0, noise.count, size=count) for s in streams], axis=1)
    else:
        want = np.stack([noise.inner.draw(s.generator(), count, d) for s in streams], axis=1)
    # 37 values: 2-step row chunks and 6-step single-stream chunks for
    # noise rows, 12- and 37-step chunks for indices; every plan ends
    # on a short remainder.
    monkeypatch.setattr(problems, "PLAN_VALUES", 37)
    rows = RowSampler(problem, noise, count, streams)
    singles = [GradientSampler(problem, noise, count, s) for s in streams]
    samplers = [rows] + singles
    gen = RngStream(21).child("x").generator(shared=False)
    for i in range(count):
        X = 0.2 * gen.standard_normal((n, d))
        got = rows.sample_rows(i, X)
        if finite:
            assert np.array_equal(got, noise.component_grad_rows(X, want[i]))
        else:
            assert np.array_equal(got, problem.grad_rows(X) + want[i])
        for j, single in enumerate(singles):
            one = single.sample(i, X[j])
            if finite:
                assert np.array_equal(one, noise.component_grad(X[j], want[i, j : j + 1])[0])
            else:
                assert np.array_equal(one, problem.grad_f(X[j]) + want[i, j])
        for sampler in samplers:
            held = [getattr(sampler, slot, None) for slot in ("_noise", "_noise_rows", "_indices")]
            assert sum(a.size for a in held if a is not None) <= 37
    if not finite:
        # the row sampler and the single samplers drew n * count each
        assert noise.draws == 2 * n * count


def test_plans_are_read_in_step_order(monkeypatch, ball_problem):
    noise = NoiseModel(family="gaussian", sigma=1.0)
    monkeypatch.setattr(problems, "PLAN_VALUES", 13)
    rows = RowSampler(ball_problem, noise, 9, [RngStream(22).child("cand", j) for j in range(2)])
    X = np.zeros((2, ball_problem.dim))
    rows.sample_rows(0, X)
    rows.sample_rows(1, X)
    with pytest.raises(ValidationError):
        rows.sample_rows(0, X)
    with pytest.raises(ValidationError):
        rows.sample_rows(3, X)
    single = GradientSampler(ball_problem, noise, 4, RngStream(22))
    for i in range(4):
        single.sample(i, X[0])
    with pytest.raises(ValidationError):
        single.sample(4, X[0])


def test_exact_prox_point_closed_form():
    # argmin f(x) + ||x - x0||^2/(2 lam) for quadratic f is
    # (A + I/lam)^-1 (A b + x0/lam); h = Zero keeps it unconstrained.
    gen = RngStream(44).child("quad").generator(shared=False)
    for _ in range(20):
        d = int(gen.integers(2, 7))
        q, r = np.linalg.qr(gen.standard_normal((d, d)))
        eigs = gen.uniform(0.5, 4.0, size=d)
        A = (q * eigs) @ q.T
        b = gen.standard_normal(d)
        Ab = A @ b
        p = CompositeProblem(
            dim=d,
            f=lambda x, A=A, b=b: 0.5 * float((x - b) @ A @ (x - b)),
            grad_f=lambda x, A=A, Ab=Ab: A @ x - Ab,
            h=Zero(), mu=float(eigs.min()), L=float(eigs.max()),
        )
        x0 = gen.standard_normal(d)
        lam = float(10.0 ** gen.uniform(-0.5, 0.8))
        want = np.linalg.solve(A + np.eye(d) / lam, Ab + x0 / lam)
        got = exact_prox_point(p, x0, lam, tol=1e-12)
        assert np.linalg.norm(got - want) <= 1e-8


def test_minimize_phi_first_order_optimality(ball_problem):
    x = minimize_phi(ball_problem, np.zeros(ball_problem.dim), tol=1e-10)
    # fixed point of the prox-gradient map at any stepsize
    t = 1.0 / ball_problem.L
    step = prox_map(ball_problem.h, x - t * ball_problem.grad_f(x), t)
    assert np.linalg.norm(step - x) <= 1e-8


def test_curvature_envelope(ball_problem):
    gen = RngStream(46).child("curv").generator(shared=False)
    mu, L = ball_problem.mu, ball_problem.L
    for _ in range(200):
        x = 0.4 * gen.standard_normal(ball_problem.dim)
        y = 0.4 * gen.standard_normal(ball_problem.dim)
        gap = ball_problem.f(y) - ball_problem.f(x) - float(
            ball_problem.grad_f(x) @ (y - x)
        )
        dd = float(np.sum((y - x) ** 2))
        assert mu / 2.0 * dd - 1e-9 <= gap <= L / 2.0 * dd + 1e-9


def test_grad_rows_matches_grad(ball_problem, finite_sum_problem):
    for p in (ball_problem, finite_sum_problem):
        gen = RngStream(47).child("rows" + p.kind).generator(shared=False)
        X = 0.2 * gen.standard_normal((6, p.dim))
        G = p.grad_rows(X)
        for j in range(6):
            assert np.allclose(G[j], p.grad_f(X[j]), atol=1e-12)

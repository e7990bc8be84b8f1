import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sppm import problems
from sppm.config import load_config
from sppm.driver import (
    RunRecord,
    Schedule,
    derive_schedule,
    select_best,
    sgd_baseline,
    sppm_run,
    total_samples,
)
from sppm.errors import NumericError, ValidationError
from sppm.harness import build_noise, build_problem, build_schedule, initial_iterate
from sppm.noise import NoiseModel
from sppm.problems import evaluate_phi
from sppm.pss import alpha_floor
from sppm.regularizers import L2Ball
from sppm.rng import RngStream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_outer_count_frozen():
    # D = 1, lam = 3, eps = 0.1 (so the distance share is 0.05):
    # ceil(ln(1 + 1/1.05) / ln(8/7)) = ceil(5.0104) = 6
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, 0.1, 0.1)
    assert s.outer_iters == 6


def test_candidate_count_and_total_frozen():
    # verbatim: n = ceil(72 ln(2K/p)); with K = 5, p = 0.1 that is 332,
    # and nK(I+1) + nKq = 332*5*101 + 332*5*12 = 187580
    s = derive_schedule(
        1.0, 4.0, 1.0, 1.0, 0.1, 0.1,
        overrides={"outer_iters": 5, "inner_iters": 100, "rge_batch": 12},
    )
    assert s.candidates_per_iter == 332
    assert total_samples(s) == 187_580


def test_practical_candidate_factor():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, 0.1, 0.05, mode="practical",
                        overrides={"outer_iters": 5})
    assert s.candidates_per_iter == math.ceil(8 * math.log(2 * 5 / 0.05))


def test_verbatim_feasible_at_loose_target():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, 5000.0, 0.1)
    assert s.feasible
    req, act = s.diagnostics["per_call_bound"]
    assert act <= req
    # smallest such I: one fewer inner iteration must violate the target
    from sppm.pss import epsilon_k_bound
    I = s.inner_iters
    if I > 1:
        a = alpha_floor(I - 1, s.lam, 4.0)
        assert epsilon_k_bound(a, I - 1, s.lam, 1.0, 1.0, 4.0) > req


def test_verbatim_infeasible_documents_bias_floor():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, 0.01, 0.05)
    assert not s.feasible
    assert "per_call_bound" in s.diagnostics
    assert "bias floor exceeded" in s.diagnostics
    req, floor = s.diagnostics["bias floor exceeded"]
    assert floor > req
    assert floor == pytest.approx(math.exp(-2.0) * 3.0, abs=1e-12)


def test_override_invariants_enforced():
    with pytest.raises(ValidationError):
        derive_schedule(1.0, 4.0, 1.0, 1.0, 0.1, 0.1, overrides={"lam": 1.0})
    with pytest.raises(ValidationError):
        derive_schedule(1.0, 4.0, 1.0, 1.0, 0.1, 0.1,
                        overrides={"inner_iters": 50, "alpha": 0.5})
    # big sigma against small L pushes the batch floor above 1
    with pytest.raises(ValidationError):
        derive_schedule(1.0, 1.2, 3.0, 1.0, 0.1, 0.1, overrides={"rge_batch": 1})
    with pytest.raises(ValidationError):
        derive_schedule(1.0, 4.0, 1.0, 1.0, 0.1, 0.1, overrides={"bogus": 3})


@pytest.mark.parametrize("name, value, match", [
    ("D", math.inf, "D must be finite [(]dom h must be bounded[)]"),
    ("sigma", math.inf, "sigma must be finite"),
    ("sigma", math.nan, "sigma must be finite"),
    ("mu", math.nan, "mu must be finite"),
    ("target_eps", math.nan, "target_eps must be finite"),
])
def test_non_finite_arguments_rejected(name, value, match):
    args = {"mu": 1.0, "L": 4.0, "sigma": 1.0, "D": 1.0, "target_eps": 0.1, "target_p": 0.1}
    with pytest.raises(ValidationError, match=match):
        derive_schedule(**{**args, name: value})


def test_lam_default_and_override():
    s = derive_schedule(2.0, 8.0, 1.0, 1.0, 0.1, 0.1)
    assert s.lam == pytest.approx(1.5)  # 3/mu
    s2 = derive_schedule(2.0, 8.0, 1.0, 1.0, 0.1, 0.1, overrides={"lam": 4.0})
    assert s2.lam == 4.0


def test_total_samples_formula():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, 0.1, 0.1,
                        overrides={"outer_iters": 3, "inner_iters": 10,
                                   "rge_batch": 13, "candidates_per_iter": 7})
    assert total_samples(s) == 7 * 3 * 11 + 7 * 3 * 13


def small_schedule(problem, K=3, I=15, n=5, q=4):
    return derive_schedule(
        problem.mu, problem.L, 1.0, problem.diameter, 0.5, 0.1,
        mode="practical",
        overrides={"outer_iters": K, "inner_iters": I,
                   "candidates_per_iter": n, "rge_batch": q},
    )


def test_sppm_run_record_shape(ball_problem):
    s = small_schedule(ball_problem)
    noise = NoiseModel(family="gaussian", sigma=1.0)
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    rec = sppm_run(ball_problem, noise, s, z0, RngStream(61))
    assert len(rec.iterates) == 3
    per = 5 * 16 + 5 * 4
    assert rec.per_iter_samples == (per, per, per)
    assert rec.total_samples == 3 * per == total_samples(s)
    for z, w in rec.iterates:
        assert ball_problem.h.contains(z)
        assert ball_problem.h.contains(w)


def test_sppm_run_sample_accounting(ball_problem, counting_noise):
    s = small_schedule(ball_problem)
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    rec = sppm_run(ball_problem, counting_noise, s, z0, RngStream(61))
    assert counting_noise.draws == rec.total_samples


def test_sppm_run_replay_is_bitwise(ball_problem):
    s = small_schedule(ball_problem)
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    a = sppm_run(ball_problem, noise, s, z0, RngStream(62))
    b = sppm_run(ball_problem, noise, s, z0, RngStream(62))
    for (z1, w1), (z2, w2) in zip(a.iterates, b.iterates):
        assert np.array_equal(z1, z2)
        assert np.array_equal(w1, w2)


def test_sppm_run_independent_of_plan_chunking(monkeypatch, ball_problem, counting_noise):
    s = small_schedule(ball_problem)
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    want = sppm_run(ball_problem, counting_noise.inner, s, z0, RngStream(66))
    # 5 candidates in 6 dims: one-step chunks of 30 values
    monkeypatch.setattr(problems, "PLAN_VALUES", 31)
    got = sppm_run(ball_problem, counting_noise, s, z0, RngStream(66))
    assert counting_noise.draws == got.total_samples == want.total_samples
    for (z1, w1), (z2, w2) in zip(want.iterates, got.iterates):
        assert np.array_equal(z1, z2)
        assert np.array_equal(w1, w2)


def test_non_finite_gradient_raises_at_its_outer_step():
    cfg = load_config(str(CONFIGS / "quadratic_gaussian.cfg"))
    problem = build_problem(cfg)
    schedule = build_schedule(cfg, problem)
    assert schedule.inner_iters == 40  # 41 grad_rows calls per outer step
    calls = 0

    def grad_rows(X):
        nonlocal calls
        calls += 1
        G = problem.grad_rows(X)
        if calls == 50:  # outer step 2
            G[3, 1] = np.nan
        return G

    planted = replace(problem, grad_rows=grad_rows)
    with pytest.raises(NumericError, match="outer step 2: candidate 3") as err:
        sppm_run(planted, build_noise(cfg, problem), schedule, initial_iterate(problem),
                 RngStream(cfg.run.master_seed))
    assert len(err.value.partial_record.iterates) == 1


def test_sppm_run_noiseless_converges(ball_problem):
    s = derive_schedule(
        ball_problem.mu, ball_problem.L, 0.0, ball_problem.diameter, 0.05, 0.1,
        mode="practical",
        overrides={"outer_iters": 8, "inner_iters": 60,
                   "candidates_per_iter": 2, "rge_batch": 1},
    )
    noise = NoiseModel(family="gaussian", sigma=0.0)
    z0 = np.array(ball_problem.start)
    rec = sppm_run(ball_problem, noise, s, z0, RngStream(63))
    k, w = select_best(ball_problem, rec)
    assert evaluate_phi(ball_problem, w) - ball_problem.phi_star < 0.05


def test_select_best_smallest_objective(ball_problem):
    s = small_schedule(ball_problem)
    good = np.array(ball_problem.x_star)
    worse = ball_problem.h.interior_point(ball_problem.dim) + 0.3
    rec = RunRecord(
        iterates=((worse, worse), (good, good), (worse, good)),
        per_iter_samples=(1, 1, 1), total_samples=3, master_seed=0, schedule=s,
    )
    k, w = select_best(ball_problem, rec)
    assert k == 2  # 1-based, first of the tied minima
    assert np.array_equal(w, good)
    empty = RunRecord(iterates=(), per_iter_samples=(), total_samples=0,
                      master_seed=0, schedule=s)
    with pytest.raises(ValidationError):
        select_best(ball_problem, empty)


def test_sgd_baseline_accounting_and_replay(ball_problem, counting_noise):
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    out = sgd_baseline(ball_problem, counting_noise, z0, 500, RngStream(64))
    assert counting_noise.draws == 500
    assert ball_problem.h.contains(out)
    again = sgd_baseline(ball_problem, counting_noise.inner, z0, 500, RngStream(64))
    assert np.array_equal(out, again)
    with pytest.raises(ValidationError):
        sgd_baseline(ball_problem, counting_noise.inner, z0, 0, RngStream(64))


def test_sgd_baseline_noiseless_converges(ball_problem):
    noise = NoiseModel(family="gaussian", sigma=0.0)
    z0 = np.array(ball_problem.start)
    out = sgd_baseline(ball_problem, noise, z0, 4000, RngStream(65))
    assert evaluate_phi(ball_problem, out) - ball_problem.phi_star < 0.05


def test_schedule_validation():
    with pytest.raises(ValidationError):
        Schedule(lam=0.0, alpha=0.9, inner_iters=1, candidates_per_iter=1,
                 rge_batch=1, outer_iters=1, eps_k=1.0, tau=8.0,
                 target_eps=1.0, target_p=0.1, feasible=True)
    with pytest.raises(ValidationError):
        Schedule(lam=1.0, alpha=1.5, inner_iters=1, candidates_per_iter=1,
                 rge_batch=1, outer_iters=1, eps_k=1.0, tau=8.0,
                 target_eps=1.0, target_p=0.1, feasible=True)


def _assert_iterates_close(one, two):
    for (z1, w1), (z2, w2) in zip(one.iterates, two.iterates):
        assert np.allclose(z1, z2, rtol=0, atol=1e-12)
        assert np.allclose(w1, w2, rtol=0, atol=1e-12)


def test_row_loop_default_for_custom_problem(counting_noise):
    # A custom additive problem that gives only grad_f runs through the
    # row-loop default; a hand-written grad_rows must agree with it.
    d = 4
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.array([0.3, -0.2, 0.1, 0.4])
    bare = problems.CompositeProblem(
        dim=d, f=lambda x: 0.5 * float((x - b) @ A @ (x - b)), grad_f=lambda x: A @ (x - b),
        h=L2Ball(center=np.zeros(d), radius=0.5), mu=1.0, L=4.0, diameter=1.0,
    )
    assert bare.grad_rows is None
    rows = replace(bare, grad_rows=lambda X: (X - b) @ A)
    s = small_schedule(bare)
    z0 = np.zeros(d)
    got = sppm_run(bare, counting_noise, s, z0, RngStream(67))
    assert counting_noise.draws == got.total_samples == total_samples(s)
    _assert_iterates_close(got, sppm_run(rows, counting_noise.inner, s, z0, RngStream(67)))


def test_row_loop_default_for_finite_sum_oracle(finite_sum_problem):
    oracle = finite_sum_problem.meta["oracle"]
    draws = 0

    def component_grad(x, idx):
        nonlocal draws
        draws += len(idx)
        return oracle.component_grad(x, idx)

    bare = replace(oracle, component_grad=component_grad, component_grad_rows=None)
    s = small_schedule(finite_sum_problem)
    z0 = finite_sum_problem.h.interior_point(finite_sum_problem.dim)
    got = sppm_run(finite_sum_problem, bare, s, z0, RngStream(68))
    assert draws == got.total_samples == total_samples(s)
    _assert_iterates_close(got, sppm_run(finite_sum_problem, oracle, s, z0, RngStream(68)))

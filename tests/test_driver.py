import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from sppm import problems
from sppm.config import AlgoSpec, load_config
from sppm.driver import (
    I_CAP,
    RunRecord,
    Schedule,
    derive_schedule,
    select_best,
    sgd_baseline,
    sppm_run,
    total_samples,
)
from sppm.errors import DomainError, NumericError, ValidationError
from sppm.harness import build_noise, build_problem, build_schedule, initial_iterate
from sppm.noise import NoiseModel
from sppm.problems import FiniteSumOracle, evaluate_phi
from sppm.props import CountingNoise
from sppm.pss import PssConfig, alpha_floor, epsilon_k_bound, pss_run_batch
from sppm.regularizers import L1, L2Ball, Zero, prox_map
from sppm.rng import RngStream
from sppm.selection import rge

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_outer_count_frozen():
    # D = 1, lam = 3, eps = 0.1 (so the distance share is 0.05):
    # ceil(ln(1 + 1/1.05) / ln(8/7)) = ceil(5.0104) = 6
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, AlgoSpec(eps=0.1, p=0.1))
    assert s.outer_iters == 6


def test_candidate_count_and_total_frozen():
    # verbatim: n = ceil(72 ln(2K/p)); with K = 5, p = 0.1 that is 332,
    # and nK(I+1) + nKq = 332*5*101 + 332*5*12 = 187580
    s = derive_schedule(
        1.0, 4.0, 1.0, 1.0,
        AlgoSpec(eps=0.1, p=0.1, outer_iters=5, inner_iters=100, rge_batch=12),
    )
    assert s.candidates_per_iter == 332
    assert total_samples(s) == 187_580


def test_practical_candidate_factor():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, AlgoSpec(eps=0.1, p=0.05, mode="practical", outer_iters=5))
    assert s.candidates_per_iter == math.ceil(8 * math.log(2 * 5 / 0.05))


def test_verbatim_feasible_at_loose_target():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, AlgoSpec(eps=5000.0, p=0.1))
    assert s.feasible
    req, act = s.diagnostics["per_call_bound"]
    assert act <= req
    # smallest such I: one fewer inner iteration must violate the target
    I = s.inner_iters
    if I > 1:
        a = alpha_floor(I - 1, s.lam, 4.0)
        assert epsilon_k_bound(a, I - 1, s.lam, 1.0, 1.0, 4.0) > req


def test_verbatim_infeasible_documents_bias_floor():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, AlgoSpec(eps=0.01, p=0.05))
    assert not s.feasible
    assert "per_call_bound" in s.diagnostics
    assert "bias floor exceeded" in s.diagnostics
    req, floor = s.diagnostics["bias floor exceeded"]
    assert floor > req
    assert floor == pytest.approx(math.exp(-2.0) * 3.0, abs=1e-12)


def test_override_invariants_enforced():
    # big sigma against small L pushes the batch floor above 1
    with pytest.raises(ValidationError):
        derive_schedule(1.0, 1.2, 3.0, 1.0, AlgoSpec(eps=0.1, p=0.1, rge_batch=1))


@pytest.mark.parametrize("name, value, match", [
    ("D", math.inf, "D must be finite [(]dom h must be bounded[)]"),
    ("sigma", math.inf, "sigma must be finite"),
    ("sigma", math.nan, "sigma must be finite"),
    ("mu", math.nan, "mu must be finite"),
    # AlgoSpec rejects a non-finite eps before derive_schedule runs
    ("target_eps", math.nan, "algo.auto.eps: must be finite"),
])
def test_non_finite_arguments_rejected(name, value, match):
    args = {"mu": 1.0, "L": 4.0, "sigma": 1.0, "D": 1.0, "target_eps": 0.1, name: value}
    eps = args.pop("target_eps")
    with pytest.raises(ValidationError, match=match):
        derive_schedule(**args, algo=AlgoSpec(eps=eps, p=0.1))


@pytest.mark.parametrize("mode", ["verbatim", "practical"])
@pytest.mark.parametrize("pins", [
    {}, {"inner_iters": 40}, {"rge_batch": 10**6}, {"inner_iters": 7, "rge_batch": 10**6},
])
@pytest.mark.parametrize("mu, L, sigma, eps", [
    (1.0, 4.0, 1.0, 0.1), (2.0, 8.0, 1.0, 0.1), (0.3, 5.0, 0.0, 0.05), (1.0, 4.0, 1.0, 5000.0),
])
def test_derived_schedules_hold_lam_mu_and_alpha_invariants(mode, pins, mu, L, sigma, eps):
    s = derive_schedule(mu, L, sigma, 1.0, AlgoSpec(eps=eps, p=0.1, mode=mode, **pins))
    assert abs(s.lam * mu - 3.0) <= 1e-12
    assert s.alpha == alpha_floor(s.inner_iters, s.lam, L)


@pytest.mark.parametrize("changes, pins, match", [
    ({"sigma": 1e155}, {}, "inner_iters overflows"),
    ({"mu": 1e-300}, {}, "inner_iters overflows"),
    ({"sigma": 1e155}, {"inner_iters": 5}, "eps_k overflows"),
    ({"D": 1e200}, {}, "outer_iters overflows"),
    # a pinned outer_iters is never derived, so D^2 overflows eps_k instead
    ({"D": 1e200}, {"outer_iters": 3, "inner_iters": 5}, "eps_k overflows"),
    ({"eps": 1e-320}, {}, "outer_iters overflows"),
    ({"p": 1e-320}, {}, "candidates_per_iter overflows"),
])
def test_overflowing_targets_raise_validation_error(changes, pins, match):
    args = {"mu": 1.0, "L": 4.0, "sigma": 1.0, "D": 1.0, "eps": 0.02, "p": 0.05, **changes}
    algo = AlgoSpec(eps=args.pop("eps"), p=args.pop("p"), mode="practical", **pins)
    with pytest.raises(ValidationError, match=match):
        derive_schedule(**args, algo=algo)


def test_pinned_candidates_skip_their_derivation():
    # ln(2K/p) overflows at p = 1e-320, but a pinned n never needs it
    s = derive_schedule(1.0, 4.0, 1.0, 1.0, AlgoSpec(eps=0.02, p=1e-320, mode="practical", candidates=4))
    assert s.candidates_per_iter == 4
    # the pin fails when the AlgoSpec is built
    with pytest.raises(ValidationError, match="algo.candidates must be >= 1, got 0"):
        derive_schedule(1.0, 4.0, 1.0, 1.0, AlgoSpec(eps=0.02, p=0.05, candidates=0))


# The smallest feasible I here lies between 2^19 and I_CAP, where a
# doubling search that probes only powers of two overshoots to I_CAP.
OVERSHOOT = (0.0014326604092538948, 0.0031441589855449614, 2.8948299582487724, 0.04878031079289238,
             AlgoSpec(eps=0.08266283133352846, p=0.05, mode="practical"))


@pytest.mark.parametrize("name", ["overshoot", "heavy_tail", "lasso_box", "quadratic_gaussian"])
def test_derived_inner_iters_is_the_smallest_that_meets_the_target(name):
    if name == "overshoot":
        mu, L, sigma, D, algo = OVERSHOOT
    else:
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        problem = build_problem(cfg)
        mu, L, sigma, D = problem.mu, problem.L, problem.sigma, problem.diameter
        algo = AlgoSpec(eps=cfg.algo.eps, p=cfg.algo.p, mode=cfg.algo.mode)  # no pins
    s = derive_schedule(mu, L, sigma, D, algo)
    req, act = s.diagnostics["per_call_bound"]

    def gap_bound(I):
        return epsilon_k_bound(alpha_floor(I, s.lam, L), I, s.lam, sigma, D, L)

    if name == "overshoot":
        assert s.feasible and s.inner_iters == 789_753
    if s.feasible:
        assert act <= req < gap_bound(s.inner_iters - 1)
    else:
        # the shipped configs sit past the bias floor: no I up to the
        # cap meets the target, since the bound falls with I
        assert gap_bound(I_CAP) > req


@pytest.mark.parametrize("mu, pins", [(1e-17, {}), (1e-17, {"inner_iters": 5}), (1e-15, {})])
def test_alpha_floor_rounding_to_one_blames_the_conditioning(mu, pins):
    with pytest.raises(ValidationError, match=r"kappa=4e\+1[57] at I=\d+ is too ill-conditioned"):
        derive_schedule(mu, 4.0, 0.0, 1.0, AlgoSpec(eps=0.02, p=0.05, mode="practical", **pins))


@pytest.mark.parametrize("pins", [{}, {"inner_iters": 5}])
def test_underflowing_eps_k_raises_validation_error(pins):
    with pytest.raises(ValidationError, match="eps_k underflows to 0"):
        derive_schedule(1.0, 4.0, 0.0, 1e-200, AlgoSpec(eps=0.02, p=0.05, mode="practical", **pins))


def test_total_samples_formula():
    s = derive_schedule(1.0, 4.0, 1.0, 1.0,
                        AlgoSpec(eps=0.1, p=0.1, outer_iters=3, inner_iters=10, rge_batch=13, candidates=7))
    assert total_samples(s) == 7 * 3 * 11 + 7 * 3 * 13


def small_schedule(problem, K=3, I=15, n=5, q=4):
    return derive_schedule(
        problem.mu, problem.L, 1.0, problem.diameter,
        AlgoSpec(eps=0.5, p=0.1, mode="practical", outer_iters=K, inner_iters=I, candidates=n, rge_batch=q),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("h", [Zero(), L1(weight=0.1)], ids=lambda h: type(h).__name__)
def test_non_finite_point_lies_outside_unbounded_domains(h, bad):
    # dom h is all of R^d for Zero and L1, but no point with a NaN or
    # infinite coordinate: every sampling entry point rejects it up front
    problem = problems.CompositeProblem(
        dim=3, f=lambda x: float(x @ x), grad_f=lambda x: 2.0 * x,
        h=h, mu=2.0, L=4.0, diameter=1.0,
    )
    noise = NoiseModel(family="gaussian", sigma=1.0)
    x = np.array([0.1, bad, 0.0])
    cfg = PssConfig(x0=x, alpha=alpha_floor(4, 3.0, problem.L), lam=3.0, inner_iters=4)
    with pytest.raises(DomainError, match="sampling point"):
        rge(problem, noise, x, 3, 2, RngStream(71))
    with pytest.raises(DomainError, match="sampling point"):
        problems.sample_gradient_batch(problem, noise, x, 2, RngStream(71))
    with pytest.raises(DomainError, match="prox center"):
        pss_run_batch(problem, noise, cfg, [RngStream(71).child("pss", j) for j in range(2)])
    with pytest.raises(DomainError, match="z0"):
        sppm_run(problem, noise, small_schedule(problem), x, RngStream(71))


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


def test_sppm_run_counts_noiseless_draws(ball_problem):
    noise = CountingNoise(NoiseModel(family="gaussian", sigma=0.0))
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    rec = sppm_run(ball_problem, noise, small_schedule(ball_problem), z0, RngStream(66))
    assert noise.draws == rec.total_samples


def test_record_iterates_are_standalone_rows(ball_problem):
    # A record never pins the (n, dim) candidate matrices of a step.
    noise = NoiseModel(family="gaussian", sigma=1.0)
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    rec = sppm_run(ball_problem, noise, small_schedule(ball_problem), z0, RngStream(67))
    for pair in rec.iterates:
        for v in pair:
            assert v.shape == (ball_problem.dim,) and v.base is None


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


def test_non_finite_rge_mean_raises_with_partial_record():
    # grad_f is read only by rge's additive draws; a NaN there at outer
    # step 2 surfaces as rge's NumericError, not as an empty selection
    cfg = load_config(str(CONFIGS / "quadratic_gaussian.cfg"))
    problem = build_problem(cfg)
    calls = 0

    def grad_f(x):
        nonlocal calls
        calls += 1
        g = problem.grad_f(x)
        return g * np.nan if calls == 2 else g

    planted = replace(problem, grad_f=grad_f)
    with pytest.raises(NumericError, match="rge batch mean 0 is not finite") as err:
        sppm_run(planted, build_noise(cfg, problem), build_schedule(cfg, problem),
                 initial_iterate(problem), RngStream(cfg.run.master_seed))
    assert len(err.value.partial_record.iterates) == 1


def test_sppm_run_noiseless_converges(ball_problem):
    s = derive_schedule(
        ball_problem.mu, ball_problem.L, 0.0, ball_problem.diameter,
        AlgoSpec(eps=0.05, p=0.1, mode="practical", outer_iters=8, inner_iters=60, candidates=2, rge_batch=1),
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


def test_sgd_baseline_draws_one_plan_on_its_stream(ball_problem):
    noise = NoiseModel(family="student_t", sigma=1.0, nu=3.0)
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    stream = RngStream(69).child("sgd-trial", 0)
    plan = noise.draw(stream.generator(), 50, ball_problem.dim)
    want = z0
    for t in range(50):
        step = 1.0 / (ball_problem.mu * (t + 1))
        want = prox_map(ball_problem.h, want - step * (ball_problem.grad_f(want) + plan[t]), step)
    assert np.array_equal(sgd_baseline(ball_problem, noise, z0, 50, stream), want)


def test_sgd_baseline_independent_of_plan_chunking(monkeypatch, ball_problem, counting_noise):
    z0 = ball_problem.h.interior_point(ball_problem.dim)
    want = sgd_baseline(ball_problem, counting_noise.inner, z0, 50, RngStream(70))
    # 6 dims: 6-step chunks of 36 values, ending on a 2-step remainder
    monkeypatch.setattr(problems, "PLAN_VALUES", 37)
    got = sgd_baseline(ball_problem, counting_noise, z0, 50, RngStream(70))
    assert counting_noise.draws == 50
    assert np.array_equal(got, want)


def test_sgd_baseline_counts_noiseless_draws(ball_problem):
    noise = CountingNoise(NoiseModel(family="gaussian", sigma=0.0))
    sgd_baseline(ball_problem, noise, ball_problem.h.interior_point(ball_problem.dim), 300, RngStream(71))
    assert noise.draws == 300


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


@dataclass(frozen=True)
class CountingOracle(FiniteSumOracle):
    """Finite-sum oracle that tallies the component indices drawn through it."""

    tally: list = field(default_factory=list)

    @property
    def draws(self):
        return sum(self.tally)

    def draw(self, gen, count, dim):
        self.tally.append(count)
        return super().draw(gen, count, dim)


@pytest.mark.parametrize("kind", ["additive", "finite_sum"])
def test_every_sample_is_planned_through_draw(ball_problem, finite_sum_problem, kind):
    # Both noise kinds plan every sample of a run, inner solves and
    # booster alike, through noise.draw; counting there changes no iterate.
    if kind == "additive":
        problem, plain = ball_problem, NoiseModel(family="student_t", sigma=1.0, nu=3.0)
        counted = CountingNoise(plain)
    else:
        problem, plain = finite_sum_problem, finite_sum_problem.meta["oracle"]
        counted = CountingOracle(plain.count, plain.component_grad, plain.component_grad_rows)
    s = small_schedule(problem)
    z0 = problem.h.interior_point(problem.dim)
    got = sppm_run(problem, counted, s, z0, RngStream(68))
    assert counted.draws == got.total_samples == total_samples(s)
    want = sppm_run(problem, plain, s, z0, RngStream(68))
    for (z1, w1), (z2, w2) in zip(want.iterates, got.iterates, strict=True):
        assert np.array_equal(z1, z2)
        assert np.array_equal(w1, w2)

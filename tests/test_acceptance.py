"""Top-level acceptance gate: one test per shipped guarantee.

Each test prints a single PASS detail line so a verbose run reads as a
ten-line scorecard.  Tolerances and budgets are fixed here on purpose;
loosening them is a behavior change, not a test fix.
"""

import json
import math
import time

import numpy as np
import pytest

from sppm.config import AlgoSpec, ProblemSpec, parse_config
from sppm.driver import derive_schedule, sppm_run, total_samples
from sppm.generate import generate_problem
from sppm.harness import emit_report, run_trials
from sppm.noise import NoiseModel
from sppm.problems import evaluate_phi
from sppm.props import (
    CountingNoise,
    check_hoeffding_fraction,
    check_metric_comparison,
    check_shifted_two_sided_bound,
    check_pb_boost,
    check_per_call_frequency,
    check_prox_point_closed_form,
    check_pss_mean_bound,
    check_rge_concentration,
    check_sts_planted,
)
from sppm.rng import RngStream


def _report(tag, elapsed, budget, details):
    print(f"{tag} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {details}")


def test_criterion_01_per_call_event_frequency():
    start = time.perf_counter()
    ok, details = check_per_call_frequency(calls=2000, I=50)
    elapsed = time.perf_counter() - start
    assert ok, details
    assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget 120s"
    _report("criterion 01", elapsed, 120, details)


def test_criterion_02_mean_gap_bound_and_trend():
    start = time.perf_counter()
    ok, details = check_pss_mean_bound(runs=1000, inner_counts=(25, 50, 100, 200))
    elapsed = time.perf_counter() - start
    assert ok, details
    assert elapsed <= 180.0, f"took {elapsed:.1f}s, budget 180s"
    _report("criterion 02", elapsed, 180, details)


def test_criterion_03_planted_selection():
    start = time.perf_counter()
    ok, details = check_sts_planted(configs=200, n=30)
    elapsed = time.perf_counter() - start
    assert ok, details
    assert elapsed <= 10.0, f"took {elapsed:.1f}s, budget 10s"
    _report("criterion 03", elapsed, 10, details)


def test_criterion_04_gradient_estimator_concentration():
    start = time.perf_counter()
    ok, details = check_rge_concentration(trials=2000, n=144, q=16, delta=0.5)
    elapsed = time.perf_counter() - start
    assert ok, details
    assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget 60s"
    _report("criterion 04", elapsed, 60, details)


@pytest.mark.slow
def test_criterion_05_boosted_selection_guarantee():
    start = time.perf_counter()
    ok, details = check_pb_boost(trials=500, n=288, tau=5e-4)
    elapsed = time.perf_counter() - start
    assert ok, details
    assert elapsed <= 180.0, f"took {elapsed:.1f}s, budget 180s"
    _report("criterion 05", elapsed, 180, details)


@pytest.mark.slow
def test_criterion_06_heavy_tail_benchmark():
    # target is relative to the instance's cold start, so build the
    # instance first and interpolate the figure into the config
    spec = ProblemSpec(kind="quadratic-ball", dim=10, mu=1.0, L=4.0,
                       radius=0.5, instance_seed=20260819)
    problem = generate_problem(spec)
    gap0 = evaluate_phi(problem, problem.start) - problem.phi_star
    eps = 0.05 * gap0
    cfg = parse_config(f"""
        problem.kind = quadratic-ball
        problem.dim = 10
        problem.mu = 1.0
        problem.L = 4.0
        problem.radius = 0.5
        problem.instance_seed = 20260819
        noise.family = student_t
        noise.sigma = 1.0
        noise.nu = 3.0
        algo.auto.eps = {eps!r}
        algo.auto.p = 0.05
        algo.mode = practical
        run.master_seed = 20260819
        run.trials = 200
    """)
    start = time.perf_counter()
    report = run_trials(cfg)
    elapsed = time.perf_counter() - start

    assert report.trials == 200
    assert report.failure_rate <= 0.05, (
        f"failure rate {report.failure_rate:.4f} > 0.05 "
        f"({report.failures}/{report.trials})"
    )
    # the theory-side target is unreachable here and the schedule must say so
    sched = report.schedule
    assert not sched.feasible
    assert "per_call_bound" in sched.diagnostics
    assert "bias floor exceeded" in sched.diagnostics
    assert elapsed <= 600.0, f"took {elapsed:.1f}s, budget 600s"
    gaps = sorted(r.best_gap for r in report.records)
    details = (
        f"failures {report.failures}/200, wilson upper {report.ci_hi:.4f}, "
        f"eps {eps:.5f}, max gap {gaps[-1]:.5f}, "
        f"schedule I={sched.inner_iters} K={sched.outer_iters} "
        f"n={sched.candidates_per_iter} q={sched.rge_batch}, "
        f"infeasibility documented: {sorted(sched.diagnostics)}"
    )
    _report("criterion 06", elapsed, 600, details)


def test_criterion_07_confidence_scaling_accounting():
    # frozen from n = ceil(72 ln(2K/p)) and nK(I+1) + nKq at K=3, I=10, q=2
    expected = {
        1e-1: (295, 11505),
        1e-2: (461, 17979),
        1e-3: (627, 24453),
        1e-4: (793, 30927),
        1e-5: (958, 37362),
        1e-6: (1124, 43836),
    }
    pins = {"outer_iters": 3, "inner_iters": 10, "rge_batch": 2}
    start = time.perf_counter()
    schedules = {}
    for p, (n_exp, total_exp) in expected.items():
        sched = derive_schedule(mu=1.0, L=4.0, sigma=1.0, D=1.0,
                                algo=AlgoSpec(eps=0.5, p=p, mode="verbatim", **pins))
        assert sched.candidates_per_iter == n_exp, (
            f"p={p}: n {sched.candidates_per_iter} != {n_exp}"
        )
        assert total_samples(sched) == total_exp, (
            f"p={p}: total {total_samples(sched)} != {total_exp}"
        )
        schedules[p] = sched
    derive_elapsed = time.perf_counter() - start
    assert derive_elapsed <= 1.0, f"derivations took {derive_elapsed:.2f}s, budget 1s"

    # one instrumented run per confidence level: the oracle is charged
    # exactly the advertised number of samples
    spec = ProblemSpec(kind="quadratic-ball", dim=5, mu=1.0, L=4.0,
                       radius=0.5, instance_seed=7)
    problem = generate_problem(spec)
    z0 = problem.h.interior_point(problem.dim)
    for p, (n_exp, total_exp) in expected.items():
        noise = CountingNoise(NoiseModel(family="gaussian", sigma=1.0))
        record = sppm_run(problem, noise, schedules[p], z0,
                          RngStream(900).child("acc", int(-math.log10(p))))
        assert record.total_samples == total_exp
        assert noise.draws == total_exp, (
            f"p={p}: oracle drew {noise.draws}, advertised {total_exp}"
        )
    ns = ", ".join(f"p={p:g}: n={n}" for p, (n, _) in expected.items())
    _report("criterion 07", derive_elapsed, 1,
            f"exact totals at {ns}; instrumented draws match")


def test_criterion_08_prox_and_shifted_value_identities():
    start = time.perf_counter()
    ok_a, det_a = check_prox_point_closed_form(instances=100)
    ok_b, det_b = check_shifted_two_sided_bound(points=1000)
    ok_c, det_c = check_metric_comparison(points=1000)
    elapsed = time.perf_counter() - start
    assert ok_a, det_a
    assert ok_b, det_b
    assert ok_c, det_c
    assert elapsed <= 30.0, f"took {elapsed:.1f}s, budget 30s"
    _report("criterion 08", elapsed, 30, f"{det_a}; {det_b}; {det_c}")


def test_criterion_09_majority_fraction():
    start = time.perf_counter()
    ok, details = check_hoeffding_fraction(meta_trials=10_000, counts=(30, 72, 144))
    elapsed = time.perf_counter() - start
    assert ok, details
    assert elapsed <= 30.0, f"took {elapsed:.1f}s, budget 30s"
    _report("criterion 09", elapsed, 30, details)


CRITERION_10_CONFIG = """
    problem.kind = quadratic-ball
    problem.dim = 5
    problem.mu = 1.0
    problem.L = 4.0
    problem.radius = 0.5
    problem.instance_seed = 77
    noise.family = gaussian
    noise.sigma = 1.0
    algo.auto.eps = 0.5
    algo.auto.p = 0.1
    algo.mode = practical
    algo.inner_iters = 20
    algo.candidates = 4
    algo.rge_batch = 2
    algo.outer_iters = 3
    run.master_seed = 5
    run.trials = 10
    run.parallelism = {workers}
"""


def _summary_body(out_dir):
    payload = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    payload.pop("wall_ms_total")
    for rec in payload["records"]:
        rec.pop("wall_ms")
    return json.dumps(payload, indent=2, sort_keys=True)


def test_criterion_10_replay_across_parallelism(tmp_path):
    start = time.perf_counter()
    bodies = []
    for workers in (1, 8):
        cfg = parse_config(CRITERION_10_CONFIG.format(workers=workers))
        out = tmp_path / f"par{workers}"
        emit_report(run_trials(cfg), out)
        bodies.append(_summary_body(out))
    elapsed = time.perf_counter() - start
    assert bodies[0] == bodies[1], "summaries differ between parallelism 1 and 8"
    assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget 120s"
    _report("criterion 10", elapsed, 120,
            "summary bodies byte-identical at parallelism 1 and 8 "
            "(wall-clock fields excluded)")

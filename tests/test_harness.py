import csv
import json
import math

import numpy as np
import pytest

from sppm.config import ExperimentConfig, parse_config
from sppm.errors import ValidationError
from sppm.harness import (
    TrialRecord,
    TrialReport,
    build_problem,
    build_schedule,
    compare_budget,
    emit_report,
    initial_iterate,
    run_trials,
    wilson_interval,
)
from sppm.rng import RngStream

SMALL = """\
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
run.trials = 4
"""


# Replay configs beyond Gaussian quadratics: a finite-sum oracle and a
# logistic loss under sphere noise.
FINITE_SUM = """\
problem.kind = ridge-l1-box
problem.dim = 5
problem.mu = 1.0
problem.L = 3.0
problem.box_halfwidth = 1.0
problem.components = 40
problem.instance_seed = 11
noise.family = finite_sum
noise.sigma = 0.0
algo.auto.eps = 0.5
algo.auto.p = 0.1
algo.mode = practical
algo.inner_iters = 30
algo.candidates = 5
algo.outer_iters = 2
run.master_seed = 9
run.trials = 4
"""

LOGREG = """\
problem.kind = logreg-ridge-ball
problem.dim = 4
problem.mu = 0.5
problem.L = 2.0
problem.radius = 1.0
problem.components = 60
problem.instance_seed = 13
noise.family = sphere
noise.sigma = 0.5
algo.auto.eps = 0.5
algo.auto.p = 0.1
algo.mode = practical
algo.inner_iters = 25
algo.candidates = 4
algo.outer_iters = 2
run.master_seed = 10
run.trials = 4
"""


def small_cfg(text=SMALL, **edits) -> ExperimentConfig:
    for key, val in edits.items():
        text = "".join(
            line if not line.startswith(key + " ") else f"{key} = {val}\n"
            for line in text.splitlines(keepends=True)
        )
    return parse_config(text)


def strip_wall(payload: dict) -> dict:
    out = dict(payload)
    out.pop("wall_ms_total", None)
    out["records"] = [
        {k: v for k, v in r.items() if k != "wall_ms"} for r in out["records"]
    ]
    return out


def test_wilson_interval_frozen_values():
    lo, hi = wilson_interval(0, 200)
    assert lo == 0.0
    assert hi == pytest.approx(0.018846005918320894, abs=1e-12)
    lo, hi = wilson_interval(200, 200)
    assert hi == 1.0
    lo, hi = wilson_interval(10, 200)
    assert 0.0 < lo < 0.05 < hi < 0.1


def test_wilson_interval_coverage():
    # planted Bernoulli(r) through the aggregation arithmetic: the
    # interval contains r in >= 93 of 100 meta-repetitions
    r = 0.07
    gen = RngStream(81).child("wilson").generator(shared=False)
    covered = 0
    for _ in range(100):
        fails = int(np.sum(gen.random(400) < r))
        lo, hi = wilson_interval(fails, 400)
        covered += lo <= r <= hi
    assert covered >= 93


def test_initial_iterate_prefers_cold_start():
    cfg = small_cfg()
    problem = build_problem(cfg)
    z0 = initial_iterate(problem)
    assert np.array_equal(z0, problem.start)
    assert problem.h.contains(z0)


def test_run_trials_report_invariants():
    report = run_trials(small_cfg())
    assert report.trials == 4
    assert len(report.records) == 4
    assert 0 <= report.failures <= report.trials
    assert report.ci_lo <= report.failure_rate <= report.ci_hi
    assert all(r.samples == report.samples_per_trial for r in report.records)
    assert [r.trial for r in report.records] == [0, 1, 2, 3]


def test_noiseless_trials_never_fail():
    report = run_trials(small_cfg(**{"noise.sigma": 0.0, "algo.auto.eps": 0.4}))
    assert report.failures == 0
    assert report.failure_rate == 0.0


def test_reports_identical_across_parallelism_and_reruns(monkeypatch):
    from sppm import problems
    from sppm.harness import report_to_dict

    for text in (SMALL, FINITE_SUM, LOGREG):
        base = report_to_dict(run_trials(small_cfg(text)))
        rerun = report_to_dict(run_trials(small_cfg(text)))
        with monkeypatch.context() as m:
            if text is FINITE_SUM:
                # 13 values: 2-step chunks, so multi-chunk plans run on the pool
                m.setattr(problems, "PLAN_VALUES", 13)
            par = report_to_dict(run_trials(small_cfg(text, **{"run.parallelism": 4})))
            par_rows = compare_budget(small_cfg(text, **{"run.parallelism": 3}))
        assert strip_wall(base) == strip_wall(rerun)
        assert strip_wall(base) == strip_wall(par)
        assert compare_budget(small_cfg(text)) == par_rows


def test_emit_report_files(tmp_path):
    report = run_trials(small_cfg())
    paths = emit_report(report, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["schedule.json", "summary.json", "trials.csv"]

    with (tmp_path / "trials.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "best_k", "best_gap", "failed",
                       "samples", "wall_ms"]
    assert len(rows) == 1 + 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sum(int(r[4]) for r in rows[1:]) == summary["failures"]
    # recomputing the failure rate from the CSV matches the summary
    rate = sum(int(r[4]) for r in rows[1:]) / len(rows[1:])
    assert rate == pytest.approx(summary["failure_rate"], abs=1e-15)
    schedule = json.loads((tmp_path / "schedule.json").read_text())
    assert schedule == summary["schedule"]


def test_emit_report_empty(tmp_path):
    schedule = build_schedule(small_cfg(), build_problem(small_cfg()))
    report = TrialReport(trials=0, failures=0, failure_rate=0.0, ci_lo=0.0,
                         ci_hi=1.0, samples_per_trial=0, records=(),
                         schedule=schedule, master_seed=5, wall_ms_total=0.0)
    emit_report(report, tmp_path)
    with (tmp_path / "trials.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only
    assert json.loads((tmp_path / "summary.json").read_text())["trials"] == 0


def test_compare_budget_rows():
    rows = compare_budget(small_cfg(**{"noise.sigma": 0.0, "algo.auto.eps": 0.4}))
    assert [r["method"] for r in rows] == ["sppm", "sgd"]
    assert rows[0]["samples"] == rows[1]["samples"]
    for r in rows:
        assert r["failure_rate"] == 0.0
        assert r["gap_p50"] <= r["gap_p90"] <= r["gap_p95"] <= r["gap_p99"]


def test_compare_budget_too_small_names_both_numbers():
    cfg = small_cfg()
    schedule = build_schedule(cfg, build_problem(cfg))
    from sppm.driver import total_samples

    needed = total_samples(schedule)
    with pytest.raises(ValidationError) as err:
        compare_budget(cfg, budget=needed - 1)
    assert str(needed) in str(err.value)
    assert str(needed - 1) in str(err.value)


def test_schedule_overrides_flow_through():
    cfg = small_cfg()
    schedule = build_schedule(cfg, build_problem(cfg))
    assert schedule.inner_iters == 20
    assert schedule.candidates_per_iter == 4
    assert schedule.rge_batch == 2
    assert schedule.outer_iters == 3
    assert schedule.mode == "practical"


def test_schedule_dict_keys_follow_schedule_fields():
    from dataclasses import fields

    from sppm.driver import Schedule
    from sppm.harness import schedule_to_dict

    cfg = small_cfg()
    schedule = build_schedule(cfg, build_problem(cfg))
    names = {"lambda" if f.name == "lam" else f.name for f in fields(Schedule)}
    out = schedule_to_dict(schedule)
    assert set(out) == names | {"total_samples"}
    assert out["lambda"] == schedule.lam

"""Self-test of the benchmark's own checks, at tiny sizes (seconds).

Each output check must pass on the program's real output and fail on a
planted fault: an oracle wrapper that miscounts, a shifted phi_star, a
parallel replay that differs by one bit, an iterate outside dom h, and
the rest listed in CASES.  Run from the repository root:

    python3 perfbench/selftest.py

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from observe import Observer  # noqa: E402

import sppm  # noqa: E402
from sppm import harness, problems  # noqa: E402

BALL = """
problem.kind = quadratic-ball
problem.dim = 5
problem.mu = 1.0
problem.L = 4.0
problem.radius = 0.5
problem.instance_seed = 77
noise.family = student_t
noise.sigma = 1.0
algo.auto.eps = 0.5
algo.auto.p = 0.1
algo.mode = practical
algo.inner_iters = 20
algo.candidates = 7
algo.rge_batch = 3
algo.outer_iters = 3
run.master_seed = 5
run.trials = 3
run.parallelism = {workers}
"""

BOX = """
problem.kind = ridge-l1-box
problem.dim = 4
problem.mu = 1.0
problem.L = 3.0
problem.box_halfwidth = 1.0
problem.l1_weight = 0.02
problem.components = 30
problem.instance_seed = 4242
noise.family = finite_sum
noise.sigma = 0.0
algo.auto.eps = 0.2
algo.auto.p = 0.1
algo.mode = practical
algo.inner_iters = 10
algo.candidates = 5
algo.rge_batch = 40
algo.outer_iters = 2
run.master_seed = 17
run.trials = 2
"""


def observed_trials(text, observer):
    """run_trials on text; returns (cfg, report, [(record, obs)])."""
    cfg = sppm.parse_config(text)
    observer.clear()
    report = sppm.run_trials(cfg)
    return cfg, report, [(rec, observer.take_sppm(rec.seed)) for rec in report.records]


def sppm_errors(cfg, rec, obs, truth=None):
    truth = truth or checks.Truth(obs.problem, cfg.problem)
    errs, k, gap = checks.check_sppm_run(obs.record, obs.draws, obs.schedule, cfg.problem, truth)
    return truth.errors + errs + checks.check_trial_record(rec, k, gap, obs.schedule.target_eps)


def case_clean(observer):
    for text in (BALL.format(workers=1), BOX):
        cfg, _, pairs = observed_trials(text, observer)
        for rec, obs in pairs:
            errs = sppm_errors(cfg, rec, obs)
            if errs:
                return f"clean {cfg.problem.kind} run flagged: {errs}"
    return None


def case_miscounting_oracle(observer):
    honest = observer.add_draws
    observer.add_draws = lambda count: honest(count - 1 if count > 1 else count)
    try:
        cfg, _, pairs = observed_trials(BALL.format(workers=1), observer)
    finally:
        observer.add_draws = honest
    errs = sppm_errors(cfg, *pairs[0])
    return None if any("oracle drew" in e for e in errs) else f"miscount not caught: {errs}"


def case_shifted_phi_star(observer):
    for text in (BALL.format(workers=1), BOX):
        cfg = sppm.parse_config(text)
        problem = harness.build_problem(cfg)
        if checks.Truth(problem, cfg.problem).errors:
            return f"true phi_star of {cfg.problem.kind} rejected"
        shifted = replace(problem, phi_star=problem.phi_star + 1e-6)
        if not checks.Truth(shifted, cfg.problem).errors:
            return f"phi_star shifted by 1e-6 on {cfg.problem.kind} not caught"
    return None


def case_replay_one_bit(observer):
    _, serial, _ = observed_trials(BALL.format(workers=1), observer)
    _, parallel, _ = observed_trials(BALL.format(workers=2), observer)
    keys = [checks.replay_key(r) for r in serial.records]
    if checks.check_replay([checks.replay_key(r) for r in parallel.records], keys, "par"):
        return "parallelism 2 does not replay parallelism 1"
    records = list(parallel.records)
    records[1] = replace(records[1], best_gap=float(np.nextafter(records[1].best_gap, math.inf)))
    if not checks.check_replay([checks.replay_key(r) for r in records], keys, "par"):
        return "one-bit difference in best_gap not caught"
    return None


def case_iterate_outside_domain(observer):
    cfg, _, pairs = observed_trials(BALL.format(workers=1), observer)
    rec, obs = pairs[0]
    radius = cfg.problem.radius
    for label, bad in (("outside", None), ("nan", math.nan)):
        iterates = list(obs.record.iterates)
        z, w = iterates[-1]
        if bad is None:
            direction = np.ones_like(w) / math.sqrt(w.size)
            w = direction * radius * (1.0 + 1e-6)
        else:
            w = np.array(w)
            w[0] = bad
        iterates[-1] = (z, w)
        planted = replace(obs, record=replace(obs.record, iterates=tuple(iterates)))
        errs = sppm_errors(cfg, rec, planted)
        if not any("outside dom h" in e for e in errs):
            return f"{label} iterate not caught: {errs}"
    return None


def case_sgd_and_compare_rows(observer):
    cfg = sppm.parse_config(BALL.format(workers=1).replace("run.trials = 3", "run.trials = 2"))
    observer.clear()
    rows = sppm.compare_budget(cfg)
    stream = sppm.RngStream(cfg.run.master_seed)
    truth = None
    gaps = {"sppm": [], "sgd": []}
    for t in range(cfg.run.trials):
        obs = observer.take_sppm(stream.child("trial", t).token())
        sgd = observer.take_sgd(stream.child("sgd-trial", t).token())
        truth = truth or checks.Truth(obs.problem, cfg.problem)
        want = checks.expected_sppm_samples(obs.schedule)
        errs, gap = checks.check_sgd_run(sgd.x, sgd.draws, sgd.budget, want, cfg.problem, truth)
        if errs:
            return f"clean SGD run flagged: {errs}"
        if not checks.check_sgd_run(sgd.x, sgd.draws - 1, sgd.budget, want, cfg.problem, truth)[0]:
            return "SGD draw miscount not caught"
        gaps["sgd"].append(gap)
        gaps["sppm"].append(checks.check_sppm_run(obs.record, obs.draws, obs.schedule,
                                                  cfg.problem, truth)[2])
    eps = cfg.algo.eps
    for row in rows:
        if checks.check_compare_row(row, gaps[row["method"]], eps, want):
            return f"clean compare row flagged: {row}"
        if not checks.check_compare_row(dict(row, gap_p50=row["gap_p50"] + 1e-6),
                                        gaps[row["method"]], eps, want):
            return "shifted gap_p50 not caught"
    return None


def case_binomial_tail(observer):
    if checks.check_misses(1, 10, 0.05) or checks.check_misses(0, 200, 0.05):
        return "misses within the guarantee flagged"
    if not checks.check_misses(8, 10, 0.05):
        return "8/10 misses at p=0.05 not caught"
    return None


def case_index_sets(observer):
    good = sppm.PbOutcome(selected=None, selected_index=1,
                          index_sets=(np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([0, 1, 3])),
                          samples_used=0)
    if checks.check_index_sets(good, 4):
        return "admissible index sets flagged"
    outside = replace(good, selected_index=3)
    small = replace(good, index_sets=(np.array([0, 1]),) + good.index_sets[1:])
    if not checks.check_index_sets(outside, 4) or not checks.check_index_sets(small, 4):
        return "selected index outside a set, or a set of 2n/3, not caught"
    return None


def case_self_time(observer):
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def outer():
        inner()
        inner()
        time.sleep(0.01)

    tracer.block("root", tracer.wrap("outer", outer))
    st = tracer.self_times(tracer.spans())
    calls, total_outer, self_outer = st["outer"]
    if st["inner"][0] != 2 or not (0.009 < self_outer < total_outer - 0.019):
        return f"self time wrong: {st}"
    root_total, root_self = st["root"][1], st["root"][2]
    if abs(sum(s for _, _, s in st.values()) - root_total) > 1e-6 or root_self < 0:
        return f"self times do not add up to the root span: {st}"
    return None


CASES = [
    case_clean, case_miscounting_oracle, case_shifted_phi_star, case_replay_one_bit,
    case_iterate_outside_domain, case_sgd_and_compare_rows, case_binomial_tail,
    case_index_sets, case_self_time,
]


def main() -> int:
    observer = Observer(harness, problems.FiniteSumOracle).install()
    failures = 0
    try:
        for case in CASES:
            start = time.perf_counter()
            problem = case(observer)
            status = "FAIL" if problem else "PASS"
            failures += bool(problem)
            print(f"{status} {case.__name__[5:]} ({time.perf_counter() - start:.2f}s)"
                  + (f": {problem}" if problem else ""))
    finally:
        observer.uninstall()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

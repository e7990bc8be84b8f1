"""Replicated-trial benchmark: build, run, aggregate, emit.

Wires a parsed ExperimentConfig into problem + noise + schedule, runs M
independent trials on per-trial substreams (optionally on a thread
pool; the report is identical either way), decides failure events with
the exact stored optimum, and writes the flat-file reports the CLI
promises.  Wall-clock fields are the only nondeterministic content and
their names all start with "wall".
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .driver import (
    RunRecord,
    Schedule,
    derive_schedule,
    select_best,
    sgd_baseline,
    sppm_run,
    total_samples,
)
from .errors import ConfigError, InfeasibleScheduleError, ValidationError
from .generate import generate_problem
from .noise import NoiseModel
from .problems import CompositeProblem, evaluate_phi
from .rng import RngStream


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    best_k: int
    best_gap: float
    failed: bool
    samples: int
    wall_ms: float


@dataclass(frozen=True)
class TrialReport:
    trials: int
    failures: int
    failure_rate: float
    ci_lo: float
    ci_hi: float
    samples_per_trial: int
    records: tuple
    schedule: Schedule
    master_seed: int
    wall_ms_total: float


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial rate; behaves sensibly at
    zero counts, which is the regime failure rates live in."""
    if trials < 1:
        raise ValidationError("wilson_interval needs at least one trial")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def build_problem(cfg: ExperimentConfig) -> CompositeProblem:
    """Instantiate the configured problem; for additive noise the
    declared sigma is stamped onto the instance, for finite_sum the
    pool estimate made at generation time stands."""
    problem = generate_problem(cfg.problem, cfg.problem.instance_seed)
    if cfg.noise.family == "finite_sum":
        return problem
    return replace(problem, sigma=cfg.noise.sigma)


def build_noise(cfg: ExperimentConfig, problem: CompositeProblem):
    if cfg.noise.family == "finite_sum":
        oracle = problem.meta.get("oracle")
        if oracle is None:
            raise ConfigError("finite_sum noise needs a problem with a component pool")
        return oracle
    return NoiseModel(family=cfg.noise.family, sigma=cfg.noise.sigma, nu=cfg.noise.nu)


def build_schedule(cfg: ExperimentConfig, problem: CompositeProblem) -> Schedule:
    algo = cfg.algo
    overrides = {}
    for field_name, override in (
        ("lam", algo.lam),
        ("alpha", algo.alpha),
        ("inner_iters", algo.inner_iters),
        ("candidates_per_iter", algo.candidates),
        ("rge_batch", algo.rge_batch),
        ("outer_iters", algo.outer_iters),
    ):
        if override is not None:
            overrides[field_name] = override
    return derive_schedule(
        mu=problem.mu,
        L=problem.L,
        sigma=problem.sigma,
        D=problem.diameter,
        target_eps=algo.eps,
        target_p=algo.p,
        overrides=overrides or None,
        mode=algo.mode,
        factors=(algo.tau_factor, algo.boost_factor, algo.hoeffding_factor),
    )


def require_runnable(schedule: Schedule) -> None:
    """Verbatim runs demand a feasible schedule; practical mode is
    measured-not-proven and runs regardless."""
    if schedule.mode == "verbatim" and not schedule.feasible:
        detail = ", ".join(
            f"{name}: required {req:.6g}, actual {act:.6g}"
            for name, (req, act) in schedule.diagnostics.items()
        )
        raise InfeasibleScheduleError(
            f"verbatim schedule infeasible ({detail}); relax targets or use practical mode",
            schedule,
        )


def initial_iterate(problem) -> np.ndarray:
    """Benchmark starting point: the instance's canonical cold start
    when it carries one, else the domain center."""
    if problem.start is not None:
        return np.array(problem.start, float)
    return problem.h.interior_point(problem.dim)


def prepare(cfg: ExperimentConfig):
    """(problem, noise, schedule, z0) of a configured experiment;
    raises InfeasibleScheduleError where require_runnable does."""
    problem = build_problem(cfg)
    noise = build_noise(cfg, problem)
    schedule = build_schedule(cfg, problem)
    require_runnable(schedule)
    return problem, noise, schedule, initial_iterate(problem)


def _one_trial(problem, noise, schedule, z0, master_seed, t) -> TrialRecord:
    stream = RngStream(master_seed).child("trial", t)
    start = time.perf_counter()
    record = sppm_run(problem, noise, schedule, z0, stream)
    best_k, best_w = select_best(problem, record)
    wall_ms = (time.perf_counter() - start) * 1e3
    gap = evaluate_phi(problem, best_w) - problem.phi_star
    return TrialRecord(
        trial=t,
        seed=stream.token(),
        best_k=best_k,
        best_gap=gap,
        failed=bool(gap > schedule.target_eps),
        samples=record.total_samples,
        wall_ms=wall_ms,
    )


def run_trials(cfg: ExperimentConfig) -> TrialReport:
    problem, noise, schedule, z0 = prepare(cfg)
    master = cfg.run.master_seed
    workers = cfg.run.parallelism
    start = time.perf_counter()

    def job(t):
        return _one_trial(problem, noise, schedule, z0, master, t)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = tuple(pool.map(job, range(cfg.run.trials)))
    else:
        records = tuple(job(t) for t in range(cfg.run.trials))
    failures = sum(r.failed for r in records)
    lo, hi = wilson_interval(failures, cfg.run.trials)
    return TrialReport(
        trials=cfg.run.trials,
        failures=failures,
        failure_rate=failures / cfg.run.trials,
        ci_lo=lo,
        ci_hi=hi,
        samples_per_trial=total_samples(schedule),
        records=records,
        schedule=schedule,
        master_seed=master,
        wall_ms_total=(time.perf_counter() - start) * 1e3,
    )


def single_run(cfg: ExperimentConfig):
    """One instrumented run (trial 0) for the `run` subcommand."""
    problem, noise, schedule, z0 = prepare(cfg)
    stream = RngStream(cfg.run.master_seed).child("trial", 0)
    record = sppm_run(problem, noise, schedule, z0, stream)
    return problem, schedule, record


def compare_budget(cfg: ExperimentConfig, budget=None):
    """SPPM and projected SGD at equal sample budgets, M trials each.

    Returns one row dict per method with failure stats and exact-gap
    quantiles; the samples column is identical by construction when the
    budget defaults to the schedule's own total.
    """
    problem, noise, schedule, z0 = prepare(cfg)
    needed = total_samples(schedule)
    if budget is None:
        budget = needed
    if budget < needed:
        raise ValidationError(
            f"budget {budget} is below the schedule's total sample count {needed}"
        )
    master = cfg.run.master_seed
    eps = schedule.target_eps

    gaps = {"sppm": [], "sgd": []}
    for t in range(cfg.run.trials):
        rec = _one_trial(problem, noise, schedule, z0, master, t)
        gaps["sppm"].append(rec.best_gap)
        sgd_stream = RngStream(master).child("sgd-trial", t)
        x_final = sgd_baseline(problem, noise, z0, budget, sgd_stream)
        gaps["sgd"].append(evaluate_phi(problem, x_final) - problem.phi_star)

    rows = []
    for method, samples in (("sppm", needed), ("sgd", budget)):
        g = np.asarray(gaps[method])
        failures = int(np.sum(g > eps))
        lo, hi = wilson_interval(failures, cfg.run.trials)
        p50, p90, p95, p99 = np.percentile(g, [50, 90, 95, 99])
        rows.append(
            {
                "method": method,
                "trials": cfg.run.trials,
                "failure_rate": failures / cfg.run.trials,
                "ci_lo": lo,
                "ci_hi": hi,
                "gap_p50": float(p50),
                "gap_p90": float(p90),
                "gap_p95": float(p95),
                "gap_p99": float(p99),
                "samples": samples,
            }
        )
    return rows


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "lambda": schedule.lam,
        "alpha": schedule.alpha,
        "inner_iters": schedule.inner_iters,
        "candidates_per_iter": schedule.candidates_per_iter,
        "rge_batch": schedule.rge_batch,
        "outer_iters": schedule.outer_iters,
        "eps_k": schedule.eps_k,
        "tau": schedule.tau,
        "target_eps": schedule.target_eps,
        "target_p": schedule.target_p,
        "feasible": schedule.feasible,
        "mode": schedule.mode,
        "diagnostics": {name: list(pair) for name, pair in schedule.diagnostics.items()},
        "total_samples": total_samples(schedule),
    }


def report_to_dict(report: TrialReport) -> dict:
    return {
        "trials": report.trials,
        "failures": report.failures,
        "failure_rate": report.failure_rate,
        "ci_lo": report.ci_lo,
        "ci_hi": report.ci_hi,
        "samples_per_trial": report.samples_per_trial,
        "master_seed": report.master_seed,
        "schedule": schedule_to_dict(report.schedule),
        "records": [
            {
                "trial": r.trial,
                "seed": r.seed,
                "best_k": r.best_k,
                "best_gap": r.best_gap,
                "failed": r.failed,
                "samples": r.samples,
                "wall_ms": r.wall_ms,
            }
            for r in report.records
        ],
        "wall_ms_total": report.wall_ms_total,
    }


def _write_json(path: Path, payload: dict) -> None:
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


TRIALS_COLUMNS = ["trial", "seed", "best_k", "best_gap", "failed", "samples", "wall_ms"]
TRACE_COLUMNS = ["k", "phi_wbar", "gap", "dist_z_to_opt", "samples_cum"]
COMPARISON_COLUMNS = [
    "method", "trials", "failure_rate", "ci_lo", "ci_hi",
    "gap_p50", "gap_p90", "gap_p95", "gap_p99", "samples",
]


def emit_report(report: TrialReport, out_dir) -> list:
    """Write summary.json, trials.csv, schedule.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = out / "summary.json"
    _write_json(summary, report_to_dict(report))
    schedule = out / "schedule.json"
    _write_json(schedule, schedule_to_dict(report.schedule))
    trials = out / "trials.csv"
    try:
        with trials.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRIALS_COLUMNS)
            for r in report.records:
                writer.writerow(
                    [r.trial, r.seed, r.best_k, repr(r.best_gap), int(r.failed), r.samples, repr(r.wall_ms)]
                )
    except OSError as exc:
        raise OSError(f"cannot write {trials}: {exc}") from None
    return [summary, trials, schedule]


def emit_run(problem: CompositeProblem, schedule: Schedule, record: RunRecord, out_dir) -> list:
    """Write run.json and the per-iteration trace.csv for one run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best_k, best_w = select_best(problem, record)
    run_path = out / "run.json"
    _write_json(
        run_path,
        {
            "master_seed": record.master_seed,
            "best_k": best_k,
            "best_gap": evaluate_phi(problem, best_w) - problem.phi_star,
            "total_samples": record.total_samples,
            "schedule": schedule_to_dict(schedule),
        },
    )
    trace = out / "trace.csv"
    cum = 0
    try:
        with trace.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for k, ((z, w), used) in enumerate(
                zip(record.iterates, record.per_iter_samples), start=1
            ):
                cum += used
                phi_w = evaluate_phi(problem, w)
                dist = float(np.linalg.norm(z - problem.x_star))
                writer.writerow(
                    [k, repr(phi_w), repr(phi_w - problem.phi_star), repr(dist), cum]
                )
    except OSError as exc:
        raise OSError(f"cannot write {trace}: {exc}") from None
    return [run_path, trace]


def emit_comparison(rows, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "comparison.csv"
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=COMPARISON_COLUMNS)
            writer.writeheader()
            for row in rows:
                formatted = {
                    key: repr(value) if isinstance(value, float) else value
                    for key, value in row.items()
                }
                writer.writerow(formatted)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None
    return path

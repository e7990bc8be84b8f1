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
from dataclasses import asdict, astuple, dataclass, fields, replace
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


def _trials(cfg: ExperimentConfig, job) -> tuple:
    """(job(0), ..., job(M-1)) over the configured trials, on a thread
    pool of run.parallelism workers when that exceeds 1.  Each trial
    draws only from its own named streams, so the result is the same
    for every worker count."""
    trials = range(cfg.run.trials)
    if cfg.run.parallelism > 1:
        with ThreadPoolExecutor(max_workers=cfg.run.parallelism) as pool:
            return tuple(pool.map(job, trials))
    return tuple(map(job, trials))


def run_trials(cfg: ExperimentConfig) -> TrialReport:
    problem, noise, schedule, z0 = prepare(cfg)
    master = cfg.run.master_seed
    start = time.perf_counter()
    records = _trials(cfg, lambda t: _one_trial(problem, noise, schedule, z0, master, t))
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
    budget defaults to the schedule's own total.  A trial's SPPM and SGD
    runs are one job of the trial executor.
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

    def job(t):
        rec = _one_trial(problem, noise, schedule, z0, master, t)
        x_final = sgd_baseline(problem, noise, z0, budget, RngStream(master).child("sgd-trial", t))
        return rec.best_gap, evaluate_phi(problem, x_final) - problem.phi_star

    gaps = zip(*_trials(cfg, job))
    rows = []
    for (method, samples), g in zip((("sppm", needed), ("sgd", budget)), gaps):
        g = np.asarray(g)
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
    out = asdict(schedule)
    out["lambda"] = out.pop("lam")
    out["total_samples"] = total_samples(schedule)
    return out


def report_to_dict(report: TrialReport) -> dict:
    return {**asdict(report), "schedule": schedule_to_dict(report.schedule)}


def _write_json(path: Path, payload: dict) -> None:
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _write_csv(path: Path, header, rows) -> None:
    """One header line, then one line per row: floats as repr, bools as 0/1."""
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    repr(v) if isinstance(v, float) else int(v) if isinstance(v, bool) else v
                    for v in row
                )
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _out_dir(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def emit_report(report: TrialReport, out_dir) -> list:
    """Write summary.json, trials.csv, schedule.json; returns the paths."""
    out = _out_dir(out_dir)
    summary, trials, schedule = out / "summary.json", out / "trials.csv", out / "schedule.json"
    _write_json(summary, report_to_dict(report))
    _write_json(schedule, schedule_to_dict(report.schedule))
    _write_csv(trials, [f.name for f in fields(TrialRecord)], map(astuple, report.records))
    return [summary, trials, schedule]


def emit_run(problem: CompositeProblem, schedule: Schedule, record: RunRecord, out_dir) -> list:
    """Write run.json and the per-iteration trace.csv for one run."""
    out = _out_dir(out_dir)
    best_k, best_w = select_best(problem, record)
    run_path, trace = out / "run.json", out / "trace.csv"
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
    rows = []
    cum = 0
    for k, ((z, w), used) in enumerate(zip(record.iterates, record.per_iter_samples), start=1):
        cum += used
        phi_w = evaluate_phi(problem, w)
        rows.append((k, phi_w, phi_w - problem.phi_star, float(np.linalg.norm(z - problem.x_star)), cum))
    _write_csv(trace, ["k", "phi_wbar", "gap", "dist_z_to_opt", "samples_cum"], rows)
    return [run_path, trace]


def emit_comparison(rows, out_dir) -> Path:
    path = _out_dir(out_dir) / "comparison.csv"
    _write_csv(path, list(rows[0]), (row.values() for row in rows))
    return path

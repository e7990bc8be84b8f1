#!/usr/bin/env python3
"""Replicated benchmark of the boosted proximal-point solver under
heavy-tailed gradient noise.

Runs the trial harness from a config file, prints a scorecard, and
writes summary.json / trials.csv / schedule.json to the output
directory.  With --retarget the accuracy target is recomputed as a
fraction of the instance's cold-start optimality gap before running.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sppm.cli import EXIT_OK, report_errors
from sppm.config import load_config
from sppm.harness import (
    build_problem,
    emit_report,
    initial_iterate,
    run_trials,
)
from sppm.problems import evaluate_phi

ROOT = Path(__file__).resolve().parent.parent


def retarget(cfg, fraction):
    problem = build_problem(cfg)
    gap0 = evaluate_phi(problem, initial_iterate(problem)) - problem.phi_star
    eps = fraction * gap0
    print(f"cold-start gap {gap0:.6f}; retargeting eps to {eps:.6f} "
          f"({fraction:.0%} of it)")
    return replace(cfg, algo=replace(cfg.algo, eps=eps))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "heavy_tail.cfg"))
    ap.add_argument("--out", default=str(ROOT / "results" / "heavy_tail"))
    ap.add_argument("--trials", type=int, default=None,
                    help="override run.trials from the config")
    ap.add_argument("--retarget", type=float, default=None, metavar="FRAC",
                    help="set eps to FRAC of the cold-start gap")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if args.trials is not None:
        cfg = replace(cfg, run=replace(cfg.run, trials=args.trials))
    if args.retarget is not None:
        cfg = retarget(cfg, args.retarget)

    report = run_trials(cfg)
    sched = report.schedule

    print(f"schedule: K={sched.outer_iters} I={sched.inner_iters} "
          f"n={sched.candidates_per_iter} q={sched.rge_batch} "
          f"lam={sched.lam:g} alpha={sched.alpha:.6f}")
    if not sched.feasible:
        print("note: analytical per-call target not met; empirical run only")
        for name, (req, act) in sorted(sched.diagnostics.items()):
            print(f"  {name}: required {req:.3e}, actual {act:.3e}")
    print(f"samples per trial: {report.samples_per_trial}")

    gaps = sorted(r.best_gap for r in report.records)
    mid = gaps[len(gaps) // 2]
    print(f"trials: {report.trials}  failures: {report.failures}  "
          f"rate: {report.failure_rate:.4f}  "
          f"wilson: [{report.ci_lo:.4f}, {report.ci_hi:.4f}]")
    print(f"gap: median {mid:.6f}  max {gaps[-1]:.6f}  "
          f"target {sched.target_eps:.6f}")
    print(f"wall: {report.wall_ms_total / 1e3:.1f}s")

    for path in emit_report(report, args.out):
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(report_errors(main))

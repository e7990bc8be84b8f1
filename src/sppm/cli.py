"""Command-line entry: derive / run / trials / compare / verify.

Exit codes: 0 success, 1 infeasible schedule, 2 config or usage error,
3 verification-suite failure.  SPPM_SEED overrides run.master_seed so
batch drivers can fan out seeds without editing config files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import props
from .config import ExperimentConfig, check_seed, load_config
from .errors import ConfigError, InfeasibleScheduleError, ValidationError
from .harness import (
    build_problem,
    build_schedule,
    compare_budget,
    emit_comparison,
    emit_report,
    emit_run,
    run_trials,
    schedule_to_dict,
    single_run,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_SUITE = 3


def _load(path: str) -> ExperimentConfig:
    cfg = load_config(path)
    seed = os.environ.get("SPPM_SEED")
    if seed is not None:
        try:
            value = int(seed)
        except ValueError:
            raise ConfigError(f"SPPM_SEED must be an integer, got {seed!r}") from None
        cfg = replace(cfg, run=replace(cfg.run, master_seed=check_seed("SPPM_SEED", value)))
    return cfg


def _cmd_derive(args) -> int:
    cfg = _load(args.config)
    problem = build_problem(cfg)
    schedule = build_schedule(cfg, problem)
    print(json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True))
    return EXIT_OK if schedule.feasible else EXIT_INFEASIBLE


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    problem, schedule, record = single_run(cfg)
    for path in emit_run(problem, schedule, record, args.out):
        print(path)
    return EXIT_OK


def _cmd_trials(args) -> int:
    cfg = _load(args.config)
    report = run_trials(cfg)
    for path in emit_report(report, args.out):
        print(path)
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load(args.config)
    rows = compare_budget(cfg, args.budget)
    print(emit_comparison(rows, args.out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = props.run_suite(args.suite)
    out = args.out
    if out is not None:
        path = props.write_suite_result(result, out)
        print(path)
    for check in result["checks"]:
        print(f"{'PASS' if check['passed'] else 'FAIL'} {result['suite']}.{check['name']}: {check['details']}")
    return EXIT_OK if result["all_passed"] else EXIT_SUITE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sppm",
        description="Stochastic proximal point method benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive and print a schedule")
    derive.add_argument("--config", required=True)
    derive.set_defaults(func=_cmd_derive)

    run = sub.add_parser("run", help="single run with per-iteration trace")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.set_defaults(func=_cmd_run)

    trials = sub.add_parser("trials", help="replicated trials with failure statistics")
    trials.add_argument("--config", required=True)
    trials.add_argument("--out", required=True)
    trials.set_defaults(func=_cmd_trials)

    compare = sub.add_parser("compare", help="SPPM vs projected SGD at equal budget")
    compare.add_argument("--config", required=True)
    compare.add_argument("--budget", type=int, default=None)
    compare.add_argument("--out", required=True)
    compare.set_defaults(func=_cmd_compare)

    verify = sub.add_parser("verify", help="run one property suite")
    verify.add_argument("--suite", required=True, choices=sorted(props.SUITES))
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=_cmd_verify)
    return parser


def report_errors(fn, *args) -> int:
    """fn(*args), with library errors printed to stderr and mapped to the
    exit codes above; the experiment scripts share it."""
    try:
        return fn(*args)
    except InfeasibleScheduleError as exc:
        print(f"infeasible schedule: {exc}", file=sys.stderr)
        if exc.schedule is not None:
            print(json.dumps(schedule_to_dict(exc.schedule), indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return report_errors(args.func, args)


if __name__ == "__main__":
    sys.exit(main())

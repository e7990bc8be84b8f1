#!/usr/bin/env python3
"""Head-to-head comparison against projected stochastic gradient descent
at an equal sample budget.

Both methods get exactly the sample count the derived schedule charges
per trial; the table reports failure rates and gap quantiles.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sppm.cli import EXIT_OK, report_errors
from sppm.config import load_config
from sppm.harness import compare_budget, emit_comparison

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config",
                    default=str(ROOT / "configs" / "quadratic_gaussian.cfg"))
    ap.add_argument("--out", default=str(ROOT / "results" / "comparison"))
    ap.add_argument("--budget", type=int, default=None,
                    help="per-trial sample budget (default: what the "
                         "schedule charges)")
    args = ap.parse_args()

    cfg = load_config(args.config)
    rows = compare_budget(cfg, budget=args.budget)

    print("  ".join(f"{c:>12}" for c in rows[0]))
    for row in rows:
        print("  ".join(f"{v:>12.5f}" if isinstance(v, float) else f"{v:>12}"
                        for v in row.values()))

    path = emit_comparison(rows, args.out)
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(report_errors(main))

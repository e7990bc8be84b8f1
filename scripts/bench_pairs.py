#!/usr/bin/env python3
"""Paired before/after runs of perfbench, written to BENCH_<slug>.json.

Exports two revisions with `git archive` into a temporary directory
(removed afterwards) and runs `perfbench/run.py` in each, one pair per
(workload, seed) for every workload in BENCHMARK.json at its
`run_seconds`, alternating which side runs first so that slow drift of
the host falls on both sides alike.  One --trace 1 run per side and
workload, on the first seed, adds the per-layer figures:

    python3 scripts/bench_pairs.py --base HEAD~1 --head HEAD --slug rge_batches \\
        --seeds 961 962 963 964 965 966 967 968 969 970

The record keeps every run's final JSON line, the seeds, the run
length, the machine (nproc, CPU model, numpy and Python versions), both
revisions and a summary per workload (see `summarize`).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def revision(rev: str) -> dict:
    """Commit of rev and the tree of its src/, which names the code
    measured even when the commit is later amended."""
    return {"rev": rev, "commit": _git("rev-parse", f"{rev}^{{commit}}"),
            "src_tree": _git("rev-parse", f"{rev}:src")}


def export(commit: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "numpy": numpy.__version__, "python": platform.python_version()}


def bench_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run of the benchmark's length: its final JSON line,
    or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def _sound(result: dict) -> bool:
    """The run finished, checked correct and failed no operation."""
    return "error" not in result and result["correct"] and not result["failed"]


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload, from its --trace 0 pairs: each side's failed
    operations, the seeds of the pairs left out, and per end-to-end
    metric (the `end_to_end` entries of BENCHMARK.json) both sides'
    values and medians, the base side's quartiles, the relative change
    of the medians, the number of pairs in which head was better and
    whether the metric is unresolved.

    A pair is left out when a run on either side erred, reported
    `correct: false` or failed operations.  A metric is unresolved when
    the base side's interquartile range, relative to its median, is
    wider than the metric's bound (or unknown, with one pair) and not
    every head run is better than every base run."""
    pairs = {}
    for run in runs:
        if run["trace"] == 0:
            by_seed = pairs.setdefault(run["workload"], {})
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    out = {}
    for workload, by_seed in sorted(pairs.items()):
        w = out[workload] = {"failed": {"base": 0, "head": 0}, "left_out": [], "metrics": {}}
        for seed, sides in sorted(by_seed.items()):
            for side, result in sides.items():
                w["failed"][side] += result.get("failed", 0)
            if set(sides) != {"base", "head"} or not all(map(_sound, sides.values())):
                w["left_out"].append(seed)
                continue
            for name in (m["name"] for m in end_to_end):
                if all(name in r["metrics"] for r in sides.values()):
                    m = w["metrics"].setdefault(name, {"base": [], "head": []})
                    for side in ("base", "head"):
                        m[side].append(sides[side]["metrics"][name]["value"])
        for spec in end_to_end:
            m = w["metrics"].get(spec["name"])
            if m is None:
                continue
            base, head = m["base"], m["head"]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            b_med, h_med = statistics.median(base), statistics.median(head)
            quartiles = statistics.quantiles(base, n=4)[::2] if len(base) > 1 else None
            spread = (quartiles[1] - quartiles[0]) / abs(b_med) if quartiles and b_med else None
            all_better = min(sign * h for h in head) > max(sign * b for b in base)
            m.update(
                pairs=len(base),
                base_median=b_med,
                head_median=h_med,
                base_quartiles=quartiles,
                base_spread=spread,
                change=(h_med - b_med) / b_med if b_med else None,
                head_better_pairs=sum(sign * (h - b) > 0 for b, h in zip(base, head)),
                better=spec["better"],
                bound=spec["bound"],
                unresolved=(spread is None or spread > spec["bound"]) and not all_better,
            )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision measured as 'before'")
    ap.add_argument("--head", default="HEAD", help="revision measured as 'after'")
    ap.add_argument("--slug", required=True, help="names the output BENCH_<slug>.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    revs = {"base": revision(args.base), "head": revision(args.head)}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: export(r["commit"], Path(tmp) / side) for side, r in revs.items()}
        plan = [(w, s, 0) for w in workloads for s in args.seeds]
        plan += [(w, args.seeds[0], 1) for w in workloads]
        for i, (workload, seed, trace) in enumerate(plan):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result = bench_once(trees[side], workload, seed, trace)
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "side": side, "first": side == order[0], "result": result})
                print(json.dumps(runs[-1]), flush=True)

    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {BENCHMARK['run_seconds']} --trace 0|1",
        "seconds": BENCHMARK["run_seconds"],
        "seeds": args.seeds,
        "revisions": revs,
        "machine": machine(),
        "summary": summarize(runs, BENCHMARK["end_to_end"]),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

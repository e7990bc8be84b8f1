"""Benchmark of sppm: trial throughput end to end, per-layer timings
from a separate traced run.

    python3 perfbench/run.py --workload heavy_tail --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run measures set-up in
SETUP_RUNS fresh processes (after one untimed process that also
compiles the bytecode) and reports their median, then runs the
workload in one more fresh process (perfbench/worker.py).  The last
line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1).  A fuller record goes to
results/perfbench/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, block_seed, config_text  # noqa: E402

SETUP_RUNS = 7
DEADLINE_S = 170.0
# One thread per process from BLAS and OpenMP; the harness's own
# run.parallelism is the only source of extra threads.
THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def _child(cmd, env, timeout):
    """Run one child to completion; its last stdout line parsed as JSON."""
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{Path(cmd[1]).name} printed no result")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    root = HERE.parent
    w = WORKLOADS[args.workload]
    missing = [p for p in (root / "src" / "sppm" / "__init__.py", root / w.config) if not p.is_file()]
    if missing:
        print(f"error: not a sppm checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_ENV)
    probe_cmd = [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"),
                 config_text(root, w, block_seed(args.seed, 0), 1)]
    try:
        _child(probe_cmd, env, 60)  # untimed: writes bytecode caches
        probes = [_child(probe_cmd, env, 60) for _ in range(SETUP_RUNS)]
        worker = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
                  "--workload", w.name, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        # The reference trials run in a process of their own, so that a
        # parallel reference leaves the measured process's peak RSS alone.
        ref = _child(worker + ["--reference-only"], env, 60)
        remaining = DEADLINE_S - (time.monotonic() - start)
        res = _child(worker + ["--reference", json.dumps(ref["keys"])], env, remaining)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def median(key):
        return statistics.median(p[key] for p in probes)

    metrics = {name: _metric(v, u) for name, (v, u) in res["metrics"].items()}
    if args.trace:
        metrics["harness.cpu_over_wall"] = _metric(ref["cpu_over_wall"], "ratio")
        metrics["package.import_s"] = _metric(median("import_s"), "s")
        metrics["generate.instance_s"] = _metric(median("generate_s"), "s")
        metrics["driver.derive_s"] = _metric(median("derive_s"), "s")
    else:
        metrics["setup_s"] = _metric(median("setup_s"), "s")
    out = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]) + int(ref["attempted"]),
        "failed": int(res["failed"]) + int(ref["failed"]),
        "metrics": dict(sorted(metrics.items())),
    }
    out_dir = root / "results" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = dict(out, workload=w.name, seed=args.seed, seconds=args.seconds,
                  misses=res["misses"], distinct_trials=res["distinct_trials"],
                  block_walls=res["block_walls"], setup_probes=probes,
                  layer_self_shares=res.get("layer_self_shares"))
    (out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: warm up, run timed blocks of trials
through sppm's public harness, check every output, print one JSON line.

    python3 perfbench/worker.py --root . --workload heavy_tail --seed 1 \
        --seconds 25 --trace 0

Untraced (--trace 0): blocks of one trial each run back to back until
--seconds have passed; the timed figures are medians over the harness
calls, which exclude the checks between them.  Traced (--trace 1): each
block runs untraced and then again under the span tracer, so the two
halves replay the same trials and their wall-time ratio is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
from observe import Observer
from workloads import SEED_STRIDE, WORKLOADS, block_seed, config_text, steal_s


class Block:
    """Outcome of one harness call: per-trial errors, replay keys, own gaps."""

    def __init__(self, size):
        self.wall = 0.0  # of the harness call, less hypervisor steal
        self.raw_wall = 0.0
        self.workers = 1
        self.cpu = 0.0
        self.errors = [[] for _ in range(size)]
        self.keys = []
        self.gaps = []
        self.draws = 0
        self.eps = None
        self.p = None

    def fail_all(self, message):
        for errs in self.errors:
            errs.append(message)

    @property
    def failed(self):
        return sum(1 for errs in self.errors if errs)


class Runner:
    def __init__(self, root: Path, workload, seed: int):
        sys.path.insert(0, str(root / "src"))
        import sppm
        from sppm import booster, driver, harness, noise, problems, regularizers, rng, selection

        self.sppm = sppm
        self.modules = argparse.Namespace(
            harness=harness, driver=driver, booster=booster, selection=selection,
            problems=problems, noise=noise, rng=rng, regularizers=regularizers,
        )
        self.root = root
        self.w = workload
        self.seed = seed
        self.observer = Observer(harness, problems.FiniteSumOracle).install()

    def run(self, b: int, parallelism=None, tracer=None, trials=1) -> Block:
        if b >= SEED_STRIDE:
            raise RuntimeError("too many blocks for the seed layout")
        w, sppm = self.w, self.sppm
        master = block_seed(self.seed, b)
        cfg = sppm.parse_config(config_text(self.root, w, master, trials, parallelism))
        # Virtual CPUs the harness keeps busy; steal is shared out over them.
        busy = max(1, min(cfg.run.parallelism, os.cpu_count() or 1))
        call = sppm.run_trials if w.mode == "trials" else sppm.compare_budget
        out = Block(trials)
        out.workers = cfg.run.parallelism
        self.observer.clear()
        s0 = steal_s()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = call(cfg)
            else:
                with spans.Patches(self.modules, tracer, checks.check_index_sets):
                    result = tracer.block(f"harness.{call.__name__}", call, cfg)
        except Exception as exc:  # a raising trial is a failed operation
            out.raw_wall = out.wall = time.perf_counter() - t0
            out.fail_all(f"{type(exc).__name__}: {exc}")
            return out
        out.raw_wall, out.cpu = time.perf_counter() - t0, time.process_time() - c0
        out.wall = out.raw_wall - (steal_s() - s0) / busy
        spec = cfg.problem
        stream = sppm.RngStream(master)
        sppm_gaps, sgd_gaps = [], []
        for t in range(trials):
            token = stream.child("trial", t).token()
            obs = self.observer.take_sppm(token)
            if obs is None:
                out.errors[t].append(f"no sppm_run observed for trial {t}")
                continue
            truth = checks.Truth(obs.problem, spec)
            sched = obs.schedule
            out.eps, out.p = sched.target_eps, sched.target_p
            errs, k, gap = checks.check_sppm_run(obs.record, obs.draws, sched, spec, truth)
            out.errors[t] += truth.errors + errs
            out.draws += obs.draws
            sppm_gaps.append(gap)
            if w.mode == "trials":
                rec = result.records[t]
                if rec.seed != token:
                    out.errors[t].append(f"trial {t} seed {rec.seed} != stream token {token}")
                out.errors[t] += checks.check_trial_record(rec, k, gap, sched.target_eps)
                out.keys.append(checks.replay_key(rec))
                continue
            sgd = self.observer.take_sgd(stream.child("sgd-trial", t).token())
            if sgd is None:
                out.errors[t].append(f"no sgd_baseline observed for trial {t}")
                continue
            errs, sgd_gap = checks.check_sgd_run(
                sgd.x, sgd.draws, sgd.budget, checks.expected_sppm_samples(sched), spec, truth)
            out.errors[t] += errs
            out.draws += sgd.draws
            sgd_gaps.append(sgd_gap)
            out.keys.append([token, k, float(gap).hex(), float(sgd_gap).hex()])
        out.gaps = sppm_gaps
        if w.mode == "compare" and len(sgd_gaps) == trials:
            want = checks.expected_sppm_samples(sched)
            by_method = {row["method"]: row for row in result}
            row_errors = (checks.check_compare_row(by_method["sppm"], sppm_gaps, out.eps, want)
                          + checks.check_compare_row(by_method["sgd"], sgd_gaps, out.eps, want))
            if row_errors:
                out.fail_all("; ".join(row_errors))
        if tracer is not None and tracer.errors:
            out.fail_all("; ".join(tracer.errors))
            tracer.errors.clear()
        return out


def report_errors(blocks, run_errors) -> None:
    for blk in blocks:
        for errs in blk.errors:
            for e in errs[:3]:
                print(f"check failed: {e}", file=sys.stderr)
    for e in run_errors:
        print(f"run check failed: {e}", file=sys.stderr)


def per_layer(tracer: spans.Tracer, traced_trials: int, traced_wall: float,
              traced_raw: float, untraced_wall: float, workers: int) -> tuple:
    """Per-layer metrics per traced trial.  Span times are raw clock
    time, steal included, so the accounted share divides by raw wall;
    the overhead compares steal-corrected traced and untraced walls."""
    data = tracer.spans()
    st = tracer.self_times(data)
    counts = data["counts"]
    per = 1.0 / traced_trials

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    row_steps = counts.get("pss.row_steps", 0)
    sgd_samples = counts.get("driver.sgd_samples", 0)
    values = counts.get("noise.values_drawn", 0)
    accounted = sum(s for _, _, s in st.values())
    m = {
        "driver.sppm_run_self_s": (self_s("driver.sppm_run") * per, "s"),
        "driver.select_best_s": (total("driver.select_best") * per, "s"),
        "driver.sgd_s": (total("driver.sgd") * per, "s"),
        "driver.sgd_self_s": (self_s("driver.sgd") * per, "s"),
        "driver.sgd_samples": (sgd_samples * per, "count"),
        "driver.sgd_us_per_sample": (ratio(total("driver.sgd") * 1e6, sgd_samples), "us"),
        "rng.generator_calls": (calls("rng.generator") * per, "count"),
        "rng.generator_s": (total("rng.generator") * per, "s"),
        "noise.values_drawn": (values * per, "count"),
        "noise.draw_s": (total("noise.draw") * per, "s"),
        "noise.ns_per_value": (ratio(total("noise.draw") * 1e9, values), "ns"),
        "problems.plan_self_s": (self_s("problems.plan") * per, "s"),
        "problems.plan_bytes": (float(tracer.plan_bytes_max), "B"),
        "problems.sample_rows_self_s": (self_s("problems.sample_rows") * per, "s"),
        "problems.grad_rows_calls": (calls("problems.grad_rows") * per, "count"),
        "problems.grad_rows_s": (total("problems.grad_rows") * per, "s"),
        "problems.component_rows": (counts.get("problems.component_rows", 0) * per, "count"),
        "problems.component_s": (total("problems.component") * per, "s"),
        "problems.batch_calls": (calls("problems.batch") * per, "count"),
        "problems.batch_self_s": (self_s("problems.batch") * per, "s"),
        "regularizers.prox_rows_calls": (calls("regularizers.prox_rows") * per, "count"),
        "regularizers.prox_rows_s": (total("regularizers.prox_rows") * per, "s"),
        "regularizers.prox_calls": (calls("regularizers.prox") * per, "count"),
        "regularizers.prox_s": (total("regularizers.prox") * per, "s"),
        "pss.row_steps": (row_steps * per, "count"),
        "pss.self_s": (self_s("pss.run_batch") * per, "s"),
        "pss.ns_per_row_step": (ratio(total("pss.run_batch") * 1e9, row_steps), "ns"),
        "selection.sts_calls": (calls("selection.sts") * per, "count"),
        "selection.sts_s": (total("selection.sts") * per, "s"),
        "selection.rge_self_s": (self_s("selection.rge") * per, "s"),
        "selection.admitted_frac": (ratio(counts.get("selection.admitted", 0),
                                          counts.get("selection.candidates", 0)), "ratio"),
        "booster.pb_calls": (calls("booster.pb") * per, "count"),
        "booster.self_s": (self_s("booster.pb") * per, "s"),
        "booster.samples": (counts.get("booster.samples", 0) * per, "count"),
        "harness.self_s": ((self_s("harness.run_trials") + self_s("harness.compare_budget")) * per, "s"),
        "harness.rebuild_s": ((total("generate.instance") + total("driver.derive")) * per, "s"),
        "trace.overhead_frac": (ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
        "trace.accounted_frac": (ratio(accounted, traced_raw * workers), "ratio"),
    }
    layers = {}
    for name, (_, _, self_time) in st.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_time
    shares = {layer: ratio(t, accounted) for layer, t in sorted(layers.items())}
    return m, data, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-only", action="store_true",
                    help="run only the reference trials of block 0 and print their keys")
    ap.add_argument("--reference", default=None,
                    help="JSON keys printed by --reference-only; the warm-up must match them")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    w = WORKLOADS[args.workload]
    runner = Runner(root, w, args.seed)

    if args.reference_only:
        ref = runner.run(0, parallelism=w.reference_parallelism, trials=w.reference_trials)
        report_errors([ref], [])
        print(json.dumps({
            "keys": ref.keys,
            "cpu_over_wall": ref.cpu / (ref.wall * ref.workers),
            "attempted": len(ref.errors),
            "failed": ref.failed,
        }))
        return 0

    # Untimed warm-up: block 0's reference trials at the workload's own
    # parallelism, which must reproduce the reference process bit for bit.
    warm = runner.run(0, trials=w.reference_trials)
    if args.reference is not None:
        mismatch = checks.check_replay(warm.keys, json.loads(args.reference),
                                       "warm-up vs reference run")
        if mismatch:
            warm.fail_all(mismatch[0])
    blocks = [warm]
    tracer = spans.Tracer() if args.trace else None
    timed_wall = traced_wall = traced_raw = 0.0
    timed_trials = traced_trials = draws = 0
    misses = distinct = 0
    start = time.perf_counter()
    b = 1
    while True:
        blk = runner.run(b)
        blocks.append(blk)
        timed_wall += blk.wall
        timed_trials += len(blk.errors)
        draws += blk.draws
        distinct += len(blk.gaps)
        misses += sum(1 for g in blk.gaps if g > blk.eps)
        if tracer is not None:
            tblk = runner.run(b, tracer=tracer)
            mismatch = checks.check_replay(tblk.keys, blk.keys, "traced replay")
            if mismatch:
                tblk.fail_all(mismatch[0])
            blocks.append(tblk)
            traced_wall += tblk.wall
            traced_raw += tblk.raw_wall
            traced_trials += len(tblk.errors)
        b += 1
        if time.perf_counter() - start >= args.seconds:
            break

    run_errors = []
    p = next((blk.p for blk in blocks if blk.p is not None), None)
    if p is None:
        run_errors.append("no trial produced a schedule")
    else:
        run_errors += checks.check_misses(misses, distinct, p)
    attempted = sum(len(blk.errors) for blk in blocks)
    failed = sum(blk.failed for blk in blocks)
    report_errors(blocks, run_errors)

    result = {
        "correct": not run_errors,
        "attempted": attempted,
        "failed": failed,
        "misses": misses,
        "distinct_trials": distinct,
        "block_walls": [[blk.raw_wall, blk.wall] for blk in blocks],
    }
    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timed = blocks[1:]
        result["metrics"] = {
            "s_per_trial": (statistics.median(blk.wall / len(blk.errors) for blk in timed), "s"),
            "samples_per_s": (statistics.median(blk.draws / blk.wall for blk in timed), "1/s"),
            "samples_per_trial": (draws / timed_trials, "count"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    else:
        metrics, data, result["layer_self_shares"] = per_layer(
            tracer, traced_trials, traced_wall, traced_raw, timed_wall, blocks[-1].workers)
        result["metrics"] = metrics
        out_dir = root / "results" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            out_dir / f"{w.name}-seed{args.seed}-spans.npz",
            names=np.array(data["names"]),
            **data["cols"],
        )
    runner.observer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The experiment scripts in scripts/ run end to end and write their reports."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, reports", [
    ("budget_comparison.py", [], ["comparison.csv"]),
    ("heavy_tail_benchmark.py", ["--trials", "2"], ["summary.json", "trials.csv", "schedule.json"]),
])
def test_script_writes_its_reports(tmp_path, script, args, reports):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--config", str(ROOT / "configs" / "quadratic_gaussian.cfg"), "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in reports:
        assert (tmp_path / name).is_file(), name


def _run(script, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args, message", [
    ("budget_comparison.py", ["--budget", "5"], "error: budget 5 is below the schedule's total sample count"),
    ("heavy_tail_benchmark.py", ["--trials", "0"], "error: run.trials must be >= 1, got 0"),
    ("heavy_tail_benchmark.py", ["--retarget", "-0.5"], "error: algo.auto.eps must be > 0"),
])
def test_script_usage_errors_exit_2(tmp_path, script, args, message):
    proc = _run(script, "--config", str(ROOT / "configs" / "quadratic_gaussian.cfg"),
                "--out", str(tmp_path), *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(message), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script", ["budget_comparison.py", "heavy_tail_benchmark.py"])
def test_script_infeasible_schedule_exits_1(tmp_path, script):
    # verbatim mode without overrides derives a schedule that misses its
    # per-call target, which the scripts report as the CLI does
    text = (ROOT / "configs" / "quadratic_gaussian.cfg").read_text(encoding="utf-8")
    text = "".join(
        line for line in text.replace("algo.mode = practical", "algo.mode = verbatim").splitlines(keepends=True)
        if not line.startswith(("algo.inner_iters", "algo.candidates", "algo.rge_batch", "algo.outer_iters"))
    )
    cfg = tmp_path / "verbatim.cfg"
    cfg.write_text(text, encoding="utf-8")
    proc = _run(script, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("infeasible schedule: verbatim schedule infeasible"), proc.stderr
    assert not (tmp_path / "out").exists()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def _bench_run(side, seed, s_per_trial, samples_per_s, trace=0, correct=True, failed=0):
    metrics = {"s_per_trial": {"value": s_per_trial, "unit": "s"},
               "samples_per_s": {"value": samples_per_s, "unit": "1/s"}}
    return {"workload": "finite_sum_boost", "seed": seed, "trace": trace, "side": side,
            "result": {"correct": correct, "attempted": 9, "failed": failed, "metrics": metrics}}


END_TO_END = [{"name": "s_per_trial", "better": "lower", "bound": 0.25},
              {"name": "samples_per_s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]


def test_bench_pairs_summary_of_one_pair():
    bench_pairs = _bench_pairs()
    runs = [_bench_run("base", 7, 0.5, 1.0e7), _bench_run("head", 7, 0.4, 1.25e7),
            _bench_run("head", 7, 9.0, 1.0, trace=1),
            # pairs with an unsound side are left out, whichever side it is
            _bench_run("base", 8, 0.5, 1.0e7), _bench_run("head", 8, 0.1, 5.0e7, correct=False),
            _bench_run("base", 9, 0.5, 1.0e7, failed=2), _bench_run("head", 9, 0.4, 1.25e7),
            _bench_run("base", 10, 0.5, 1.0e7),
            {"workload": "finite_sum_boost", "seed": 10, "trace": 0, "side": "head",
             "result": {"error": "exit 1: boom"}},
            _bench_run("base", 11, 0.5, 1.0e7)]  # no head run
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert set(summary) == {"finite_sum_boost"}
    fsb = summary["finite_sum_boost"]
    assert fsb["left_out"] == [8, 9, 10, 11]
    assert fsb["failed"] == {"base": 2, "head": 0}
    assert set(fsb["metrics"]) == {"s_per_trial", "samples_per_s"}  # absent metrics are skipped
    rate = fsb["metrics"]["samples_per_s"]
    assert (rate["base"], rate["head"], rate["pairs"]) == ([1.0e7], [1.25e7], 1)
    assert rate["change"] == pytest.approx(0.25)
    assert rate["head_better_pairs"] == 1
    assert rate["base_quartiles"] is None  # one pair has no spread
    assert rate["unresolved"] is False  # ... but its one head run beats its one base run
    per_trial = fsb["metrics"]["s_per_trial"]
    assert per_trial["change"] == pytest.approx(-0.2)
    assert per_trial["head_better_pairs"] == 1


def test_bench_pairs_metric_is_unresolved_when_base_spread_exceeds_bound():
    bench_pairs = _bench_pairs()
    base_times = [1.0, 1.1, 1.2, 1.5, 1.6]  # quartiles 1.05 and 1.55: spread 0.5 / 1.2
    runs = []
    for seed, (b, h) in enumerate(zip(base_times, [1.3, 1.3, 1.3, 1.3, 1.3])):
        runs += [_bench_run("base", seed, b, 1.0e7), _bench_run("head", seed, h, 1.0e7 + seed)]
    summary = bench_pairs.summarize(runs, END_TO_END)["finite_sum_boost"]["metrics"]
    per_trial = summary["s_per_trial"]
    assert per_trial["base_spread"] == pytest.approx(0.5 / 1.2)
    assert per_trial["unresolved"] is True
    rate = summary["samples_per_s"]  # the base rates do not spread
    assert rate["base_spread"] == 0.0
    assert rate["unresolved"] is False
    assert bench_pairs.BENCHMARK["run_seconds"] > 0
    assert [m["name"] for m in bench_pairs.BENCHMARK["end_to_end"]][:2] == ["s_per_trial", "samples_per_s"]


def test_stream_setup_bench_times_generator_setup(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("stream_setup_bench", ROOT / "scripts" / "stream_setup_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    timing = bench.time_setup(ROOT / "src", number=2)
    assert set(timing) == {"us"}
    assert all(0.0 < us < 1e4 for us in timing.values())

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sppm.cli import main

ROOT = Path(__file__).resolve().parents[1]

SMALL = """\
problem.kind = quadratic-ball
problem.dim = 5
problem.mu = 1.0
problem.L = 4.0
problem.radius = 0.5
problem.instance_seed = 77
noise.family = gaussian
noise.sigma = 1.0
algo.auto.eps = 0.5
algo.auto.p = 0.1
algo.mode = practical
algo.inner_iters = 20
algo.candidates = 4
algo.rge_batch = 2
algo.outer_iters = 3
run.master_seed = 5
run.trials = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


def test_derive_prints_schedule(tmp_path, capsys):
    # loose enough target that twenty inner steps clear the per-call bound
    path = tmp_path / "loose.cfg"
    path.write_text(SMALL.replace("algo.auto.eps = 0.5",
                                  "algo.auto.eps = 3.0"), encoding="utf-8")
    assert main(["derive", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inner_iters"] == 20
    assert payload["mode"] == "practical"
    assert payload["feasible"] is True


def test_derive_tight_target_exits_1(cfg_path, capsys):
    assert main(["derive", "--config", cfg_path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False
    assert "per_call_bound" in payload["diagnostics"]


def test_derive_verbatim_infeasible_exits_1(cfg_path, tmp_path, capsys):
    text = SMALL.replace("algo.mode = practical", "algo.mode = verbatim")
    path = tmp_path / "verbatim.cfg"
    # verbatim mode pins n from the Hoeffding constant, so drop overrides
    text = "".join(l for l in text.splitlines(keepends=True)
                   if not l.startswith(("algo.inner_iters", "algo.candidates",
                                        "algo.rge_batch", "algo.outer_iters")))
    path.write_text(text, encoding="utf-8")
    assert main(["derive", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False


def test_trials_writes_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["trials", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert (out / "schedule.json").exists()
    with (out / "trials.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "best_k", "best_gap", "failed",
                       "samples", "wall_ms"]
    assert len(rows) == 4


def test_run_writes_trace(cfg_path, tmp_path):
    out = tmp_path / "single"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["total_samples"] == 3 * (4 * 21 + 4 * 2)
    with (out / "trace.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "phi_wbar", "gap", "dist_z_to_opt", "samples_cum"]
    assert len(rows) == 1 + 3
    assert int(rows[-1][4]) == run["total_samples"]


def test_compare_writes_table(cfg_path, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_path, "--out", str(out)]) == 0
    with (out / "comparison.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "trials", "failure_rate", "ci_lo", "ci_hi",
                       "gap_p50", "gap_p90", "gap_p95", "gap_p99", "samples"]
    assert [r[0] for r in rows[1:]] == ["sppm", "sgd"]
    assert rows[1][9] == rows[2][9]


def test_compare_budget_too_small_exits_2(cfg_path, tmp_path):
    assert main(["compare", "--config", cfg_path, "--budget", "10",
                 "--out", str(tmp_path / "x")]) == 2


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL + "problem.shape = round\n", encoding="utf-8")
    assert main(["derive", "--config", str(path)]) == 2


def test_derive_overflowing_sigma_exits_2_without_traceback(tmp_path):
    text = (ROOT / "configs" / "heavy_tail.cfg").read_text(encoding="utf-8")
    path = tmp_path / "huge_sigma.cfg"
    path.write_text(text.replace("noise.sigma = 1.0", "noise.sigma = 1e200"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "sppm", "derive", "--config", str(path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "overflows" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_derive_ill_conditioned_mu_exits_2_without_traceback(tmp_path):
    text = (ROOT / "configs" / "heavy_tail.cfg").read_text(encoding="utf-8")
    path = tmp_path / "tiny_mu.cfg"
    path.write_text(text.replace("problem.mu = 1.0", "problem.mu = 1e-17"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "sppm", "derive", "--config", str(path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "too ill-conditioned" in proc.stderr and "kappa=" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line", ["problem.radius = inf", "noise.sigma = nan", "algo.auto.eps = nan"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    text = "".join(l for l in SMALL.splitlines(keepends=True) if not l.startswith(key + " "))
    path = tmp_path / "nonfinite.cfg"
    path.write_text(text + line + "\n", encoding="utf-8")
    assert main(["derive", "--config", str(path)]) == 2
    assert f"{key}: must be finite" in capsys.readouterr().err


def test_seed_env_override(cfg_path, tmp_path, monkeypatch, capsys):
    out_a = tmp_path / "a"
    monkeypatch.setenv("SPPM_SEED", "99")
    assert main(["trials", "--config", cfg_path, "--out", str(out_a)]) == 0
    monkeypatch.delenv("SPPM_SEED")
    capsys.readouterr()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["master_seed"] == 99

    # a config that names the same seed produces the same records
    path_b = tmp_path / "b.cfg"
    path_b.write_text(SMALL.replace("run.master_seed = 5",
                                    "run.master_seed = 99"), encoding="utf-8")
    out_b = tmp_path / "bout"
    assert main(["trials", "--config", str(path_b), "--out", str(out_b)]) == 0
    a = json.loads((out_a / "summary.json").read_text())
    b = json.loads((out_b / "summary.json").read_text())
    for ra, rb in zip(a["records"], b["records"]):
        assert ra["seed"] == rb["seed"]
        assert ra["best_gap"] == rb["best_gap"]


def test_bad_seed_env_exits_2(cfg_path, monkeypatch):
    monkeypatch.setenv("SPPM_SEED", "not-a-number")
    assert main(["derive", "--config", cfg_path]) == 2


@pytest.mark.parametrize("command,key,line", [
    ("trials", "run.master_seed", "run.master_seed = 99999999999999999999"),
    ("trials", "problem.instance_seed", "problem.instance_seed = -9223372036854775809"),
    ("run", "SPPM_SEED", None),
])
def test_seed_outside_64_bits_exits_2(tmp_path, monkeypatch, capsys, command, key, line):
    text = SMALL
    if line is None:
        monkeypatch.setenv("SPPM_SEED", "-99999999999999999999")
    else:
        text = "".join(l for l in SMALL.splitlines(keepends=True) if not l.startswith(key + " "))
        text += line + "\n"
    path = tmp_path / "seed.cfg"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_verify_suite_pass_and_artifact(tmp_path, capsys):
    assert main(["verify", "--suite", "sts", "--out", str(tmp_path)]) == 0
    seen = capsys.readouterr().out
    assert "PASS sts." in seen
    assert "PASS sts.tie_inclusion: equilateral triangle selected [0, 1, 2]\n" in seen
    payload = json.loads((tmp_path / "verify_sts.json").read_text())
    assert payload["all_passed"] is True


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2

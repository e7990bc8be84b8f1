"""The experiment scripts in scripts/ run end to end and write their reports."""

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

"""Workload definitions: which config each workload runs, with which
overrides, and how the trial seeds follow from the benchmark's --seed.

Pure Python with no numpy import, so the orchestrator can build config
texts without paying for the package it measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

# Block b of a run with --seed s is one harness call under
# run.master_seed = SEED_STRIDE * s + b, so the same seed always gives
# the same trials.  Timed blocks run one trial each (trial 0); block 0
# is the untimed reference and warm-up.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the repository root
    overrides: dict = field(default_factory=dict)
    eps_scale: float = 1.0  # multiplies the config's algo.auto.eps
    mode: str = "trials"  # "trials" -> run_trials, "compare" -> compare_budget
    # Block 0 is untimed: a separate reference process runs its
    # reference_trials trials at reference_parallelism, and the
    # workload's warm-up must reproduce their records bit for bit.
    reference_parallelism: int = 1
    reference_trials: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="heavy_tail",
            config="configs/heavy_tail.cfg",
            overrides={"run.parallelism": "1"},
            reference_parallelism=2,
            reference_trials=2,
        ),
        Workload(
            name="finite_sum_boost",
            config="configs/lasso_box.cfg",
            overrides={"algo.candidates": "288", "algo.rge_batch": "3000", "run.parallelism": "1"},
        ),
        Workload(
            name="sgd_compare",
            config="configs/heavy_tail.cfg",
            overrides={"run.parallelism": "1"},
            eps_scale=8.0,
            mode="compare",
        ),
    )
}


def _key(line: str) -> str:
    return line.split("#", 1)[0].split("=", 1)[0].strip()


def config_text(root: Path, workload: Workload, master_seed: int, trials: int,
                parallelism: int | None = None) -> str:
    """The workload's config file with its overrides applied, one block's
    master seed and trial count set, and the accuracy target scaled."""
    lines = (root / workload.config).read_text(encoding="utf-8").splitlines()
    overrides = dict(workload.overrides)
    overrides["run.master_seed"] = str(master_seed)
    overrides["run.trials"] = str(trials)
    if parallelism is not None:
        overrides["run.parallelism"] = str(parallelism)
    if workload.eps_scale != 1.0:
        (eps_line,) = [line for line in lines if _key(line) == "algo.auto.eps"]
        eps = float(eps_line.split("#", 1)[0].split("=", 1)[1])
        overrides["algo.auto.eps"] = repr(eps * workload.eps_scale)
    kept = [line for line in lines if _key(line) not in overrides]
    return "\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def block_seed(seed: int, block: int) -> int:
    return SEED_STRIDE * seed + block


def steal_s() -> float:
    """Seconds the hypervisor has spent running other guests on the
    virtual CPUs of the machine this runs on (the steal column of
    /proc/stat), or 0.0 where the kernel does not report it.  Timings subtract it so that a busy
    neighbour on a shared host does not read as a slower program."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")

"""The benchmark in perfbench/ traces sppm by patching module-level names
(harness.sppm_run, driver.pss_run_batch, RowSampler.sample_rows, ...).
These tests load its patch set by path and run it over the sppm modules,
so renaming a patched name fails here rather than in a traced benchmark
run."""

import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

from sppm import booster, driver, harness, noise, problems, regularizers, rng, selection
from sppm.config import parse_config

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CONFIG = """\
problem.kind = {kind}
problem.dim = 4
problem.mu = 1.0
problem.L = 3.0
problem.radius = 0.5
problem.box_halfwidth = 1.0
problem.components = 30
problem.instance_seed = 3
noise.family = {family}
noise.sigma = {sigma}
algo.auto.eps = 0.5
algo.auto.p = 0.1
algo.mode = practical
algo.inner_iters = 6
algo.candidates = 3
algo.rge_batch = 2
algo.outer_iters = 2
run.master_seed = 4
run.trials = 2
"""


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(modules):
    """Each module and every class it defines."""
    out = []
    for module in vars(modules).values():
        out.append(module)
        out.extend(
            v for v in vars(module).values()
            if inspect.isclass(v) and v.__module__ == module.__name__
        )
    return out


def test_benchmark_patches_install_and_restore():
    spans = _load_spans()
    modules = SimpleNamespace(
        harness=harness, driver=driver, booster=booster, selection=selection,
        problems=problems, noise=noise, rng=rng, regularizers=regularizers,
    )
    before = [(owner, dict(vars(owner))) for owner in _owners(modules)]
    tracer = spans.Tracer()
    patches = spans.Patches(modules, tracer, lambda outcome, n: [])
    with patches:
        assert patches._saved
        for owner, attr, original in patches._saved:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not patched"
        for kind, family, sigma in (("quadratic-ball", "gaussian", 1.0),
                                    ("ridge-l1-box", "finite_sum", 0.0)):
            cfg = parse_config(CONFIG.format(kind=kind, family=family, sigma=sigma))
            report = harness.run_trials(cfg)
            assert len(report.records) == 2
    # 2 trials x 2 outer steps x 3 candidates x 7 inner steps, per config
    counts = tracer.spans()["counts"]
    assert counts["pss.row_steps"] == 2 * (2 * 2 * 3 * 7)
    assert not tracer.errors
    for owner, saved in before:
        now = vars(owner)
        for attr, value in saved.items():
            assert now[attr] is value, f"{owner.__name__}.{attr} not restored"

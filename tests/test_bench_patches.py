"""The benchmark in perfbench/ traces sppm by patching module-level names
(harness.sppm_run, driver.pss_run_batch, RowSampler.sample_rows, ...).
These tests load its patch set by path and run it over the sppm modules,
so renaming a patched name fails here rather than in a traced benchmark
run."""

import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

from sppm import booster, driver, harness, noise, problems, regularizers, rng, selection
from sppm.config import load_config, parse_config

ROOT = Path(__file__).resolve().parents[1]

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


def _load(name):
    """perfbench/<name>.py, loaded by path as module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
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


def _calls(tracer):
    """Traced calls so far, per span name."""
    return {name: calls for name, (calls, _, _) in tracer.self_times(tracer.spans()).items()}


def test_benchmark_patches_install_and_restore():
    spans = _load("spans")
    modules = SimpleNamespace(
        harness=harness, driver=driver, booster=booster, selection=selection,
        problems=problems, noise=noise, rng=rng, regularizers=regularizers,
    )
    before = [(owner, dict(vars(owner))) for owner in _owners(modules)]
    tracer = spans.Tracer()
    seen_n = []  # pb's wrapper passes len(args[0]) as n: Z must be pb's first argument
    patches = spans.Patches(modules, tracer, lambda outcome, n: seen_n.append(n) or [])
    with patches:
        assert patches._saved
        for owner, attr, original in patches._saved:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not patched"
        for kind, family, sigma in (("quadratic-ball", "gaussian", 1.0),
                                    ("ridge-l1-box", "finite_sum", 0.0)):
            cfg = parse_config(CONFIG.format(kind=kind, family=family, sigma=sigma))
            tracer.plan_bytes_max = 0
            calls_before = _calls(tracer)
            report = harness.run_trials(cfg)
            assert len(report.records) == 2
            # the plan buffers are read from the sampler slots of both noise kinds
            assert 0 < tracer.plan_bytes_max <= problems.PLAN_VALUES * 8, family
            # additive rows go through the wrapped _grad_rows slot once per
            # sample_rows call; finite-sum rows never do
            ran = {k: v - calls_before.get(k, 0) for k, v in _calls(tracer).items()}
            rows = ran["problems.sample_rows"] if family == "gaussian" else 0
            assert ran["problems.sample_rows"] > 0
            assert ran.get("problems.grad_rows", 0) == rows, family
    # 2 trials x 2 outer steps x 3 candidates x 7 inner steps, per config
    counts = tracer.spans()["counts"]
    assert counts["pss.row_steps"] == 2 * (2 * 2 * 3 * 7)
    assert seen_n == [3] * (2 * 2 * 2)  # algo.candidates per pb call, 2 trials x 2 steps x 2 configs
    # four sts passes of n rows per outer step: three in pb, one in rge
    assert counts["selection.candidates"] == 4 * 3 * (2 * 2 * 2)
    assert not tracer.errors
    for owner, saved in before:
        now = vars(owner)
        for attr, value in saved.items():
            assert now[attr] is value, f"{owner.__name__}.{attr} not restored"


def test_benchmark_patches_trace_the_sgd_baseline():
    spans = _load("spans")
    modules = SimpleNamespace(
        harness=harness, driver=driver, booster=booster, selection=selection,
        problems=problems, noise=noise, rng=rng, regularizers=regularizers,
    )
    before = [(owner, dict(vars(owner))) for owner in _owners(modules)]
    tracer = spans.Tracer()
    cfg = parse_config(CONFIG.format(kind="quadratic-ball", family="gaussian", sigma=1.0))
    with spans.Patches(modules, tracer, lambda outcome, n: []):
        rows = harness.compare_budget(cfg)
    budget = rows[1]["samples"]
    assert tracer.spans()["counts"]["driver.sgd_samples"] == 2 * budget  # 2 trials
    assert 0 < tracer.plan_bytes_max <= problems.PLAN_VALUES * 8
    assert not tracer.errors
    for owner, saved in before:
        now = vars(owner)
        for attr, value in saved.items():
            assert now[attr] is value, f"{owner.__name__}.{attr} not restored"


def test_benchmark_configs_parse_with_their_overrides():
    workloads = _load("workloads")
    cfgs = {
        name: parse_config(workloads.config_text(ROOT, w, workloads.block_seed(7, 1), 1))
        for name, w in workloads.WORKLOADS.items()
    }
    assert set(cfgs) == {"heavy_tail", "finite_sum_boost", "sgd_compare"}
    for name, cfg in cfgs.items():
        assert (cfg.run.master_seed, cfg.run.trials, cfg.run.parallelism) == (7001, 1, 1), name

    heavy = workloads.WORKLOADS["heavy_tail"]
    ref = parse_config(workloads.config_text(
        ROOT, heavy, workloads.block_seed(7, 0), heavy.reference_trials, heavy.reference_parallelism))
    assert (ref.run.trials, ref.run.parallelism) == (2, 2)

    boost = cfgs["finite_sum_boost"].algo
    assert (boost.candidates, boost.rge_batch) == (288, 3000)

    base = load_config(str(ROOT / workloads.WORKLOADS["sgd_compare"].config))
    assert cfgs["sgd_compare"].algo.eps == 8.0 * base.algo.eps
    assert cfgs["heavy_tail"].algo.eps == base.algo.eps


def test_observer_counts_every_finite_sum_draw():
    # perfbench counts oracle draws as len(idx) per component call and the
    # tracer as rows returned; both must see n*K*(I+1) inner draws plus
    # n*K*q booster draws per trial
    observe, spans = _load("observe"), _load("spans")
    modules = SimpleNamespace(
        harness=harness, driver=driver, booster=booster, selection=selection,
        problems=problems, noise=noise, rng=rng, regularizers=regularizers,
    )
    cfg = parse_config(CONFIG.format(kind="ridge-l1-box", family="finite_sum", sigma=0.0))
    observer = observe.Observer(harness, problems.FiniteSumOracle).install()
    tracer = spans.Tracer()
    try:
        with spans.Patches(modules, tracer, lambda outcome, n: []):
            report = harness.run_trials(cfg)
    finally:
        observer.uninstall()
    n, K, I, q = 3, 2, 6, 2  # algo.candidates, outer_iters, inner_iters, rge_batch
    want = n * K * (I + 1) + n * K * q
    runs = list(observer.sppm_runs.values())
    assert len(runs) == 2
    for obs in runs:
        s = obs.schedule
        assert (s.candidates_per_iter, s.outer_iters, s.inner_iters, s.rge_batch) == (n, K, I, q)
        assert obs.draws == want
    assert report.samples_per_trial == want
    assert tracer.spans()["counts"]["problems.component_rows"] == 2 * want

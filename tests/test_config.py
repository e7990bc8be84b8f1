import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from sppm.config import (
    _SCHEMA,
    AlgoSpec,
    ExperimentConfig,
    NoiseSpec,
    ProblemSpec,
    RunSpec,
    load_config,
    parse_config,
    serialize_config,
)
from sppm.errors import ConfigError
from sppm.harness import build_problem, build_schedule

BASE = """\
# reference heavy-tail experiment
problem.kind = quadratic-ball
problem.dim = 10
problem.mu = 1.0
problem.L = 4.0
problem.radius = 0.5
problem.instance_seed = 20260819
noise.family = student_t
noise.sigma = 1.0
noise.nu = 3.0
algo.auto.eps = 0.02
algo.auto.p = 0.05
algo.mode = practical
run.master_seed = 7
run.trials = 4
"""


def test_parse_basic():
    cfg = parse_config(BASE)
    assert cfg.problem.kind == "quadratic-ball"
    assert cfg.problem.dim == 10
    assert cfg.noise.nu == 3.0
    assert cfg.algo.mode == "practical"
    assert cfg.run.trials == 4
    assert cfg.run.parallelism == 1  # default


def test_round_trip_is_fixed_point():
    cfg = parse_config(BASE)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n\n# lead\n" + BASE + "\n  # trailing comment\n")
    assert cfg == parse_config(BASE)


def test_inline_comment_stripped():
    cfg = parse_config(BASE.replace("run.trials = 4", "run.trials = 4  # four"))
    assert cfg.run.trials == 4


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(BASE + "problem.shape = round\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASE + "run.trials = 9\n")


def test_missing_required_key():
    text = BASE.replace("algo.auto.p = 0.05\n", "")
    with pytest.raises(ConfigError, match="algo.auto.p"):
        parse_config(text)


def test_bad_types_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("problem.dim = 10", "problem.dim = ten"))
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("noise.sigma = 1.0", "noise.sigma = big"))


def test_value_validation():
    with pytest.raises(ConfigError, match="eps"):
        parse_config(BASE.replace("algo.auto.eps = 0.02", "algo.auto.eps = 0"))
    with pytest.raises(ConfigError, match="auto.p"):
        parse_config(BASE.replace("algo.auto.p = 0.05", "algo.auto.p = 1.5"))
    with pytest.raises(ConfigError, match="mu"):
        parse_config(BASE.replace("problem.mu = 1.0", "problem.mu = 9.0"))
    with pytest.raises(ConfigError, match="radius"):
        parse_config(BASE.replace("problem.radius = 0.5", "problem.radius = -1"))
    with pytest.raises(ConfigError, match="nu"):
        parse_config(BASE.replace("noise.nu = 3.0", "noise.nu = 2.0"))


def test_finite_sum_rejects_a_nonzero_sigma():
    text = (BASE.replace("quadratic-ball", "ridge-l1-box")
            .replace("problem.radius = 0.5", "problem.box_halfwidth = 1.0")
            .replace("student_t", "finite_sum"))
    with pytest.raises(ConfigError, match="noise.sigma must be 0 with finite_sum"):
        parse_config(text)
    assert parse_config(text.replace("noise.sigma = 1.0", "noise.sigma = 0.0")).noise.sigma == 0.0


@pytest.mark.parametrize("pin", ["inner_iters", "candidates", "rge_batch", "outer_iters"])
def test_pin_below_one_names_its_key(pin):
    with pytest.raises(ConfigError, match=f"^algo.{pin} must be >= 1, got 0$"):
        parse_config(BASE + f"algo.{pin} = 0\n")


def test_pool_size_applies_only_to_kinds_with_a_pool():
    # quadratic-ball has no component pool, so components < dim is fine
    cfg = parse_config(BASE.replace("problem.dim = 10", "problem.dim = 250"))
    assert cfg.problem.components < cfg.problem.dim
    assert build_schedule(cfg, build_problem(cfg)).inner_iters >= 1
    logreg = BASE.replace("quadratic-ball", "logreg-ridge-ball") + "problem.components = 9\n"
    with pytest.raises(ConfigError, match="problem.components must be at least problem.dim"):
        parse_config(logreg)


@pytest.mark.parametrize("change, match", [
    (lambda cfg: replace(cfg.run, trials=0), "run.trials must be >= 1, got 0"),
    (lambda cfg: replace(cfg.run, parallelism=0), "run.parallelism must be >= 1, got 0"),
    (lambda cfg: replace(cfg.algo, eps=-1.0), "algo.auto.eps must be > 0, got -1.0"),
    (lambda cfg: replace(cfg.algo, mode="bogus"), "algo.mode must be one of"),
    (lambda cfg: replace(cfg, noise=replace(cfg.noise, family="finite_sum", sigma=0.0)),
     "finite_sum noise is only available for ridge-l1-box"),
], ids=["trials", "parallelism", "eps", "mode", "finite_sum"])
def test_replace_checks_the_spec(change, match):
    # a replaced spec goes through the same checks as a parsed one
    with pytest.raises(ConfigError, match=match):
        change(parse_config(BASE))


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="expected"):
        parse_config("problem.kind quadratic-ball\n")


def test_schedule_overrides_parse():
    text = BASE + "algo.inner_iters = 50\nalgo.candidates = 9\n"
    cfg = parse_config(text)
    assert cfg.algo.inner_iters == 50
    assert cfg.algo.candidates == 9
    assert cfg.algo.rge_batch is None


def test_candidate_parallelism_key_rejected():
    # run.candidate_parallelism was removed: candidates always run as
    # the rows of one inner recursion.
    with pytest.raises(ConfigError, match="unknown key 'run.candidate_parallelism'"):
        parse_config(BASE + "run.candidate_parallelism = true\n")


@pytest.mark.parametrize("key", ["algo.factor.tau", "algo.factor.boost", "algo.factor.hoeffding"])
def test_factor_keys_rejected(key):
    # The practical-mode factors are fixed (driver.PRACTICAL_FACTORS).
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(BASE + f"{key} = 1.0\n")


@pytest.mark.parametrize("key", ["algo.lambda", "algo.alpha"])
def test_lambda_and_alpha_keys_rejected(key):
    # lam = 3/mu and alpha at its floor are derived, never pinned.
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(BASE + f"{key} = 0.9\n")


def test_readme_config_block_parses_and_names_real_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    parse_config(block)
    pins = re.search(r"# optional pins:(.*?)\n\n", block, re.S).group(1)
    named = re.findall(r"\b[a-z]+\.[a-z_.]+[a-z_]", pins)
    assert named
    assert [key for key in named if key not in _SCHEMA] == []


FLOAT_KEYS = [
    "problem.mu", "problem.L", "problem.radius", "problem.l1_weight",
    "noise.sigma", "noise.nu", "algo.auto.eps", "algo.auto.p",
]


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_values_rejected(key, raw):
    kept = [line for line in BASE.splitlines() if not line.startswith(key + " ")]
    text = "\n".join(kept + [f"{key} = {raw}"]) + "\n"
    with pytest.raises(ConfigError, match=f"{key}: must be finite"):
        parse_config(text)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_replace_rejects_non_finite_values(key, value):
    # the spec holds the rule, so a replaced field fails like a parsed one
    section, name, *_ = _SCHEMA[key]
    with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
        replace(getattr(parse_config(BASE), section), **{name: value})


@pytest.mark.parametrize("build, key", [
    (lambda v: ProblemSpec(kind="quadratic-ball", dim=4, mu=1.0, L=v, radius=1.0, instance_seed=3),
     "problem.L"),
    (lambda v: ProblemSpec(kind="ridge-l1-box", dim=4, mu=1.0, L=2.0, box_halfwidth=v, instance_seed=3),
     "problem.box_halfwidth"),
    (lambda v: ProblemSpec(kind="quadratic-ball", dim=4, mu=1.0, L=2.0, radius=1.0, l1_weight=v,
                           instance_seed=3), "problem.l1_weight"),
    (lambda v: NoiseSpec("gaussian", v), "noise.sigma"),
    (lambda v: NoiseSpec("student_t", 1.0, nu=v), "noise.nu"),
    (lambda v: AlgoSpec(eps=0.1, p=v), "algo.auto.p"),
], ids=["L", "box_halfwidth", "l1_weight", "sigma", "nu", "p"])
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_constructed_spec_rejects_non_finite_values(build, key, value):
    with pytest.raises(ConfigError, match=f"^{key}: must be finite, got {value!r}$"):
        build(value)


def test_each_spec_field_has_exactly_one_key():
    specs = {"problem": ProblemSpec, "noise": NoiseSpec, "algo": AlgoSpec, "run": RunSpec}
    want = sorted((section, f.name) for section, spec in specs.items() for f in fields(spec))
    got = sorted((section, attr) for section, attr, *_ in _SCHEMA.values())
    assert got == want
    assert all(key.startswith(section + ".") for key, (section, *_) in _SCHEMA.items())


def test_required_keys_are_fields_without_defaults():
    required = [key for key, (*_, req) in _SCHEMA.items() if req]
    assert required == [
        "problem.kind", "problem.dim", "problem.mu", "problem.L", "problem.instance_seed",
        "noise.family", "noise.sigma", "algo.auto.eps", "algo.auto.p", "run.master_seed",
    ]


def test_serialized_key_order_is_pinned():
    assert serialize_config(parse_config(BASE)) == """\
problem.kind = quadratic-ball
problem.dim = 10
problem.mu = 1.0
problem.L = 4.0
problem.radius = 0.5
problem.l1_weight = 0.01
problem.components = 200
problem.instance_seed = 20260819
noise.family = student_t
noise.sigma = 1.0
noise.nu = 3.0
algo.auto.eps = 0.02
algo.auto.p = 0.05
algo.mode = practical
run.master_seed = 7
run.trials = 4
run.parallelism = 1
"""


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE, encoding="utf-8")
    assert load_config(str(path)) == parse_config(BASE)

import pytest

from sppm.config import (
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from sppm.errors import ConfigError

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


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE, encoding="utf-8")
    assert load_config(str(path)) == parse_config(BASE)

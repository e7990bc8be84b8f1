"""Experiment configuration: flat dotted-key text files.

One key per line, `key = value`, `#` comments.  The schema is strict:
unknown keys are rejected, each spec dataclass checks its own fields
when it is built (parsed, constructed or `dataclasses.replace`d), and
serialize(parse(text)) is a fixed point (all set keys emitted in schema
order).  Example:

    problem.kind = quadratic-ball
    problem.dim = 10
    problem.mu = 1.0
    problem.L = 4.0
    problem.radius = 0.5
    problem.instance_seed = 7
    noise.family = gaussian
    noise.sigma = 1.0
    algo.auto.eps = 0.05
    algo.auto.p = 0.05
    algo.mode = practical
    run.master_seed = 123
    run.trials = 50
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError
from .generate import KINDS
from .noise import FAMILIES
from .rng import SEED_RANGE

NOISE_CHOICES = FAMILIES + ("finite_sum",)
MODES = ("verbatim", "practical")


def check_seed(key: str, value: int) -> int:
    """value, or ConfigError naming key when it lies outside SEED_RANGE."""
    if value not in SEED_RANGE:
        raise ConfigError(f"{key} must lie in [-2**63, 2**63), got {value}")
    return value


def _check_finite(section: str, spec) -> None:
    """ConfigError naming the first float field of spec that is inf or nan."""
    for f in fields(spec):
        key = _KEY_NAMES.get(f"{section}.{f.name}", f"{section}.{f.name}")
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class ProblemSpec:
    kind: str
    dim: int
    mu: float
    L: float
    radius: Optional[float] = None
    box_halfwidth: Optional[float] = None
    l1_weight: float = 0.01
    components: int = 200
    instance_seed: int

    def __post_init__(self):
        check_seed("problem.instance_seed", self.instance_seed)
        _check_finite("problem", self)
        if self.kind not in KINDS:
            raise ConfigError(f"problem.kind must be one of {KINDS}, got {self.kind!r}")
        if self.dim < 2:
            raise ConfigError(f"problem.dim must be >= 2, got {self.dim}")
        if not (0.0 < self.mu < self.L):
            raise ConfigError(f"need 0 < problem.mu < problem.L, got {self.mu}, {self.L}")
        if self.kind == "ridge-l1-box":
            if self.box_halfwidth is None or self.box_halfwidth <= 0.0:
                raise ConfigError("ridge-l1-box requires a positive problem.box_halfwidth")
        elif self.radius is None or self.radius <= 0.0:
            raise ConfigError(f"{self.kind} requires a positive problem.radius")
        if self.l1_weight < 0.0:
            raise ConfigError(f"problem.l1_weight must be >= 0, got {self.l1_weight}")
        if self.kind in ("ridge-l1-box", "logreg-ridge-ball") and self.components < self.dim:
            raise ConfigError("problem.components must be at least problem.dim")


@dataclass(frozen=True)
class NoiseSpec:
    family: str
    sigma: float
    nu: float = 3.0

    def __post_init__(self):
        _check_finite("noise", self)
        if self.family not in NOISE_CHOICES:
            raise ConfigError(f"noise.family must be one of {NOISE_CHOICES}, got {self.family!r}")
        if self.sigma < 0.0:
            raise ConfigError(f"noise.sigma must be >= 0, got {self.sigma}")
        if self.family == "student_t" and self.nu <= 2.0:
            raise ConfigError(f"noise.nu must exceed 2, got {self.nu}")


@dataclass(frozen=True)
class AlgoSpec:
    eps: float
    p: float
    mode: str = "verbatim"
    inner_iters: Optional[int] = None
    candidates: Optional[int] = None
    rge_batch: Optional[int] = None
    outer_iters: Optional[int] = None

    def __post_init__(self):
        _check_finite("algo", self)
        if self.eps <= 0.0:
            raise ConfigError(f"algo.auto.eps must be > 0, got {self.eps}")
        if not (0.0 < self.p < 1.0):
            raise ConfigError(f"algo.auto.p must lie in (0,1), got {self.p}")
        if self.mode not in MODES:
            raise ConfigError(f"algo.mode must be one of {MODES}, got {self.mode!r}")
        for name in ("inner_iters", "candidates", "rge_batch", "outer_iters"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"algo.{name} must be >= 1, got {v}")


@dataclass(frozen=True)
class RunSpec:
    master_seed: int
    trials: int = 1
    parallelism: int = 1

    def __post_init__(self):
        check_seed("run.master_seed", self.master_seed)
        if self.trials < 1:
            raise ConfigError(f"run.trials must be >= 1, got {self.trials}")
        if self.parallelism < 1:
            raise ConfigError(f"run.parallelism must be >= 1, got {self.parallelism}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    noise: NoiseSpec
    algo: AlgoSpec
    run: RunSpec

    def __post_init__(self):
        if self.noise.family == "finite_sum" and self.problem.kind != "ridge-l1-box":
            raise ConfigError("finite_sum noise is only available for ridge-l1-box")
        if self.noise.family == "finite_sum" and self.noise.sigma != 0.0:
            raise ConfigError(
                f"noise.sigma must be 0 with finite_sum noise, which estimates its variance "
                f"from the component pool; got {self.noise.sigma}"
            )


# section -> spec dataclass, in ExperimentConfig field order
_SECTIONS = get_type_hints(ExperimentConfig)
# The keys that are not "section.field".
_KEY_NAMES = {"algo.eps": "algo.auto.eps", "algo.p": "algo.auto.p"}


def _build_schema() -> dict:
    """key -> (section, attribute, value type, required), in field order.
    A field is required when it has no default."""
    schema = {}
    for section, spec in _SECTIONS.items():
        hints = get_type_hints(spec)
        for f in fields(spec):
            name = f"{section}.{f.name}"
            typ = next((a for a in get_args(hints[f.name]) if a is not type(None)), hints[f.name])
            schema[_KEY_NAMES.get(name, name)] = (section, f.name, typ, f.default is MISSING)
    return schema


_SCHEMA = _build_schema()


def _convert(key, raw, typ):
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _convert(key, raw, _SCHEMA[key][2])
    missing = [k for k, (*_, required) in _SCHEMA.items() if required and k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {missing}")

    sections = {section: {} for section in _SECTIONS}
    for key, value in seen.items():
        section, attr, *_ = _SCHEMA[key]
        sections[section][attr] = value
    return ExperimentConfig(**{s: spec(**sections[s]) for s, spec in _SECTIONS.items()})


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every set key, in schema order."""
    lines = []
    for key, (section, attr, *_) in _SCHEMA.items():
        value = getattr(getattr(cfg, section), attr)
        if value is None:
            continue
        lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None

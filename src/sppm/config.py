"""Experiment configuration: flat dotted-key text files.

One key per line, `key = value`, `#` comments.  The schema is strict:
unknown keys are rejected, required keys checked per problem kind, and
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

NOISE_CHOICES = FAMILIES + ("finite_sum",)
MODES = ("verbatim", "practical")


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


@dataclass(frozen=True)
class NoiseSpec:
    family: str
    sigma: float
    nu: float = 3.0


@dataclass(frozen=True)
class AlgoSpec:
    eps: float
    p: float
    mode: str = "verbatim"
    lam: Optional[float] = None
    alpha: Optional[float] = None
    inner_iters: Optional[int] = None
    candidates: Optional[int] = None
    rge_batch: Optional[int] = None
    outer_iters: Optional[int] = None


@dataclass(frozen=True)
class RunSpec:
    master_seed: int
    trials: int = 1
    parallelism: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    noise: NoiseSpec
    algo: AlgoSpec
    run: RunSpec


# section -> spec dataclass, in ExperimentConfig field order
_SECTIONS = get_type_hints(ExperimentConfig)
# The keys that are not "section.field".
_KEY_NAMES = {"algo.eps": "algo.auto.eps", "algo.p": "algo.auto.p", "algo.lam": "algo.lambda"}


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
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


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
    cfg = ExperimentConfig(**{s: spec(**sections[s]) for s, spec in _SECTIONS.items()})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    p, nz, algo, run = cfg.problem, cfg.noise, cfg.algo, cfg.run
    if p.kind not in KINDS:
        raise ConfigError(f"problem.kind must be one of {KINDS}, got {p.kind!r}")
    if p.dim < 2:
        raise ConfigError(f"problem.dim must be >= 2, got {p.dim}")
    if not (0.0 < p.mu < p.L):
        raise ConfigError(f"need 0 < problem.mu < problem.L, got {p.mu}, {p.L}")
    if p.kind in ("quadratic-ball", "logreg-ridge-ball"):
        if p.radius is None or p.radius <= 0.0:
            raise ConfigError(f"{p.kind} requires a positive problem.radius")
    if p.kind == "ridge-l1-box":
        if p.box_halfwidth is None or p.box_halfwidth <= 0.0:
            raise ConfigError("ridge-l1-box requires a positive problem.box_halfwidth")
    if p.l1_weight < 0.0:
        raise ConfigError(f"problem.l1_weight must be >= 0, got {p.l1_weight}")
    if p.components < p.dim:
        raise ConfigError("problem.components must be at least problem.dim")
    if nz.family not in NOISE_CHOICES:
        raise ConfigError(f"noise.family must be one of {NOISE_CHOICES}, got {nz.family!r}")
    if nz.family == "finite_sum" and p.kind != "ridge-l1-box":
        raise ConfigError("finite_sum noise is only available for ridge-l1-box")
    if nz.sigma < 0.0:
        raise ConfigError(f"noise.sigma must be >= 0, got {nz.sigma}")
    if nz.family == "student_t" and nz.nu <= 2.0:
        raise ConfigError(f"noise.nu must exceed 2, got {nz.nu}")
    if algo.eps <= 0.0:
        raise ConfigError(f"algo.auto.eps must be > 0, got {algo.eps}")
    if not (0.0 < algo.p < 1.0):
        raise ConfigError(f"algo.auto.p must lie in (0,1), got {algo.p}")
    if algo.mode not in MODES:
        raise ConfigError(f"algo.mode must be one of {MODES}, got {algo.mode!r}")
    for name in ("lam", "alpha"):
        v = getattr(algo, name)
        if v is not None and v <= 0.0:
            raise ConfigError(f"algo {name} override must be positive, got {v}")
    for name in ("inner_iters", "candidates", "rge_batch", "outer_iters"):
        v = getattr(algo, name)
        if v is not None and v < 1:
            raise ConfigError(f"algo {name} override must be >= 1, got {v}")
    if run.trials < 1:
        raise ConfigError(f"run.trials must be >= 1, got {run.trials}")
    if run.parallelism < 1:
        raise ConfigError(f"run.parallelism must be >= 1, got {run.parallelism}")


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

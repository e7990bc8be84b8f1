"""Inner solver for the anchored proximal subproblem.

From a prox center x0 it runs I+1 coupled recursions

    S_i = alpha * S_{i-1} + (1 - alpha) * s_{i-1}      (averaged gradients)
    x_i = prox_map(h, x0 - lam * S_i, lam)             (anchored prox step)
    y_i = alpha * y_{i-1} + (1 - alpha) * x_i          (averaged iterates)

with s_{i-1} a fresh stochastic gradient at x_{i-1}, S_1 = s_0 and
y_1 = x_1, and returns the pair (x_{I+1}, y_{I+1}).  Averaging the
gradients cuts the variance term to lam * sigma^2 / I at the price of
a bias term alpha^I * (sigma*D + L*D^2/2); alpha may not drop below
alpha_floor or the bias analysis collapses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .problems import CompositeProblem, GradientSampler, RowSampler, supports_rows
from .regularizers import prox_map
from .rng import RngStream


@dataclass(frozen=True)
class PssConfig:
    """Parameters of one inner solve.

    validated=False permits alpha below the floor (with a warning); the
    mean-gap guarantee lapses there.  The floor itself depends on the
    problem's L, so enforcement happens when the run starts.
    """

    x0: np.ndarray
    alpha: float
    lam: float
    inner_iters: int
    validated: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.lam <= 0.0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
        if self.inner_iters < 1:
            raise ValidationError(f"inner_iters must be >= 1, got {self.inner_iters}")


@dataclass(frozen=True)
class CandidatePair:
    """One inner-solver output: last iterate z and averaged iterate w."""

    z: np.ndarray
    w: np.ndarray
    samples_used: int


def alpha_floor(inner_iters: int, lam: float, L: float) -> float:
    """Smallest admissible averaging weight for I inner iterations."""
    if inner_iters < 1 or lam <= 0.0 or L <= 0.0:
        raise ValidationError("alpha_floor needs I >= 1 and positive lam, L")
    half = 0.5 * inner_iters + lam * L
    return half / (1.0 + half)


def epsilon_k_bound(alpha: float, inner_iters: int, lam: float, sigma: float, D: float, L: float) -> float:
    """Mean-gap bound for one inner solve: bias alpha^I (sigma D + L D^2/2)
    plus variance lam sigma^2 / I."""
    bias = alpha**inner_iters * (sigma * D + 0.5 * L * D * D)
    return bias + lam * sigma * sigma / inner_iters


def pss_run(
    problem: CompositeProblem,
    noise,
    cfg: PssConfig,
    stream: RngStream,
    observer=None,
) -> CandidatePair:
    """Run the inner solver; consumes exactly inner_iters + 1 samples.

    The stochastic part of the I+1 samples is drawn ahead on substream
    ("noise") in chunks of at most PLAN_VALUES values, so replays and
    outer parallelism never perturb the values, memory does not grow
    with I, and the per-step cost stays arithmetic-only.
    observer(i, s, S, x, y), if given, sees each step (used by the
    invariant tests).
    """
    if not problem.h.contains(cfg.x0):
        raise DomainError("prox center lies outside dom h")
    floor = alpha_floor(cfg.inner_iters, cfg.lam, problem.L)
    if cfg.alpha < floor - 1e-12:
        if cfg.validated:
            raise ValidationError(
                f"alpha={cfg.alpha:.6g} below floor {floor:.6g} for I={cfg.inner_iters}; "
                "pass validated=False to run outside the guarantee"
            )
        warnings.warn(
            f"alpha={cfg.alpha:.6g} below floor {floor:.6g}: mean-gap guarantee lapses",
            stacklevel=2,
        )

    sampler = GradientSampler(problem, noise, cfg.inner_iters + 1, stream.child("noise"))
    a = cfg.alpha
    b = 1.0 - a
    x0 = cfg.x0
    x = x0
    S = None
    y = None
    for i in range(1, cfg.inner_iters + 2):
        s = sampler.sample(i - 1, x)
        S = s if i == 1 else a * S + b * s
        x = prox_map(problem.h, x0 - cfg.lam * S, cfg.lam)
        y = x if i == 1 else a * y + b * x
        if observer is not None:
            observer(i, s, S, x, y)
    return CandidatePair(z=x, w=y, samples_used=cfg.inner_iters + 1)


def pss_run_batch(
    problem: CompositeProblem,
    noise,
    cfg: PssConfig,
    streams,
) -> list:
    """Run len(streams) independent inner solves in lockstep.

    Candidate j consumes the same substreams as
    pss_run(problem, noise, cfg, streams[j]), so the draws match the
    one-at-a-time path; only the row-vectorized arithmetic differs (at
    float rounding).  Falls back to sequential solves when the problem
    lacks row oracles.
    """
    if not supports_rows(problem, noise):
        return [pss_run(problem, noise, cfg, s) for s in streams]
    if not problem.h.contains(cfg.x0):
        raise DomainError("prox center lies outside dom h")
    floor = alpha_floor(cfg.inner_iters, cfg.lam, problem.L)
    if cfg.alpha < floor - 1e-12:
        if cfg.validated:
            raise ValidationError(
                f"alpha={cfg.alpha:.6g} below floor {floor:.6g} for I={cfg.inner_iters}; "
                "pass validated=False to run outside the guarantee"
            )
        warnings.warn(
            f"alpha={cfg.alpha:.6g} below floor {floor:.6g}: mean-gap guarantee lapses",
            stacklevel=2,
        )

    count = cfg.inner_iters + 1
    sampler = RowSampler(problem, noise, count, [s.child("noise") for s in streams])
    a = cfg.alpha
    b = 1.0 - a
    lam = cfg.lam
    n = len(streams)
    X = np.tile(cfg.x0, (n, 1))
    x0 = cfg.x0[None, :]
    S = None
    Y = None
    h = problem.h
    for i in range(count):
        G = sampler.sample_rows(i, X)
        S = G if i == 0 else a * S + b * G
        X = h.prox_rows(x0 - lam * S, lam)
        Y = X if i == 0 else a * Y + b * X
    return [
        CandidatePair(z=np.array(X[j]), w=np.array(Y[j]), samples_used=count)
        for j in range(n)
    ]

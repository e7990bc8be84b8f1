"""Composite problems  phi(x) = f(x) + h(x)  and their oracles.

f is mu-strongly convex with L-Lipschitz gradient, h is a regularizer
with a cheap prox, and dom h has finite diameter.  Stochastic access
goes through sample_gradient_batch (a batch of samples at one point,
checked against dom h), draw_gradients (its unchecked body, which rge
calls chunk by chunk after one check per call) and RowSampler, which
plans the samples of sequential steps, one row per stream, in chunks
of at most PLAN_VALUES values.  The inner solver reads a RowSampler
with one row per solve; GradientSampler is the one-stream RowSampler
that the SGD baseline reads one vector at a time, one plan per trial
on ("sgd-trial", t).  The noise is an additive NoiseModel or a
FiniteSumOracle; both plan through draw(gen, count, dim), noise
vectors or component indices, and the kind is tested once per
draw_gradients call or sampler.  exact_prox_point is the deterministic
reference solve for ground truth, never inside the stochastic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, ValidationError
from .regularizers import prox_map
from .rng import RngStream


@dataclass(frozen=True)
class CompositeProblem:
    dim: int
    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    h: object
    mu: float
    L: float
    sigma: float = 0.0
    diameter: float = math.inf
    x_star: Optional[np.ndarray] = None
    phi_star: Optional[float] = None
    kind: str = "custom"
    meta: dict = field(default_factory=dict)
    # Row-vectorized gradient, (n, dim) -> (n, dim); None means the
    # inner solver loops grad_f over the rows.
    grad_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # Canonical cold-start iterate for benchmarks (a deterministic
    # boundary point of dom h); None means start from the domain center.
    start: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if not (0.0 < self.mu <= self.L):
            raise ValidationError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")
        if self.sigma < 0.0:
            raise ValidationError(f"sigma must be nonnegative, got {self.sigma}")

    def kappa(self) -> float:
        return self.L / self.mu


@dataclass(frozen=True)
class FiniteSumOracle:
    """Sampling oracle for finite-sum problems: a uniformly drawn
    component gradient plays the role of the noisy gradient.

    draw(gen, count, dim) plans `count` component indices, the twin of
    NoiseModel.draw.  component_grad(x, idx) returns the (len(idx), dim)
    stack of the chosen component gradients at x, and
    component_grad_rows(X, idx) evaluates component idx[j] at X[j].  The
    variance bound that schedule derivation reads is the problem's sigma.
    """

    count: int
    component_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    component_grad_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"component count must be >= 1, got {self.count}")

    def draw(self, gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
        """(count,) array of uniform component indices; dim is unused."""
        return gen.integers(0, self.count, size=count)


def evaluate_phi(problem: CompositeProblem, x: np.ndarray) -> float:
    """phi(x) = f(x) + h(x); +inf outside dom h."""
    hx = problem.h.value(x)
    if hx == math.inf:
        return math.inf
    return float(problem.f(x)) + float(hx)


def shifted_value(problem: CompositeProblem, x: np.ndarray, center: np.ndarray, lam: float) -> float:
    """phi(x) + ||x - center||^2 / (2 lam), the prox-center-shifted objective."""
    base = evaluate_phi(problem, x)
    if base == math.inf:
        return math.inf
    d = np.asarray(x, float) - center
    return base + float(np.dot(d, d)) / (2.0 * lam)


def sample_gradient_batch(
    problem: CompositeProblem, noise, x: np.ndarray, count: int, stream: RngStream
) -> np.ndarray:
    """(count, dim) stack of independent unbiased gradient estimates at x.

    One call consumes exactly `count` oracle samples from `stream`.
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    if not problem.h.contains(x):
        raise DomainError("sampling point lies outside dom h")
    return draw_gradients(problem, noise, np.asarray(x, float), count, stream.generator())


def draw_gradients(
    problem: CompositeProblem, noise, x: np.ndarray, count: int, gen: np.random.Generator
) -> np.ndarray:
    """The next `count` gradient estimates at x drawn from gen, with no
    domain check.  Drawing m and then k rows from one generator gives
    the same rows as drawing m + k at once."""
    plan = noise.draw(gen, count, problem.dim)
    if isinstance(noise, FiniteSumOracle):
        return noise.component_grad(x, plan)
    plan += problem.grad_f(x)
    return plan


# Plans stream through buffers of at most this many values (1 MiB of
# float64), so a sampler's memory does not grow with the number of
# steps it plans.
PLAN_VALUES = 1 << 17


def _rows_of(grad):
    """Row-loop form of a pointwise gradient: (n, dim) -> (n, dim)."""
    return lambda X: np.array([grad(x) for x in X])


class RowSampler:
    """Gradient-sample plans for n solves advancing in lockstep.

    Row j's plan is drawn on streams[j] alone, so its values do not
    depend on how many rows run beside it.  Plans do not depend on the
    query point, so they are drawn ahead through noise.draw in chunks
    into one reused step-major buffer of shape (chunk, n, dim) for noise
    vectors, or (chunk, n) for component indices, holding at most
    PLAN_VALUES values (one step at least).  Each stream holds its own
    generator, set up once and kept between chunks, so the values are
    bit-identical to drawing all `count` steps at once, and the last
    chunk draws exactly the remainder.  sample_rows(i, X)
    returns the i-th sample of every row, evaluated row-wise at X, and
    must be called with i = 0, 1, 2, ...; chunks are drawn on the calling
    thread.  An additive problem without grad_rows is evaluated by a
    loop over the rows.
    """

    __slots__ = ("_grad_rows", "_component_rows", "_noise", "_draw", "_dim",
                 "_count", "_gens", "_start", "_stop")

    def __init__(self, problem: CompositeProblem, noise, count: int, streams):
        if count < 1:
            raise ValidationError(f"sample count must be >= 1, got {count}")
        n, dim = len(streams), problem.dim
        self._grad_rows = problem.grad_rows or _rows_of(problem.grad_f)
        # _component_rows is None exactly for additive noise.
        finite = isinstance(noise, FiniteSumOracle)
        self._component_rows = noise.component_grad_rows if finite else None
        row = () if finite else (dim,)
        chunk = max(1, min(count, PLAN_VALUES // (n * math.prod(row))))
        self._noise = np.empty((chunk, n) + row, dtype=np.int64 if finite else float)
        self._draw, self._dim = noise.draw, dim
        self._count = count
        self._gens = [s.generator() for s in streams]
        self._start = self._stop = 0
        self._advance(0)

    def _advance(self, i: int) -> None:
        """Draw the chunk that begins at step i, the step after the last one drawn."""
        if i != self._stop or i >= self._count:
            raise ValidationError(
                f"plan of {self._count} steps is read in order: step {i} requested "
                f"while steps {self._start}..{self._stop - 1} are drawn"
            )
        m = min(len(self._noise), self._count - i)
        out = self._noise[:m]
        for j, gen in enumerate(self._gens):
            out[:, j] = self._draw(gen, m, self._dim)
        self._start, self._stop = i, i + m

    def sample_rows(self, i: int, X: np.ndarray) -> np.ndarray:
        if not self._start <= i < self._stop:
            self._advance(i)
        if self._component_rows is not None:
            return self._component_rows(X, self._noise[i - self._start])
        return self._grad_rows(X) + self._noise[i - self._start]


class GradientSampler(RowSampler):
    """The one-stream RowSampler of the SGD baseline, read one vector at
    a time: sample(i, x) is the i-th planned gradient sample at x, with
    i = 0, 1, 2, ....  Query points come from prox outputs, so this path
    skips the domain check that sample_gradient_batch performs.
    """

    __slots__ = ("_grad", "_component")

    def __init__(self, problem: CompositeProblem, noise, count: int, stream: RngStream):
        super().__init__(problem, noise, count, [stream])
        self._grad = problem.grad_f
        self._component = None if self._component_rows is None else noise.component_grad

    def sample(self, i: int, x: np.ndarray) -> np.ndarray:
        """i-th planned gradient sample, evaluated at x."""
        if not self._start <= i < self._stop:
            self._advance(i)
        if self._component_rows is not None:
            return self._component(x, self._noise[i - self._start])[0]
        return self._grad(x) + self._noise[i - self._start, 0]


def minimize_composite(
    grad: Callable[[np.ndarray], np.ndarray],
    h,
    mu: float,
    L: float,
    x0: np.ndarray,
    tol: float,
    max_iter: int = 1_000_000,
) -> np.ndarray:
    """Accelerated proximal gradient for mu-strongly-convex composites.

    Constant momentum (1 - sqrt(mu/L)) / (1 + sqrt(mu/L)), step 1/L.
    Terminates when the prox-gradient fixed-point residual
    ||x - prox_map(h, x - grad(x)/L, 1/L)|| falls to tol (checked once
    the cheap momentum-point residual gets close, to avoid a second
    gradient per iteration).  Raises NumericError at max_iter.
    """
    t = 1.0 / L
    sq = math.sqrt(mu / L)
    beta = (1.0 - sq) / (1.0 + sq)
    y = np.array(x0, dtype=float)
    x_old = np.array(x0, dtype=float)
    residual = math.inf
    for _ in range(max_iter):
        x_new = prox_map(h, y - t * grad(y), t)
        if float(np.linalg.norm(x_new - y)) <= 2.0 * tol:
            residual = float(np.linalg.norm(x_new - prox_map(h, x_new - t * grad(x_new), t)))
            if residual <= tol:
                return x_new
        y = x_new + beta * (x_new - x_old)
        x_old = x_new
    raise NumericError(
        f"composite minimization stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} iterations"
    )


def exact_prox_point(
    problem: CompositeProblem, x0: np.ndarray, lam: float, tol: Optional[float] = None
) -> np.ndarray:
    """argmin_x phi(x) + ||x - x0||^2 / (2 lam), solved deterministically.

    The shifted problem has curvature (mu + 1/lam, L + 1/lam), so the
    accelerated solve contracts quickly regardless of the original
    conditioning.  Default tolerance 1e-10 * (1 + ||x0||); the returned
    point satisfies ||z - prox_map(h, z - t*g(z), t)|| <= tol with
    t = 1/(L + 1/lam) and g the shifted gradient.
    """
    if lam <= 0.0:
        raise ValidationError(f"lam must be positive, got {lam}")
    x0 = np.asarray(x0, dtype=float)
    if tol is None:
        tol = 1e-10 * (1.0 + float(np.linalg.norm(x0)))

    def shifted_grad(x):
        return problem.grad_f(x) + (x - x0) / lam

    start = prox_map(problem.h, x0, lam)
    return minimize_composite(
        shifted_grad,
        problem.h,
        problem.mu + 1.0 / lam,
        problem.L + 1.0 / lam,
        start,
        tol,
    )


def minimize_phi(problem: CompositeProblem, x0: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Deterministic minimizer of phi itself (ground-truth optima)."""
    return minimize_composite(
        problem.grad_f, problem.h, problem.mu, problem.L, np.asarray(x0, float), tol
    )

"""Composite problems  phi(x) = f(x) + h(x)  and their oracles.

f is mu-strongly convex with L-Lipschitz gradient, h is a regularizer
with a cheap prox, and dom h has finite diameter.  Stochastic access
goes through sample_gradient_batch (a batch of samples at one point)
and through GradientSampler and RowSampler, which plan the samples of
sequential solver steps in chunks of at most PLAN_VALUES values; the
noise argument is either an additive NoiseModel or a FiniteSumOracle
that samples component gradients.  exact_prox_point is the
deterministic reference solve used for ground truth, never inside the
stochastic path.
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
    # Optional row-vectorized gradient, (n, dim) -> (n, dim); enables
    # the batched candidate solver.
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

    component_grad(x, idx) returns the (len(idx), dim) stack of chosen
    component gradients at x.  sigma is the estimated variance bound at
    the initial point (brute force over the pool), consumed by schedule
    derivation exactly like a NoiseModel sigma.
    """

    count: int
    component_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma: float
    # Optional row-wise variant: component idx[j] evaluated at X[j].
    component_grad_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"component count must be >= 1, got {self.count}")


def evaluate_phi(problem: CompositeProblem, x: np.ndarray) -> float:
    """phi(x) = f(x) + h(x); +inf outside dom h."""
    hx = problem.h.value(x)
    if hx == math.inf:
        return math.inf
    return float(problem.f(x)) + hx


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
    gen = stream.generator()
    if isinstance(noise, FiniteSumOracle):
        idx = gen.integers(0, noise.count, size=count)
        return noise.component_grad(np.asarray(x, float), idx)
    g = problem.grad_f(x)
    if noise.sigma == 0.0:
        return np.tile(g, (count, 1))
    return g[None, :] + noise.draw(gen, count, problem.dim)


def sample_gradient(problem: CompositeProblem, noise, x: np.ndarray, stream: RngStream) -> np.ndarray:
    """One unbiased stochastic gradient at x."""
    return sample_gradient_batch(problem, noise, x, 1, stream)[0]


# Plans stream through buffers of at most this many values (1 MiB of
# float64), so a sampler's memory does not grow with the number of
# steps it plans.
PLAN_VALUES = 1 << 17


class _ChunkedPlan:
    """The stochastic part of `count` sequential steps on each of
    `streams`: additive noise rows, or finite-sum component indices.

    Steps are drawn in chunks into one reused step-major buffer of shape
    (chunk, len(streams), dim), or (chunk, len(streams)) for indices,
    holding at most PLAN_VALUES values (one step at least).  Each stream
    keeps its own generator between chunks, so the values are
    bit-identical to drawing all `count` steps at once, and the last
    chunk draws exactly the remainder.  Steps must be read in order
    0, 1, 2, ...; chunks are drawn on the reading thread.
    """

    __slots__ = ("buffer", "start", "stop", "_count", "_streams", "_gens", "_draw")

    def __init__(self, noise, count: int, streams, dim: int):
        n = len(streams)
        if isinstance(noise, FiniteSumOracle):
            chunk = max(1, min(count, PLAN_VALUES // n))
            self.buffer = np.empty((chunk, n), dtype=np.int64)
            self._draw = lambda gen, m: gen.integers(0, noise.count, size=m)
        else:
            chunk = max(1, min(count, PLAN_VALUES // (n * dim)))
            self.buffer = np.empty((chunk, n, dim))
            self._draw = lambda gen, m: noise.draw(gen, m, dim)
        self._count = count
        self._streams = streams
        # A one-chunk plan draws on the cheap thread-shared generator;
        # longer plans hold an independent generator per stream.
        self._gens = None if chunk == count else [s.generator(shared=False) for s in streams]
        self.start = self.stop = 0
        self.advance(0)

    def advance(self, i: int) -> None:
        """Draw the chunk that begins at step i, the step after the last one drawn."""
        if i != self.stop or i >= self._count:
            raise ValidationError(
                f"plan of {self._count} steps is read in order: step {i} requested "
                f"while steps {self.start}..{self.stop - 1} are drawn"
            )
        m = min(len(self.buffer), self._count - i)
        out = self.buffer[:m]
        for j, s in enumerate(self._streams):
            out[:, j] = self._draw(s.generator() if self._gens is None else self._gens[j], m)
        self.start, self.stop = i, i + m


class GradientSampler:
    """Plans the stochastic part of `count` sequential gradient samples
    on one substream.

    Additive noise vectors and finite-sum component indices do not
    depend on the query point, so they are drawn ahead in vectorized
    chunks (see _ChunkedPlan); that is distributionally identical to
    drawing one per step, and it pays one generator setup per solver
    run instead of one per sample.  sample(i, x) must be called with
    i = 0, 1, 2, ....  Query points come from prox outputs inside the
    solvers, so this path skips the domain check that sample_gradient
    performs.
    """

    __slots__ = ("_problem", "_noise_rows", "_indices", "_grad", "_component", "_plan", "count")

    def __init__(self, problem: CompositeProblem, noise, count: int, stream: RngStream):
        if count < 1:
            raise ValidationError(f"sample count must be >= 1, got {count}")
        self._problem = problem
        self._grad = problem.grad_f
        self.count = count
        self._noise_rows = self._indices = self._component = self._plan = None
        if isinstance(noise, FiniteSumOracle):
            self._component = noise.component_grad
            self._plan = _ChunkedPlan(noise, count, [stream], problem.dim)
            self._indices = self._plan.buffer
        elif noise.sigma != 0.0:
            self._plan = _ChunkedPlan(noise, count, [stream], problem.dim)
            self._noise_rows = self._plan.buffer

    def sample(self, i: int, x: np.ndarray) -> np.ndarray:
        """i-th planned gradient sample, evaluated at x."""
        plan = self._plan
        if plan is None:
            return self._grad(x)
        if not plan.start <= i < plan.stop:
            plan.advance(i)
        if self._indices is not None:
            return self._component(x, self._indices[i - plan.start])[0]
        return self._grad(x) + self._noise_rows[i - plan.start, 0]


def supports_rows(problem: CompositeProblem, noise) -> bool:
    """True when the batched candidate solver can run: the problem has a
    row-vectorized gradient and, for finite sums, a row-wise oracle."""
    if problem.grad_rows is None:
        return False
    if isinstance(noise, FiniteSumOracle):
        return noise.component_grad_rows is not None
    return True


class RowSampler:
    """Gradient-sample plans for n candidates advancing in lockstep.

    Candidate j's plan is drawn on streams[j] exactly as GradientSampler
    would draw it, so per-candidate values do not depend on whether the
    candidates run batched or one at a time.  Plans stream through one
    step-major buffer of at most PLAN_VALUES values (see _ChunkedPlan).
    sample_rows(i, X) returns the i-th sample of every candidate,
    evaluated row-wise at X, and must be called with i = 0, 1, 2, ....
    """

    __slots__ = ("_grad_rows", "_component_rows", "_noise", "_indices", "_plan")

    def __init__(self, problem: CompositeProblem, noise, count: int, streams):
        if not supports_rows(problem, noise):
            raise ValidationError("problem lacks row-vectorized oracles")
        self._grad_rows = problem.grad_rows
        self._component_rows = self._noise = self._indices = self._plan = None
        if isinstance(noise, FiniteSumOracle):
            self._component_rows = noise.component_grad_rows
            self._plan = _ChunkedPlan(noise, count, streams, problem.dim)
            self._indices = self._plan.buffer
        elif noise.sigma != 0.0:
            self._plan = _ChunkedPlan(noise, count, streams, problem.dim)
            self._noise = self._plan.buffer

    def sample_rows(self, i: int, X: np.ndarray) -> np.ndarray:
        plan = self._plan
        if plan is None:
            return self._grad_rows(X)
        if not plan.start <= i < plan.stop:
            plan.advance(i)
        if self._indices is not None:
            return self._component_rows(X, self._indices[i - plan.start])
        return self._grad_rows(X) + self._noise[i - plan.start]


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

"""Output checks computed apart from the program.

Ground truth is re-derived here from the instance data, with solvers
and a domain test written in this file rather than taken from
sppm.problems or sppm.regularizers.  Every check returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

DOMAIN_RTOL = 1e-9  # prox outputs sit on the boundary up to rounding
PHI_TOL = 1e-8  # own optimum vs the instance's stored phi_star
GAP_TOL = 1e-8  # own gap vs the program's gap; lowest admissible gap
MISS_ALPHA = 1e-6  # binomial upper-tail level for gap > eps misses


def expected_sppm_samples(schedule) -> int:
    """n*K*(I+1) inner draws plus n*K*q booster draws, from the fields."""
    n, K = schedule.candidates_per_iter, schedule.outer_iters
    return n * K * (schedule.inner_iters + 1) + n * K * schedule.rge_batch


def in_domain(x, spec) -> bool:
    """Finite and inside dom h of the generated instance: the ball of
    spec.radius about 0, or the box [-halfwidth, halfwidth]^dim."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,) or not np.all(np.isfinite(x)):
        return False
    if spec.kind in ("quadratic-ball", "logreg-ridge-ball"):
        return math.sqrt(float(np.sum(x * x))) <= spec.radius * (1.0 + DOMAIN_RTOL)
    if spec.kind == "ridge-l1-box":
        return float(np.max(np.abs(x))) <= spec.box_halfwidth * (1.0 + DOMAIN_RTOL)
    raise ValueError(f"no domain test for {spec.kind!r}")


def ball_quadratic_optimum(A, b, radius):
    """argmin 0.5 (x-b)'A(x-b) over ||x|| <= radius: bisect the Lagrange
    multiplier nu of x(nu) = (A + nu I)^{-1} A b on the eigenbasis."""
    lam, Q = np.linalg.eigh(np.asarray(A, float))
    c = Q.T @ np.asarray(b, float)

    def x_of(nu):
        return Q @ (lam / (lam + nu) * c)

    if np.linalg.norm(b) <= radius:
        x = np.array(b, float)
    else:
        lo, hi = 0.0, float(lam.max()) * float(np.linalg.norm(b)) / radius
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(x_of(mid)) > radius:
                lo = mid
            else:
                hi = mid
        x = x_of(hi)
    d = x - b
    return x, 0.5 * float(d @ A @ d)


def l1_box_optimum(grad, f, L, weight, halfwidth, dim, tol=1e-13, max_iter=100_000):
    """Proximal gradient with step 1/L and a prox written here; returns
    (x, phi(x), fixed-point residual ||x - prox(x - grad(x)/L)||)."""

    def prox(y):
        shrunk = np.sign(y) * np.maximum(np.abs(y) - weight / L, 0.0)
        return np.clip(shrunk, -halfwidth, halfwidth)

    x = np.zeros(dim)
    for _ in range(max_iter):
        x_new = prox(x - grad(x) / L)
        done = np.linalg.norm(x_new - x) <= tol
        x = x_new
        if done:
            break
    residual = float(np.linalg.norm(x - prox(x - grad(x) / L)))
    return x, float(f(x)) + weight * float(np.sum(np.abs(x))), residual


class Truth:
    """Own optimum and objective of one generated instance; .errors
    lists disagreements with the instance's stored phi_star."""

    def __init__(self, problem, spec):
        self.spec = spec
        self.errors = []
        meta = problem.meta
        if spec.kind == "quadratic-ball":
            self._A = np.asarray(meta["hessian"], float)
            self._b = np.asarray(meta["unconstrained_min"], float)
            _, self.phi_star = ball_quadratic_optimum(self._A, self._b, spec.radius)
        elif spec.kind == "ridge-l1-box":
            oracle = meta["oracle"]
            pool = np.arange(oracle.count)
            self._f = problem.f
            _, self.phi_star, residual = l1_box_optimum(
                lambda x: oracle.component_grad(x, pool).mean(axis=0),
                problem.f, problem.L, spec.l1_weight, spec.box_halfwidth, spec.dim,
            )
            if residual > 1e-10:
                self.errors.append(f"own l1-box solve stalled at residual {residual:.3e}")
        else:
            raise ValueError(f"no reference solve for {spec.kind!r}")
        if not (problem.phi_star is not None
                and abs(problem.phi_star - self.phi_star) <= PHI_TOL * (1.0 + abs(self.phi_star))):
            self.errors.append(f"phi_star {problem.phi_star!r} != own solve {self.phi_star!r}")

    def phi(self, x) -> float:
        x = np.asarray(x, float)
        if not in_domain(x, self.spec):
            return math.inf
        if self.spec.kind == "quadratic-ball":
            d = x - self._b
            return 0.5 * float(d @ self._A @ d)
        return float(self._f(x)) + self.spec.l1_weight * float(np.sum(np.abs(x)))

    def gap(self, x) -> float:
        return self.phi(x) - self.phi_star


def check_sppm_run(record, draws, schedule, spec, truth):
    """One SPPM trial: oracle draws counted outside the program, every
    iterate finite and in dom h, gaps admissible.  Returns
    (errors, own best_k, own best gap)."""
    errors = []
    want = expected_sppm_samples(schedule)
    if draws != want:
        errors.append(f"oracle drew {draws} samples, schedule implies {want}")
    if record.total_samples != want:
        errors.append(f"record claims {record.total_samples} samples, schedule implies {want}")
    if len(record.iterates) != schedule.outer_iters:
        errors.append(f"{len(record.iterates)} iterates for K={schedule.outer_iters}")
    gaps = []
    for k, (z, w) in enumerate(record.iterates, start=1):
        for label, x in (("z", z), ("w", w)):
            if not in_domain(x, spec):
                errors.append(f"{label}_{k} is not finite or lies outside dom h")
        gaps.append(truth.gap(w))
    if not gaps:
        return errors + ["no iterates"], 0, math.inf
    best = int(np.argmin(gaps))
    if gaps[best] < -GAP_TOL:
        errors.append(f"gap {gaps[best]!r} below -{GAP_TOL}")
    return errors, best + 1, gaps[best]


def check_trial_record(rec, own_k, own_gap, eps):
    """The harness's per-trial verdict against the own computation."""
    errors = []
    if rec.best_k != own_k:
        errors.append(f"best_k {rec.best_k} != own {own_k}")
    if not abs(rec.best_gap - own_gap) <= GAP_TOL:
        errors.append(f"best_gap {rec.best_gap!r} != own {own_gap!r}")
    if rec.failed != (own_gap > eps):
        errors.append("failed flag disagrees with own gap")
    return errors


def check_sgd_run(x, draws, budget, want, spec, truth):
    """One SGD run: exactly the budget drawn, budget equal to the SPPM
    count, final iterate finite and in dom h, gap admissible."""
    errors = []
    if budget != want:
        errors.append(f"SGD budget {budget} != SPPM sample count {want}")
    if draws != budget:
        errors.append(f"SGD drew {draws} samples for budget {budget}")
    if not in_domain(x, spec):
        errors.append("SGD iterate is not finite or lies outside dom h")
        return errors, math.inf
    gap = truth.gap(x)
    if gap < -GAP_TOL:
        errors.append(f"SGD gap {gap!r} below -{GAP_TOL}")
    return errors, gap


def check_compare_row(row, gaps, eps, samples):
    """compare_budget's summary row against the own per-trial gaps."""
    errors = []
    g = np.asarray(gaps, float)
    misses = int(np.sum(g > eps))
    if row["trials"] != g.size or row["failure_rate"] != misses / g.size:
        errors.append(f"{row['method']}: failure rate {row['failure_rate']} != own {misses}/{g.size}")
    if row["samples"] != samples:
        errors.append(f"{row['method']}: samples {row['samples']} != {samples}")
    if not abs(row["gap_p50"] - float(np.percentile(g, 50))) <= GAP_TOL:
        errors.append(f"{row['method']}: gap_p50 {row['gap_p50']!r} != own")
    return errors


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(Bin(n, p) >= k)."""
    return float(sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1)))


def check_misses(misses: int, trials: int, p: float, alpha: float = MISS_ALPHA):
    """Trials with gap > eps must be no more than Bin(trials, p) makes
    plausible at level alpha: the method's (eps, p) guarantee."""
    if trials and binomial_upper_tail(misses, trials, p) < alpha:
        return [f"{misses}/{trials} trials missed eps; P(Bin({trials},{p}) >= {misses}) < {alpha}"]
    return []


def replay_key(rec):
    """(seed, best_k, best_gap) of a TrialRecord, with the gap's exact bits."""
    return [rec.seed, rec.best_k, float(rec.best_gap).hex()]


def check_replay(got, want, label):
    """Two runs of the same trials agree bit for bit on their keys."""
    if list(got) != list(want):
        return [f"{label}: {list(got)} != {list(want)}"]
    return []


def check_index_sets(outcome, n):
    """The selected index lies in all three admissible sets, and each
    set holds more than 2n/3 indices."""
    errors = []
    for name, members in zip(("J_w", "J_z", "J_gap"), outcome.index_sets):
        members = [int(i) for i in members]
        if outcome.selected_index not in members:
            errors.append(f"selected index {outcome.selected_index} not in {name}")
        if 3 * len(members) <= 2 * n:
            errors.append(f"{name} holds {len(members)} of n={n}, not more than 2n/3")
    return errors

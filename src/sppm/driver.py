"""Outer loop, schedule derivation, and the projected-SGD baseline.

One outer iteration runs n independent inner solves from the current
prox center, boosts them to a single high-confidence pair, and moves
the center.  derive_schedule turns accuracy/confidence targets
(eps, p) into concrete parameters; the verbatim mode keeps the proof
constants (Markov factor 8, accuracy factor 12 + 57*kappa, Hoeffding
factor 72) and is honest about infeasibility, while the practical mode
swaps them for the fixed measured-not-proven factors PRACTICAL_FACTORS
(1, 1, 8) so the benchmark runs at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .booster import PbConfig, pb, q_floor, tau_from_eps
from .errors import DomainError, NumericError, ValidationError
from .problems import CompositeProblem, GradientSampler, evaluate_phi
from .pss import PssConfig, alpha_floor, epsilon_k_bound, pss_run_batch
from .regularizers import prox_map
from .rng import RngStream

I_CAP = 1_000_000

# Practical-mode replacements for (markov 8, boost 12+57k, hoeffding 72).
PRACTICAL_FACTORS = (1.0, 1.0, 8.0)


@dataclass(frozen=True)
class Schedule:
    """Complete parameterization of one run, plus feasibility verdict.

    eps_k is the mean-gap bound the inner solves actually achieve at
    (alpha, inner_iters); tau is the Markov multiple of it consumed by
    the booster's batch-size floor.  diagnostics maps constraint names
    to (required, actual) pairs; feasible means the derived eps_k meets
    the target implied by (target_eps, target_p) under this mode's
    constants.
    """

    lam: float
    alpha: float
    inner_iters: int
    candidates_per_iter: int
    rge_batch: int
    outer_iters: int
    eps_k: float
    tau: float
    target_eps: float
    target_p: float
    feasible: bool
    diagnostics: dict = field(default_factory=dict)
    mode: str = "verbatim"

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0,1), got {self.alpha}")
        for name in ("inner_iters", "candidates_per_iter", "rge_batch", "outer_iters"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in ("verbatim", "practical"):
            raise ValidationError(f"mode must be verbatim or practical, got {self.mode!r}")


def total_samples(schedule: Schedule) -> int:
    """Oracle draws of one full run: n*K*(I+1) inner + n*K*q booster."""
    n, K = schedule.candidates_per_iter, schedule.outer_iters
    return n * K * (schedule.inner_iters + 1) + n * K * schedule.rge_batch


def _smallest_feasible_inner(predicate, cap: int) -> Optional[int]:
    """Doubling then binary search for the smallest I in [1, cap] with
    predicate(I) true; None if the doubling pass never succeeds."""
    probe = 1
    prev = 0
    while probe <= cap:
        if predicate(probe):
            lo, hi = prev + 1, probe
            while lo < hi:
                mid = (lo + hi) // 2
                if predicate(mid):
                    hi = mid
                else:
                    lo = mid + 1
            return lo
        prev = probe
        probe *= 2
    if prev < cap and predicate(cap):
        return cap
    return None


def derive_schedule(
    mu: float,
    L: float,
    sigma: float,
    D: float,
    target_eps: float,
    target_p: float,
    overrides: Optional[dict] = None,
    mode: str = "verbatim",
) -> Schedule:
    """Fill a Schedule from targets; overrides pin individual fields and
    the dependent quantities are recomputed around them.

    Infeasibility (no inner-iteration count meets the per-call target;
    the bias term has a floor of about 0.135*(sigma*D + L*D^2/2) once
    alpha sits at its own floor) is reported through feasible=False and
    diagnostics, never an exception.
    """
    for name, value in (("mu", mu), ("L", L), ("sigma", sigma), ("D", D), ("target_eps", target_eps)):
        if not math.isfinite(value):
            bounded = " (dom h must be bounded)" if name == "D" else ""
            raise ValidationError(f"{name} must be finite{bounded}, got {value}")
    if min(mu, L, D) <= 0.0 or sigma < 0.0:
        raise ValidationError("need mu, L, D > 0 and sigma >= 0")
    if L <= mu:
        raise ValidationError(f"need L > mu, got mu={mu}, L={L}")
    if target_eps <= 0.0 or not (0.0 < target_p < 1.0):
        raise ValidationError("need target_eps > 0 and target_p in (0,1)")
    if mode not in ("verbatim", "practical"):
        raise ValidationError(f"unknown mode {mode!r}")
    ov = dict(overrides or {})
    unknown = set(ov) - {
        "lam", "alpha", "inner_iters", "candidates_per_iter", "rge_batch", "outer_iters",
    }
    if unknown:
        raise ValidationError(f"unknown override fields: {sorted(unknown)}")

    kappa = L / mu
    if mode == "verbatim":
        markov_c, boost_c, hoeff_c = 8.0, 12.0 + 57.0 * kappa, 72.0
    else:
        markov_c, boost_c, hoeff_c = PRACTICAL_FACTORS

    lam = float(ov.get("lam", 3.0 / mu))
    eps_dist = eps_stat = target_eps / 2.0
    K = int(ov.get(
        "outer_iters",
        max(1, math.ceil(math.log1p(D * D / (7.0 * lam * eps_dist)) / math.log(8.0 / 7.0))),
    ))
    tau_target = eps_stat / boost_c
    per_call_target = tau_target / markov_c

    def meets_target(I):
        a = alpha_floor(I, lam, L)
        return epsilon_k_bound(a, I, lam, sigma, D, L) <= per_call_target

    diagnostics = {}
    if "inner_iters" in ov:
        I = int(ov["inner_iters"])
    else:
        found = _smallest_feasible_inner(meets_target, I_CAP)
        if found is not None:
            I = found
        else:
            # Best effort: at the alpha floor the iterate chain keeps a
            # stationary variance of order (1 + lam*L/2) * lam*sigma^2/I
            # (the prox step amplifies averaged-gradient noise by lam
            # against curvature L), so size I to put that at the
            # per-call target.  feasible stays False regardless.
            if sigma > 0.0 and per_call_target > 0.0:
                amplified = lam * sigma * sigma * (1.0 + 0.5 * lam * L)
                I = int(min(I_CAP, max(8, math.ceil(amplified / per_call_target))))
            else:
                I = 8
    alpha = float(ov.get("alpha", alpha_floor(I, lam, L)))
    eps_k = epsilon_k_bound(alpha, I, lam, sigma, D, L)
    tau = tau_from_eps(eps_k, markov_c)
    q = int(ov.get("rge_batch", q_floor(lam, mu, sigma, L, tau)))
    n = int(ov.get("candidates_per_iter", math.ceil(hoeff_c * math.log(2.0 * K / target_p))))
    n = max(1, n)

    feasible = eps_k <= per_call_target
    diagnostics["per_call_bound"] = (per_call_target, eps_k)
    if not feasible:
        bias_floor = math.exp(-2.0) * (sigma * D + 0.5 * L * D * D)
        if bias_floor > per_call_target:
            diagnostics["bias floor exceeded"] = (per_call_target, bias_floor)

    # Hard invariants; violating overrides are caller errors.
    floor = alpha_floor(I, lam, L)
    if lam * mu < 3.0 - 1e-12:
        raise ValidationError(f"lam*mu must be >= 3, got {lam * mu}")
    if alpha < floor - 1e-12:
        raise ValidationError(f"alpha={alpha:.6g} below floor {floor:.6g}")
    if q < q_floor(lam, mu, sigma, L, tau):
        raise ValidationError(f"rge_batch={q} below floor {q_floor(lam, mu, sigma, L, tau)}")

    return Schedule(
        lam=lam,
        alpha=alpha,
        inner_iters=I,
        candidates_per_iter=n,
        rge_batch=q,
        outer_iters=K,
        eps_k=eps_k,
        tau=tau,
        target_eps=target_eps,
        target_p=target_p,
        feasible=feasible,
        diagnostics=diagnostics,
        mode=mode,
    )


@dataclass(frozen=True)
class RunRecord:
    """Everything one run produced: (z_k, w_k) per outer iteration,
    sample counts, and the schedule that generated it."""

    iterates: tuple
    per_iter_samples: tuple
    total_samples: int
    master_seed: int
    schedule: Schedule


def sppm_run(
    problem: CompositeProblem,
    noise,
    schedule: Schedule,
    z0: np.ndarray,
    stream: RngStream,
) -> RunRecord:
    """Run K outer iterations from z0; returns the full iterate record.

    Candidate solves inside an iteration are independent, each on its
    own substream ("pss", j), and all n advance as the rows of one
    pss_run_batch recursion.  A non-finite z or w from the inner solves
    raises NumericError naming the outer step and the first bad
    candidate.  On failure the partial record is attached to the
    exception as exc.partial_record.
    """
    z0 = np.asarray(z0, dtype=float)
    if not problem.h.contains(z0):
        raise DomainError("z0 lies outside dom h")
    n = schedule.candidates_per_iter
    iterates = []
    per_iter = []

    def record():
        return RunRecord(
            iterates=tuple(iterates),
            per_iter_samples=tuple(per_iter),
            total_samples=sum(per_iter),
            master_seed=stream.master_seed,
            schedule=schedule,
        )

    z = z0
    try:
        for k in range(1, schedule.outer_iters + 1):
            k_stream = stream.child("outer", k)
            cfg = PssConfig(x0=z, alpha=schedule.alpha, lam=schedule.lam, inner_iters=schedule.inner_iters)
            pairs = pss_run_batch(problem, noise, cfg, [k_stream.child("pss", j) for j in range(n)])
            finite = np.isfinite(np.array([p.z for p in pairs] + [p.w for p in pairs])).all(axis=1)
            if not finite.all():
                bad = int(np.argmin(finite[:n] & finite[n:]))
                raise NumericError(f"outer step {k}: candidate {bad} produced a non-finite iterate")
            outcome = pb(
                pairs,
                PbConfig(q=schedule.rge_batch, lam=schedule.lam, n=n, z_bar=z),
                problem,
                noise,
                k_stream.child("pb"),
            )
            z = outcome.selected.z
            iterates.append((np.array(z), np.array(outcome.selected.w)))
            per_iter.append(n * (schedule.inner_iters + 1) + outcome.samples_used)
    except Exception as exc:
        exc.partial_record = record()
        raise
    return record()


def select_best(problem: CompositeProblem, record: RunRecord):
    """(k*, w*) minimizing the exact objective over the averaged
    iterates; 1-based index, smallest on ties."""
    if not record.iterates:
        raise ValidationError("empty run record")
    values = [evaluate_phi(problem, w) for _, w in record.iterates]
    k = int(np.argmin(values))
    return k + 1, np.array(record.iterates[k][1])


def sgd_baseline(
    problem: CompositeProblem,
    noise,
    x0: np.ndarray,
    budget: int,
    stream: RngStream,
) -> np.ndarray:
    """Projected stochastic proximal-gradient with steps 1/(mu*(t+1));
    consumes exactly `budget` samples and returns the final iterate.

    Noise is planned in chunks of 8192 steps on substreams
    ("sgd-chunk", c), which keeps replay determinism while paying for
    one generator setup per chunk.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    x = np.asarray(x0, dtype=float)
    if not problem.h.contains(x):
        raise DomainError("x0 lies outside dom h")
    chunk = 8192
    t = 0
    for c in range(math.ceil(budget / chunk)):
        count = min(chunk, budget - c * chunk)
        sampler = GradientSampler(problem, noise, count, stream.child("sgd-chunk", c))
        for i in range(count):
            s = sampler.sample(i, x)
            step = 1.0 / (problem.mu * (t + 1))
            x = prox_map(problem.h, x - step * s, step)
            t += 1
    return x

"""Property suites behind `sppm verify` and the acceptance tests.

Each check returns (passed, details) and runs on fixed seeds, so a
suite is a deterministic function of the build.  Monte Carlo checks
compare empirical frequencies against the theoretical bounds with the
stated margins; the planted checks construct inputs where the guarded
quantity is known by construction, which is what makes a violation
detectable rather than vacuously absent.
"""

from __future__ import annotations

import json
import math
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from .booster import PbConfig, pb, q_floor, tau_from_eps
from .config import ProblemSpec
from .generate import generate_problem
from .noise import FAMILIES, NoiseModel
from .problems import (
    CompositeProblem,
    evaluate_phi,
    exact_prox_point,
    sample_gradient_batch,
    shifted_value,
)
from .pss import PssConfig, alpha_floor, epsilon_k_bound, pss_run_batch
from .regularizers import Box, L1, L1Box, L2Ball, Zero, prox_map
from .rng import RngStream
from .selection import bregman_dh, dh_potentials, rge, sts

# Reference setup: quadratic over a ball, d = 10, mu = 1, L = 4,
# domain diameter 1, prox stepsize 3, unit noise.
REF_SPEC = ProblemSpec(
    kind="quadratic-ball", dim=10, mu=1.0, L=4.0, radius=0.5, instance_seed=20260819
)
REF_LAM = 3.0
REF_SIGMA = 1.0


class CountingNoise:
    """Wraps an additive noise model, counting the oracle draws made
    through it in `draws`."""

    def __init__(self, inner: NoiseModel):
        self.inner = inner
        self.draws = 0

    def draw(self, gen, count, dim):
        self.draws += count
        return self.inner.draw(gen, count, dim)


@lru_cache(maxsize=None)
def reference_problem():
    return generate_problem(REF_SPEC)


@lru_cache(maxsize=None)
def reference_prox():
    """(center, z_hat, phi_lam_hat): the reference domain center, its
    exact prox point at REF_LAM, and the shifted objective there."""
    problem = reference_problem()
    center = problem.h.center
    z_hat = exact_prox_point(problem, center, REF_LAM, tol=1e-12)
    return center, z_hat, shifted_value(problem, z_hat, center, REF_LAM)


def _gaussian(sigma=REF_SIGMA):
    return NoiseModel(family="gaussian", sigma=sigma)


def pair_event_lhs(problem, center, lam, z_hat, phi_lam_hat, z, w) -> float:
    """Left side of the per-pair guarantee: shifted-objective gap of w
    plus the weighted squared distance of z from the exact prox point."""
    coeff = (1.0 + lam * problem.mu) / (lam * (2.0 + lam * problem.mu))
    gap = shifted_value(problem, w, center, lam) - phi_lam_hat
    return gap + coeff * float(np.sum((z_hat - z) ** 2))


def _interior(problem, gen, scale=1.0):
    """Random point of dom h (reference ball), uniform-ish."""
    h = problem.h
    u = gen.standard_normal(problem.dim)
    u /= np.linalg.norm(u)
    r = h.radius * scale * gen.uniform() ** (1.0 / problem.dim)
    return h.center + r * u


# ----------------------------------------------------------------- core

def check_prox_optimality(probes: int = 100):
    """Prox outputs beat random domain probes on the prox objective."""
    gen = RngStream(101).child("prox").generator()
    d = 6
    regs = [
        Zero(),
        L2Ball(center=gen.standard_normal(d), radius=1.5),
        Box.symmetric(0.8, d),
        L1(weight=0.3),
        L1Box(weight=0.3, box=Box.symmetric(0.8, d)),
    ]
    worst = 0.0
    for h in regs:
        for _ in range(probes):
            y = 3.0 * gen.standard_normal(d)
            t = 10.0 ** gen.uniform(-2, 1)
            x = prox_map(h, y, t)
            if not h.contains(x):
                return False, f"prox output escaped dom h for {type(h).__name__}"
            fx = h.value(x) + float(np.sum((x - y) ** 2)) / (2 * t)
            u = h.prox(2.0 * gen.standard_normal(d), 1.0)  # arbitrary feasible probe
            fu = h.value(u) + float(np.sum((u - y) ** 2)) / (2 * t)
            tol = 1e-10 * (1.0 + float(np.linalg.norm(y)))
            worst = max(worst, fx - fu)
            if fx > fu + tol:
                return False, f"prox suboptimal by {fx - fu:.3e} for {type(h).__name__}"
    return True, f"5 regularizers x {probes} probes, worst slack {worst:.2e}"


def check_curvature(pairs: int = 1000):
    """mu/2 d^2 <= Bregman gap of f <= L/2 d^2 on random domain pairs,
    for all three generated problem kinds."""
    specs = [
        REF_SPEC,
        ProblemSpec(kind="ridge-l1-box", dim=8, mu=0.5, L=3.0, box_halfwidth=1.0,
                    instance_seed=7, components=64),
        ProblemSpec(kind="logreg-ridge-ball", dim=6, mu=0.25, L=2.0, radius=2.0,
                    instance_seed=11, components=80),
    ]
    gen = RngStream(102).child("curv").generator()
    for spec in specs:
        problem = generate_problem(spec)
        for _ in range(pairs):
            x = problem.h.prox(4.0 * gen.standard_normal(spec.dim), 1.0)
            y = problem.h.prox(4.0 * gen.standard_normal(spec.dim), 1.0)
            dd = float(np.sum((y - x) ** 2))
            gap = problem.f(y) - problem.f(x) - float(np.dot(problem.grad_f(x), y - x))
            if gap < 0.5 * problem.mu * dd - 1e-9 or gap > 0.5 * problem.L * dd + 1e-9:
                return False, (
                    f"curvature violated on {spec.kind}: gap={gap:.6e}, "
                    f"bounds=({0.5*problem.mu*dd:.6e}, {0.5*problem.L*dd:.6e})"
                )
    return True, f"3 kinds x {pairs} pairs inside [mu/2, L/2] envelope"


def check_prox_point_closed_form(instances: int = 100):
    """exact_prox_point vs the linear-algebra solution on unconstrained
    quadratics: (A + I/lam)^-1 (A b + x0/lam)."""
    gen = RngStream(103).child("quad").generator()
    worst = 0.0
    for _ in range(instances):
        d = int(gen.integers(2, 9))
        q, r = np.linalg.qr(gen.standard_normal((d, d)))
        q *= np.sign(np.diag(r))
        mu = 10.0 ** gen.uniform(-1, 0)
        L = mu * 10.0 ** gen.uniform(0.1, 1.2)
        eigs = np.concatenate(([mu, L], gen.uniform(mu, L, size=d - 2)))
        A = (q * eigs) @ q.T
        A = 0.5 * (A + A.T)
        b = gen.standard_normal(d)
        x0 = gen.standard_normal(d)
        lam = 10.0 ** gen.uniform(-0.5, 1.0)
        problem = CompositeProblem(
            dim=d,
            f=lambda x, A=A, b=b: 0.5 * float((x - b) @ A @ (x - b)),
            grad_f=lambda x, A=A, b=b: A @ (x - b),
            h=Zero(),
            mu=mu,
            L=L,
        )
        z = exact_prox_point(problem, x0, lam)
        closed = np.linalg.solve(A + np.eye(d) / lam, A @ b + x0 / lam)
        worst = max(worst, float(np.linalg.norm(z - closed)))
    return worst <= 1e-8, f"{instances} quadratics, worst deviation {worst:.2e}"


def _t3_cdf(t: np.ndarray) -> np.ndarray:
    """CDF of Student's t with 3 degrees of freedom (closed form)."""
    u = t / math.sqrt(3.0)
    return 0.5 + (np.arctan(u) + u / (1.0 + u * u)) / math.pi


def check_noise_calibration(draws: int = 100_000):
    """Each family's law, by a test whose false-failure probability is
    stated, and the mean within the 5 sigma / sqrt(N) band.

    student_t (nu = 3) has no fourth moment, so its sample second moment
    has unbounded variance: its coordinates, divided by the documented
    scale, must lie within the DKW threshold sqrt(ln(2/delta) / (2M)) of
    the t(3) CDF in Kolmogorov-Smirnov distance, which a correct sampler
    exceeds with probability at most delta.  The other families hold
    the empirical E||xi||^2 within 10% of sigma^2, which Chebyshev on
    the known fourth moment bounds by (E||xi||^4 / sigma^4 - 1) / (0.01 N).
    """
    d = 10
    sigma = 1.3
    delta = 1e-6
    details = []
    for family in FAMILIES:
        model = NoiseModel(family=family, sigma=sigma)
        gen = RngStream(104).child(family).generator()
        xi = model.draw(gen, draws, d)
        if family == "student_t":
            t = np.sort(xi, axis=None) / (sigma * math.sqrt((model.nu - 2.0) / (model.nu * d)))
            cdf = _t3_cdf(t)
            steps = np.arange(t.size + 1) / t.size
            ks = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
            bound = math.sqrt(math.log(2.0 / delta) / (2.0 * t.size))
            if ks > bound:
                return False, f"student_t: KS distance {ks:.4f} to t(3) > {bound:.4f}"
            details.append(f"student_t KS {ks:.4f} <= {bound:.4f} (false fail <= {delta:.1e})")
        else:
            second = float(np.mean(np.sum(xi * xi, axis=1)))
            if abs(second - sigma * sigma) > 0.1 * sigma * sigma:
                return False, f"{family}: E||xi||^2 = {second:.4f} vs sigma^2 = {sigma*sigma:.4f}"
            # E||xi||^4 / sigma^4: chi^2_d / d for gaussian; ||xi|| = sigma for the others
            fourth = (d + 2) / d if family == "gaussian" else 1.0
            details.append(f"{family} E||xi||^2/sigma^2 {second/sigma**2:.3f} "
                           f"(false fail <= {(fourth - 1.0) / (0.01 * draws):.1e})")
        mean_norm = float(np.linalg.norm(xi.mean(axis=0)))
        if mean_norm > 5.0 * sigma / math.sqrt(draws):
            return False, f"{family}: mean norm {mean_norm:.2e} outside band"
    return True, "; ".join(details)


def check_replay_determinism():
    """Stochastic operations repeated on the same stream are bit-identical."""
    problem = reference_problem()
    noise = _gaussian()
    stream = RngStream(105).child("replay")
    a = sample_gradient_batch(problem, noise, problem.h.center, 7, stream.child("g"))
    b = sample_gradient_batch(problem, noise, problem.h.center, 7, stream.child("g"))
    if not np.array_equal(a, b):
        return False, "sample_gradient_batch differs across replays"
    cfg = PssConfig(x0=problem.h.center, alpha=alpha_floor(10, REF_LAM, problem.L),
                    lam=REF_LAM, inner_iters=10)
    p1 = pss_run_batch(problem, noise, cfg, [stream.child("pss")])
    p2 = pss_run_batch(problem, noise, cfg, [stream.child("pss")])
    if not all(np.array_equal(a, b) for a, b in zip(p1, p2)):
        return False, "pss_run_batch differs across replays"
    g1 = rge(problem, noise, problem.h.center, 5, 3, stream.child("rge"))
    g2 = rge(problem, noise, problem.h.center, 5, 3, stream.child("rge"))
    if not np.array_equal(g1, g2):
        return False, "rge differs across replays"
    Z, W = pss_run_batch(problem, noise, cfg, [stream.child("cand", j) for j in range(5)])
    pcfg = PbConfig(q=3, lam=REF_LAM, z_bar=problem.h.center)
    o1 = pb(Z, W, pcfg, problem, noise, stream.child("pb"))
    o2 = pb(Z, W, pcfg, problem, noise, stream.child("pb"))
    same = o1.selected_index == o2.selected_index and np.array_equal(o1.selected[1], o2.selected[1])
    return same, "batch draws, inner solves, rge, and pb all replay bit-identically"


# ------------------------------------------------------------------ pss

def _unit_quadratic():
    """f(x) = x^2 / 2 on the real line, h = 0: the hand-checked pss setting."""
    return CompositeProblem(
        dim=1, f=lambda x: 0.5 * float(x @ x), grad_f=lambda x: np.array(x), h=Zero(),
        mu=1.0, L=1.0,
    )


def check_pss_hand_example():
    """1-D noiseless quadratic, alpha = 2/3, I = 2: z = 4/9, w = 2/9."""
    cfg = PssConfig(x0=np.array([1.0]), alpha=2.0 / 3.0, lam=1.0, inner_iters=2)
    noise = NoiseModel(family="gaussian", sigma=0.0)
    (z,), (w,) = pss_run_batch(_unit_quadratic(), noise, cfg, [RngStream(0)])
    ok = abs(z[0] - 4.0 / 9.0) < 1e-12 and abs(w[0] - 2.0 / 9.0) < 1e-12
    return ok, f"z = {z[0]:.12f} (want 4/9), w = {w[0]:.12f} (want 2/9)"


def check_pss_long_run():
    """Same setting at I = 500 converges to the prox point 0.5."""
    cfg = PssConfig(x0=np.array([1.0]), alpha=2.0 / 3.0, lam=1.0, inner_iters=500,
                    validated=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        Z, _ = pss_run_batch(_unit_quadratic(), NoiseModel(family="gaussian", sigma=0.0), cfg, [RngStream(0)])
    err = abs(Z[0, 0] - 0.5)
    return err <= 1e-3, f"|z - 0.5| = {err:.2e}"


def check_pss_accounting(I: int = 37):
    problem = reference_problem()
    noise = CountingNoise(_gaussian())
    cfg = PssConfig(x0=problem.h.center, alpha=alpha_floor(I, REF_LAM, problem.L),
                    lam=REF_LAM, inner_iters=I)
    pss_run_batch(problem, noise, cfg, [RngStream(106).child("acct")])
    ok = noise.draws == I + 1
    return ok, f"counted {noise.draws} draws for I = {I} (want {I + 1})"


def check_pss_anchoring(I: int = 30, probes: int = 20):
    """Each inner iterate solves its anchored subproblem: it beats
    random feasible probes on  h(x) + <S, x> + ||x - x0||^2 / (2 lam)."""
    problem = reference_problem()
    steps = []
    cfg = PssConfig(x0=problem.h.center, alpha=alpha_floor(I, REF_LAM, problem.L),
                    lam=REF_LAM, inner_iters=I)
    pss_run_batch(problem, _gaussian(), cfg, [RngStream(107).child("anchor")],
                  observer=lambda i, G, S, X, Y: steps.append((np.array(S[0]), np.array(X[0]))))
    gen = RngStream(107).child("probe").generator()
    x0 = cfg.x0
    worst = 0.0
    for S, x in steps:
        base = problem.h.value(x) + float(S @ x) + float(np.sum((x - x0) ** 2)) / (2 * REF_LAM)
        for _ in range(probes):
            u = _interior(problem, gen)
            val = problem.h.value(u) + float(S @ u) + float(np.sum((u - x0) ** 2)) / (2 * REF_LAM)
            worst = max(worst, base - val)
            if base > val + 1e-10:
                return False, f"inner iterate suboptimal by {base - val:.3e}"
    return True, f"{len(steps)} iterates x {probes} probes, worst slack {worst:.2e}"


def check_pss_membership(I: int = 40):
    """The averaged iterate is the documented convex combination of the
    inner iterates, hence lives in dom h."""
    problem = reference_problem()
    xs = []
    cfg = PssConfig(x0=problem.h.center, alpha=alpha_floor(I, REF_LAM, problem.L),
                    lam=REF_LAM, inner_iters=I)
    _, (w,) = pss_run_batch(problem, _gaussian(), cfg, [RngStream(108).child("member")],
                            observer=lambda i, G, S, X, Y: xs.append(np.array(X[0])))
    a = cfg.alpha
    coeffs = np.array([a ** (len(xs) - 1)] + [(1 - a) * a ** (len(xs) - i) for i in range(2, len(xs) + 1)])
    rebuilt = coeffs @ np.stack(xs)
    ok = (
        abs(coeffs.sum() - 1.0) < 1e-12
        and float(np.linalg.norm(rebuilt - w)) < 1e-10
        and problem.h.contains(w)
    )
    return ok, f"coefficients sum to 1, reconstruction error {float(np.linalg.norm(rebuilt - w)):.2e}"


def check_pss_gap_nonnegative(runs: int = 200, I: int = 25):
    """Shifted-objective gap of w against the exact prox point is never
    meaningfully negative."""
    problem = reference_problem()
    noise = _gaussian()
    center, _, base = reference_prox()
    cfg = PssConfig(x0=center, alpha=alpha_floor(I, REF_LAM, problem.L), lam=REF_LAM,
                    inner_iters=I)
    worst = math.inf
    _, W = pss_run_batch(problem, noise, cfg, [RngStream(109).child("gap", t) for t in range(runs)])
    for t, w in enumerate(W):
        worst = min(worst, shifted_value(problem, w, center, REF_LAM) - base)
        if worst < -1e-8:
            return False, f"negative gap {worst:.3e} at run {t}"
    return True, f"{runs} runs, smallest gap {worst:.3e}"


def mean_gap_stats(I: int, runs: int, seed: int = 110):
    """(mean, standard error, bound) of the shifted gap at inner count I."""
    problem = reference_problem()
    noise = _gaussian()
    center, _, base = reference_prox()
    a = alpha_floor(I, REF_LAM, problem.L)
    cfg = PssConfig(x0=center, alpha=a, lam=REF_LAM, inner_iters=I)
    _, W = pss_run_batch(problem, noise, cfg, [RngStream(seed).child(f"gap{I}", t) for t in range(runs)])
    gaps = np.array([shifted_value(problem, w, center, REF_LAM) - base for w in W])
    bound = epsilon_k_bound(a, I, REF_LAM, REF_SIGMA, problem.diameter, problem.L)
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(runs)), bound


def check_pss_mean_bound(runs: int = 1000, inner_counts=(25, 50, 100, 200)):
    """Sample mean of the shifted gap is within its bound at every I and
    non-increasing in I (within 2 joint standard errors)."""
    rows = [mean_gap_stats(I, runs) for I in inner_counts]
    for I, (mean, se, bound) in zip(inner_counts, rows):
        if mean > bound + 3.0 * se:
            return False, f"I={I}: mean {mean:.4f} > bound {bound:.4f} + 3 SE"
    for (i_lo, lo), (i_hi, hi) in zip(zip(inner_counts, rows), zip(inner_counts[1:], rows[1:])):
        slack = 2.0 * math.hypot(lo[1], hi[1])
        if hi[0] > lo[0] + slack:
            return False, f"mean gap rose from I={i_lo} ({lo[0]:.4f}) to I={i_hi} ({hi[0]:.4f})"
    detail = "; ".join(
        f"I={I}: {m:.4f} (bound {b:.3f})" for I, (m, s, b) in zip(inner_counts, rows)
    )
    return True, detail


# ------------------------------------------------------------------ sts

def check_sts_examples():
    scalars = np.array([0.0, 1.0, 2.0, 100.0])
    j = sts(scalars)
    if j.tolist() != [0, 1, 2]:
        return False, f"scalar example selected {j.tolist()}"
    same = np.zeros((7, 3))
    if list(sts(same)) != list(range(7)):
        return False, "identical points should all be admissible"
    if list(sts(np.array([[3.0, 1.0]]))) != [0]:
        return False, "singleton should be admissible"
    return True, "worked example, identical-points, and singleton cases agree"


def check_sts_cardinality(rounds: int = 200):
    gen = RngStream(111).child("card").generator()
    for t in range(rounds):
        n = int(gen.integers(1, 60))
        d = int(gen.integers(1, 6))
        pts = gen.standard_normal((n, d)) * 10.0 ** gen.uniform(-2, 2)
        j = sts(pts)
        m = (2 * n) // 3 + 1
        if len(j) < m:
            return False, f"round {t}: |J| = {len(j)} < m = {m} at n = {n}"
    return True, f"{rounds} random sets kept at least floor(2n/3)+1 indices"


def planted_cluster(gen, n: int, outliers: int, d: int = 5):
    """n points with n - outliers inside an eps-ball of a hidden target
    and the rest ~1e6 away; returns (points, target, eps)."""
    eps = 10.0 ** gen.uniform(-3, -0.5)
    target = gen.uniform(-5, 5, size=d)
    pts = np.empty((n, d))
    for i in range(n):
        u = gen.standard_normal(d)
        u /= np.linalg.norm(u)
        if i < n - outliers:
            pts[i] = target + eps * gen.uniform() ** (1.0 / d) * u
        else:
            pts[i] = target + 1e6 * (1.0 + gen.uniform()) * u
    perm = gen.permutation(n)
    return pts[perm], target, eps


def check_sts_planted(configs: int = 200, n: int = 30):
    """Every admissible index lies within 3 eps of the hidden target,
    for up to 9 planted far outliers."""
    gen = RngStream(112).child("plant").generator()
    for t in range(configs):
        outliers = t % 10
        pts, target, eps = planted_cluster(gen, n, outliers)
        for j in sts(pts):
            dist = float(np.linalg.norm(pts[j] - target))
            if dist > 3.0 * eps:
                return False, f"config {t}: selected point at {dist:.3e} > 3 eps = {3*eps:.3e}"
    return True, f"{configs} planted configs, zero selections beyond 3 eps"


def check_sts_ties():
    """Equidistant points tie at the threshold and all stay admissible."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    j = sts(pts)
    return j.tolist() == [0, 1, 2], f"equilateral triangle selected {j.tolist()}"


# ------------------------------------------------------------------ rge

def check_rge_noiseless():
    problem = reference_problem()
    x = problem.h.center + 0.1
    out = rge(problem, NoiseModel(family="gaussian", sigma=0.0), x, 9, 4, RngStream(113))
    ok = np.allclose(out, problem.grad_f(x), rtol=0, atol=0)
    return ok, "sigma = 0 returns the exact gradient"


def check_rge_degenerate():
    problem = reference_problem()
    noise = CountingNoise(_gaussian())
    x = problem.h.center
    stream = RngStream(114).child("deg")
    out = rge(problem, noise, x, 1, 1, stream)
    ok = noise.draws == 1 and np.array_equal(out, sample_gradient_batch(problem, noise, x, 1, stream)[0])
    return ok, "n = q = 1 draws once and returns that sample, the first draw on its stream"


def check_rge_accounting(n: int = 12, q: int = 5):
    problem = reference_problem()
    noise = CountingNoise(_gaussian())
    rge(problem, noise, problem.h.center, n, q, RngStream(115))
    return noise.draws == n * q, f"counted {noise.draws} draws (want {n * q})"


def check_rge_concentration(trials: int = 2000, n: int = 144, q: int = 16, delta: float = 0.5):
    """Frequency of ||estimate - gradient|| > 3 delta stays below
    exp(-n/72), with q at the 4 sigma^2 / delta^2 floor."""
    problem = reference_problem()
    noise = _gaussian()
    x = problem.h.center
    g = problem.grad_f(x)
    bad = 0
    for t in range(trials):
        out = rge(problem, noise, x, n, q, RngStream(116).child("conc", t))
        if float(np.linalg.norm(out - g)) > 3.0 * delta:
            bad += 1
    rate = bad / trials
    bound = math.exp(-n / 72.0)
    return rate <= bound, f"violation rate {rate:.4f} vs bound {bound:.4f}"


# ------------------------------------------------------------------- pb

def check_pb_identical_pairs():
    problem = reference_problem()
    point = problem.h.center + 0.05
    P = np.tile(point, (6, 1))
    cfg = PbConfig(q=2, lam=REF_LAM, z_bar=problem.h.center)
    out = pb(P, P, cfg, problem, _gaussian(), RngStream(117))
    full = all(len(js) == 6 for js in out.index_sets)
    ok = full and np.array_equal(out.selected[1], point)
    return ok, "identical pairs give full index sets and the common point"


def check_pb_noiseless_outlier():
    """Three candidates at the exact prox point, one far away: the far
    one is excluded by every pass (unconstrained problem, sigma = 0)."""
    d = 4
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    problem = CompositeProblem(
        dim=d,
        f=lambda x: 0.5 * float(x @ A @ x),
        grad_f=lambda x: A @ x,
        h=Zero(),
        mu=1.0,
        L=4.0,
    )
    center = np.ones(d)
    z_hat = exact_prox_point(problem, center, REF_LAM, tol=1e-12)
    far = z_hat + 10.0 * np.array([1.0, 0, 0, 0])
    P = np.stack([z_hat, z_hat, z_hat, far])
    cfg = PbConfig(q=1, lam=REF_LAM, z_bar=center)
    out = pb(P, P, cfg, problem, NoiseModel(family="gaussian", sigma=0.0), RngStream(118))
    ok = out.selected_index in (0, 1, 2) and all(3 not in js for js in out.index_sets)
    return ok, f"selected index {out.selected_index}; outlier excluded from all passes"


def check_pb_structure(n: int = 30, q: int = 3):
    problem = reference_problem()
    noise = CountingNoise(_gaussian())
    center = problem.h.center
    cfg = PssConfig(x0=center, alpha=alpha_floor(20, REF_LAM, problem.L), lam=REF_LAM,
                    inner_iters=20)
    stream = RngStream(119).child("struct")
    Z, W = pss_run_batch(problem, _gaussian(), cfg, [stream.child("pss", j) for j in range(n)])
    out = pb(Z, W, PbConfig(q=q, lam=REF_LAM, z_bar=center), problem, noise, stream.child("pb"))
    sizes = [len(js) for js in out.index_sets]
    ok = (
        all(size > 2 * n / 3 for size in sizes)
        and all(out.selected_index in js for js in out.index_sets)
        and out.samples_used == n * q
        and noise.draws == n * q
    )
    return ok, f"index-set sizes {sizes}, samples {noise.draws} (want {n * q})"


def check_shifted_two_sided_bound(points: int = 1000):
    """(1+lam mu)/(2 lam) d^2 + D_h <= shifted gap <= (1+lam L)/(2 lam) d^2 + D_h."""
    problem = reference_problem()
    gen = RngStream(120).child("a3").generator()
    center, z_hat, base = reference_prox()
    g = problem.grad_f(z_hat) + (z_hat - center) / REF_LAM
    lo_c = (1.0 + REF_LAM * problem.mu) / (2.0 * REF_LAM)
    hi_c = (1.0 + REF_LAM * problem.L) / (2.0 * REF_LAM)
    for _ in range(points):
        x = _interior(problem, gen)
        dd = float(np.sum((x - z_hat) ** 2))
        breg = bregman_dh(problem.h, x, z_hat, g)
        gap = shifted_value(problem, x, center, REF_LAM) - base
        if gap < lo_c * dd + breg - 1e-9 or gap > hi_c * dd + breg + 1e-9:
            return False, f"two-sided bound violated: gap {gap:.6e} vs [{lo_c*dd+breg:.6e}, {hi_c*dd+breg:.6e}]"
    return True, f"{points} random points inside the envelope"


def check_metric_comparison(points: int = 1000):
    """|d_h - D_h| <= (||s_bar - grad_f(z_hat)|| + ||w_tilde - z_hat||/lam) ||x - z_hat||."""
    problem = reference_problem()
    gen = RngStream(121).child("a2").generator()
    center, z_hat, _ = reference_prox()
    g = problem.grad_f(z_hat) + (z_hat - center) / REF_LAM
    for _ in range(points):
        w_tilde = _interior(problem, gen)
        s_bar = problem.grad_f(w_tilde) + 0.3 * gen.standard_normal(problem.dim)
        x = _interior(problem, gen)
        phi_x, phi_z = dh_potentials(problem.h, s_bar, w_tilde, center, REF_LAM, np.stack([x, z_hat]))
        dh = abs(phi_x - phi_z)
        breg = bregman_dh(problem.h, x, z_hat, g)
        radius = (
            float(np.linalg.norm(s_bar - problem.grad_f(z_hat)))
            + float(np.linalg.norm(w_tilde - z_hat)) / REF_LAM
        ) * float(np.linalg.norm(x - z_hat))
        if abs(dh - breg) > radius + 1e-9:
            return False, f"comparison violated: |dh - Dh| = {abs(dh - breg):.6e} > {radius:.6e}"
    return True, f"{points} random parameterizations inside the comparison radius"


def planted_pb_trial(problem, z_hat, phi_lam_hat, center, tau, n, q, stream):
    """One planted booster trial: 3n/4 good pairs (pair event <= tau by
    construction), n/4 far pairs violating the boosted bound; returns
    the boosted guarantee's left side minus its threshold."""
    gen = stream.child("plant").generator()
    h = problem.h
    n_good = (3 * n) // 4
    inward = h.center + (z_hat - h.center) * (1.0 - 1e-9)
    far_dir = (z_hat - h.center) / max(float(np.linalg.norm(z_hat - h.center)), 1e-12)
    far_base = h.center - 0.98 * h.radius * far_dir
    kappa = problem.kappa()
    threshold = 12.0 * tau + 57.0 * kappa * tau

    def shrink_to_event(point_z, point_w):
        for _ in range(80):
            if pair_event_lhs(problem, center, REF_LAM, z_hat, phi_lam_hat, point_z, point_w) <= 0.9 * tau:
                return point_z, point_w
            point_w = inward + 0.5 * (point_w - inward)
            point_z = inward + 0.5 * (point_z - inward)
        raise RuntimeError("planting failed to shrink into the event")

    scale = 0.5 * math.sqrt(REF_LAM * tau)
    rows = []
    for i in range(n):
        if i < n_good:
            u = gen.standard_normal(problem.dim)
            u /= np.linalg.norm(u)
            v = gen.standard_normal(problem.dim)
            v /= np.linalg.norm(v)
            w = h.prox(inward + scale * gen.uniform() * u, 1.0)
            z = h.prox(inward + scale * gen.uniform() * v, 1.0)
            rows.append(shrink_to_event(z, w))
        else:
            u = 0.02 * h.radius * gen.standard_normal(problem.dim)
            bad = h.prox(far_base + u, 1.0)
            if pair_event_lhs(problem, center, REF_LAM, z_hat, phi_lam_hat, bad, bad) <= 1.2 * threshold:
                raise RuntimeError("planted far pair fails to violate the boosted bound")
            rows.append((bad, bad))
    perm = gen.permutation(n)
    Z, W = (np.stack(col)[perm] for col in zip(*rows))
    out = pb(Z, W, PbConfig(q=q, lam=REF_LAM, z_bar=center), problem, _gaussian(), stream.child("pb"))
    lhs = pair_event_lhs(problem, center, REF_LAM, z_hat, phi_lam_hat, *out.selected)
    return lhs - threshold


def check_pb_boost(trials: int = 500, n: int = 288, tau: float = 5e-4):
    """Planted majorities: the boosted selection violates the
    12 tau + 57 kappa tau bound with frequency <= 2 exp(-n/72) + 0.01."""
    problem = reference_problem()
    center, z_hat, phi_lam_hat = reference_prox()
    q = q_floor(REF_LAM, problem.mu, REF_SIGMA, problem.L, tau)
    violations = 0
    for t in range(trials):
        margin = planted_pb_trial(problem, z_hat, phi_lam_hat, center, tau, n, q,
                                  RngStream(122).child("boost", t))
        if margin > 0.0:
            violations += 1
    rate = violations / trials
    bound = 2.0 * math.exp(-n / 72.0) + 0.01
    return rate <= bound, f"violation rate {rate:.4f} vs bound {bound:.4f} (q = {q})"


# ------------------------------------------------------------ iteration

def check_per_call_frequency(calls: int = 2000, I: int = 50):
    """Per-call guarantee: the pair event with threshold 8 eps_k holds
    with frequency at least 0.74."""
    problem = reference_problem()
    noise = _gaussian()
    center, z_hat, phi_lam_hat = reference_prox()
    a = alpha_floor(I, REF_LAM, problem.L)
    eps_k = epsilon_k_bound(a, I, REF_LAM, REF_SIGMA, problem.diameter, problem.L)
    threshold = tau_from_eps(eps_k)
    cfg = PssConfig(x0=center, alpha=a, lam=REF_LAM, inner_iters=I)
    hits = 0
    Z, W = pss_run_batch(problem, noise, cfg, [RngStream(123).child("call", t) for t in range(calls)])
    for z, w in zip(Z, W):
        if pair_event_lhs(problem, center, REF_LAM, z_hat, phi_lam_hat, z, w) <= threshold:
            hits += 1
    freq = hits / calls
    return freq >= 0.74, f"event frequency {freq:.4f} (want >= 0.74, threshold {threshold:.3f})"


def check_recursion_frequency(iterations: int = 500, n: int = 144, I: int = 25):
    """One full outer iteration from a random center satisfies the
    recursion inequality with frequency >= 1 - 2 exp(-n/72) - 0.02."""
    problem = reference_problem()
    noise = _gaussian()
    a = alpha_floor(I, REF_LAM, problem.L)
    eps_k = epsilon_k_bound(a, I, REF_LAM, REF_SIGMA, problem.diameter, problem.L)
    tau = tau_from_eps(eps_k)
    q = q_floor(REF_LAM, problem.mu, REF_SIGMA, problem.L, tau)
    kappa = problem.kappa()
    threshold = 12.0 * tau + 57.0 * kappa * tau
    coeff = (1.0 + REF_LAM * problem.mu) / (REF_LAM * (4.0 + REF_LAM * problem.mu))
    x_star, phi_star = problem.x_star, problem.phi_star
    gen = RngStream(124).child("centers").generator()
    hits = 0
    for t in range(iterations):
        z_prev = _interior(problem, gen)
        stream = RngStream(124).child("iter", t)
        cfg = PssConfig(x0=z_prev, alpha=a, lam=REF_LAM, inner_iters=I)
        Z, W = pss_run_batch(problem, noise, cfg, [stream.child("pss", j) for j in range(n)])
        out = pb(Z, W, PbConfig(q=q, lam=REF_LAM, z_bar=z_prev), problem, noise, stream.child("pb"))
        z_bar, w_bar = out.selected
        lhs = (
            evaluate_phi(problem, w_bar)
            - phi_star
            - float(np.sum((x_star - z_prev) ** 2)) / (2.0 * REF_LAM)
            + coeff * float(np.sum((x_star - z_bar) ** 2))
        )
        if lhs <= threshold:
            hits += 1
    freq = hits / iterations
    bound = 1.0 - 2.0 * math.exp(-n / 72.0) - 0.02
    return freq >= bound, f"recursion frequency {freq:.4f} (want >= {bound:.4f})"


# ------------------------------------------------------------ hoeffding

def check_hoeffding_fraction(meta_trials: int = 10_000, counts=(30, 72, 144)):
    """With n independent 3/4-probability events, more than 2n/3 occur
    with frequency >= 1 - exp(-n/72) - 0.01."""
    details = []
    for n in counts:
        gen = RngStream(125).child("hoeff", n).generator()
        successes = (gen.random((meta_trials, n)) < 0.75).sum(axis=1)
        freq = float(np.mean(successes > 2 * n / 3))
        bound = 1.0 - math.exp(-n / 72.0) - 0.01
        if freq < bound:
            return False, f"n={n}: frequency {freq:.4f} < bound {bound:.4f}"
        details.append(f"n={n}: {freq:.4f} >= {bound:.4f}")
    return True, "; ".join(details)


# ---------------------------------------------------------------- suites

SUITES = {
    "core": [
        ("prox_optimality", check_prox_optimality),
        ("curvature_two_sided", check_curvature),
        ("prox_point_closed_form", check_prox_point_closed_form),
        ("noise_calibration", check_noise_calibration),
        ("replay_determinism", check_replay_determinism),
    ],
    "pss": [
        ("hand_example", check_pss_hand_example),
        ("long_run", check_pss_long_run),
        ("sample_accounting", check_pss_accounting),
        ("anchoring", check_pss_anchoring),
        ("membership", check_pss_membership),
        ("gap_nonnegative", check_pss_gap_nonnegative),
        ("mean_bound_and_trend", lambda: check_pss_mean_bound(runs=300)),
    ],
    "sts": [
        ("examples", check_sts_examples),
        ("cardinality", check_sts_cardinality),
        ("planted_3eps", check_sts_planted),
        ("tie_inclusion", check_sts_ties),
    ],
    "rge": [
        ("noiseless_exact", check_rge_noiseless),
        ("degenerate", check_rge_degenerate),
        ("sample_accounting", check_rge_accounting),
        ("concentration", lambda: check_rge_concentration(trials=500)),
    ],
    "pb": [
        ("identical_pairs", check_pb_identical_pairs),
        ("noiseless_outlier", check_pb_noiseless_outlier),
        ("structure_and_accounting", check_pb_structure),
        ("two_sided_shifted_bound", check_shifted_two_sided_bound),
        ("metric_comparison", check_metric_comparison),
        ("boosted_guarantee", lambda: check_pb_boost(trials=150)),
    ],
    "iteration": [
        ("per_call_frequency", check_per_call_frequency),
        ("recursion_frequency", check_recursion_frequency),
    ],
    "hoeffding": [
        ("two_thirds_fraction", check_hoeffding_fraction),
    ],
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = []
    for check_name, fn in SUITES[name]:
        passed, details = fn()
        checks.append({"name": check_name, "passed": bool(passed), "details": details})
    return {
        "suite": name,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def write_suite_result(result: dict, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"verify_{result['suite']}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path

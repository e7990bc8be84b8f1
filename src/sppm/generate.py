"""Synthetic problem instances with known constants and ground truth.

Three kinds:

  quadratic-ball    0.5 (x-b)' A (x-b) over a centered ball; the
                    Hessian spectrum contains mu and L exactly and the
                    unconstrained minimizer is planted at 0.5..1.5
                    radii from the center, so the constrained optimum
                    exercises both interior and boundary cases.
  ridge-l1-box      mean-squared residuals plus a ridge term, l1 weight
                    and a box; design matrix built by SVD so the
                    Hessian spectrum hits [mu, L] exactly.  Carries a
                    component oracle for finite-sum sampling with sigma
                    measured over the pool at the box center.
  logreg-ridge-ball ridge-regularized logistic loss over a ball;
                    mu = ridge weight exactly, L calibrated through the
                    design's top singular value.

Every instance stores (x_star, phi_star) from a deterministic solve at
tolerance 1e-10, so failure events in the benchmark are decided
exactly, and instances are a pure function of the instance seed.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from .problems import CompositeProblem, FiniteSumOracle, evaluate_phi, minimize_phi
from .regularizers import Box, L1Box, L2Ball
from .rng import RngStream

KINDS = ("quadratic-ball", "ridge-l1-box", "logreg-ridge-ball")


def _haar_orthogonal(gen, d):
    q, r = np.linalg.qr(gen.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _spectrum(gen, lo, hi, d):
    """d values in [lo, hi] with both endpoints attained."""
    inner = gen.uniform(lo, hi, size=d - 2) if d > 2 else np.empty(0)
    return np.concatenate(([lo, hi], inner))


def generate_problem(spec) -> CompositeProblem:
    """Build the instance described by spec, deterministically from
    spec.instance_seed; the ProblemSpec has checked its own fields."""
    gen = RngStream(int(spec.instance_seed)).child("instance").philox()
    if spec.kind == "quadratic-ball":
        return _quadratic_ball(spec, gen)
    if spec.kind == "ridge-l1-box":
        return _ridge_l1_box(spec, gen)
    return _logreg_ridge_ball(spec, gen)


def _finish(problem: CompositeProblem, x_init) -> CompositeProblem:
    x_star = minimize_phi(problem, x_init, tol=1e-10)
    return replace(problem, x_star=x_star, phi_star=evaluate_phi(problem, x_star))


def _quadratic_ball(spec, gen) -> CompositeProblem:
    d = spec.dim
    r = spec.radius
    Q = _haar_orthogonal(gen, d)
    eigs = _spectrum(gen, spec.mu, spec.L, d)
    A = (Q * eigs) @ Q.T
    A = 0.5 * (A + A.T)
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    b = gen.uniform(0.5, 1.5) * r * direction  # unconstrained minimizer

    Ab = A @ b

    def f(x):
        dx = x - b
        return 0.5 * float(dx @ A @ dx)

    def grad_f(x):
        return A @ x - Ab

    def grad_rows(X):
        return X @ A - Ab  # A symmetric

    h = L2Ball(center=np.zeros(d), radius=r)
    # Cold start on the boundary; drawn last so it never perturbs A, b.
    u = gen.standard_normal(d)
    start = r * u / np.linalg.norm(u)
    problem = CompositeProblem(
        dim=d, f=f, grad_f=grad_f, h=h, mu=spec.mu, L=spec.L,
        sigma=0.0, diameter=2.0 * r, kind=spec.kind,
        meta={"hessian": A, "unconstrained_min": b}, grad_rows=grad_rows,
        start=start,
    )
    return _finish(problem, np.zeros(d))


def _ridge_l1_box(spec, gen) -> CompositeProblem:
    d = spec.dim
    b = spec.box_halfwidth
    N = spec.components
    ridge = 0.5 * spec.mu
    # A'A/N spectrum spans [mu - ridge, L - ridge] exactly.
    eigs = _spectrum(gen, spec.mu - ridge, spec.L - ridge, d)
    svals = np.sqrt(N * eigs)
    U, _ = np.linalg.qr(gen.standard_normal((N, d)))
    V = _haar_orthogonal(gen, d)
    A = (U * svals) @ V.T
    x_true = 0.5 * b * gen.uniform(-1.0, 1.0, size=d)
    y = A @ x_true + 0.5 * gen.standard_normal(N)

    M = A.T @ A / N + ridge * np.eye(d)
    Aty = A.T @ y / N

    def f(x):
        resid = A @ x - y
        return 0.5 * float(resid @ resid) / N + 0.5 * ridge * float(x @ x)

    def grad_f(x):
        return M @ x - Aty

    def grad_rows(X):
        return X @ M - Aty  # M symmetric

    # A call of N or more rows reads a table of all N component
    # gradients at x, built once per point and thread: rge asks for n
    # batches of q rows at one point.  Shorter calls (SGD's one row per
    # step) gather their rows.  Both take the dot product row by row
    # with vecdot, so they agree bit for bit at every row count (a BLAS
    # product `rows @ x` rounds differently with the row count; on one
    # row it gives the same bits as vecdot).
    cell = threading.local()

    def component_grad(x, idx):
        if len(idx) >= N:
            key = x.tobytes()
            cached = getattr(cell, "table", None)
            if cached is None or cached[0] != key:
                table = A * (np.vecdot(A, x) - y)[:, None]
                table += ridge * x
                cell.table = cached = (key, table)
            return cached[1].take(idx, axis=0)
        # take() gathers rows several times faster than fancy indexing.
        rows = A.take(idx, axis=0)
        out = rows * (np.vecdot(rows, x) - y.take(idx))[:, None]
        out += ridge * x
        return out

    def component_grad_rows(X, idx):
        rows = A.take(idx, axis=0)
        out = rows * (np.einsum("ij,ij->i", rows, X) - y.take(idx))[:, None]
        out += ridge * X
        return out

    h = L1Box(weight=spec.l1_weight, box=Box.symmetric(b, d))
    center = np.zeros(d)
    pool = component_grad(center, np.arange(N))
    sigma_hat = float(np.sqrt(np.mean(np.sum((pool - pool.mean(axis=0)) ** 2, axis=1))))
    oracle = FiniteSumOracle(N, component_grad, component_grad_rows)
    start = b * np.where(gen.random(d) < 0.5, -1.0, 1.0)  # box corner
    problem = CompositeProblem(
        dim=d, f=f, grad_f=grad_f, h=h, mu=spec.mu, L=spec.L,
        sigma=sigma_hat, diameter=h.diameter(), kind=spec.kind,
        meta={"oracle": oracle, "x_true": x_true}, grad_rows=grad_rows,
        start=start,
    )
    return _finish(problem, center)


def _logreg_ridge_ball(spec, gen) -> CompositeProblem:
    d = spec.dim
    r = spec.radius
    N = spec.components
    ridge = spec.mu  # logistic term only adds curvature
    # Logistic curvature is at most 1/4, so pin lambda_max(A'A/N) = 4(L - mu).
    eigs = _spectrum(gen, 0.05 * (spec.L - ridge), 4.0 * (spec.L - ridge), d)
    svals = np.sqrt(N * eigs)
    U, _ = np.linalg.qr(gen.standard_normal((N, d)))
    V = _haar_orthogonal(gen, d)
    A = (U * svals) @ V.T
    x_true = gen.standard_normal(d)
    x_true *= 0.7 * r / np.linalg.norm(x_true)
    y = np.sign(A @ x_true + 0.3 * gen.standard_normal(N))
    y[y == 0.0] = 1.0

    def f(x):
        margins = y * (A @ x)
        return float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * ridge * float(x @ x)

    def grad_f(x):
        margins = y * (A @ x)
        weights = y / (1.0 + np.exp(margins))
        return -(A.T @ weights) / N + ridge * x

    def grad_rows(X):
        margins = (X @ A.T) * y[None, :]
        weights = y[None, :] / (1.0 + np.exp(margins))
        return -(weights @ A) / N + ridge * X

    h = L2Ball(center=np.zeros(d), radius=r)
    u = gen.standard_normal(d)
    start = r * u / np.linalg.norm(u)
    problem = CompositeProblem(
        dim=d, f=f, grad_f=grad_f, h=h, mu=spec.mu, L=spec.L,
        sigma=0.0, diameter=2.0 * r, kind=spec.kind,
        meta={"x_true": x_true}, grad_rows=grad_rows,
        start=start,
    )
    return _finish(problem, np.zeros(d))

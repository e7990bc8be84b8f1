"""Robust selection among candidate points and gradients.

sts keeps the indices whose m-th-nearest-neighbor radius (m = floor(2n/3)+1,
self included) is at most the m-th smallest such radius; at least m > 2n/3
indices always survive, and when a majority clusters within eps of some
hidden point, every survivor lands within 3*eps of it.  sts reads the
distance matrix one row block at a time, from euclidean_rows or, for the
dh pseudo-metric of a linearized regularizer gap (it can vanish between
distinct points, which is all the selection argument needs), from
gap_rows over dh_potentials.  rge applies sts to n batch-mean gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ValidationError
from . import problems
# sample_gradient_batch is looked up here by perfbench's tracer.
from .problems import CompositeProblem, draw_gradients, sample_gradient_batch  # noqa: F401
from .rng import RngStream

_ROW_BLOCK = 64  # rows of the distance matrix sts holds at a time


def euclidean_rows(P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of the Euclidean distance matrix of the rows of P, summed
    by coordinate: exactly symmetric, 0 between equal rows, blocking-free."""
    out = np.zeros((hi - lo, P.shape[0]))
    for k in range(P.shape[1]):
        out += np.square(P[lo:hi, k, None] - P[:, k])
    return np.sqrt(out, out=out)


def gap_rows(P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of |p_i - p_j| for the (n, 1) column P of potentials."""
    return np.abs(P[lo:hi] - P[:, 0])


def dh_potentials(h, s_bar: np.ndarray, w_tilde: np.ndarray, z_bar: np.ndarray, lam: float,
                  points: np.ndarray) -> np.ndarray:
    """phi(x) = h(x) + <v, x> at each row x of points, for regularizer h,
    robust gradient estimate s_bar at the anchor w_tilde, prox center
    z_bar and prox stepsize lam: v = s_bar + (w_tilde - z_bar) / lam.
    The dh pseudo-metric is d(x, y) = |phi(x) - phi(y)|."""
    v = np.asarray(s_bar, float) + (np.asarray(w_tilde, float) - np.asarray(z_bar, float)) / lam
    if not np.all(np.isfinite(v)):
        raise ValidationError("dh shift vector is not finite")
    P = np.asarray(points, dtype=float)
    hP = h.value(P)
    if np.any(hP == np.inf):
        raise DomainError("dh potential evaluated outside dom h")
    return P @ v + hP


def sts(points, rows=euclidean_rows) -> np.ndarray:
    """Second-tertile selection: ascending indices of the admissible set.

    rho_j is the m-th smallest of the n distances from point j (self
    distance 0 included), m = floor(2n/3) + 1; admissible means
    rho_j <= (m-th smallest rho).  Ties at the threshold stay in, so the
    result always has more than 2n/3 members; non-finite points, which no
    threshold admits, raise ValidationError.  rows(P, lo, hi) gives rows
    lo:hi of the distance matrix; only the n radii outlive a block.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    n = P.shape[0]
    if n < 1:
        raise ValidationError("sts needs at least one point")
    if not np.isfinite(P).all():
        raise ValidationError("sts points are not finite")
    m = (2 * n) // 3 + 1
    rho = np.empty(n)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        block = rows(P, lo, hi)
        block[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        rho[lo:hi] = np.partition(block, m - 1, axis=1)[:, m - 1]
    rho_bar = np.partition(rho, m - 1)[m - 1]
    return np.flatnonzero(rho <= rho_bar)


def rge(
    problem: CompositeProblem,
    noise,
    x: np.ndarray,
    n: int,
    q: int,
    stream: RngStream,
) -> np.ndarray:
    """Robust gradient estimate at x from n batch means of q samples.

    Runs sts on the means under the Euclidean metric and returns the
    mean with the smallest admissible index; consumes exactly n*q
    samples on one generator of `stream`, step-major (draw row i*n + j
    is sample i of batch j), drawn and summed in chunks of whole steps
    of at most PLAN_VALUES values, so memory does not grow with q.  A
    non-finite mean raises NumericError naming its batch.
    """
    if n < 1 or q < 1:
        raise ValidationError(f"rge needs n >= 1 and q >= 1, got n={n}, q={q}")
    x = np.asarray(x, float)
    if not problem.h.contains(x):
        raise DomainError("sampling point lies outside dom h")
    sums = np.zeros(n * problem.dim)
    chunk = max(1, problems.PLAN_VALUES // sums.size)
    gen = stream.generator()
    for start in range(0, q, chunk):
        steps = draw_gradients(problem, noise, x, n * min(chunk, q - start), gen).reshape(-1, sums.size)
        steps[0] += sums  # the running sums, carried in as the first row
        # Adds the steps in order, as each batch's mean(axis=0) does for dim >= 2.
        np.einsum("ij->j", steps, out=sums)
    means = sums.reshape(n, problem.dim) / q
    finite = np.isfinite(means).all(axis=1)
    if not finite.all():
        raise NumericError(f"rge batch mean {int(np.argmin(finite))} is not finite")
    return np.array(means[sts(means)[0]])


def bregman_dh(h, x: np.ndarray, z_hat: np.ndarray, g: np.ndarray) -> float:
    """h(x) - h(z_hat) + <g, x - z_hat> for a caller-supplied shifted
    gradient g at z_hat; nonnegative when z_hat is the exact prox point
    and g its exact shifted gradient (then -g is a subgradient of h)."""
    x = np.asarray(x, float)
    z_hat = np.asarray(z_hat, float)
    hx, hz = h.value(np.stack([x, z_hat]))
    if hx == np.inf or hz == np.inf:
        raise DomainError("bregman_dh evaluated outside dom h")
    return hx - hz + float(np.dot(np.asarray(g, float), x - z_hat))

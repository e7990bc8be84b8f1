"""Probability booster: one high-confidence pair from n independent ones.

Each inner solve lands close to the anchored subproblem's solution only
with constant probability; boosting runs two Euclidean selection passes
over the candidates' averaged iterates W and last iterates Z (the
(n, dim) row matrices pss_run_batch returns), robustly estimates the
gradient at one surviving candidate, runs a third pass under the
linearized-gap metric built from that estimate, and returns the
smallest index admissible in all three.  Each pass keeps more than
2n/3 indices, so the triple intersection is nonempty by pigeonhole and
the failure probability drops geometrically in n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .problems import CompositeProblem
from .rng import RngStream
from .selection import dh_potentials, gap_rows, rge, sts


@dataclass(frozen=True)
class PbConfig:
    """Booster parameters: RGE batch size q, prox stepsize lam, and the
    prox center z_bar the candidates were all generated from.  Whether
    q clears its variance-dependent floor is a schedule concern, checked
    where schedules are built."""

    q: int
    lam: float
    z_bar: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise ValidationError(f"q must be >= 1, got {self.q}")
        if self.lam <= 0.0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
        object.__setattr__(self, "z_bar", np.asarray(self.z_bar, dtype=float))


@dataclass(frozen=True)
class PbOutcome:
    """selected holds copies (z, w) of the winning rows of Z and W."""

    selected: tuple
    selected_index: int
    index_sets: tuple
    samples_used: int


def tau_from_eps(eps_k: float, markov_factor: float = 8.0) -> float:
    """Distance threshold tau = 8 * eps_k (Markov at the 1/8 quantile);
    practical schedules may relax the factor."""
    if eps_k < 0.0:
        raise ValidationError(f"eps_k must be nonnegative, got {eps_k}")
    return markov_factor * eps_k


def q_floor(lam: float, mu: float, sigma: float, L: float, tau: float) -> int:
    """Smallest admissible RGE batch size, ceil(18 (1+lam*mu) sigma^2 /
    (lam L^2 tau)), clamped to at least 1."""
    if tau <= 0.0:
        raise ValidationError(f"tau must be positive, got {tau}")
    raw = 18.0 * (1.0 + lam * mu) * sigma * sigma / (lam * L * L * tau)
    return max(1, int(np.ceil(raw)))


def pb(
    Z: np.ndarray,
    W: np.ndarray,
    cfg: PbConfig,
    problem: CompositeProblem,
    noise,
    stream: RngStream,
) -> PbOutcome:
    """Select one of the n candidates whose last and averaged iterates
    are the rows of Z and W; consumes exactly n*q oracle samples, all
    drawn by the RGE call on substream ("rge").

    All tie-breaking is smallest-index, so the outcome is a pure
    function of (Z, W, cfg, problem, noise, stream).
    """
    if Z.ndim != 2 or Z.shape != W.shape:
        raise ValidationError(f"Z and W must be (n, dim) matrices of one shape, got {Z.shape}, {W.shape}")
    n = len(Z)
    j_w = sts(W)
    j_z = sts(Z)
    both = np.intersect1d(j_w, j_z, assume_unique=True)
    if both.size == 0:
        raise RuntimeError("internal: selection passes have empty intersection")
    anchor = W[both[0]]
    s_bar = rge(problem, noise, anchor, n, cfg.q, stream.child("rge"))
    j_gap = sts(dh_potentials(problem.h, s_bar, anchor, cfg.z_bar, cfg.lam, W), gap_rows)
    final = np.intersect1d(both, j_gap, assume_unique=True)
    if final.size == 0:
        raise RuntimeError("internal: selection passes have empty intersection")
    idx = int(final[0])
    return PbOutcome(
        selected=(np.array(Z[idx]), np.array(W[idx])),
        selected_index=idx,
        index_sets=(j_w, j_z, j_gap),
        samples_used=n * cfg.q,
    )

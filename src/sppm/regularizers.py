"""Nonsmooth terms h with closed-form proximal maps.

Each regularizer knows its value, its prox, membership in its domain,
and enough geometry (diameter, an interior point) for schedule
derivation and initial iterates.  prox_map is the module-level entry
used by the solvers:

    prox_map(h, y, t) = argmin_x  h(x) + ||x - y||^2 / (2 t)

prox_rows applies the same map to each row of a matrix; the batched
inner solver leans on it to advance many candidates per step.  Where
one body serves both shapes, prox_rows is an alias of prox.  value and
contains reduce over the last axis: per row, bit-equal to one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Relative slack when testing membership: prox outputs sit on the
# boundary up to float rounding and must count as inside.
_DOM_RTOL = 1e-9


def prox_map(h, y: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of h at y with step t > 0."""
    if t <= 0.0:
        raise ValidationError(f"prox step must be positive, got {t}")
    return h.prox(np.asarray(y, dtype=float), float(t))


@dataclass(frozen=True)
class Zero:
    """h = 0 on all of R^d."""

    def value(self, x):
        return np.where(self.contains(x), 0.0, math.inf)[()]

    def prox(self, y, t):
        return np.array(y, dtype=float)

    prox_rows = prox

    def contains(self, x):
        return np.isfinite(x).all(axis=-1)

    def diameter(self):
        return math.inf

    def interior_point(self, dim):
        return np.zeros(dim)


@dataclass(frozen=True)
class L2Ball:
    """Indicator of the Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValidationError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def value(self, x):
        return np.where(self.contains(x), 0.0, math.inf)[()]

    def prox(self, y, t):
        d = y - self.center
        nrm = math.sqrt(float(d @ d))
        if nrm <= self.radius:
            return np.array(y, dtype=float)
        return self.center + d * (self.radius / nrm)

    def prox_rows(self, Y, t):
        D = Y - self.center
        nrm = np.sqrt(np.einsum("ij,ij->i", D, D))
        scale = np.minimum(1.0, self.radius / np.maximum(nrm, 1e-300))
        return self.center + D * scale[:, None]

    def contains(self, x):
        d = np.asarray(x) - self.center
        return np.sqrt(np.vecdot(d, d)) <= self.radius * (1.0 + _DOM_RTOL) + 1e-15

    def diameter(self):
        return 2.0 * self.radius

    def interior_point(self, dim):
        if dim != self.center.shape[0]:
            raise ValidationError("dimension mismatch with ball center")
        return np.array(self.center)


@dataclass(frozen=True)
class Box:
    """Indicator of the axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValidationError("box bounds must satisfy lo <= hi coordinatewise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # contains() runs on every sampling point and dh candidate, so
        # its widened bounds are computed once.
        slack = _DOM_RTOL * np.maximum(1.0, np.abs(hi) + np.abs(lo))
        object.__setattr__(self, "_lo_widened", lo - slack)
        object.__setattr__(self, "_hi_widened", hi + slack)

    @classmethod
    def symmetric(cls, halfwidth: float, dim: int) -> "Box":
        if halfwidth <= 0.0:
            raise ValidationError(f"box halfwidth must be positive, got {halfwidth}")
        b = np.full(dim, float(halfwidth))
        return cls(-b, b)

    def value(self, x):
        return np.where(self.contains(x), 0.0, math.inf)[()]

    def prox(self, y, t):
        return np.clip(y, self.lo, self.hi)

    prox_rows = prox

    def contains(self, x):
        x = np.asarray(x)
        return ((x >= self._lo_widened) & (x <= self._hi_widened)).all(axis=-1)

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def interior_point(self, dim):
        if dim != self.lo.shape[0]:
            raise ValidationError("dimension mismatch with box bounds")
        return 0.5 * (self.lo + self.hi)


def _soft_threshold(y, a):
    return np.sign(y) * np.maximum(np.abs(y) - a, 0.0)


@dataclass(frozen=True)
class L1:
    """h(x) = weight * ||x||_1."""

    weight: float

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValidationError(f"l1 weight must be nonnegative, got {self.weight}")

    def value(self, x):
        return np.where(self.contains(x), self.weight * np.sum(np.abs(x), axis=-1), math.inf)[()]

    def prox(self, y, t):
        return _soft_threshold(y, t * self.weight)

    prox_rows = prox

    def contains(self, x):
        return np.isfinite(x).all(axis=-1)

    def diameter(self):
        return math.inf

    def interior_point(self, dim):
        return np.zeros(dim)


@dataclass(frozen=True)
class L1Box:
    """h(x) = weight * ||x||_1 + indicator of a box.

    Separable, so the prox is the box projection of the soft threshold
    (clamping a coordinatewise unimodal objective to an interval).
    """

    weight: float
    box: Box

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValidationError(f"l1 weight must be nonnegative, got {self.weight}")

    def value(self, x):
        return np.where(self.box.contains(x), self.weight * np.sum(np.abs(x), axis=-1), math.inf)[()]

    def prox(self, y, t):
        return np.clip(_soft_threshold(y, t * self.weight), self.box.lo, self.box.hi)

    prox_rows = prox

    def contains(self, x):
        return self.box.contains(x)

    def diameter(self):
        return self.box.diameter()

    def interior_point(self, dim):
        return self.box.interior_point(dim)

"""Zero-mean additive gradient noise, calibrated so E||xi||^2 = sigma^2.

Per-coordinate scales absorb the dimension: gaussian and rademacher use
sigma/sqrt(d); student_t (nu > 2) uses sigma * sqrt((nu-2)/(nu*d)) so
the heavier tail keeps the same second moment; sphere puts all the mass
on the radius.  Finite-sum problems do not use this module: their
noise is component sampling via FiniteSumOracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FAMILIES = ("gaussian", "student_t", "rademacher", "sphere")


@dataclass(frozen=True)
class NoiseModel:
    family: str
    sigma: float
    nu: float = 3.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}")
        if self.sigma < 0.0:
            raise ValidationError(f"sigma must be nonnegative, got {self.sigma}")
        if self.family == "student_t" and self.nu <= 2.0:
            raise ValidationError("student_t needs nu > 2 for a finite second moment")

    def draw(self, gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
        """(count, dim) array of independent noise vectors."""
        if self.sigma == 0.0:
            return np.zeros((count, dim))
        # Scaling in place keeps a draw's footprint at one array.
        if self.family == "gaussian":
            v = gen.standard_normal((count, dim))
            v *= self.sigma / np.sqrt(dim)
            return v
        if self.family == "student_t":
            v = gen.standard_t(self.nu, size=(count, dim))
            v *= self.sigma * np.sqrt((self.nu - 2.0) / (self.nu * dim))
            return v
        if self.family == "rademacher":
            signs = gen.integers(0, 2, size=(count, dim)) * 2 - 1
            return signs * (self.sigma / np.sqrt(dim))
        # sphere: uniform direction, deterministic radius sigma
        v = gen.standard_normal((count, dim))
        nrm = np.linalg.norm(v, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        return v * (self.sigma / nrm)

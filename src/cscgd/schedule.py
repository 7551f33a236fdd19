"""Step-size schedules for the two-timescale solver.

Three coupled sequences drive the updates: alpha (quasi-gradient step),
beta (tracking step) and delta (penalty step), derived from exponents
(a, b, c) with 1 > a >= c >= b > 0 so that alpha_t <= delta_t <= beta_t <= 1
holds at every iteration in both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIMINISHING = "diminishing"
CONSTANT = "constant"


@dataclass(frozen=True)
class StepSchedule:
    a: float
    b: float
    c: float
    regime: str = DIMINISHING
    horizon: int = 1

    def __post_init__(self):
        if not (1.0 > self.a >= self.c >= self.b > 0.0):
            raise ValueError(
                f"exponents must satisfy 1 > a >= c >= b > 0, "
                f"got a={self.a}, c={self.c}, b={self.b}"
            )
        if self.regime not in (DIMINISHING, CONSTANT):
            raise ValueError(f"unknown regime {self.regime!r}")
        if not (isinstance(self.horizon, (int, np.integer)) and self.horizon >= 1):
            raise ValueError("horizon must be a positive integer")

    def step_arrays(self):
        """(alpha, beta, delta) arrays for t = 1..horizon (entry t - 1 is step t)."""
        if self.regime == DIMINISHING:
            base = np.arange(1, self.horizon + 1, dtype=float)
        else:
            base = np.full(self.horizon, float(self.horizon))
        return base ** -self.a, base ** -self.b, base ** -self.c

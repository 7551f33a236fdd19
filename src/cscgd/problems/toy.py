"""Deterministic toy problems with known optima, used for rate studies.

The unconstrained quadratic has F(x) = ||x||^2 / 2 with minimum 0 at the
origin; the constrained variant adds a single linear expectation constraint
x >= threshold whose exact surrogate optimum is known for every margin.
Both use an identity inner map and a constant sample, so every run is
reproducible arithmetic with no Monte-Carlo noise.
"""

from __future__ import annotations

import numpy as np

from ..problem import CompositionalProblem
from ..sets import Box

ZETA0 = np.zeros(1)
ZETA0.setflags(write=False)  # shared by every toy problem


def zero_sample(rng, size=None):
    """The constant sample zeta = 0, or a (size, 1) block of it."""
    return ZETA0 if size is None else np.zeros((size, 1))


def identity_map(x, zeta):
    """x itself; a point broadcast to one row per row of a zeta block."""
    if x.shape[:-1] == zeta.shape[:-1]:
        return x
    return np.broadcast_to(x, zeta.shape[:-1] + x.shape[-1:])


def identity_jacobian(x, zeta):
    """(x, the (1, 1) identity), one per row of stacked one-dimensional points."""
    return identity_map(x, zeta), np.ones(x.shape[:-1] + (1, 1))


def _half_square(y):
    return 0.5 * (y * y).sum(axis=-1)


def quadratic_problem(lower: float = -1.0, upper: float = 1.0) -> CompositionalProblem:
    return CompositionalProblem(
        dim_x=1,
        dim_g=1,
        dim_h=0,
        num_constraints=0,
        sample=zero_sample,
        inner_g=identity_map,
        inner_g_jacobian=identity_jacobian,
        outer_f=_half_square,
        outer_f_gradient=lambda y: np.asarray(y, dtype=float),
        feasible_set=Box(lower=[lower], upper=[upper]),
        name="quadratic-toy",
        metadata={"f_star": 0.0 if lower <= 0.0 <= upper else 0.5 * min(lower**2, upper**2)},
    )


def constrained_quadratic_problem(
    threshold: float = 0.3, lower: float = 0.05, upper: float = 1.0
) -> CompositionalProblem:
    """Minimize x^2/2 subject to threshold - x <= 0 on [lower, upper]."""
    if not lower < threshold < upper:
        raise ValueError("threshold must be interior to the box")

    def outer_q_jacobian(z):
        return np.full(z.shape[:-1] + (1, 1), -1.0)

    return CompositionalProblem(
        dim_x=1,
        dim_g=1,
        dim_h=1,
        num_constraints=1,
        sample=zero_sample,
        inner_g=identity_map,
        inner_g_jacobian=identity_jacobian,
        inner_h=identity_map,
        inner_h_jacobian=identity_jacobian,
        outer_f=_half_square,
        outer_f_gradient=lambda y: np.asarray(y, dtype=float),
        outer_q=lambda z: threshold - z,
        outer_q_jacobian=outer_q_jacobian,
        feasible_set=Box(lower=[lower], upper=[upper]),
        name="constrained-quadratic-toy",
        metadata={
            "f_star": 0.5 * threshold**2,
            "x_star": threshold,
            "threshold": threshold,
        },
    )


def toy_constants(problem: CompositionalProblem) -> dict:
    """Exact assumption constants for the toy problems on their boxes."""
    box = problem.feasible_set
    hi = float(np.max(np.abs(np.concatenate([box.lower, box.upper]))))
    constants = {
        "C_f": hi**2,  # ||grad f(y)||^2 = y^2 on the reachable interval
        "L_f": 1.0,
        "C_g": 1.0,
        "V_g": 0.0,
        "C_h": 1.0 if problem.constrained else 0.0,
        "V_h": 0.0,
        "C_q": 1.0 if problem.constrained else 0.0,
        "L_q": 0.0,
        "J": problem.num_constraints,
        "D_x": box.squared_diameter(),
    }
    return constants

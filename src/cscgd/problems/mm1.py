"""Single M/M/1 queue: service-rate design with a closed-form optimum.

The utility rewards utilization and charges the mean waiting delay,
U(mu) = r lam/mu - h (lam/mu)/(mu - lam); its maximizer has the closed form
mu* = lam + u + sqrt(u (u + lam)) with u = h/r.  Doubles as an end-to-end
check of the solver on a deterministic problem.
"""

from __future__ import annotations

import math

import numpy as np

from ..distributions import ConstantVec
from ..problem import CompositionalProblem
from ..sets import Box
from .toy import identity_jacobian, identity_map


def _check_stable(mu, lam: float):
    if not (lam > 0.0 and (np.asarray(mu) > lam).all()):
        raise ValueError("unstable queue: need mu > lam > 0")


def _utility(mu, lam: float, r: float, h: float):
    return r * lam / mu - h * (lam / mu) / (mu - lam)


def _utility_derivative(mu, lam: float, r: float, h: float):
    # Squares as products: on floats, ** 2 calls pow(), which need not round
    # as mu * mu does; on arrays both are one multiply.
    w = mu * (mu - lam)
    return -r * lam / (mu * mu) + h * lam * (2.0 * mu - lam) / (w * w)


def mm1_utility(mu, lam: float, r: float, h: float):
    """U(mu) for one service rate, or elementwise for an array of them."""
    _check_stable(mu, lam)
    if r <= 0.0 or h <= 0.0:
        raise ValueError("r and h must be positive")
    return _utility(mu, lam, r, h)


def mm1_utility_derivative(mu, lam: float, r: float, h: float):
    _check_stable(mu, lam)
    return _utility_derivative(mu, lam, r, h)


def mm1_optimal_mu(lam: float, r: float, h: float) -> float:
    if lam <= 0.0 or r <= 0.0 or h <= 0.0:
        raise ValueError("lam, r, h must be positive")
    u = h / r
    return lam + u + math.sqrt(u * (u + lam))


def mm1_problem(
    lam: float, r: float, h: float, box: tuple | None = None, gain: float | None = None
) -> CompositionalProblem:
    """Deterministic compositional wrapping: identity inner map, f = -gain * U.

    The utility is flat for large mu, so without rescaling the unit-free
    step sizes crawl; ``gain`` conditions the objective without moving its
    maximizer.  The default normalizes the slope near the upper box edge.
    The box excludes the unstable region mu <= lam, so the maps skip the
    stability check of :func:`mm1_utility`.
    """
    if lam <= 0.0 or r <= 0.0 or h <= 0.0:
        raise ValueError("lam, r, h must be positive")
    if box is None:
        width = mm1_optimal_mu(lam, r, h) - lam
        box = (lam + 0.4 * width, lam + 2.5 * width)
    if box[0] <= lam:
        raise ValueError("box must exclude the unstable region mu <= lam")
    if gain is None:
        probe = box[1] - 0.05 * (box[1] - box[0])
        gain = 1.0 / max(abs(mm1_utility_derivative(probe, lam, r, h)), 1e-12)
    dist = ConstantVec([0.0])

    def outer_f(y):
        return -gain * _utility(y[..., 0], lam, r, h)

    def outer_f_gradient(y):
        # One rate per row, in floats: ten float operations cost less than
        # ten ufunc calls on a (1, 1) array, and round the same.
        grad = [-gain * _utility_derivative(mu, lam, r, h) for mu in y.ravel().tolist()]
        return np.array(grad).reshape(y.shape)

    return CompositionalProblem(
        dim_x=1,
        dim_g=1,
        dim_h=0,
        num_constraints=0,
        sample=dist.draw,
        inner_g=identity_map,
        inner_g_jacobian=identity_jacobian,
        outer_f=outer_f,
        outer_f_gradient=outer_f_gradient,
        feasible_set=Box(lower=[box[0]], upper=[box[1]]),
        name="mm1",
        metadata={"lam": lam, "r": r, "h": h},
    )

"""Huber-style constraint penalty.

Each constraint value w_j is shifted by the tightening margin gamma and fed
through a convex piecewise function: zero while the (shifted) constraint is
satisfied, quadratic on [0, c_ell], and linear with slope c_ell beyond.  The
linear tail keeps the penalty gradient bounded by c_ell per constraint,
which the solver's step-size analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ufuncs import count_nonzero as _count_nonzero


@dataclass(frozen=True)
class PenaltyParams:
    """gamma: constraint-tightening margin; c_ell: quadratic-to-linear knee."""

    gamma: float = 0.0
    c_ell: float = 1.0

    def __post_init__(self):
        if not (self.gamma >= 0.0):
            raise ValueError("gamma must be nonnegative")
        if not (self.c_ell > 0.0):
            raise ValueError("c_ell must be positive")
        if not (self.gamma < self.c_ell):
            raise ValueError("gamma must be smaller than c_ell")


def penalty_value(w, params: PenaltyParams) -> float:
    """Sum over constraints of the shifted piecewise penalty.

    Zero iff every w_j <= -gamma; convex and nonnegative everywhere.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite penalty argument")
    x = w + params.gamma
    c = params.c_ell
    quad = 0.5 * np.minimum(np.maximum(x, 0.0), c) ** 2
    lin = c * np.maximum(x - c, 0.0)
    return float(np.sum(quad + lin))


def penalty_gradient(w, params: PenaltyParams) -> np.ndarray:
    """Componentwise derivative of :func:`penalty_value` at x_j = w_j + gamma.

    Equals x on the quadratic branch, saturates at c_ell on the linear
    branch and vanishes for satisfied constraints.
    """
    w = np.array(w, dtype=float, ndmin=1, copy=None)
    if _count_nonzero(np.isfinite(w)) != w.size:
        raise ValueError("non-finite penalty argument")
    x = w + params.gamma
    return np.minimum(np.maximum(x, 0.0), params.c_ell)

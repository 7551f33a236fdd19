"""Tiered resource provisioning for cloud services.

Decision variables are the per-class resource bundles r_i and the total
provisioned capacity C.  Blocking probabilities are ratios of expectations
of capacity-threshold indicators of the random aggregate demand; the hard
indicators are smoothed by sigmoids on the normalized slack so that the
inner map is differentiable.  Price-ladder constraints tie consecutive
bundles to the price gaps and live in the feasible set as deterministic
linear inequalities.  The solver minimizes the negated expected profit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..problem import CompositionalProblem
from ..sets import BoxWithLinearInequalities
from .safeguards import EPS_DEN, safe_inv, safe_inv_and_deriv, sigmoid


@dataclass(frozen=True)
class CloudProvisioningInstance:
    prices: np.ndarray  # strictly ascending subscription prices
    subscriber_rates: np.ndarray  # mean subscribers per class and unit time
    maintenance_rate: float  # cost per provisioned unit
    tier_lower: float  # l in the price-ladder constraint
    tier_upper: float  # u in the price-ladder constraint
    r_bounds: tuple  # (lower, upper) for every bundle size
    c_bounds: tuple  # (lower, upper) for the provisioned total
    load_dist: object  # distribution of the demand vector zeta
    sharpness: float = 20.0
    eps_den: float = EPS_DEN
    name: str = "cloud-provisioning"

    def __post_init__(self):
        for f in ("prices", "subscriber_rates"):
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=float))
        if np.any(np.diff(self.prices) <= 0):
            raise ValueError("prices must be strictly increasing")
        if self.subscriber_rates.size != self.prices.size:
            raise ValueError("subscriber_rates must match prices")
        if self.tier_lower > self.tier_upper:
            raise ValueError("tier_lower must not exceed tier_upper")

    @property
    def n_classes(self) -> int:
        return self.prices.size

    def feasible_set(self) -> BoxWithLinearInequalities:
        n = self.n_classes
        lower = np.concatenate([np.full(n, self.r_bounds[0]), [self.c_bounds[0]]])
        upper = np.concatenate([np.full(n, self.r_bounds[1]), [self.c_bounds[1]]])
        gaps = np.diff(self.prices)
        rows, rhs = [], []
        for i in range(n - 1):
            lo_row = np.zeros(n + 1)
            lo_row[i], lo_row[i + 1] = 1.0, -1.0  # r_i - r_{i+1} <= -l * gap
            rows.append(lo_row)
            rhs.append(-self.tier_lower * gaps[i])
            hi_row = np.zeros(n + 1)
            hi_row[i], hi_row[i + 1] = -1.0, 1.0  # r_{i+1} - r_i <= u * gap
            rows.append(hi_row)
            rhs.append(self.tier_upper * gaps[i])
        return BoxWithLinearInequalities(
            lower=lower, upper=upper,
            a_mat=np.array(rows), b_vec=np.array(rhs),
        )

    def blocking_probabilities(self, y: np.ndarray) -> np.ndarray:
        n = self.n_classes
        return y[:n] * safe_inv(y[n:2 * n], self.eps_den)

    def profit(self, y: np.ndarray) -> float:
        """Expected profit at tracked indicator means (the maximized quantity)."""
        blocked = self.blocking_probabilities(y)
        return float(
            np.sum(self.prices * self.subscriber_rates * (1.0 - blocked))
            - self.maintenance_rate * y[2 * self.n_classes]
        )

    def build(self) -> CompositionalProblem:
        n = self.n_classes
        pn = self.prices * self.subscriber_rates
        chi = self.maintenance_rate
        eta = self.sharpness
        knee = self.eps_den
        idx = np.arange(n)
        dist = self.load_dist

        # The load is a multiply-and-sum, not ``zeta @ r``: a matrix-vector
        # product on a zeta block rounds some rows differently from the
        # dot product on the single row.  ``cap`` and ``load`` keep a
        # trailing axis of one so that rows of x and of zeta broadcast.
        def terms(x, zeta):
            # g, and the inputs and sigmoids of its indicators.  The load sums
            # contiguous rows: numpy adds a row of 8 or more entries pairwise,
            # a strided row of a column-major block in order.
            r, cap = x[..., :n], x[..., n:]
            load = (np.ascontiguousarray(zeta) * r).sum(axis=-1, keepdims=True)
            taken = sigmoid(eta * (cap - load) / cap)  # one per row
            below = sigmoid(eta * (cap - r - load) / cap)  # per class
            out = np.empty(below.shape[:-1] + (2 * n + 1,))
            out[..., :n] = taken - below
            out[..., n:2 * n] = taken
            out[..., 2 * n] = cap[..., 0]
            return out, r, cap, load, taken, below

        def inner_g(x, zeta):
            return terms(x, zeta)[0]

        def inner_g_jacobian(x, zeta):
            out, r, cap, load, taken, below = terms(x, zeta)
            d1 = taken * (1.0 - taken)  # sigmoid derivatives
            d2 = below * (1.0 - below)
            dtaken_dr = d1 * (-eta * zeta / cap)
            dtaken_dc = d1 * eta * load / cap**2
            # dbelow_i/dr_j = d2_i * (-eta (delta_ij + zeta_j) / cap)
            dbelow_dr = (-eta * zeta / cap)[..., :, None] * d2[..., None, :]
            dbelow_dr[..., idx, idx] += -eta * d2 / cap
            dbelow_dc = d2 * eta * (r + load) / cap**2
            jac = np.zeros(d2.shape[:-1] + (n + 1, 2 * n + 1))
            jac[..., :n, :n] = dtaken_dr[..., :, None] - dbelow_dr
            jac[..., n, :n] = dtaken_dc - dbelow_dc
            jac[..., :n, n:2 * n] = dtaken_dr[..., :, None]
            jac[..., n, n:2 * n] = dtaken_dc
            jac[..., n, 2 * n] = 1.0
            return out, jac

        def outer_f(y):
            blocked = y[..., :n] * safe_inv(y[..., n:2 * n], knee)
            return np.sum(pn * (blocked - 1.0), axis=-1) + chi * y[..., 2 * n]

        def outer_f_gradient(y):
            inv, dinv = safe_inv_and_deriv(y[..., n:2 * n], knee)
            grad = np.empty(y.shape)
            grad[..., :n] = pn * inv
            grad[..., n:2 * n] = pn * y[..., :n] * dinv
            grad[..., 2 * n] = chi
            return grad

        return CompositionalProblem(
            dim_x=n + 1,
            dim_g=2 * n + 1,
            dim_h=0,
            num_constraints=0,
            sample=dist.draw,
            inner_g=inner_g,
            inner_g_jacobian=inner_g_jacobian,
            outer_f=outer_f,
            outer_f_gradient=outer_f_gradient,
            feasible_set=self.feasible_set(),
            name=self.name,
            metadata={"instance": self},
        )

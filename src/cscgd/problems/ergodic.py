"""Parallel M/G/1 queues over fading wireless channels (ergodic-capacity view).

Joint design of arrival rates and per-queue transmit powers.  Service rates
follow the ergodic capacity b_i = B_i log(1 + zeta_i p_i) under chi-squared
fading with support bounded away from zero.  The delay penalty applies the
PK formula to the tracked reciprocal-rate moments, exactly while the tracked
utilization rho stays below the knee ``varsigma_eps``; above it, 1 / (1 -
rho) is replaced by its tangent-line continuation.  The quality-of-service
constraint keeps the expected worst-user rate above a floor: q(z) = r_min +
z with z tracking -min_i b_i.  Each Jacobian map evaluates zeta * p and b once
for its (value, Jacobian) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import TruncatedChiSquared
from ..problem import CompositionalProblem
from ..sets import BoxWithSumCap, ProductSet
from .safeguards import diagonals, first_argmax_mask, safe_inv, safe_inv_and_deriv


@dataclass(frozen=True)
class Mg1ErgodicInstance:
    bandwidths: np.ndarray  # per-channel capacity scale B_i
    p_min: float
    p_max: float  # total power budget (also per-queue upper bound)
    lambda_min: float
    lambda_max: float
    lambda_cap: float
    r_min: float  # worst-user expected-rate floor
    fading_lower: float  # chi-squared support truncation G
    antennas: int  # K; fading has 2K degrees of freedom
    psi_weights: np.ndarray
    phi_weights: np.ndarray
    varsigma_eps: float = 0.95  # utilization at the knee of the safeguard
    name: str = "mg1-ergodic"

    def __post_init__(self):
        for f in ("bandwidths", "psi_weights", "phi_weights"):
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=float))
        n = self.bandwidths.size
        if self.psi_weights.size != n or self.phi_weights.size != n:
            raise ValueError("weights must match the number of queues")
        if self.fading_lower <= 0:
            raise ValueError("fading support must be bounded away from zero")
        if not (0.0 < self.varsigma_eps < 1.0):
            raise ValueError("varsigma_eps must lie in (0, 1)")
        if self.p_min <= 0 or self.p_min * n > self.p_max:
            raise ValueError("power box is empty")

    @property
    def n_queues(self) -> int:
        return self.bandwidths.size

    def channel_distribution(self) -> TruncatedChiSquared:
        n = self.n_queues
        return TruncatedChiSquared(
            dof=np.full(n, 2.0 * self.antennas), lower=np.full(n, self.fading_lower)
        )

    def feasible_set(self) -> ProductSet:
        n = self.n_queues
        lam_set = BoxWithSumCap(
            lower=np.full(n, self.lambda_min),
            upper=np.full(n, self.lambda_max),
            cap=self.lambda_cap,
        )
        p_set = BoxWithSumCap(
            lower=np.full(n, self.p_min),
            upper=np.full(n, self.p_max),
            cap=self.p_max,
        )
        return ProductSet(blocks=(lam_set, p_set))

    def rates(self, p: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        return self.bandwidths * np.log1p(zeta * p)

    def build(self) -> CompositionalProblem:
        n = self.n_queues
        bw = self.bandwidths
        psi, phi = self.psi_weights, self.phi_weights
        knee = 1.0 - self.varsigma_eps  # in 1 - rho, so the PK ratio is exact up to rho = eps
        r_min = self.r_min
        # halving is exact: (phi / 2) * m2 has the bits of phi * (m2 / 2)
        neg_bw, neg_psi, half_phi, neg_half_phi = -bw, -psi, phi / 2.0, -phi / 2.0
        dist = self.channel_distribution()

        def g_values(lam, b, b2):
            # in b's memory order, so that each column of a column-major block is
            # written in one loop; a point with a zeta block broadcasts lam
            g = np.empty(b.shape[:-1] + (3 * n,), order="F" if b.flags.f_contiguous else "C")
            g[..., :n] = lam
            np.divide(lam, b, out=g[..., n:2 * n])
            np.divide(lam, b2, out=g[..., 2 * n:])
            return g

        def inner_g(x, zeta):
            b = bw * np.log1p(zeta * x[..., n:])
            return g_values(x[..., :n], b, b**2)

        def inner_g_jacobian(x, zeta):
            lam = x[..., :n]
            zp = zeta * x[..., n:]
            b = bw * np.log1p(zp)
            lam_bp = lam * (bw * zeta / (1.0 + zp))
            b2 = b**2
            # rows lam, p; columns lam, lam / b, lam / b^2 (doubling is exact:
            # -2 lam_bp has the bits of (-2 lam) b')
            return g_values(lam, b, b2), diagonals(b.shape[:-1] + (2 * n, 3 * n), n, (
                ((0, 0), 1.0), ((0, n), 1.0 / b), ((0, 2 * n), 1.0 / b2),
                ((n, n), -lam_bp / b2), ((n, 2 * n), -2.0 * lam_bp / b**3)))

        def inner_h(x, zeta):
            return -np.minimum.reduce(bw * np.log1p(zeta * x[..., n:]), -1, keepdims=True)

        def inner_h_jacobian(x, zeta):
            zp = zeta * x[..., n:]
            b = bw * np.log1p(zp)
            worst = first_argmax_mask(-b)  # first minimizer breaks ties
            jac = np.zeros(b.shape[:-1] + (2 * n, 1))
            jac[..., n:, 0] = np.where(worst, neg_bw * zeta / (1.0 + zp), 0.0)
            return -np.minimum.reduce(b, -1, keepdims=True), jac

        def outer_f(y):
            lam_t, rho, m2 = y[..., :n], y[..., n:2 * n], y[..., 2 * n:]
            delay = (m2 / 2.0) * safe_inv(1.0 - rho, knee)
            return (phi * delay - psi * np.log(lam_t)).sum(axis=-1)

        def outer_f_gradient(y):
            lam_t, rho, m2 = y[..., :n], y[..., n:2 * n], y[..., 2 * n:]
            inv, dinv = safe_inv_and_deriv(1.0 - rho, knee)
            grad = np.empty(y.shape)
            np.divide(neg_psi, lam_t, out=grad[..., :n])
            d_rho = np.multiply(neg_half_phi, m2, out=grad[..., n:2 * n])
            d_rho *= dinv
            np.multiply(half_phi, inv, out=grad[..., 2 * n:])
            return grad

        def outer_q(z):
            return r_min + z

        def outer_q_jacobian(z):
            return np.ones(z.shape[:-1] + (1, 1))

        return CompositionalProblem(
            dim_x=2 * n,
            dim_g=3 * n,
            dim_h=1,
            num_constraints=1,
            sample=dist.draw,
            inner_g=inner_g,
            inner_g_jacobian=inner_g_jacobian,
            inner_h=inner_h,
            inner_h_jacobian=inner_h_jacobian,
            outer_f=outer_f,
            outer_f_gradient=outer_f_gradient,
            outer_q=outer_q,
            outer_q_jacobian=outer_q_jacobian,
            feasible_set=self.feasible_set(),
            name=self.name,
            metadata={"instance": self},
        )

    def default_c_ell(self) -> float:
        # Worst constraint value over the box: powers floored, so the
        # expected worst-user rate is at least b(p_min, G).
        floor_rate = float(np.min(self.bandwidths) * np.log1p(self.p_min * self.fading_lower))
        return max(2.0 * (self.r_min - floor_rate), 1.0)

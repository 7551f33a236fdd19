"""Power allocation for G/G/1 queues under statistical delay targets.

Delay behaviour is summarized by the effective capacity: a Gaussian
steady-state approximation matches the arrival and service log-moment
generating functions, yielding a QoS exponent theta and supportable rate
alpha from the tracked first and second moments of the channel rate.  The
utility rewards effective capacity and penalizes the delay-tail estimate
exp(-theta * alpha * W).  Unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions import ExponentialMean
from ..problem import CompositionalProblem
from ..sets import BoxWithSumCap
from .safeguards import EPS_DEN, diagonals, safe_inv, safe_inv_and_deriv


@dataclass(frozen=True)
class EffectiveCapacityInstance:
    bandwidths: np.ndarray
    p_min: float
    p_max: float
    delay_target: float  # W
    arrival_means: np.ndarray  # m_i^a
    arrival_variances: np.ndarray  # (sigma_i^a)^2
    channel_means: np.ndarray  # fading is exponential with these means
    psi_weights: np.ndarray
    phi_weights: np.ndarray
    eps_den: float = EPS_DEN
    name: str = "effective-capacity"

    def __post_init__(self):
        for f in ("bandwidths", "arrival_means", "arrival_variances",
                  "channel_means", "psi_weights", "phi_weights"):
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=float))
        n = self.bandwidths.size
        for f in ("arrival_means", "arrival_variances", "channel_means",
                  "psi_weights", "phi_weights"):
            if getattr(self, f).size != n:
                raise ValueError(f"{f} must have {n} entries")
        if np.any(self.arrival_means <= 0) or np.any(self.arrival_variances <= 0):
            raise ValueError("arrival statistics must be positive")
        if self.delay_target <= 0:
            raise ValueError("delay target must be positive")

    @property
    def n_queues(self) -> int:
        return self.bandwidths.size

    def channel_distribution(self) -> ExponentialMean:
        return ExponentialMean(mean=self.channel_means)

    def feasible_set(self) -> BoxWithSumCap:
        n = self.n_queues
        return BoxWithSumCap(
            lower=np.full(n, self.p_min),
            upper=np.full(n, self.p_max),
            cap=self.p_max,
        )

    def qos_exponent(self, y: np.ndarray) -> np.ndarray:
        """theta_i from tracked rate moments y = (means, second moments)."""
        n = self.n_queues
        u, v = y[..., :n], y[..., n:]
        den = self.arrival_variances + v - u**2
        knee = self.eps_den * self.arrival_variances
        return (u - self.arrival_means) * safe_inv(den, knee)

    def effective_capacity(self, y: np.ndarray) -> np.ndarray:
        return self.arrival_means + 0.5 * self.qos_exponent(y) * self.arrival_variances

    def build(self) -> CompositionalProblem:
        n = self.n_queues
        bw = self.bandwidths
        m_a, var_a = self.arrival_means, self.arrival_variances
        psi, phi = self.psi_weights, self.phi_weights
        w_target = self.delay_target
        half_var_a = 0.5 * var_a
        knee = self.eps_den * var_a
        dist = self.channel_distribution()

        def inner_g(p, zeta):
            b = bw * np.log1p(zeta * p)
            return np.concatenate([b, b**2], axis=-1)

        def inner_g_jacobian(p, zeta):
            zp = zeta * p
            b = bw * np.log1p(zp)
            bp = bw * zeta / (1.0 + zp)
            # columns b, b^2
            return np.concatenate([b, b**2], axis=-1), diagonals(
                b.shape[:-1] + (n, 2 * n), n, (((0, 0), bp), ((0, n), 2.0 * b * bp)))

        def outer_f(y):
            u, v = y[..., :n], y[..., n:]
            den = var_a + v - u**2
            theta = (u - m_a) * safe_inv(den, knee)
            alpha = m_a + 0.5 * theta * var_a
            tail = np.exp(-theta * alpha * w_target)
            return np.sum(phi * tail - psi * np.log(alpha), axis=-1)

        def outer_f_gradient(y):
            u, v = y[..., :n], y[..., n:]
            den = var_a + v - u**2
            inv, dinv = safe_inv_and_deriv(den, knee)
            diff = u - m_a
            theta = diff * inv
            alpha = m_a + 0.5 * theta * var_a
            tail = np.exp(-theta * alpha * w_target)
            dtheta_du = inv - 2.0 * u * diff * dinv
            dtheta_dv = diff * dinv
            dalpha_du = half_var_a * dtheta_du
            dalpha_dv = half_var_a * dtheta_dv
            neg_wtail = -w_target * tail
            dtail_du = neg_wtail * (theta * dalpha_du + alpha * dtheta_du)
            dtail_dv = neg_wtail * (theta * dalpha_dv + alpha * dtheta_dv)
            grad = np.empty(y.shape)
            grad[..., :n] = phi * dtail_du - psi * dalpha_du / alpha
            grad[..., n:] = phi * dtail_dv - psi * dalpha_dv / alpha
            return grad

        return CompositionalProblem(
            dim_x=n,
            dim_g=2 * n,
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

"""Fixed-rate transmission with outages and retransmissions.

Packets are sent at fixed rates R_i; whenever the fading realization cannot
support the rate, the slot is lost and the packet is retried.  The hard
outage indicator is replaced by a sigmoid in the channel rate so the inner
map stays differentiable; the tracked outage probability feeds the
retransmission-aware waiting-time formula.  No expectation constraint:
the penalty path of the solver stays inert.  The Jacobian map evaluates
zeta * p and the outage level once for its (value, Jacobian) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..distributions import TruncatedExponential
from ..problem import CompositionalProblem
from ..sets import BoxWithSumCap, ProductSet
from .safeguards import EPS_DEN, diagonals, safe_inv, safe_inv_and_deriv


@dataclass(frozen=True)
class OutageInstance:
    bandwidths: np.ndarray
    rates: np.ndarray  # fixed transmission rates R_i
    p_min: float
    p_max: float
    lambda_min: float
    lambda_max: float
    lambda_cap: float
    sharpness: float  # sigmoid steepness eta >= 1
    fading_lower: float  # exponential channel support truncated below at G
    psi_weights: np.ndarray
    phi_weights: np.ndarray
    eps_den: float = EPS_DEN
    name: str = "outage"

    def __post_init__(self):
        for f in ("bandwidths", "rates", "psi_weights", "phi_weights"):
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=float))
        n = self.bandwidths.size
        for f in ("rates", "psi_weights", "phi_weights"):
            if getattr(self, f).size != n:
                raise ValueError(f"{f} must have {n} entries")
        if self.sharpness < 1.0:
            raise ValueError("sharpness must be at least 1")
        if self.lambda_max >= np.min(self.rates):
            raise ValueError("lambda_max must stay below every fixed rate")

    @property
    def n_queues(self) -> int:
        return self.bandwidths.size

    def channel_distribution(self) -> TruncatedExponential:
        n = self.n_queues
        return TruncatedExponential(
            mean=np.ones(n), upper=np.full(n, np.inf),
            lower=np.full(n, self.fading_lower),
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

    def outage_level(self, p: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Smoothed outage indicator: ~1 when the rate exceeds the capacity."""
        b = self.bandwidths * np.log1p(zeta * p)
        return special.expit(self.sharpness * (self.rates - b))

    def max_outage(self) -> np.ndarray:
        """Largest reachable smoothed outage, attained at (p_min, G)."""
        return self.outage_level(
            np.full(self.n_queues, self.p_min),
            np.full(self.n_queues, self.fading_lower),
        )

    def waiting_times(self, y: np.ndarray) -> np.ndarray:
        n = self.n_queues
        u, v = y[..., :n], y[..., n:]
        a = self.rates * (1.0 - u)
        knee = self.eps_den * self.rates
        return (v * (1.0 + u) / 2.0) * safe_inv(a, knee) * safe_inv(a - v, knee)

    def build(self) -> CompositionalProblem:
        n = self.n_queues
        bw, r = self.bandwidths, self.rates
        psi, phi = self.psi_weights, self.phi_weights
        eta = self.sharpness
        knee = self.eps_den * r
        dist = self.channel_distribution()

        def g_values(level, lam):
            # in level's memory order; a point with a zeta block broadcasts lam
            g = np.empty(level.shape[:-1] + (2 * n,),
                         order="F" if level.flags.f_contiguous else "C")
            g[..., :n] = level
            g[..., n:] = lam
            return g

        def inner_g(x, zeta):
            level = special.expit(eta * (r - bw * np.log1p(zeta * x[..., n:])))
            return g_values(level, x[..., :n])

        def inner_g_jacobian(x, zeta):
            zp = zeta * x[..., n:]
            level = special.expit(eta * (r - bw * np.log1p(zp)))
            bp = bw * zeta / (1.0 + zp)
            # rows lam, p; columns outage level, lam
            return g_values(level, x[..., :n]), diagonals(zp.shape[:-1] + (2 * n, 2 * n), n, (
                ((n, 0), -eta * (level * (1.0 - level)) * bp), ((0, n), 1.0)))

        def outer_f(y):
            u, v = y[..., :n], y[..., n:]
            a = r * (1.0 - u)
            w = (v * (1.0 + u) / 2.0) * safe_inv(a, knee) * safe_inv(a - v, knee)
            return np.sum(phi * w - psi * np.log(a), axis=-1)

        def outer_f_gradient(y):
            u, v = y[..., :n], y[..., n:]
            a = r * (1.0 - u)
            inv1, dinv1 = safe_inv_and_deriv(a, knee)
            inv2, dinv2 = safe_inv_and_deriv(a - v, knee)
            base = v * (1.0 + u) / 2.0
            dw_du = (v / 2.0) * inv1 * inv2 \
                - r * base * (dinv1 * inv2 + inv1 * dinv2)
            dw_dv = ((1.0 + u) / 2.0) * inv1 * inv2 - base * inv1 * dinv2
            grad = np.empty(y.shape)
            grad[..., :n] = phi * dw_du + psi * r / a
            grad[..., n:] = phi * dw_dv
            return grad

        return CompositionalProblem(
            dim_x=2 * n,
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

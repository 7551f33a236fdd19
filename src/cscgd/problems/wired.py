"""Parallel M/G/1 queues on wired links: arrival-rate design.

Each of N queues receives Poisson traffic at a tunable rate and serves
packets with random lengths over a fixed-capacity link.  The objective
trades log-utility of throughput against the mean waiting delay from the
Pollaczek-Khinchin formula; the single expectation constraint caps the
worst per-queue delay.  The three outer maps that take a tracker share one
evaluation of the delay terms per tracker value (see ``build``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..distributions import TruncatedExponential, truncated_exponential_moments
from ..problem import CompositionalProblem
from ..sets import BoxWithSumCap
from .safeguards import EPS_DEN, diagonals, first_argmax_mask, safe_inv, safe_inv_and_deriv


@dataclass(frozen=True)
class Mg1WiredInstance:
    capacities: np.ndarray  # link capacities C_i
    lambda_min: float
    lambda_max: np.ndarray  # per-queue arrival caps
    lambda_cap: float  # total arrival budget
    d_max: float  # maximum tolerable waiting delay
    mean_lengths: np.ndarray  # scale of the parent exponential packet lengths
    max_lengths: np.ndarray  # hard truncation of packet lengths
    psi_weights: np.ndarray  # log-utility weights
    phi_weights: np.ndarray  # delay-penalty weights
    utilization_eps: float = 0.95
    eps_den: float = EPS_DEN
    name: str = "mg1-wired"

    def __post_init__(self):
        for f in ("capacities", "lambda_max", "mean_lengths", "max_lengths",
                  "psi_weights", "phi_weights"):
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=float))
        n = self.capacities.size
        for f in ("lambda_max", "mean_lengths", "max_lengths", "psi_weights",
                  "phi_weights"):
            if getattr(self, f).size != n:
                raise ValueError(f"{f} must have {n} entries")
        if not (0.0 < self.utilization_eps < 1.0):
            raise ValueError("utilization_eps must lie in (0, 1)")
        worst = self.lambda_max * self.max_lengths / self.capacities
        if np.any(worst > self.utilization_eps):
            # Worst-case packets can momentarily push the tracked load past
            # the capacity; the safeguarded outer function keeps gradients
            # bounded, so this is survivable but worth a warning.
            warnings.warn(
                "lambda_max * max_length exceeds eps * capacity for some "
                f"queue (max ratio {worst.max():.3f}); relying on the "
                "denominator safeguard",
                stacklevel=2,
            )

    @property
    def n_queues(self) -> int:
        return self.capacities.size

    def length_distribution(self) -> TruncatedExponential:
        return TruncatedExponential(mean=self.mean_lengths, upper=self.max_lengths)

    def feasible_set(self) -> BoxWithSumCap:
        n = self.n_queues
        return BoxWithSumCap(
            lower=np.full(n, self.lambda_min),
            upper=self.lambda_max.copy(),
            cap=self.lambda_cap,
        )

    def delays(self, y: np.ndarray) -> np.ndarray:
        """Safeguarded per-queue PK waiting delays at tracked moments y (rows too)."""
        n = self.n_queues
        u, v = y[..., :n], y[..., n:]
        c = self.capacities
        knee = self.eps_den * c
        return (v / (2.0 * c)) * safe_inv(c - u, knee)

    def build(self) -> CompositionalProblem:
        n = self.n_queues
        c = self.capacities
        psi, phi = self.psi_weights, self.phi_weights
        knee = self.eps_den * c
        two_c, neg_phi, d_max = 2.0 * c, -phi, self.d_max
        dist = self.length_distribution()

        def inner_g(lam, lengths):
            return np.concatenate([lam * lengths, lam * lengths**2], axis=-1)

        def inner_g_jacobian(lam, lengths):
            squares = lengths**2
            # columns lam * length, lam * length^2
            return (np.concatenate([lam * lengths, lam * squares], axis=-1),
                    diagonals(lengths.shape[:-1] + (n, 2 * n), n,
                              (((0, 0), lengths), ((0, n), squares))))

        def outer_f(y):
            u, v = y[..., :n], y[..., n:]
            delay = (v / two_c) * safe_inv(c - u, knee)
            return (phi * delay - psi * np.log(u)).sum(axis=-1)

        last = None, None  # key and delay terms of the latest tracker

        def delay_terms(y):
            # safe_inv(c - u), its derivative and v / 2c, evaluated once per tracker
            # value: the key holds dtype, shape and bytes, so an in-place update of y
            # misses, and so does a (1, 2n) stack of a (2n,) point.
            nonlocal last
            key = y.dtype, y.shape, y.tobytes()
            if last[0] != key:
                last = key, (*safe_inv_and_deriv(c - y[..., :n], knee), y[..., n:] / two_c)
            return last[1]

        def outer_f_gradient(y):
            inv, dinv, v_2c = delay_terms(y)
            grad = np.empty(y.shape)
            d_u = np.multiply(neg_phi, v_2c, out=grad[..., :n])
            d_u *= dinv
            d_u -= psi / y[..., :n]
            d_v = np.multiply(phi, inv, out=grad[..., n:])
            d_v /= two_c
            return grad

        def outer_q(z):
            inv, _, v_2c = delay_terms(z)
            return np.maximum.reduce(v_2c * inv, -1, keepdims=True) - d_max

        def outer_q_jacobian(z):
            inv, dinv, v_2c = delay_terms(z)
            worst = first_argmax_mask(v_2c * inv)
            jac = np.zeros(z.shape[:-1] + (2 * n, 1))
            jac[..., :n, 0] = np.where(worst, -v_2c * dinv, 0.0)
            jac[..., n:, 0] = np.where(worst, inv / two_c, 0.0)
            return jac

        return CompositionalProblem(
            dim_x=n,
            dim_g=2 * n,
            dim_h=2 * n,
            num_constraints=1,
            sample=dist.draw,
            inner_g=inner_g,
            inner_g_jacobian=inner_g_jacobian,
            inner_h=inner_g,
            inner_h_jacobian=inner_g_jacobian,
            outer_f=outer_f,
            outer_f_gradient=outer_f_gradient,
            outer_q=outer_q,
            outer_q_jacobian=outer_q_jacobian,
            feasible_set=self.feasible_set(),
            name=self.name,
            metadata={"instance": self},
        )

    def objective_value(self, y) -> float:
        """Safeguarded objective at tracked (or exact) moments y."""
        n = self.n_queues
        u = np.asarray(y, dtype=float)[:n]
        return float(
            np.sum(self.phi_weights * self.delays(np.asarray(y, dtype=float))
                   - self.psi_weights * np.log(u))
        )

    def objective_from_moments(self, lam, m1, m2) -> float:
        """Deterministic objective at arrival rates lam given length moments."""
        lam = np.asarray(lam, dtype=float)
        y = np.concatenate([lam * np.asarray(m1), lam * np.asarray(m2)])
        return self.objective_value(y)

    def default_c_ell(self) -> float:
        """Penalty knee: twice the worst corner constraint value, floored at 1."""
        m1, m2 = truncated_exponential_moments(self.mean_lengths, self.max_lengths)
        lam = self.lambda_max
        y = np.concatenate([lam * m1, lam * m2])
        q_worst = float(np.max(self.delays(y)) - self.d_max)
        return max(2.0 * q_worst, 1.0)


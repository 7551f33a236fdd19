"""Adaptive quadrature: the independent moment reference of the tests.

``cscgd`` computes every moment with its certified Gauss-Legendre rule
(``cscgd.oracles.certified_expectations``); the tests compare that rule
against scipy's adaptive ``quad``, which picks its own nodes per integrand.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import integrate

QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 400}


@dataclass(frozen=True)
class QuadratureMoments:
    orders: tuple
    values: dict
    abs_errors: dict

    def __getitem__(self, order: int) -> float:
        return self.values[order]

    def relative_error(self, order: int) -> float:
        v = abs(self.values[order])
        return self.abs_errors[order] / max(v, 1e-300)


def quadrature_moments(dist, orders, component: int = 0) -> QuadratureMoments:
    """E[X^k] of one marginal of ``dist`` by adaptive quadrature."""
    lo, hi = dist.support(component)
    values, errors = {}, {}
    for k in orders:
        val, err = integrate.quad(
            lambda x, k=k: x**k * dist.pdf(x, component), lo, hi, **QUAD_OPTS
        )
        values[int(k)] = val
        errors[int(k)] = err
    return QuadratureMoments(tuple(int(k) for k in orders), values, errors)


def expectation(fn, dist, component: int = 0) -> float:
    """E[fn(X)] for one marginal, by adaptive quadrature."""
    lo, hi = dist.support(component)
    val, _ = integrate.quad(
        lambda x: fn(x) * dist.pdf(x, component), lo, hi, **QUAD_OPTS
    )
    return val

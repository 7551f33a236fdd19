"""Documented assumption constants for each design instance.

Bounds on inner second moments (C_g, V_g, C_h, V_h), outer gradient norms
(C_f, C_q) and outer smoothness (L_f, L_q), plus the squared feasible-set
diameter D_x.  Where a design's published setup displays closed forms they
are reproduced verbatim (with the certified Gauss-Legendre rule of
``oracles`` for the truncated moments); where it does not, the bound is
taken numerically over the reachable tracked domain and marked as such in
the returned dict.
"""

from __future__ import annotations

import numpy as np

from ..distributions import make_rng
from .effective_capacity import EffectiveCapacityInstance
from .ergodic import Mg1ErgodicInstance
from .outage import OutageInstance
from .wired import Mg1WiredInstance


def constant_report(instance) -> dict:
    if isinstance(instance, Mg1WiredInstance):
        return _wired_constants(instance)
    if isinstance(instance, Mg1ErgodicInstance):
        return _ergodic_constants(instance)
    if isinstance(instance, OutageInstance):
        return _outage_constants(instance)
    if isinstance(instance, EffectiveCapacityInstance):
        return _effective_capacity_constants(instance)
    raise TypeError(f"no constant report for {type(instance).__name__}")


def _wired_constants(inst: Mg1WiredInstance) -> dict:
    from ..oracles import certified_expectations  # deferred: oracles uses the safeguards

    dist = inst.length_distribution()
    integrands = {"E[X^2]": lambda x: x**2, "E[X^4]": lambda x: x**4}
    rows = [certified_expectations(f"queue {i}", integrands, dist, i) for i in range(inst.n_queues)]
    m2, m4 = (np.array([row[name] for row in rows]) for name in integrands)
    c, lmax = inst.capacities, inst.max_lengths
    psi, phi = inst.psi_weights, inst.phi_weights
    eps = inst.utilization_eps
    c_g = float(np.sum(inst.lambda_max * (m2 + m4)))
    c_f = float(np.sum(
        (phi * (1.0 - eps + eps * lmax) / (4.0 * c * (1.0 - eps) ** 2)) ** 2
        + (psi / inst.lambda_min) ** 2
    ))
    l_f = float(np.max(np.maximum(
        phi * (1.0 - eps + eps * lmax) / (c**3 * (1.0 - eps) ** 3)
        + phi * (eps * c * lmax - 1.0) / (2.0 * c**3 * (1.0 - eps) ** 2)
        + 2.0 * psi / inst.lambda_min**2,
        phi / (4.0 * c**2 * (1.0 - eps)),
    )))
    # The constraint map has no published bound; bound its gradient over the
    # utilization-capped domain z_i <= eps * C_i with the worst-sample cap on
    # the tracked second-moment coordinate.
    d_min = (1.0 - eps) * c
    v_max = inst.lambda_max * lmax**2
    c_q = float(np.max(
        (v_max / (2.0 * c * d_min**2)) ** 2 + (1.0 / (2.0 * c * d_min)) ** 2
    ))
    l_q = float(np.max(v_max / (c * d_min**3) + 1.0 / (c * d_min**2)))
    return {
        "C_f": c_f, "L_f": l_f,
        "C_g": c_g, "V_g": c_g, "C_h": c_g, "V_h": c_g,
        "C_q": c_q, "L_q": l_q,
        "D_x": inst.feasible_set().squared_diameter(),
        "J": 1,
        "numeric_bounds": ("C_q", "L_q"),
    }


def _ergodic_constants(inst: Mg1ErgodicInstance) -> dict:
    b0 = inst.bandwidths * np.log1p(inst.p_min * inst.fading_lower)
    gain = (1.0 + inst.p_min * inst.fading_lower) ** 2
    psi, phi = inst.psi_weights, inst.phi_weights
    rem = 1.0 - inst.varsigma_eps  # the published bounds divide by (1 - eps)
    c_g = float(inst.n_queues + np.sum(
        (1.0 / b0**2) * (1.0 + inst.lambda_max / (gain * b0**2))
        + (1.0 / b0**4) * (1.0 + 2.0 * inst.lambda_max / (gain * b0**2))
    ))
    c_h = float(np.max(inst.bandwidths) / gain)
    c_f = float(np.sum(
        phi**2 / (4.0 * rem**2) * (1.0 + 1.0 / (b0**2 * rem**2))
        + (psi / inst.lambda_min) ** 2
    ))
    l_f = float(np.max(
        phi / rem**2 * (0.5 + 1.0 / (b0 * rem))
        + 2.0 * psi / inst.lambda_min**2
    ))
    return {
        "C_f": c_f, "L_f": l_f,
        "C_g": c_g, "V_g": c_g, "C_h": c_h, "V_h": c_h,
        "C_q": 1.0, "L_q": 0.0,
        "D_x": inst.feasible_set().squared_diameter(),
        "J": 1,
        "numeric_bounds": (),
    }


def _outage_constants(inst: OutageInstance) -> dict:
    gain = inst.bandwidths * inst.fading_lower / (1.0 + inst.p_min * inst.fading_lower)
    c_g = float(inst.n_queues + np.sum(0.5 * (1.0 + gain**2)))
    c_f, l_f = _numeric_outer_bounds(inst.build(), _outage_domain(inst))
    return {
        "C_f": c_f, "L_f": l_f,
        "C_g": c_g, "V_g": c_g, "C_h": 0.0, "V_h": 0.0,
        "C_q": 0.0, "L_q": 0.0,
        "D_x": inst.feasible_set().squared_diameter(),
        "J": 0,
        "numeric_bounds": ("C_f", "L_f"),
    }


def _effective_capacity_constants(inst: EffectiveCapacityInstance) -> dict:
    b = float(np.max(inst.bandwidths))
    c_g = (1.0 + 4.0 * b**2) * b**2 * inst.p_max**2
    v_g = (1.0 + 4.0 * b**2) * b**2 * inst.p_max**4
    c_f, l_f = _numeric_outer_bounds(inst.build(), _effective_capacity_domain(inst))
    return {
        "C_f": c_f, "L_f": l_f,
        "C_g": c_g, "V_g": v_g, "C_h": 0.0, "V_h": 0.0,
        "C_q": 0.0, "L_q": 0.0,
        "D_x": inst.feasible_set().squared_diameter(),
        "J": 0,
        "numeric_bounds": ("C_f", "L_f"),
    }


def _outage_domain(inst: OutageInstance):
    n = inst.n_queues
    u_max = inst.max_outage()
    lows = np.concatenate([np.full(n, 1e-12), np.full(n, inst.lambda_min)])
    highs = np.concatenate([u_max, np.full(n, inst.lambda_max)])
    return lows, highs


def _effective_capacity_domain(inst: EffectiveCapacityInstance):
    # Tracked rate moments stay inside the sampled envelope of b and b^2;
    # estimate it over the power box corners with a large fixed batch.
    rng = make_rng(2024, 0)
    zeta = inst.channel_distribution().draw(rng, 20_000)
    n = inst.n_queues
    lo_b = np.full(n, np.inf)
    hi_b = np.full(n, -np.inf)
    lo_b2 = np.full(n, np.inf)
    hi_b2 = np.full(n, -np.inf)
    for p in (np.full(n, inst.p_min), np.full(n, inst.p_max)):
        b = inst.bandwidths * np.log1p(zeta * p)
        for arr, lo, hi in ((b, lo_b, hi_b), (b**2, lo_b2, hi_b2)):
            np.minimum(lo, np.quantile(arr, 0.001, axis=0), out=lo)
            np.maximum(hi, np.quantile(arr, 0.999, axis=0), out=hi)
    return np.concatenate([lo_b, lo_b2]), np.concatenate([hi_b, hi_b2])


def _numeric_outer_bounds(problem, domain):
    """Numeric sup of ||grad f||^2 and its Lipschitz modulus over a y-box.

    Both are maxima over 2000 uniform points (the modulus over random close
    pairs at the first 200), inflated by a 1.2 margin.
    """
    lows, highs = domain
    rng = make_rng(7, 0)
    pts = lows + rng.random((2000, lows.size)) * (highs - lows)
    grads = np.array([problem.outer_f_gradient(p) for p in pts])
    c_f = 1.2 * float(np.max(np.sum(grads**2, axis=1)))
    # crude Lipschitz estimate from random close pairs
    shift = (highs - lows) * 1e-4
    ratios = []
    for p in pts[:200]:
        q = np.clip(p + shift * rng.standard_normal(lows.size), lows, highs)
        dp = np.linalg.norm(q - p)
        if dp == 0.0:
            continue
        dg = np.linalg.norm(problem.outer_f_gradient(q) - problem.outer_f_gradient(p))
        ratios.append(dg / dp)
    l_f = 1.2 * float(np.max(ratios))
    return c_f, l_f

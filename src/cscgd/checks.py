"""Reusable verification suites: gradients, projections, penalty, tracking.

The same routines back the test suite and the ``check`` command, so a green
CLI check certifies exactly what the tests certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import make_rng, monte_carlo_mean
from .oracles import finite_difference_check
from .penalty import PenaltyParams, penalty_value
from .solver import (
    SolverConfig,
    cscgd_step,
    draw_zeta,
    init_state,
    seed_streams,
    tracking_weights,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


def _interior_x(problem, rng, spread: float = 0.25) -> np.ndarray:
    fs = problem.feasible_set
    mid = fs.midpoint()
    jitter = 1.0 + spread * (rng.random(problem.dim_x) - 0.5)
    return fs.project(mid * jitter)


def _reachable_y(problem, rng, n_mix: int = 8) -> np.ndarray:
    """Realistic interior point of the tracked domain: an average of g draws."""
    x = _interior_x(problem, rng)
    acc = np.asarray(problem.inner_g(x, problem.sample(rng)), dtype=float).copy()
    for _ in range(n_mix - 1):
        acc += problem.inner_g(x, problem.sample(rng))
    return acc / n_mix


def _reachable_z(problem, rng, n_mix: int = 8) -> np.ndarray:
    x = _interior_x(problem, rng)
    acc = np.asarray(problem.inner_h(x, problem.sample(rng)), dtype=float).copy()
    for _ in range(n_mix - 1):
        acc += problem.inner_h(x, problem.sample(rng))
    return acc / n_mix


def gradient_suite(
    problem,
    n_points: int = 100,
    tol: float = 1e-5,
    seed: int = 314,
    h: float = 1e-6,
    z_kink_gap: float = 1e-3,
) -> CheckResult:
    """Analytic Jacobians and gradients against centered differences.

    Inner maps are probed at random interior x with a fresh sample each;
    outer maps at reachable tracked points (averages of inner draws).
    Points too close to a subgradient tie in the constraint map are
    redrawn, matching the generalized-gradient contract.
    """
    rng = make_rng(seed, 0)
    worst = 0.0
    worst_map = ""
    checked = 0
    for _ in range(n_points):
        x = _interior_x(problem, rng)
        zeta = problem.sample(rng)
        rep = finite_difference_check(
            lambda v: problem.inner_g(v, zeta), problem.inner_g_jacobian(x, zeta), x, h
        )
        if rep.max_rel_err > worst:
            worst, worst_map = rep.max_rel_err, "inner_g"
        y = _reachable_y(problem, rng)
        rep = finite_difference_check(
            problem.outer_f, problem.outer_f_gradient(y), y, h
        )
        if rep.max_rel_err > worst:
            worst, worst_map = rep.max_rel_err, "outer_f"
        if problem.constrained:
            rep = finite_difference_check(
                lambda v: problem.inner_h(v, zeta),
                problem.inner_h_jacobian(x, zeta), x, h,
            )
            if rep.max_rel_err > worst:
                worst, worst_map = rep.max_rel_err, "inner_h"
            z = _reachable_z(problem, rng)
            for _ in range(50):
                if _q_kink_distance(problem, z) > z_kink_gap:
                    break
                z = _reachable_z(problem, rng)
            rep = finite_difference_check(
                problem.outer_q, problem.outer_q_jacobian(z), z, h
            )
            if rep.max_rel_err > worst:
                worst, worst_map = rep.max_rel_err, "outer_q"
        checked += 1
    passed = worst <= tol
    return CheckResult(
        name=f"gradients[{problem.name}]",
        passed=passed,
        detail=f"{checked} points, max rel err {worst:.2e} ({worst_map}), tol {tol}",
    )


def _q_kink_distance(problem, z) -> float:
    """Distance proxy to a subgradient tie of a max-type constraint map."""
    inst = problem.metadata.get("instance")
    if inst is not None and hasattr(inst, "delays"):
        d = np.sort(inst.delays(np.asarray(z, dtype=float)))
        if d.size >= 2:
            return float((d[-1] - d[-2]) / max(abs(d[-1]), 1e-12))
    return math.inf


def projection_suite(feasible_set, n_trials: int = 10_000, seed: int = 99,
                     scale: float = 3.0) -> CheckResult:
    """Idempotence, nonexpansiveness and membership on random pairs."""
    rng = make_rng(seed, 0)
    dim = feasible_set.dim
    mid = feasible_set.midpoint()
    span = scale * (np.abs(mid) + 1.0)
    worst_idem = 0.0
    worst_exp = 0.0
    member_fail = 0
    for _ in range(n_trials):
        a = mid + span * rng.standard_normal(dim)
        b = mid + span * rng.standard_normal(dim)
        pa = feasible_set.project(a)
        pb = feasible_set.project(b)
        worst_idem = max(worst_idem, float(np.max(np.abs(feasible_set.project(pa) - pa))))
        num = float(np.linalg.norm(pa - pb))
        den = float(np.linalg.norm(a - b))
        worst_exp = max(worst_exp, num - den)
        if not feasible_set.contains(pa, slack=1e-9):
            member_fail += 1
    passed = worst_idem <= 1e-9 and worst_exp <= 1e-9 and member_fail == 0
    return CheckResult(
        name=f"projection[{type(feasible_set).__name__}]",
        passed=passed,
        detail=(f"{n_trials} trials, idempotence {worst_idem:.1e}, "
                f"expansion excess {worst_exp:.1e}, member fails {member_fail}"),
    )


def penalty_suite(params: PenaltyParams, n_trials: int = 10_000, seed: int = 7,
                  dim: int = 3) -> CheckResult:
    """Convexity along random segments, nonnegativity, exact zero set."""
    rng = make_rng(seed, 0)
    span = 3.0 * params.c_ell
    worst_midpoint = -np.inf
    nonneg_ok = True
    zero_ok = True
    for _ in range(n_trials):
        a = span * rng.standard_normal(dim)
        b = span * rng.standard_normal(dim)
        fa, fb = penalty_value(a, params), penalty_value(b, params)
        fm = penalty_value(0.5 * (a + b), params)
        worst_midpoint = max(worst_midpoint, fm - 0.5 * (fa + fb))
        if fa < 0.0 or fb < 0.0:
            nonneg_ok = False
        all_satisfied = np.all(a <= -params.gamma)
        if (fa == 0.0) != bool(all_satisfied):
            zero_ok = False
    passed = worst_midpoint <= 1e-12 and nonneg_ok and zero_ok
    return CheckResult(
        name="penalty-convexity",
        passed=passed,
        detail=(f"{n_trials} segments, worst midpoint excess {worst_midpoint:.1e}, "
                f"nonneg {nonneg_ok}, zero-set {zero_ok}"),
    )


def tracking_consistency(
    problem,
    vector_g_factory,
    dist,
    vector_h_factory=None,
    schedule_kwargs: dict | None = None,
    horizon: int = 2_000,
    n_mc: int = 1_000_000,
    seed: int = 5,
) -> CheckResult:
    """Frozen-x run against an independent Monte-Carlo mean of the inner maps.

    ``vector_g_factory(x)`` returns a batch evaluator mapping (n, k) draws
    to (n, m) inner-map values at the frozen point x.  The acceptance band
    combines the exact exponential-averaging variance of the tracker with
    the Monte-Carlo standard error (3 sigma), plus the residual weight of
    the initialization.
    """
    kwargs = {"a": 0.75, "b": 0.5, "c": 0.75, "regime": "diminishing"}
    kwargs.update(schedule_kwargs or {})
    config = SolverConfig(horizon=horizon, seeds=(seed,), **kwargs)
    rngs = seed_streams(config.seeds)
    schedule = config.schedule()
    state = init_state(problem, config, draw_zeta(problem, rngs))
    x_frozen = state.x.copy()
    block = draw_zeta(problem, rngs, horizon)
    for zeta, beta in zip(block, schedule.step_arrays()[1]):
        cscgd_step(problem, state, 0.0, beta, 0.0, config.penalty_params(), zeta)
    assert np.array_equal(state.x, x_frozen)
    x_frozen, tracked_y, tracked_z = x_frozen[0], state.y[0], state.z[0]
    weights, w0 = tracking_weights(schedule)
    var_scale = float(np.sum(weights**2))

    def band_and_err(tracked, factory):
        mc_mean, mc_se = monte_carlo_mean(factory(x_frozen), dist, n_mc, make_rng(seed, 17))
        sample_var = (mc_se * math.sqrt(n_mc)) ** 2
        band = 3.0 * np.sqrt(var_scale * sample_var + mc_se**2) \
            + w0 * (np.abs(mc_mean) + 1.0) \
            + 1e-12 * (np.abs(mc_mean) + 1.0)  # accumulated rounding floor
        return np.abs(tracked - mc_mean), band

    err_y, band_y = band_and_err(tracked_y, vector_g_factory)
    passed = bool(np.all(err_y <= band_y))
    detail = f"y: max err {float(err_y.max()):.3e} vs band {float(band_y.max()):.3e}"
    if vector_h_factory is not None and problem.constrained:
        err_z, band_z = band_and_err(tracked_z, vector_h_factory)
        passed = passed and bool(np.all(err_z <= band_z))
        detail += f"; z: max err {float(err_z.max()):.3e} vs band {float(band_z.max()):.3e}"
    return CheckResult(
        name=f"tracking[{problem.name}]",
        passed=passed,
        detail=detail,
    )

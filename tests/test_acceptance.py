"""Acceptance suite: one test per release criterion, each printing a verdict.

Shared expensive artifacts (the 50-seed wired-design experiment and its
deterministic baseline) are computed once per session.  Run with ``-s`` to
see the per-criterion lines as they pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit as sigmoid

from cscgd import SolverConfig, StepSchedule, run, step_bound_diagnostic, zero_violation_gamma
from cscgd.checks import gradient_suite, penalty_suite, projection_suite, tracking_consistency
from cscgd.distributions import ExponentialMean, make_rng
from cscgd.harness import (
    ExperimentConfig,
    evaluate_point,
    mann_kendall,
    rate_fit,
    read_trajectory_csv,
    run_experiment,
    subsample_log,
)
from cscgd.oracles import hessian_psd_scan, make_delay_utility_surface, wired_fstar
from cscgd.penalty import PenaltyParams
from cscgd.problems import (
    constant_report,
    mm1_optimal_mu,
    mm1_problem,
    paper_ex1,
    paper_ex2,
    paper_ex3,
    paper_ex4,
    paper_ex5,
    toy_constants,
)
from cscgd.problems.toy import constrained_quadratic_problem
from cscgd.sets import Box, BoxWithLinearInequalities, BoxWithSumCap, ProductSet


def verdict(number: int, ok: bool, detail: str):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def wired_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept-wired")
    config = ExperimentConfig(
        preset="paper-ex1", a=0.9167, b=0.5, c=0.75, regime="constant",
        horizon=10_000, gamma=0.0, seeds=tuple(range(50)),
        eval_samples=4_000, out_dir=str(out), workers=2, log_points=10_000,
    )
    t0 = time.perf_counter()
    summaries, curves = run_experiment(config)
    wall = time.perf_counter() - t0
    return {"config": config, "summaries": summaries, "curves": curves,
            "wall": wall, "out": out}


@pytest.fixture(scope="session")
def wired_baseline():
    return wired_fstar(paper_ex1())


def test_criterion_1_wired_convergence(wired_experiment, wired_baseline):
    base = wired_baseline
    summaries = wired_experiment["summaries"]
    rel_gaps = []
    violations = []
    for s in summaries:
        f_hat = base.objective(s.x_hat)  # same moment-exact contract as f_star
        rel_gaps.append(abs(f_hat - base.f_star) / abs(base.f_star))
        violations.append(base.max_constraint(s.x_hat))
    mean_rel_gap = float(np.mean(rel_gaps))
    mean_violation = float(np.mean(violations))
    d_max = paper_ex1().d_max
    wall = wired_experiment["wall"]
    ok = (mean_rel_gap <= 0.05
          and mean_violation <= 1e-2 * d_max
          and wall < 60.0)
    verdict(1, ok, (
        f"50 seeds, T=1e4: mean relative gap {mean_rel_gap:.4f} (<= 0.05), "
        f"mean violation {mean_violation:.2e} (<= {1e-2 * d_max:.1e}), "
        f"runtime {wall:.1f}s (< 60s)"
    ))


def test_criterion_2_mm1_closed_form():
    rng = make_rng(55)
    worst = 0.0
    for trial in range(5):
        lam = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.5, 2.0)
        h = rng.uniform(0.5, 2.0)
        problem = mm1_problem(lam, r, h)
        cfg = SolverConfig(a=0.6, b=0.4, c=0.5, regime="diminishing",
                           horizon=30_000, seeds=(trial,))
        (x_hat,), _ = run(problem, cfg)
        worst = max(worst, abs(x_hat[0] - mm1_optimal_mu(lam, r, h)))
    ok = worst < 1e-3
    verdict(2, ok, f"5 random (lam, r, h) triples: worst |mu_hat - mu*| = {worst:.2e} (< 1e-3)")


def test_criterion_3_rate_order(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept-ladder")
    # (a) decay slope on the unconstrained quadratic toy, horizon ladder
    ladder = {}
    for horizon in (1_000, 10_000, 100_000, 1_000_000):
        cfg = ExperimentConfig(
            preset="quadratic-toy", a=0.75, b=0.5, c=0.75, regime="constant",
            horizon=horizon, seeds=tuple(range(10)), eval_samples=100,
            out_dir=str(out / f"T{horizon}"), workers=2, x0=(1.0,),
            oracle_gap=True,
        )
        summaries, _ = run_experiment(cfg)
        ladder[horizon] = [abs(s.gap) for s in summaries]
    fit = rate_fit(ladder)
    slope_ok = fit.slope <= -0.2

    # (b) slow-rate regime is checked as properties on the constrained toy
    problem = constrained_quadratic_problem()
    constants = dict(toy_constants(problem))
    constants["C_ell"] = 1.0
    mk_cfg = ExperimentConfig(
        preset="constrained-quadratic-toy", a=0.9167, b=0.5, c=0.75,
        regime="constant", horizon=10_000, gamma=0.0, c_ell=1.0,
        seeds=tuple(range(10)), eval_samples=100,
        out_dir=str(out / "mk"), workers=2, log_points=10_000,
    )
    _, mk_curves = run_experiment(mk_cfg)
    idx = subsample_log(mk_curves["t"], 150)
    trend = mann_kendall(mk_curves["mean_gap"][idx])
    trend_ok = trend["s"] < 0

    schedule = StepSchedule(a=0.9167, b=0.5, c=0.75, regime="constant",
                            horizon=10_000)
    slater = 0.7  # most-interior point of the box satisfies q(x) = -0.7
    gamma_theory = zero_violation_gamma(constants, schedule)
    gamma_used = min(gamma_theory, 0.99 * slater / 2.0)
    zv_cfg = ExperimentConfig(
        preset="constrained-quadratic-toy", a=0.9167, b=0.5, c=0.75,
        regime="constant", horizon=10_000, gamma=gamma_used,
        c_ell=max(1.0, 0.25 + 2.0 * gamma_used),
        seeds=tuple(range(10)), eval_samples=100,
        out_dir=str(out / "zv"), workers=2,
    )
    zv_summaries, _ = run_experiment(zv_cfg)
    finals = np.array([s.max_violation for s in zv_summaries])
    se = finals.std(ddof=1) / math.sqrt(finals.size)
    zv_ok = float(finals.mean()) <= 3.0 * se

    ok = slope_ok and trend_ok and zv_ok
    verdict(3, ok, (
        f"gap slope {fit.slope:.2f} (<= -0.2, CI [{fit.ci_low:.2f}, {fit.ci_high:.2f}]); "
        f"Mann-Kendall S={trend['s']} (< 0); "
        f"zero-violation margin {gamma_used:.3f} (theory {gamma_theory:.2f}) -> "
        f"final violation {finals.mean():.3e} <= {3 * se:.1e}"
    ))


def test_criterion_4_gradient_suite():
    builds = {
        "wired": paper_ex1().build(),
        "ergodic": paper_ex2().build(),
        "outage": paper_ex3().build(),
        "effective-capacity": paper_ex4().build(),
        "provisioning": paper_ex5(
            load_dist=ExponentialMean([1.0, 1.0, 1.0]), sharpness=5.0
        ).build(),
    }
    details = []
    ok = True
    for name, problem in builds.items():
        result = gradient_suite(problem, n_points=100, tol=1e-5)
        ok = ok and result.passed
        details.append(f"{name}: {result.detail.split(', ')[1]}")
    verdict(4, ok, "100 interior points each at rel tol 1e-5 -> " + "; ".join(details))


def test_criterion_5_tracking_consistency():
    results = []

    inst1 = paper_ex1()
    results.append(tracking_consistency(
        inst1.build(),
        lambda x: (lambda L: np.concatenate([x * L, x * L**2], axis=1)),
        inst1.length_distribution(),
        vector_h_factory=lambda x: (lambda L: np.concatenate([x * L, x * L**2], axis=1)),
    ))

    inst2 = paper_ex2()

    def vg2(x):
        lam, p = x[:3], x[3:]

        def fn(z):
            b = inst2.bandwidths * np.log1p(z * p)
            return np.concatenate(
                [np.tile(lam, (z.shape[0], 1)), lam / b, lam / b**2], axis=1
            )

        return fn

    def vh2(x):
        p = x[3:]

        def fn(z):
            return -(inst2.bandwidths * np.log1p(z * p)).min(axis=1, keepdims=True)

        return fn

    results.append(tracking_consistency(
        inst2.build(), vg2, inst2.channel_distribution(), vector_h_factory=vh2
    ))

    inst3 = paper_ex3()

    def vg3(x):
        lam, p = x[:3], x[3:]

        def fn(z):
            b = inst3.bandwidths * np.log1p(z * p)
            return np.concatenate(
                [sigmoid(inst3.sharpness * (inst3.rates - b)),
                 np.tile(lam, (z.shape[0], 1))], axis=1
            )

        return fn

    results.append(tracking_consistency(inst3.build(), vg3,
                                         inst3.channel_distribution()))

    inst4 = paper_ex4()

    def vg4(x):
        def fn(z):
            b = inst4.bandwidths * np.log1p(z * x)
            return np.concatenate([b, b**2], axis=1)

        return fn

    results.append(tracking_consistency(inst4.build(), vg4,
                                         inst4.channel_distribution()))

    ok = all(r.passed for r in results)
    verdict(5, ok, "; ".join(f"{r.name.split('[')[1][:-1]} {'ok' if r.passed else r.detail}"
                             for r in results))


def test_criterion_6_step_bound_diagnostic(wired_experiment):
    constants = dict(constant_report(paper_ex1()))
    constants["C_ell"] = paper_ex1().default_c_ell()
    out = wired_experiment["out"]
    trajectories = []
    for seed in wired_experiment["config"].seeds:
        data = read_trajectory_csv(out / f"trajectory-seed{seed}.csv")
        trajectories.append({
            "t": data["t"], "alpha": data["alpha"], "delta": data["delta"],
            "step_sq": data["step_sq"],
        })
    report = step_bound_diagnostic(trajectories, constants)
    ok = report.violation_count == 0
    margin = float(np.max(report.mean_step_sq / report.bound))
    verdict(6, ok, (
        f"50 seeds x 1e4 iterations: {report.violation_count} flagged "
        f"(worst observed/bound ratio {margin:.2e})"
    ))


def test_criterion_7_property_suites():
    results = [
        penalty_suite(PenaltyParams(gamma=0.25, c_ell=2.0), n_trials=10_000),
        projection_suite(Box(lower=[-1.0, 0.0, 2.0], upper=[1.0, 5.0, 2.5]),
                         n_trials=10_000),
        projection_suite(
            BoxWithSumCap(lower=[0.1, 0.1, 0.1], upper=[5.0, 7.0, 9.0], cap=15.0),
            n_trials=10_000,
        ),
        projection_suite(
            ProductSet(blocks=(
                BoxWithSumCap(lower=[0.1, 0.1], upper=[15.0, 15.0], cap=25.0),
                BoxWithSumCap(lower=[14.0, 14.0], upper=[100.0, 100.0], cap=100.0),
            )),
            n_trials=10_000,
        ),
        projection_suite(
            BoxWithLinearInequalities(
                lower=[0.5, 0.5, 0.5, 5.0], upper=[10.0, 10.0, 10.0, 50.0],
                a_mat=[[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                       [0.0, 1.0, -1.0, 0.0], [0.0, -1.0, 1.0, 0.0]],
                b_vec=[-0.5, 2.0, -1.0, 4.0],
            ),
            n_trials=10_000,
        ),
        # penalty derivative matches finite differences away from kinks
    ]
    ok = all(r.passed for r in results)
    verdict(7, ok, "; ".join(
        f"{r.name} {'ok' if r.passed else r.detail}" for r in results
    ))


def test_criterion_8_convexity_scan():
    t0 = time.perf_counter()
    mins = {}
    for antennas in (5, 10):
        surface = make_delay_utility_surface(antennas=antennas)
        result = hessian_psd_scan(
            surface, np.linspace(0.1, 15.0, 51), np.linspace(14.0, 100.0, 51)
        )
        mins[antennas] = result.global_min
    wall = time.perf_counter() - t0
    ok = all(v >= -1e-8 for v in mins.values()) and wall < 120.0
    verdict(8, ok, (
        f"51x51 grid: min eigenvalue K=5 {mins[5]:.2e}, K=10 {mins[10]:.2e} "
        f"(>= -1e-8), runtime {wall:.1f}s (< 120s)"
    ))


def test_criterion_9_nonconvex_stationarity():
    details = []
    ok = True
    for build in (paper_ex3, paper_ex4):
        inst = build()
        problem = inst.build()
        report = constant_report(inst)
        cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                           horizon=10_000, seeds=(0,), log_points=10_000)
        (x_hat,), (traj,) = run(problem, cfg)
        x_init = problem.feasible_set.project(problem.feasible_set.midpoint())
        tail = slice(-(traj["t"].size // 10), None)
        movement = float(np.mean(np.sqrt(traj["step_sq"][tail]) / traj["alpha"][tail]))
        floor = math.sqrt(2.0 * report["C_f"] * report["C_g"])
        ev_hat = evaluate_point(problem, x_hat, 20_000, seed=777)
        ev_init = evaluate_point(problem, x_init, 20_000, seed=777)
        improved = ev_hat["f"] < ev_init["f"]
        ok = ok and movement <= 10.0 * floor and improved
        details.append(
            f"{inst.name}: movement/alpha {movement:.3g} <= {10 * floor:.3g}, "
            f"F(x_hat)={ev_hat['f']:.4f} < F(x_1)={ev_init['f']:.4f}: {improved}"
        )
    verdict(9, ok, "; ".join(details))


def test_criterion_10_determinism(wired_experiment, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("accept-determinism")
    base = wired_experiment["config"]
    repeat = ExperimentConfig.from_dict({
        **base.to_dict(), "seeds": [0, 1], "out_dir": str(out2), "workers": 1,
    })
    run_experiment(repeat)
    same = True
    for seed in (0, 1):
        b1 = (wired_experiment["out"] / f"trajectory-seed{seed}.csv").read_bytes()
        b2 = (out2 / f"trajectory-seed{seed}.csv").read_bytes()
        same = same and b1 == b2
    # and a second repetition of the repeat run itself
    out3 = tmp_path_factory.mktemp("accept-determinism-2")
    again = ExperimentConfig.from_dict({**repeat.to_dict(), "out_dir": str(out3)})
    run_experiment(again)
    for seed in (0, 1):
        same = same and (
            (out2 / f"trajectory-seed{seed}.csv").read_bytes()
            == (out3 / f"trajectory-seed{seed}.csv").read_bytes()
        )
    verdict(10, same, "repeated runs with identical config+seed emit byte-identical CSVs")


def test_criterion_11_wireless_reaches_its_reference(ex2_reference):
    # ex2_reference (conftest): the exact-PK sample-average optimum at the
    # harness's oracle parameters
    inst = paper_ex2()
    problem = inst.build()
    f_star = ex2_reference.value

    def gap_and_worst_q(a, b, c):
        cfg = SolverConfig(a=a, b=b, c=c, regime="constant", horizon=10_000,
                           c_ell=inst.default_c_ell(), seeds=(0, 1, 2, 3))
        x_hats, _ = run(problem, cfg)
        evs = [evaluate_point(problem, x, 20_000, seed=777) for x in x_hats]
        gap = np.mean([abs(ev["f"] - f_star) / abs(f_star) for ev in evs])
        return float(gap), max(float(ev["q"][0]) for ev in evs), x_hats

    gap, worst_q, x_hats = gap_and_worst_q(0.51, 0.5, 0.5)
    shipped = ExperimentConfig(preset=inst.name)
    shipped_gap, _, _ = gap_and_worst_q(shipped.a, shipped.b, shipped.c)
    # Where x_hat lands, printed and not gated: the objective is flat enough
    # along the powers that the gap alone cannot tell whether they moved
    # off the equal split.  A gate on it waits for ROADMAP item 1.
    miss = np.abs(x_hats - ex2_reference.x).max(axis=0)
    n = inst.n_queues
    ok = gap <= 0.01 and worst_q <= 0.0
    verdict(11, ok, (
        f"paper-ex2-k5, 4 seeds, T=1e4, (a, b, c) = (0.51, 0.5, 0.5): mean relative "
        f"gap {gap:.4f} (<= 0.01) to F* = {f_star:.5f}, worst constraint value "
        f"{worst_q:.2f} (<= 0), max |x_hat - x*| rates {miss[:n].max():.3g}, powers "
        f"{miss[n:].max():.3g} (not gated); at the shipped ({shipped.a}, {shipped.b}, "
        f"{shipped.c}) the gap is {shipped_gap:.4f} (not gated)"
    ))

import math

import numpy as np
import pytest

from cscgd import (
    Box,
    CompositionalProblem,
    FeasibleSetError,
    NonFiniteGradientError,
    SolverConfig,
    SolverState,
    StepSchedule,
    cscgd_step,
    draw_zeta,
    init_state,
    make_rng,
    run,
    seed_streams,
    step_bound_diagnostic,
    zero_violation_gamma,
)
from cscgd.harness import ExperimentConfig, resolve_problem
from cscgd.penalty import penalty_gradient
from cscgd.solver import convergence_bound_terms, logged_iterations, tracking_weights
from cscgd.problems import (
    constrained_quadratic_problem,
    get_preset,
    quadratic_problem,
    toy_constants,
)


def scalar_reference(horizon, a, b, c, regime, x0=1.0, lo=-1.0, hi=1.0):
    """Independent straight-line simulation of the toy recursion."""
    sched = StepSchedule(a=a, b=b, c=c, regime=regime, horizon=horizon)
    x = min(max(x0, lo), hi)
    y = x  # one extra sample initializes the tracker at g(x1) = x1
    xs, tail = [], []
    t_tail = math.ceil(horizon / 2)
    alphas, betas, _ = sched.step_arrays()
    for t in range(1, horizon + 1):
        alpha, beta = alphas[t - 1], betas[t - 1]
        if t >= t_tail:
            tail.append(x)
        y = (1.0 - beta) * y + beta * x
        x = min(max(x - alpha * y, lo), hi)
        xs.append(x)
    return np.array(xs), float(np.mean(tail))


def test_toy_run_matches_scalar_reference():
    problem = quadratic_problem()
    for regime in ("diminishing", "constant"):
        cfg = SolverConfig(a=0.75, b=0.5, c=0.75, regime=regime, horizon=400,
                           seeds=(0,), x0=np.array([1.0]))
        (x_hat,), (traj,) = run(problem, cfg)
        xs_ref, x_hat_ref = scalar_reference(400, 0.75, 0.5, 0.75, regime)
        xs = traj["x"][:, 0]
        assert np.allclose(xs, xs_ref, atol=1e-14)
        assert x_hat[0] == pytest.approx(x_hat_ref, abs=1e-14)


def test_toy_constant_regime_monotone_to_zero():
    problem = quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, regime="constant", horizon=10_000,
                       seeds=(0,), x0=np.array([1.0]), log_points=10_000)
    (x_hat,), (traj,) = run(problem, cfg)
    xs = traj["x"][:, 0]
    assert np.all(np.diff(xs) <= 1e-15)
    assert np.all(xs >= -1e-15)
    assert abs(x_hat[0]) < 1e-2


def test_run_equals_repeated_steps_bitwise():
    problem = constrained_quadratic_problem()
    cfg = SolverConfig(a=0.8, b=0.4, c=0.6, regime="diminishing", horizon=250,
                       gamma=0.05, c_ell=1.0, seeds=(11,))
    (x_hat,), (traj,) = run(problem, cfg)

    # solver stream 0 drawn one zeta at a time, one cscgd_step per
    # iteration: must agree with run's block draws and its step loop
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    steps = zip(*cfg.schedule().step_arrays())
    assert traj["t"].size == cfg.horizon
    for i, (t, step) in enumerate(zip(range(1, cfg.horizon + 1), steps)):
        x_prev = state.x
        qval = cscgd_step(problem, state, *step,
                          cfg.penalty_params(), draw_zeta(problem, rngs))
        assert traj["t"][i] == t
        assert traj["x"][i, 0] == state.x[0, 0]
        assert traj["obj"][i] == problem.outer_f(state.y[0])
        assert traj["step_sq"][i] == np.sum((state.x[0] - x_prev[0]) ** 2)
        assert np.array_equal(traj["viol"][i], qval[0])
    assert x_hat[0] == pytest.approx(state.tail_sum[0, 0] / state.tail_count, abs=0.0)


def test_unconstrained_step_is_plain_tracked_gradient():
    problem = quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=10, seeds=(0,), x0=np.array([0.7]))
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    sched = cfg.schedule()
    y0 = state.y[0, 0]
    alpha, beta, delta = (arr[0] for arr in sched.step_arrays())
    cscgd_step(problem, state, alpha, beta, delta, cfg.penalty_params(),
               draw_zeta(problem, rngs))
    y1 = (1 - beta) * y0 + beta * 0.7
    assert state.y[0, 0] == pytest.approx(y1, abs=1e-15)
    assert state.x[0, 0] == pytest.approx(0.7 - alpha * y1, abs=1e-15)


def test_zero_steps_keep_x_but_update_trackers():
    problem = constrained_quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=50, seeds=(3,),
                       x0=np.array([0.9]), c_ell=1.0)
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    y_before = state.y.copy()
    beta = cfg.schedule().step_arrays()[1][0]
    cscgd_step(problem, state, 0.0, beta, 0.0, cfg.penalty_params(), draw_zeta(problem, rngs))
    assert state.x[0, 0] == 0.9
    # beta_1 = 1 for the diminishing regime: tracker now equals g(x, zeta)
    assert state.y[0, 0] == 0.9
    assert state.t == 2
    assert y_before[0, 0] == 0.9  # init used one extra sample at x1


def test_pure_tracking_matches_monte_carlo():
    # stochastic inner map: g(x, zeta) = x * zeta with E[zeta] = 1
    from cscgd import ExponentialMean

    dist = ExponentialMean(1.0)

    problem = CompositionalProblem(
        dim_x=1, dim_g=1, dim_h=0, num_constraints=0,
        sample=dist.draw,
        inner_g=lambda x, z: x * z,
        inner_g_jacobian=lambda x, z: (x * z, z[..., None]),
        outer_f=lambda y: 0.5 * (y * y).sum(axis=-1),
        outer_f_gradient=lambda y: y,
        feasible_set=Box(lower=[0.5], upper=[0.5]),
        name="tracking-toy",
    )
    T = 4000
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=T, seeds=(21,))
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    sched = cfg.schedule()
    for beta in sched.step_arrays()[1]:
        cscgd_step(problem, state, 0.0, beta, 0.0, cfg.penalty_params(), draw_zeta(problem, rngs))
    weights, w0 = tracking_weights(sched)
    assert w0 == 0.0  # beta_1 = 1 wipes the initialization
    # Var(y_T) = sum w_t^2 Var(0.5 zeta); 10^6-sample independent estimate
    mc = dist.draw(make_rng(99, 0), 1_000_000)[:, 0] * 0.5
    band = 3.0 * math.sqrt(np.sum(weights**2) * mc.var(ddof=1)
                           + mc.var(ddof=1) / mc.size)
    assert abs(state.y[0, 0] - mc.mean()) <= band


def test_horizon_two_tail_average():
    problem = quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=2, seeds=(0,), x0=np.array([1.0]))
    (x_hat,), _ = run(problem, cfg)
    # tail covers t in {1, 2}: x1 = 1 and x2 = x1 - alpha_1 * y_2 = 0
    assert x_hat[0] == pytest.approx(0.5, abs=1e-15)


def test_every_iterate_stays_feasible():
    problem = constrained_quadratic_problem()
    cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant", horizon=500,
                       gamma=0.2, c_ell=1.0, seeds=(5,))
    _, (traj,) = run(problem, cfg)
    for x in traj["x"]:
        assert problem.feasible_set.contains(x, slack=1e-12)

    # paper-ex2-k5: a ProductSet of budgeted boxes whose budget binds
    inst = get_preset("paper-ex2-k5")
    problem = inst.build()
    cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant", horizon=300,
                       c_ell=inst.default_c_ell(), seeds=(0,))
    _, (traj,) = run(problem, cfg)
    for x in traj["x"]:
        assert problem.feasible_set.contains(x, slack=1e-12)
    blocks = problem.feasible_set.blocks
    parts = np.split(traj["x"], np.cumsum([b.dim for b in blocks])[:-1], axis=1)
    assert any(np.any(part.sum(axis=1) >= b.cap - 1e-9) for b, part in zip(blocks, parts))


def zeros_sample(rng, size=None):
    return np.zeros(1 if size is None else (size, 1))


def ones_jacobian(x, z):
    return x, np.ones(x.shape + (1,))


def identity_problem(**maps):
    """x in [-1, 1] with g = h = x; ``maps`` replaces the outer maps."""
    fields = dict(
        dim_x=1, dim_g=1, dim_h=1, num_constraints=1,
        sample=zeros_sample,
        inner_g=lambda x, z: x,
        inner_g_jacobian=ones_jacobian,
        outer_f=lambda y: 0.5 * (y * y).sum(axis=-1),
        outer_f_gradient=lambda y: y,
        inner_h=lambda x, z: x,
        inner_h_jacobian=ones_jacobian,
        outer_q=lambda z: z - 1.0,
        outer_q_jacobian=lambda z: np.ones(z.shape + (1,)),
        feasible_set=Box(lower=[-1.0], upper=[1.0]),
    )
    fields.update(maps)
    return CompositionalProblem(**fields)


def test_non_finite_gradient_names_culprit():
    bad_after = 25

    calls = {"n": 0}

    def bad_grad(y):
        calls["n"] += 1
        if calls["n"] > bad_after:
            return np.full_like(y, np.nan)
        return y

    problem = identity_problem(dim_h=0, num_constraints=0, inner_h=None,
                               inner_h_jacobian=None, outer_q=None,
                               outer_q_jacobian=None, outer_f_gradient=bad_grad)
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=(0,))
    with pytest.raises(NonFiniteGradientError) as exc:
        run(problem, cfg)
    assert exc.value.source == "outer_f_gradient"
    assert exc.value.t > 1


def test_non_finite_outer_q_is_named():
    calls = {"n": 0}

    def bad_q(z):
        calls["n"] += 1
        return np.full_like(z, np.nan) if calls["n"] > 20 else z - 1.0

    problem = identity_problem(outer_q=bad_q)
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=(0,))
    with pytest.raises(NonFiniteGradientError) as exc:
        run(problem, cfg)
    assert exc.value.source == "outer_q"
    assert exc.value.t == 21
    assert exc.value.seed == 0


def test_non_finite_outer_q_names_the_seed_in_a_batch():
    calls = {"n": 0}

    def bad_q(z):
        # From the 21st stacked call on, the middle seed's row is NaN; the
        # single-row probe of that seed sees NaN as well.
        out = z - 1.0
        if z.ndim == 2:
            calls["n"] += 1
            if calls["n"] > 20:
                out[1] = np.nan
        elif calls["n"] > 20:
            out[:] = np.nan
        return out

    problem = identity_problem(outer_q=bad_q)
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=(4, 7, 9))
    with pytest.raises(NonFiniteGradientError, match="outer_q at iteration 21 of seed 7") as exc:
        run(problem, cfg)
    assert exc.value.source == "outer_q"
    assert exc.value.t == 21
    assert exc.value.seed == 7


def unconstrained(**maps):
    return identity_problem(dim_h=0, num_constraints=0, inner_h=None, inner_h_jacobian=None,
                            outer_q=None, outer_q_jacobian=None, **maps)


def test_overflowing_projection_input_is_named():
    # Every map stays finite; only x - direction overflows to inf.
    problem = unconstrained(outer_f_gradient=lambda y: -y,
                            feasible_set=Box(lower=[-1.5e308], upper=[1.5e308]))
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=(0,), x0=(1e308,))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError) as exc:
        run(problem, cfg)
    assert exc.value.source == "projection input"
    assert exc.value.t == 1
    assert exc.value.seed == 0


# One seed steps on single points, two seeds on stacked rows.
@pytest.mark.parametrize("seeds", [(0,), (0, 1)], ids=["one-seed", "two-seeds"])
def test_projection_error_on_finite_input_passes_through(seeds):
    class RefusesAfterMidpoint(Box):
        calls = 0

        def project(self, v):
            self.calls += 1
            if self.calls > 1:  # the first call projects the initial midpoint
                raise FeasibleSetError("refused")
            return super().project(v)

    problem = unconstrained(feasible_set=RefusesAfterMidpoint(lower=[-1.0], upper=[1.0]))
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=seeds)
    with pytest.raises(FeasibleSetError, match="^refused$"):
        run(problem, cfg)


@pytest.mark.parametrize("name, maps, gamma, got", [
    ("outer_f_gradient", {"outer_f_gradient": lambda y: y.tolist()}, 0.0, "type list"),
    ("inner_g_jacobian",
     {"inner_g_jacobian": lambda x, z: (x, np.ones(x.shape + (1,), dtype=int))},
     0.0, "dtype int64"),
    ("inner_g", {"inner_g": lambda x, z: x.tolist()}, 0.0, "type list"),
    # called only once the penalty is active, which gamma = 1.5 makes it at x = 0
    ("outer_q_jacobian", {"outer_q_jacobian": lambda z: np.ones(z.shape + (1,), dtype=int)},
     1.5, "dtype int64"),
    ("inner_g_jacobian", {"inner_g_jacobian": lambda x, z: (x.tolist(), ones_jacobian(x, z)[1])},
     0.0, "type list"),
    # a map of its own, called only once the penalty is active
    ("inner_h_jacobian",
     {"inner_h_jacobian": lambda x, z: (x, np.ones(x.shape + (1,), dtype=np.float32))},
     1.5, "dtype float32"),
])
def test_run_names_a_map_that_returns_no_float_ndarray(name, maps, gamma, got):
    problem = identity_problem(**maps)
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=(0, 1), gamma=gamma,
                       c_ell=2.0)
    with pytest.raises(ValueError, match=f"^{name} returned {got}, expected a float ndarray"):
        run(problem, cfg)


def test_config_rejects_negative_seeds():
    # numpy's SeedSequence would reject them later, naming no field
    with pytest.raises(ValueError, match=r"^seeds must be non-negative, got \[-1\]$"):
        SolverConfig(a=0.75, b=0.5, c=0.75, horizon=50, seeds=(4, -1))
    assert SolverConfig(a=0.75, b=0.5, c=0.75, horizon=50, seeds=(0,)).seeds == (0,)


@pytest.mark.parametrize("log_points", [1, 0, -3])
def test_config_rejects_fewer_than_two_log_points(log_points):
    # the grid must hold t = 1 and t = T
    with pytest.raises(ValueError, match=f"^log_points must be at least 2, got {log_points}$"):
        SolverConfig(a=0.75, b=0.5, c=0.75, horizon=50, log_points=log_points)


def test_logged_iterations_policy():
    for horizon, log_points in ((1_000, None), (10_000, 10_000), (2, 5)):
        assert np.array_equal(logged_iterations(horizon, log_points),
                              np.arange(1, horizon + 1))
    grid = logged_iterations(10_000)  # past the default 1000 log points
    assert 1 < grid.size <= 1000 and grid[0] == 1 and grid[-1] == 10_000
    assert np.all(np.diff(grid) > 0)
    assert np.all(np.isin(grid, np.arange(1, 10_001)))
    assert logged_iterations(1_001).size <= 1000
    sparse = logged_iterations(1_000_000)
    assert sparse.size <= 1000
    assert sparse[0] == 1 and sparse[-1] == 1_000_000
    assert np.all(np.diff(sparse) > 0)


@pytest.mark.parametrize("name, horizon, seeds", [
    ("paper-ex1", 10_000, (0,)), ("paper-ex2-k5", 2_000, (0, 1)),
    ("quadratic-toy", 5_000, (0,))])
def test_log_grid_rows_equal_the_full_log(name, horizon, seeds):
    config = ExperimentConfig(preset=name, horizon=horizon, seeds=seeds)
    problem, c_ell = resolve_problem(config)
    cfg = config.solver_config(seeds, c_ell)
    x_grid, grid = run(problem, cfg)
    cfg.log_points = horizon
    x_full, full = run(problem, cfg)
    assert x_grid.tobytes() == x_full.tobytes()
    for traj_grid, traj_full in zip(grid, full):
        ts = traj_grid["t"]
        assert ts.size < horizon and np.array_equal(traj_full["t"], np.arange(1, horizon + 1))
        for col in ("t", "alpha", "beta", "delta", "obj", "viol", "step_sq", "x"):
            assert traj_grid[col].tobytes() == traj_full[col][ts - 1].tobytes(), col


def test_horizon_must_be_at_least_two():
    with pytest.raises(ValueError):
        run(quadratic_problem(), SolverConfig(a=0.75, b=0.5, c=0.75, horizon=1))


def test_step_bound_holds_with_exact_constants():
    problem = quadratic_problem()
    constants = toy_constants(problem)
    trajectories = []
    for seed in range(20):
        cfg = SolverConfig(a=0.75, b=0.5, c=0.75, regime="constant",
                           horizon=300, seeds=(seed,), x0=np.array([1.0]))
        _, (traj,) = run(problem, cfg)
        trajectories.append(traj)
    report = step_bound_diagnostic(trajectories, constants)
    assert report.violation_count == 0


def test_step_bound_zero_steps_trivially_hold():
    problem = quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=100, seeds=(0,))
    # pure tracking (alpha = delta = 0): every step is exactly zero
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    _, betas, _ = cfg.schedule().step_arrays()
    steps = []
    for beta in betas:
        x_prev = state.x
        cscgd_step(problem, state, 0.0, beta, 0.0, cfg.penalty_params(), draw_zeta(problem, rngs))
        steps.append(np.sum((state.x - x_prev) ** 2))
    traj = {"t": np.arange(1, cfg.horizon + 1), "alpha": np.zeros(cfg.horizon),
            "delta": np.zeros(cfg.horizon), "step_sq": np.array(steps)}
    report = step_bound_diagnostic([traj], toy_constants(problem))
    assert report.violation_count == 0
    assert np.all(report.mean_step_sq == 0.0)


def test_step_bound_flags_when_constants_shrunk():
    # quartering the bound puts it below the realized early steps; halving
    # alone only reaches the boundary of attainable steps on this toy
    problem = quadratic_problem()
    constants = toy_constants(problem)
    shrunk = dict(constants)
    shrunk["C_f"] = constants["C_f"] / 4.0
    trajectories = []
    for seed in range(10):
        cfg = SolverConfig(a=0.75, b=0.5, c=0.75, regime="constant",
                           horizon=200, seeds=(seed,), x0=np.array([1.0]))
        _, (traj,) = run(problem, cfg)
        trajectories.append(traj)
    report = step_bound_diagnostic(trajectories, shrunk)
    assert report.violation_count > 0


def test_step_bound_flag_sits_at_three_standard_errors():
    # bound = 2 a^2 C_f C_g + 2 d^2 J C_ell^2 C_q C_h = 1.0 + 0.5; two seeds at
    # m +- 0.25 have se = 0.25, so a point is flagged iff m - 0.75 > 1.5
    constants = {"C_f": 1.0, "C_g": 2.0, "C_q": 1.0, "C_h": 1.0, "C_ell": 1.0, "J": 1}
    means = np.array([2.26, 2.24])
    trajectories = [
        {"t": np.array([1, 2]), "alpha": np.array([0.5, 0.5]),
         "delta": np.array([0.5, 0.5]), "step_sq": means + shift}
        for shift in (0.25, -0.25)
    ]
    report = step_bound_diagnostic(trajectories, constants)
    np.testing.assert_array_equal(report.bound, [1.5, 1.5])
    np.testing.assert_allclose(report.mean_step_sq, means, rtol=1e-15)
    np.testing.assert_allclose(report.std_err, [0.25, 0.25], rtol=1e-12)
    np.testing.assert_array_equal(report.flagged, [True, False])
    assert report.violation_count == 1


@pytest.mark.parametrize("v_g, v_h, d_1, d_2", [
    # D_1 = D_x + 3 V_g + 2 C_g (C_f C_g + pen) + 3 V_h + 2 C_h (C_f C_g + pen), pen = 0.5;
    # D_2 = max(4 (C_g + C_h)(C_f C_g + pen) + (L_f C_g + L_q C_h C_ell + C_h C_q) D_x,
    #           2 (C_f C_g + pen), 4 (V_g + V_h))
    (0.25, 0.5, 4.0 + 10.75 + 6.5, 48.0),
    (10.0, 5.0, 4.0 + 40.0 + 20.0, 60.0),
])
def test_convergence_bound_terms_hand_computed(v_g, v_h, d_1, d_2):
    constants = {"C_f": 1.0, "C_g": 2.0, "C_h": 1.0, "C_q": 0.5, "V_g": v_g, "V_h": v_h,
                 "L_f": 1.0, "L_q": 2.0, "C_ell": 1.0, "J": 1, "D_x": 4.0}
    sched = StepSchedule(a=0.5, b=0.5, c=0.5, regime="diminishing", horizon=4)
    terms = convergence_bound_terms(constants, sched)
    # alpha = beta = delta = t^-1/2, so each tail term is 2 t^-1/2 + 1, summed over t = 2..4
    tail = 3.0 + 2.0 * (2.0**-0.5 + 3.0**-0.5 + 0.5)
    assert terms["D_1"] == pytest.approx(d_1, rel=1e-15)
    assert terms["D_2"] == pytest.approx(d_2, rel=1e-15)
    assert terms["omega"] == pytest.approx(2.0 * d_1 / (4 * 0.5) + 2.0 * d_2 * tail / 4,
                                           rel=1e-12)


def test_zero_violation_margin_positive_for_constrained_problem():
    problem = constrained_quadratic_problem()
    constants = dict(toy_constants(problem))
    constants["C_ell"] = 1.0
    sched = StepSchedule(a=0.9167, b=0.5, c=0.75, regime="constant", horizon=10_000)
    gamma = zero_violation_gamma(constants, sched)
    assert gamma > 0.0
    assert zero_violation_gamma({**constants, "J": 0}, sched) == 0.0


def test_records_carry_exact_schedule_values():
    problem = constrained_quadratic_problem()
    cfg = SolverConfig(a=0.8, b=0.45, c=0.6, regime="diminishing", horizon=64,
                       c_ell=1.0, seeds=(2,))
    _, (traj,) = run(problem, cfg)
    alphas, betas, deltas = cfg.schedule().step_arrays()
    for i, t in enumerate(traj["t"]):
        row = (traj["alpha"][i], traj["beta"][i], traj["delta"][i])
        assert row == (alphas[int(t) - 1], betas[int(t) - 1], deltas[int(t) - 1])
        assert min(row) > 0


def test_full_logging_flag_for_long_horizons():
    problem = quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, regime="constant", horizon=20_000,
                       seeds=(0,), log_points=20_000)
    _, (traj,) = run(problem, cfg)
    assert traj["t"].size == 20_000
    assert traj["x"].shape == (20_000, 1)


def test_init_state_projects_configured_point():
    problem = quadratic_problem()
    cfg = SolverConfig(a=0.75, b=0.5, c=0.75, horizon=10, x0=np.array([7.0]))
    state = init_state(problem, cfg, draw_zeta(problem, seed_streams(cfg.seeds)))
    assert state.x[0, 0] == 1.0  # clamped to the box
    assert state.y[0, 0] == 1.0  # one extra sample at x1: g = x1
    assert state.tail_start == 5


def preset_state(name, seeds=(0,), **kw):
    config = ExperimentConfig(preset=name, horizon=300, seeds=seeds, **kw)
    problem, c_ell = resolve_problem(config)
    cfg = config.solver_config(seeds, c_ell)
    rngs = seed_streams(cfg.seeds)
    return problem, cfg, rngs, init_state(problem, cfg, draw_zeta(problem, rngs))


@pytest.mark.parametrize("name, shared", [
    ("paper-ex1", True), ("constrained-quadratic-toy", True),  # both alias inner_h to inner_g
    ("paper-ex2-k5", False), ("quadratic-toy", False)])  # its own h; no constraint
def test_init_state_shares_the_tracker_only_when_h_is_g(name, shared):
    problem, _, _, state = preset_state(name)
    assert (problem.constrained and problem.inner_h is problem.inner_g) is shared
    assert (state.z is state.y) is shared


@pytest.mark.parametrize("kw", [{}, {"instance_overrides": {"d_max": 0.02}}])
def test_separate_tracker_steps_bitwise_equal_to_shared_one(kw):
    problem, cfg, rngs, shared = preset_state("paper-ex1", seeds=(3, 5), **kw)
    separate = SolverState(x=shared.x.copy(), y=shared.y.copy(), z=shared.y.copy(),
                           seeds=shared.seeds, tail_start=shared.tail_start)
    params = cfg.penalty_params()
    active = 0
    for t, step in enumerate(zip(*cfg.schedule().step_arrays()), start=1):
        zeta = draw_zeta(problem, rngs)
        q_shared = cscgd_step(problem, shared, *step, params, zeta)
        q_separate = cscgd_step(problem, separate, *step, params, zeta)
        assert q_shared.tobytes() == q_separate.tobytes(), f"q(z) at t = {t}"
        for name in ("x", "y", "z", "tail_sum"):
            assert getattr(shared, name).tobytes() == getattr(separate, name).tobytes(), \
                f"{name} at t = {t}"
        active += bool(penalty_gradient(q_shared, params).any())
    assert shared.z is shared.y and separate.z is not separate.y
    if kw:
        assert 0 < active < cfg.horizon, "the delay cap never or always binds"
    else:
        assert active == 0

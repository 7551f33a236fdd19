"""The seed-batched solver, pinned to seeds run alone and to a scalar loop.

One ``run`` call steps every seed of a batch through the kernel on (S, n)
arrays; a one-seed run steps on single points (n,).  Each seed's row must
equal that seed run alone, bit for bit, in x_hat and in every trajectory
column.  On problems whose penalty is active (including one whose
constraint map differs from its objective map) and on one whose budget
binds, each seed must also equal a one-point, one-draw-per-step loop: the
single-seed solver the batched kernel replaced.
"""

import dataclasses
import math

import numpy as np
import pytest

from cscgd import SolverConfig, make_rng, run
from cscgd.harness import TOY_TARGETS, ExperimentConfig, resolve_problem
from cscgd.penalty import penalty_gradient
from cscgd.problems import PRESETS

SEEDS = (3, 5, 8)
COLUMNS = ("t", "alpha", "beta", "delta", "obj", "viol", "step_sq", "x")


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def solver_setup(name, horizon, **kw):
    config = ExperimentConfig(preset=name, horizon=horizon, **kw)
    problem, c_ell = resolve_problem(config)
    return problem, lambda seeds: config.solver_config(seeds, c_ell)


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(TOY_TARGETS))
def test_batch_rows_equal_seeds_run_alone(name):
    """A three-seed batch steps on stacked rows and each seed alone on single
    points, so this compares the two layouts bitwise on every preset and toy."""
    problem, solver_config = solver_setup(name, 300)
    x_hats, trajectories = run(problem, solver_config(SEEDS))
    assert x_hats.shape == (len(SEEDS), problem.dim_x)
    assert len(trajectories) == len(SEEDS)
    for i, seed in enumerate(SEEDS):
        (x_alone,), (alone,) = run(problem, solver_config((seed,)))
        assert bits(x_hats[i]) == bits(x_alone), f"x_hat of seed {seed}"
        for column in COLUMNS:
            assert bits(trajectories[i][column]) == bits(alone[column]), \
                f"{column} of seed {seed}"


@pytest.mark.parametrize("seeds", [(0,), (0, 1)], ids=["one-seed", "two-seeds"])
def test_run_steps_one_seed_on_single_points(seeds):
    problem, solver_config = solver_setup("paper-ex1", 50)
    shapes = {"inner_g": [], "outer_f_gradient": [], "project": []}

    def recorded(name, fn):
        def call(arg, *rest):
            shapes[name].append(np.shape(arg))
            return fn(arg, *rest)
        return call

    class RecordedSet:
        def __init__(self, inner):
            self.inner = inner
            self.project = recorded("project", inner.project)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    problem = dataclasses.replace(
        problem, feasible_set=RecordedSet(problem.feasible_set),
        inner_g=recorded("inner_g", problem.inner_g),
        inner_g_jacobian=recorded("inner_g", problem.inner_g_jacobian),
        outer_f_gradient=recorded("outer_f_gradient", problem.outer_f_gradient))
    x_hats, _ = run(problem, solver_config(seeds))
    assert x_hats.shape == (len(seeds), problem.dim_x)
    lead = () if len(seeds) == 1 else (len(seeds),)
    # init_state maps and projects once before the 50 steps
    assert shapes["inner_g"][1:] == [lead + (problem.dim_x,)] * 50
    assert shapes["outer_f_gradient"] == [lead + (problem.dim_g,)] * 50
    assert shapes["project"][1:] == [lead + (problem.dim_x,)] * 50


def test_sparse_logging_batch_equals_seeds_run_alone():
    # Past 1e4 iterations the trajectory is logged at log-spaced points.
    problem, solver_config = solver_setup("quadratic-toy", 12_000, x0=(1.0,))
    x_hats, trajectories = run(problem, solver_config(SEEDS))
    assert trajectories[0]["t"].size < 12_000
    for i, seed in enumerate(SEEDS):
        (x_alone,), (alone,) = run(problem, solver_config((seed,)))
        assert bits(x_hats[i]) == bits(x_alone)
        for column in COLUMNS:
            assert bits(trajectories[i][column]) == bits(alone[column]), column


def scalar_reference(problem, config: SolverConfig, seed: int):
    """One seed, one point, one zeta draw per step: the loop the batch replaced."""
    rng = make_rng(seed, 0)
    params = config.penalty_params()
    fs = problem.feasible_set
    x0 = fs.midpoint() if config.x0 is None else np.asarray(config.x0, dtype=float)
    x = fs.project(x0)
    zeta = problem.sample(rng)
    y = np.array(problem.inner_g(x, zeta), dtype=float)
    z = np.array(problem.inner_h(x, zeta), dtype=float) if problem.constrained else None
    tail_start = math.ceil(config.horizon / 2)
    tail_sum, tail_count = np.zeros_like(x), 0
    cols = {name: [] for name in COLUMNS}
    alphas, betas, deltas = config.schedule().step_arrays()
    for t, (alpha, beta, delta) in enumerate(zip(alphas, betas, deltas), start=1):
        if t >= tail_start:
            tail_sum += x
            tail_count += 1
        zeta = problem.sample(rng)
        gval = np.asarray(problem.inner_g(x, zeta), dtype=float)
        y *= 1.0 - beta
        y += beta * gval
        direction = alpha * (np.asarray(problem.inner_g_jacobian(x, zeta)[1], dtype=float)
                             @ np.asarray(problem.outer_f_gradient(y), dtype=float))
        qval = np.zeros(0)
        if problem.constrained:
            hval = gval if problem.inner_h is problem.inner_g else \
                np.asarray(problem.inner_h(x, zeta), dtype=float)
            z *= 1.0 - beta
            z += beta * hval
            qval = np.asarray(problem.outer_q(z), dtype=float)
            lgrad = penalty_gradient(qval, params)
            if delta != 0.0 and np.any(lgrad != 0.0):
                jac_h = np.asarray(problem.inner_h_jacobian(x, zeta)[1], dtype=float)
                jac_q = np.asarray(problem.outer_q_jacobian(z), dtype=float)
                direction += delta * (jac_h @ (jac_q @ lgrad))
        x_new = fs.project(x - direction)
        for name, value in (("t", t), ("alpha", alpha), ("beta", beta), ("delta", delta),
                            ("obj", float(problem.outer_f(y))), ("viol", qval),
                            ("step_sq", np.sum((x_new - x) ** 2)), ("x", x_new)):
            cols[name].append(value)
        x = x_new
    return tail_sum / tail_count, {name: np.array(v) for name, v in cols.items()}


@pytest.mark.parametrize("name, horizon, kw", [
    ("constrained-quadratic-toy", 500, {"gamma": 0.2, "c_ell": 1.0}),
    ("paper-ex2-k5", 300, {}),
    # a delay cap that binds for some seeds at some iterations only
    ("paper-ex1", 300, {"instance_overrides": {"d_max": 0.02}}),
    # the one design whose constraint map differs from its objective map;
    # gamma lifts the rate floor's q = -16.6 into the penalty's active range
    ("paper-ex2-k5", 300, {"c_ell": 40.0, "gamma": 20.0}),
])
def test_batch_equals_scalar_single_seed_loop(name, horizon, kw):
    problem, solver_config = solver_setup(name, horizon, **kw)
    config = solver_config(SEEDS)
    x_hats, trajectories = run(problem, config)
    for i, seed in enumerate(SEEDS):
        x_ref, ref = scalar_reference(problem, config, seed)
        assert bits(x_hats[i]) == bits(x_ref), f"x_hat of seed {seed}"
        for column in COLUMNS:
            assert bits(trajectories[i][column]) == bits(ref[column]), \
                f"{column} of seed {seed}"
    # the paths this test exists for were taken
    active = np.stack([penalty_gradient(t["viol"], config.penalty_params()).any(axis=1)
                       for t in trajectories], axis=1)
    if name == "constrained-quadratic-toy":
        assert active.any(), "penalty never active"
    elif name == "paper-ex1":
        assert np.any(active.any(axis=1) & ~active.all(axis=1)), "penalty never mixed"
    elif "gamma" in kw:
        assert problem.inner_h_jacobian is not problem.inner_g_jacobian
        assert active.any(axis=1).all(), "an iteration without an active penalty"
        assert active.all(axis=1).mean() > 0.9, "penalty rarely active on every seed"
    else:
        blocks = problem.feasible_set.blocks
        xs = np.concatenate([t["x"] for t in trajectories])
        parts = np.split(xs, np.cumsum([b.dim for b in blocks])[:-1], axis=1)
        assert any(np.any(part.sum(axis=1) >= b.cap - 1e-9)
                   for b, part in zip(blocks, parts)), "no budget ever binds"

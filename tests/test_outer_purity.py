"""The outer maps are pure functions of the tracker they are called at.

The wired design evaluates its delay terms once per tracker value and keeps
them for the next outer map called at an equal value (a one-entry cache
keyed on dtype, shape and bytes).  Every call here, in any order, on
repeated, mutated-in-place, reshaped and row-masked trackers, must return
the bits that a freshly built problem returns for that call alone.
"""

import dataclasses

import numpy as np
import pytest

from cscgd import cscgd_step, draw_zeta, init_state, make_rng, seed_streams
from cscgd.harness import TOY_TARGETS, ExperimentConfig, resolve_problem
from cscgd.penalty import penalty_gradient
from cscgd.problems import get_preset

MAPS = ("outer_f_gradient", "outer_q", "outer_q_jacobian")
PRESETS = ("paper-ex1", "paper-ex2-k5", "paper-ex2-k10", "paper-ex3", "paper-ex4",
           "quadratic-toy", "constrained-quadratic-toy")


def fresh_builder(name, **overrides):
    """A function that builds a new problem of preset ``name`` on every call."""
    if name in TOY_TARGETS:
        return lambda: TOY_TARGETS[name](**overrides)
    return get_preset(name, overrides or None).build


def assert_same_bits(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype), label
    assert got.tobytes() == want.tobytes(), label


def call_against_fresh(problem, build, name, tracker):
    """``problem.<name>(tracker)`` checked against a fresh build's call on a copy."""
    before = tracker.tobytes()
    got = getattr(problem, name)(tracker)
    assert tracker.tobytes() == before, f"{name} wrote into its tracker"
    assert_same_bits(got, getattr(build(), name)(tracker.copy()),
                     f"{name} at {tracker.shape} {tracker.tolist()}")


def wired_tracker(instance, rng, shape, regime):
    """Wired trackers [u, v]: every queue safe, every queue below the safeguard knee
    (c - u < eps_den * c, up to and past capacity), or a per-queue mix."""
    c, knee = instance.capacities, instance.eps_den * instance.capacities
    size = shape[:-1] + (instance.n_queues,)
    safe = c * rng.uniform(0.05, 0.95, size)
    past = np.where(rng.random(size) < 0.5, c - knee * rng.uniform(-2.0, 0.9, size),
                    c * rng.uniform(1.0, 1.5, size))
    pick = {"safe": True, "below": False, "mixed": rng.random(size) < 0.5}[regime]
    u = np.where(pick, safe, past)
    v = u * instance.max_lengths * rng.uniform(0.2, 1.0, size)
    return np.concatenate([u, v], axis=-1)


def tracker_source(name, problem, rng, regime):
    """Random new trackers (dim,), (1, dim) or (4, dim) for the g maps and the h maps:
    wired ones in the given regime, or, elsewhere, one inner value scaled entrywise."""
    if name == "paper-ex1":
        instance = problem.metadata["instance"]
        return lambda kind, shape: wired_tracker(instance, rng, shape, regime)
    x = np.tile(problem.feasible_set.midpoint(), (4, 1))
    zeta = np.stack([problem.sample(rng) for _ in range(4)])
    base = {"g": problem.inner_g(x, zeta)[0]}
    if problem.constrained:
        base["h"] = problem.inner_h(x, zeta)[0]
    return lambda kind, shape: base[kind] * rng.uniform(0.5, 1.5, shape)


@pytest.mark.parametrize("name, regime", [("paper-ex1", r) for r in ("safe", "mixed", "below")]
                         + [(name, "scaled") for name in PRESETS[1:]])
def test_outer_maps_match_a_fresh_build_on_random_tracker_sequences(name, regime):
    build = fresh_builder(name)
    problem = build()
    rng = make_rng(sum(map(ord, name + regime)))
    new = tracker_source(name, problem, rng, regime)
    maps = MAPS if problem.constrained else MAPS[:1]
    # h maps see the g tracker when z is y, as in the solver.
    shared = problem.constrained and problem.inner_h is problem.inner_g
    kinds = {"outer_f_gradient": "g", "outer_q": "g" if shared else "h",
             "outer_q_jacobian": "g" if shared else "h"}
    dims = {"g": problem.dim_g, "h": problem.dim_h}
    current = {kinds[m]: new(kinds[m], (dims[kinds[m]],)) for m in maps}
    for _ in range(150):
        name_ = maps[rng.integers(len(maps))]
        kind = kinds[name_]
        y, op = current[kind], rng.integers(6)
        if op == 0:  # a new tracker
            y = new(kind, ((dims[kind],), (1, dims[kind]), (4, dims[kind]))[rng.integers(3)])
        elif op == 1:  # mutated in place between two calls
            y[...] = new(kind, y.shape)
        elif op == 2:  # one entry nudged in place
            y.reshape(-1)[rng.integers(y.size)] *= 1.0 + 1e-12
        elif op == 3:  # equal bytes, the other shape
            y = y.reshape(-1) if y.shape[0] == 1 else y[:1] if y.ndim == 2 else y[None]
        elif op == 4 and y.ndim == 2:  # a masked row subset, as the step takes it
            y = y[rng.random(len(y)) < 0.5]
            if not len(y):
                y = current[kind][:1].copy()
        # op 5, or op 4 on a point: the same tracker again
        current[kind] = y
        call_against_fresh(problem, build, name_, y)


def test_wired_maps_tell_a_point_from_its_one_row_stack_and_see_in_place_updates():
    build = fresh_builder("paper-ex1")
    problem = build()
    instance = problem.metadata["instance"]
    y = wired_tracker(instance, make_rng(7), (6,), "mixed")
    stack = y.reshape(1, -1)
    assert stack.tobytes() == y.tobytes()
    for first, then in ((y, stack), (stack, y)):
        call_against_fresh(problem, build, "outer_f_gradient", first)
        for name in MAPS:
            call_against_fresh(problem, build, name, then)
    for regime in ("safe", "below", "mixed", "safe"):
        call_against_fresh(problem, build, "outer_f_gradient", y)
        y[...] = wired_tracker(instance, make_rng(len(regime)), (6,), regime)
        for name in ("outer_q", "outer_q_jacobian", "outer_f_gradient"):
            call_against_fresh(problem, build, name, y)


def wired_steps(problem, config, c_ell):
    """q(z) and the state after each step of ``problem`` under ``config``, as bytes."""
    cfg = config.solver_config(config.seeds, c_ell)
    params, schedule = cfg.penalty_params(), cfg.schedule()
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    assert state.z is state.y
    steps, active_rows = [], []
    for step in zip(*schedule.step_arrays()):
        q = cscgd_step(problem, state, *step, params, draw_zeta(problem, rngs))
        steps.append([a.tobytes() for a in (q, state.x, state.y, state.tail_sum)])
        active_rows.append(np.count_nonzero(penalty_gradient(q, params)))
    return steps, active_rows


def test_wired_steps_bitwise_equal_with_constraint_maps_that_never_see_a_gradient():
    config = ExperimentConfig(preset="paper-ex1", horizon=300, seeds=(0, 1, 2),
                              instance_overrides={"d_max": 0.02})
    problem, c_ell = resolve_problem(config)
    build = fresh_builder("paper-ex1", d_max=0.02)
    # Its own maps, but outer_q and outer_q_jacobian come from a new build on every call.
    alone = dataclasses.replace(build(), outer_q=lambda z: build().outer_q(z),
                                outer_q_jacobian=lambda z: build().outer_q_jacobian(z))
    steps, active_rows = wired_steps(problem, config, c_ell)
    steps_alone, _ = wired_steps(alone, config, c_ell)
    for t, (got, want) in enumerate(zip(steps, steps_alone), start=1):
        assert got == want, f"q(z), x, y or the tail sum differ at t = {t}"
    assert any(0 < k < 3 for k in active_rows), "no step with a masked subset of rows"
    assert 0 < sum(map(bool, active_rows)) < config.horizon, "the delay cap never or always binds"

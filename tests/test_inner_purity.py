"""The inner maps are pure functions of the (x, zeta) they are called at.

The inner maps of the fading designs paper-ex2 and paper-ex3 hold no state:
each Jacobian map computes its channel terms (zeta * p and the rates or
outage levels built on it) for its own (value, Jacobian) pair.  These tests
stay as a guard against a map that keeps terms from one call for the next.
Every call here, in any order, on repeated, mutated-in-place, reshaped,
row-masked and sample-block arguments, must return the bits that a freshly
built problem returns for that call alone, and must leave its arguments as
they were.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cscgd import cscgd_step, draw_zeta, init_state, make_rng, seed_streams
from cscgd.harness import ExperimentConfig, evaluate_point, resolve_problem
from cscgd.penalty import penalty_gradient
from cscgd.problems import get_preset

PRESETS = ("paper-ex2-k5", "paper-ex2-k10", "paper-ex3")
# The Jacobians take stacked points only; a point with a zeta block is the
# evaluate_point path of inner_g and inner_h.
BLOCK_MAPS = ("inner_g", "inner_h")


def inner_maps(problem):
    names = ("inner_g", "inner_g_jacobian")
    return names + ("inner_h", "inner_h_jacobian") if problem.constrained else names


def assert_same_bits(got, want, label):
    if isinstance(want, tuple):  # a Jacobian map's (value, Jacobian)
        assert isinstance(got, tuple) and len(got) == len(want), label
        for got_half, want_half in zip(got, want):
            assert_same_bits(got_half, want_half, label)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype), label
    assert got.tobytes() == want.tobytes(), label


def call_against_fresh(problem, build, name, x, zeta):
    """``problem.<name>(x, zeta)`` checked against a fresh build's call on copies."""
    before = x.tobytes(), zeta.tobytes()
    got = getattr(problem, name)(x, zeta)
    assert (x.tobytes(), zeta.tobytes()) == before, f"{name} wrote into its arguments"
    assert_same_bits(got, getattr(build(), name)(x.copy(), zeta.copy()),
                     f"{name} at x {x.shape} {x.tolist()}, zeta {zeta.shape}")


def point_source(problem, rng):
    """Random feasible points x (shape) and zeta draws (k, dim_zeta), or one draw."""
    feasible, mid = problem.feasible_set, problem.feasible_set.midpoint()

    def points(shape):
        v = mid * rng.uniform(0.2, 1.8, shape[:-1] + (problem.dim_x,))
        return np.asarray(feasible.project(v), dtype=float).reshape(shape)

    def draws(k=None):
        return problem.sample(rng) if k is None else problem.sample(rng, k)

    return points, draws


@pytest.mark.parametrize("name", PRESETS)
def test_inner_maps_match_a_fresh_build_on_random_argument_sequences(name):
    build = get_preset(name).build
    problem = build()
    maps = inner_maps(problem)
    rng = make_rng(sum(map(ord, name)))
    points, draws = point_source(problem, rng)
    x, zeta = points((4, problem.dim_x)), draws(4)
    seen = set()
    for _ in range(300):
        block = x.ndim == 1 and zeta.ndim == 2  # one point, one row per sample
        op = rng.integers(8)
        if op == 0:  # a new (x, zeta): one point, a one-row stack, four rows or a block
            kind = rng.integers(4)
            rows = (None, 1, 4, 5)[kind]
            x = points((problem.dim_x,) if rows in (None, 5) else (rows, problem.dim_x))
            zeta = draws(rows)
        elif op == 1:  # x mutated in place between two calls
            x[...] = points(x.shape)
        elif op == 2:  # zeta mutated in place between two calls
            zeta[...] = draws(None if zeta.ndim == 1 else len(zeta))
        elif op == 3:  # one entry nudged in place
            a = (x, zeta)[rng.integers(2)]
            a.reshape(-1)[rng.integers(a.size)] *= 1.0 + 1e-12
        elif op == 4 and not block:  # equal bytes, the other shape
            if x.ndim == 1:
                x, zeta = x[None], zeta[None]
            else:
                x, zeta = x[0], zeta[0]
        elif op == 5 and x.ndim == 2:  # a masked row subset, as the penalty path takes it
            rows = rng.random(len(x)) < 0.5
            rows[rng.integers(len(x))] = True
            x, zeta = x[rows], zeta[rows]
        elif op == 6 and x.ndim == 2:  # every row active: the penalty path's full slice
            x, zeta = x[:], zeta[:]
        # op 7, or an op that does not apply: the same arguments again
        names = [m for m in maps if m in BLOCK_MAPS] if block else maps
        map_name = names[rng.integers(len(names))]
        seen.add((map_name, block))
        call_against_fresh(problem, build, map_name, x, zeta)
    assert seen >= {(m, False) for m in maps} | {(m, True) for m in maps if m in BLOCK_MAPS}


@pytest.mark.parametrize("name", PRESETS)
def test_inner_maps_tell_a_point_from_its_one_row_stack_and_see_in_place_updates(name):
    build = get_preset(name).build
    problem = build()
    maps = inner_maps(problem)
    points, draws = point_source(problem, make_rng(11))
    x, zeta = points((problem.dim_x,)), draws()
    stack = x[None], zeta[None]
    assert (stack[0].tobytes(), stack[1].tobytes()) == (x.tobytes(), zeta.tobytes())
    for first, then in (((x, zeta), stack), (stack, (x, zeta))):
        call_against_fresh(problem, build, "inner_g", *first)
        for map_name in maps:
            call_against_fresh(problem, build, map_name, *then)
    # a one-row block at a point has the bytes of the point and its draw
    call_against_fresh(problem, build, "inner_g", x, zeta)
    call_against_fresh(problem, build, "inner_g", x, zeta[None])
    for _ in range(3):
        call_against_fresh(problem, build, "inner_g", x, zeta)
        x[...] = points(x.shape)
        for map_name in maps:
            call_against_fresh(problem, build, map_name, x, zeta)
        zeta[...] = draws()
        for map_name in maps[::-1]:
            call_against_fresh(problem, build, map_name, x, zeta)


def steps_of(problem, config, c_ell):
    """q(z) and the state after each step of ``problem`` under ``config``, as bytes."""
    cfg = config.solver_config(config.seeds, c_ell)
    params, schedule = cfg.penalty_params(), cfg.schedule()
    rngs = seed_streams(cfg.seeds)
    state = init_state(problem, cfg, draw_zeta(problem, rngs))
    steps, active_rows = [], []
    for step in zip(*schedule.step_arrays()):
        q = cscgd_step(problem, state, *step, params, draw_zeta(problem, rngs))
        steps.append([a.tobytes() for a in (q, state.x, state.y, state.z, state.tail_sum)])
        active_rows.append(np.count_nonzero(penalty_gradient(q, params)))
    return steps, active_rows


def test_ergodic_steps_bitwise_equal_with_inner_maps_that_share_nothing():
    overrides = {"r_min": 53.0}  # the rate floor binds on some rows of some steps
    config = ExperimentConfig(preset="paper-ex2-k5", horizon=300, seeds=(0, 1, 2),
                              instance_overrides=overrides)
    problem, c_ell = resolve_problem(config)
    build = get_preset("paper-ex2-k5", overrides).build
    # Its own maps, but every inner map comes from a new build on every call.
    alone = dataclasses.replace(problem, **{
        m: (lambda m: lambda x, zeta: getattr(build(), m)(x, zeta))(m)
        for m in inner_maps(problem)})
    steps, active_rows = steps_of(problem, config, c_ell)
    steps_alone, _ = steps_of(alone, config, c_ell)
    for t, (got, want) in enumerate(zip(steps, steps_alone), start=1):
        assert got == want, f"q(z), x, y, z or the tail sum differ at t = {t}"
    assert any(0 < k < 3 for k in active_rows), "no step with a masked subset of rows"
    assert any(k == 3 for k in active_rows), "no step with every row active"


@pytest.mark.parametrize("n_samples", [2_000, 20_000])
def test_ergodic_evaluation_leaves_no_block_allocated(n_samples):
    # evaluate_point maps 2000-row blocks here; no map may keep terms of the
    # last block (48 KB each) alive after the call returns.
    problem = get_preset("paper-ex2-k5").build()
    x = problem.feasible_set.midpoint()
    evaluate_point(problem, x, n_samples, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_point(problem, x, n_samples, 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2_000 * 3 * 8, retained  # bytes of one zeta block

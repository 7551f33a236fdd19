"""Python-level calls made by one warm solver step, and by one warm
evaluate_point call, counted with sys.setprofile.

On the paper's small designs a step works on arrays of 3 to 9 entries, so
per-call overhead is the cost of a step.  The step therefore reaches numpy's
C reductions and the ``clip`` ufunc directly (the C ``count_nonzero``,
``ufunc.reduce``) and never the Python wrappers behind ``ndarray.all``,
``.any``, ``.sum``, ``.max``, ``.min`` and ``.clip`` in
``numpy/_core/_methods.py``.  These are counts of profile
events, not timings, so they repeat exactly from run to run.
"""

import os
import sys
from collections import Counter

import pytest

from cscgd import cscgd_step, draw_zeta, init_state, seed_streams
from cscgd.harness import ExperimentConfig, evaluate_point, resolve_problem
from cscgd.penalty import penalty_gradient
from cscgd.solver import drop_seed_axis

METHOD_WRAPPERS = {"_all", "_any", "_sum", "_amax", "_amin", "_clip"}


def count_calls(fn, *args):
    """``fn(*args)`` and its Python-level calls, ``fn`` included, by (file, function)."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[(frame.f_code.co_filename, frame.f_code.co_name)] += 1

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, calls


# The largest counts left by the last change to the step: paper-ex1 on one
# stacked row makes 16 calls (two of them the wired design's shared delay
# terms, hit once, one the dispatcher of the concatenate that builds g);
# paper-ex2-k5 at S = 2 makes 20 (two of them the list comprehensions of
# ProductSet._project and BoxWithSumCap._search, and three the inner maps:
# inner_g_jacobian, the g_values that builds its g, and inner_h).  Their five
# and six count_nonzero calls go to numpy's C function, with no Python
# dispatcher.  Neither calls inner_g: the Jacobian map returns g with its
# Jacobian.  A one-seed run steps on single points (solver.drop_seed_axis);
# there paper-ex1 makes the same 16 calls and paper-ex2-k5 the same 20.
@pytest.mark.parametrize("name, n_seeds, single, most", [
    ("paper-ex1", 1, False, 16),
    ("paper-ex2-k5", 2, False, 20),
    ("paper-ex1", 1, True, 16),
    ("paper-ex2-k5", 1, True, 20),
], ids=["paper-ex1", "paper-ex2-k5", "paper-ex1-single-point", "paper-ex2-k5-single-point"])
def test_warm_step_calls_no_reduction_wrapper(name, n_seeds, single, most):
    config = ExperimentConfig(preset=name, horizon=100, seeds=tuple(range(n_seeds)))
    problem, c_ell = resolve_problem(config)
    solver_config = config.solver_config(config.seeds, c_ell)
    params, schedule = solver_config.penalty_params(), solver_config.schedule()
    rngs = seed_streams(solver_config.seeds)
    state = init_state(problem, solver_config, draw_zeta(problem, rngs))
    if single:  # the layout a one-seed run steps on
        drop_seed_axis(state)

    def zeta():
        draws = draw_zeta(problem, rngs)
        return draws[0] if single else draws

    # Python floats, as the solver's loop passes them
    steps = list(zip(*(arr.tolist() for arr in schedule.step_arrays())))
    for step in steps[:5]:
        cscgd_step(problem, state, *step, params, zeta())
    qval, calls = count_calls(cscgd_step, problem, state, *steps[5], params, zeta())
    assert not penalty_gradient(qval, params).any(), "the counted step has an active penalty"
    wrappers = {(f, fn): n for (f, fn), n in calls.items()
                if os.path.basename(f) == "_methods.py" and fn in METHOD_WRAPPERS}
    assert not wrappers, f"ndarray method wrappers on the step path: {wrappers}"
    assert "inner_g" not in {fn for _, fn in calls}, "the step called inner_g"
    total = sum(calls.values())
    assert total <= most, f"{total} Python-level calls, at most {most}: {calls.most_common()}"


# evaluate_point on paper-ex2-k5 at 2000 samples maps one 2000-row block of
# ten 200-row sub-batches and makes 33 calls.  Its folds are one _lane_sum
# per map over the block's ten sub-batches and one _row_sum per map over the
# ten sub-batch means.  The rest are the generator's set-up, the draw,
# inner_g (with its g_values) and inner_h, outer_f and outer_q on the stack
# of means and on their mean (with their safe_inv and concatenate calls),
# and the std wrappers.
def test_warm_evaluate_point_folds_each_block_once_per_map():
    problem, _ = resolve_problem(ExperimentConfig(preset="paper-ex2-k5"))
    x = problem.feasible_set.midpoint()
    evaluate_point(problem, x, 2000, 0)
    _, calls = count_calls(evaluate_point, problem, x, 2000, 0)
    folds = {fn: n for (f, fn), n in calls.items()
             if os.path.basename(f) == "harness.py" and fn in ("_lane_sum", "_row_sum")}
    assert folds == {"_lane_sum": 2, "_row_sum": 2}
    total = sum(calls.values())
    assert total <= 33, f"{total} Python-level calls, at most 33: {calls.most_common()}"

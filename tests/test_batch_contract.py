"""The batch contract of the problem maps, pinned to single-sample calls.

``sample(rng, k)`` must consume the stream exactly as k single draws, and
every row of ``inner_g`` / ``inner_h`` on a zeta block must equal the single
call bit for bit.  ``evaluate_point`` maps samples in blocks of rows;
it is checked here against the one-sample-at-a-time loop it replaced, with
the default block size, with blocks small enough to split every sub-batch,
and with blocks that pack several whole sub-batches.  The samplers return
column-major blocks; the solver's zeta blocks and the oracles' frozen
blocks are pinned to row order.
"""

import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from cscgd import harness, make_rng
from cscgd.distributions import ExponentialMean, TruncatedChiSquared
from cscgd.harness import evaluate_point
from cscgd.oracles import ergodic_fstar, sample_average_baseline
from cscgd.problems.ergodic import Mg1ErgodicInstance
from cscgd.solver import draw_zeta, seed_streams
from cscgd.problems import (
    PRESETS,
    constrained_quadratic_problem,
    get_preset,
    mm1_problem,
    paper_ex5,
    quadratic_problem,
)

BUILDERS = {name: (lambda name=name: get_preset(name).build()) for name in PRESETS}
BUILDERS.update({
    "quadratic-toy": quadratic_problem,
    "constrained-quadratic-toy": constrained_quadratic_problem,
    "mm1": lambda: mm1_problem(lam=1.0, r=2.0, h=0.5),
    "paper-ex5-exponential-load": lambda: paper_ex5(
        load_dist=ExponentialMean([1.0, 1.2, 0.8])).build(),
    # nine classes: numpy sums a contiguous row of 8 or more entries pairwise
    "paper-ex5-nine-classes": lambda: paper_ex5(
        load_dist=ExponentialMean(np.linspace(0.8, 1.2, 9)), prices=tuple(1.0 + np.arange(9)),
        subscriber_rates=(3.0,) * 9).build(),
})


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def inner_maps(problem):
    maps = [("inner_g", problem.inner_g)]
    if problem.constrained:
        maps.append(("inner_h", problem.inner_h))
    return maps


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_block_draw_equals_single_draws(name):
    problem = BUILDERS[name]()
    block_rng, single_rng = make_rng(11, 3), make_rng(11, 3)
    block = np.asarray(problem.sample(block_rng, 257))
    singles = np.stack([problem.sample(single_rng) for _ in range(257)])
    assert block.shape == singles.shape
    assert bits(block) == bits(singles)
    assert block_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_block_rows_equal_single_calls(name):
    problem = BUILDERS[name]()
    x = problem.feasible_set.midpoint()
    block = problem.sample(make_rng(5, 3), 257)
    for label, fn in inner_maps(problem):
        rows = np.asarray(fn(x, block))
        dim = problem.dim_g if label == "inner_g" else problem.dim_h
        assert rows.shape == (257, dim), label
        for i, zeta in enumerate(block):
            assert bits(rows[i]) == bits(fn(x, zeta)), f"{label} row {i}"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sample_block_is_column_major(name):
    # each column of a block is contiguous, so that a ufunc broadcasting a
    # (dim_zeta,) row against it runs one inner loop per column
    problem = BUILDERS[name]()
    for k in (1, 3, 257):
        block = problem.sample(make_rng(5, 3), k)
        assert block.flags.f_contiguous, k


@pytest.mark.parametrize("n_seeds", [1, 2])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_draw_zeta_hands_the_step_row_major_blocks(name, n_seeds):
    problem = BUILDERS[name]()
    block = draw_zeta(problem, seed_streams(range(n_seeds)), 1024)
    assert block.shape[:2] == (1024, n_seeds)
    assert block.flags.c_contiguous
    for s, rng in enumerate(seed_streams(range(n_seeds))):
        assert bits(block[:, s]) == bits(problem.sample(rng, 1024)), s


LAYOUTS = (np.ascontiguousarray, np.asfortranarray)


def descent_bits(res) -> tuple:
    return bits(res.x), bits(res.value), res.iterations


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sample_average_baseline_folds_its_block_in_row_order(name):
    problem = BUILDERS[name]()
    results = set()
    for layout in LAYOUTS:
        def sample(rng, size=None, layout=layout):
            return layout(problem.sample(rng, size))

        res = sample_average_baseline(replace(problem, sample=sample), n_samples=300,
                                      tol=1e-3, max_iter=1)
        results.add(descent_bits(res))
    assert len(results) == 1


@pytest.mark.parametrize("name", sorted(n for n in BUILDERS if n.startswith("paper-ex2")))
def test_ergodic_fstar_folds_its_block_in_row_order(name, monkeypatch):
    instance = get_preset(name)
    assert isinstance(instance, Mg1ErgodicInstance)
    draw = TruncatedChiSquared.draw
    results = set()
    for layout in LAYOUTS:
        monkeypatch.setattr(TruncatedChiSquared, "draw",
                            lambda self, rng, size=None, layout=layout:
                            layout(draw(self, rng, size)))
        results.add(descent_bits(ergodic_fstar(instance, 300, 5)))
    assert len(results) == 1


def per_sample_evaluate(problem, x, n_samples, seed, n_batches=10):
    """One sample at a time with left-fold sums: the loop evaluate_point replaced."""
    rng = make_rng(seed, 1)
    x = np.asarray(x, dtype=float)
    h_is_g = problem.inner_h is problem.inner_g
    per_batch = max(2, n_samples // n_batches)
    f_vals, q_vals = [], []
    g_total = h_total = None
    for _ in range(n_batches):
        g_sum = h_sum = None
        for _ in range(per_batch):
            zeta = problem.sample(rng)
            gv = np.asarray(problem.inner_g(x, zeta), dtype=float)
            g_sum = gv.copy() if g_sum is None else g_sum + gv
            if problem.constrained and not h_is_g:
                hv = np.asarray(problem.inner_h(x, zeta), dtype=float)
                h_sum = hv.copy() if h_sum is None else h_sum + hv
        g_mean = g_sum / per_batch
        f_vals.append(float(problem.outer_f(g_mean)))
        g_total = g_mean if g_total is None else g_total + g_mean
        if problem.constrained:
            h_mean = g_mean if h_is_g else h_sum / per_batch
            q_vals.append(np.asarray(problem.outer_q(h_mean), dtype=float))
            h_total = h_mean if h_total is None else h_total + h_mean
    out = {
        "f": float(problem.outer_f(g_total / n_batches)),
        "f_std_err": float(np.array(f_vals).std(ddof=1) / math.sqrt(n_batches)),
        "n_samples": per_batch * n_batches,
        "q": np.zeros(0),
        "q_std_err": np.zeros(0),
    }
    if problem.constrained:
        out["q"] = np.asarray(problem.outer_q(h_total / n_batches), dtype=float)
        out["q_std_err"] = np.stack(q_vals).std(axis=0, ddof=1) / math.sqrt(n_batches)
    return out


@pytest.mark.parametrize("n_samples", [5, 2_001, 40_000])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_evaluate_point_equals_per_sample_loop(name, n_samples):
    problem = BUILDERS[name]()
    x = problem.feasible_set.midpoint()
    got = evaluate_point(problem, x, n_samples, seed=3)
    want = per_sample_evaluate(problem, x, n_samples, seed=3)
    assert sorted(got) == sorted(want)
    assert got["n_samples"] == want["n_samples"]
    for key in ("f", "f_std_err", "q", "q_std_err"):
        assert bits(got[key]) == bits(want[key]), key


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_evaluate_point_chunked_equals_per_sample_loop(name, monkeypatch):
    # 7-row chunks: sub-batches of 200 and 4000 rows end on a partial chunk.
    monkeypatch.setattr(harness, "EVAL_CHUNK_ROWS", 7)
    problem = BUILDERS[name]()
    x = problem.feasible_set.midpoint()
    for n_samples in (2_001, 40_000):
        got = evaluate_point(problem, x, n_samples, seed=3)
        want = per_sample_evaluate(problem, x, n_samples, seed=3)
        assert got["n_samples"] == want["n_samples"]
        for key in ("f", "f_std_err", "q", "q_std_err"):
            assert bits(got[key]) == bits(want[key]), key


@pytest.mark.parametrize("seed", [3, 0, 777])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_evaluate_point_packed_equals_per_sample_loop(name, seed, monkeypatch):
    # 200-row sub-batches: 450-row blocks hold 2 of them, 700-row blocks
    # 3, 3, 3 and 1; 199-row blocks split each into 199 rows and a carried
    # 1, and 200- and 201-row blocks hold one each.  Seeds 0 and 777 put a
    # 1-ulp difference between a pairwise and a left-fold total of
    # single-column means.
    problem = BUILDERS[name]()
    x = problem.feasible_set.midpoint()
    want = per_sample_evaluate(problem, x, 2_000, seed)
    for rows in (450, 700, 199, 200, 201):
        monkeypatch.setattr(harness, "EVAL_CHUNK_ROWS", rows)
        got = evaluate_point(problem, x, 2_000, seed)
        assert sorted(got) == sorted(want)
        assert got["n_samples"] == want["n_samples"]
        for key in ("f", "f_std_err", "q", "q_std_err"):
            assert bits(got[key]) == bits(want[key]), (rows, key)


def counted_maps(problem):
    """A copy of ``problem`` whose sampler and maps count their calls."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    names = ("sample", "inner_g", "inner_h", "outer_f", "outer_q")
    return replace(problem, **{n: counted(n, getattr(problem, n)) for n in names}), calls


def test_evaluate_point_packs_small_sub_batches_into_one_block(monkeypatch):
    problem, calls = counted_maps(get_preset("paper-ex2-k5").build())
    x = problem.feasible_set.midpoint()
    evaluate_point(problem, x, 2_000, 3)
    assert calls == {"sample": 1, "inner_g": 1, "inner_h": 1, "outer_f": 2, "outer_q": 2}
    calls.clear()
    evaluate_point(problem, x, 40_000, 3)
    blocks = 10 * math.ceil(4_000 / harness.EVAL_CHUNK_ROWS)
    assert calls == {"sample": blocks, "inner_g": blocks, "inner_h": blocks,
                     "outer_f": 2, "outer_q": 2}
    # 200-row sub-batches against blocks one row short, exact and one row over
    for rows, blocks in ((199, 20), (200, 10), (201, 10)):
        monkeypatch.setattr(harness, "EVAL_CHUNK_ROWS", rows)
        calls.clear()
        evaluate_point(problem, x, 2_000, 3)
        assert calls == {"sample": blocks, "inner_g": blocks, "inner_h": blocks,
                         "outer_f": 2, "outer_q": 2}, rows

"""Hypothesis property tests for the four projectable sets.

On generated boxes, caps and points, ``BoxWithSumCap.project`` must return a
feasible point, be idempotent, and satisfy the KKT conditions of the
projection: p == clip(v - nu, lower, upper) for one multiplier nu >= 0, with
the cap met with equality whenever nu > 0.  ``BoxWithLinearInequalities``
must do the same for its stacked rows G x <= h: v - p == G^T mu with
mu >= 0 and mu zero on every row inactive at p.  ``Box`` and ``ProductSet``
must return feasible points and be idempotent.  For every set, each row of a
stacked (S, n) projection must equal projecting that row alone, bit for bit;
for budgeted boxes and products of two of them, on stacks of up to 64 rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from cscgd import Box, BoxWithLinearInequalities, BoxWithSumCap, ProductSet

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def sumcap_instances(draw):
    n = draw(st.integers(1, 6))
    vectors = st.lists(coords, min_size=n, max_size=n)
    lower = np.array(draw(vectors))
    widths = st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)
    upper = lower + np.array(draw(widths))
    cap = draw(st.floats(float(lower.sum()), float(upper.sum()) + 1.0))
    v = np.array(draw(st.lists(st.floats(-3e3, 3e3), min_size=n, max_size=n)))
    return BoxWithSumCap(lower=lower, upper=upper, cap=cap), v


def _scale(s, v) -> float:
    return max(1.0, float(np.max(np.abs(np.concatenate((v, s.lower, s.upper))))))


def _multiplier(s, v, p, atol) -> float:
    """The smallest nu >= 0 with p == clip(v - nu) to ``atol``, read off p."""
    if np.allclose(p, np.clip(v, s.lower, s.upper), rtol=0.0, atol=atol):
        return 0.0
    tol = 1e-3 * atol
    informative = s.upper - s.lower > 2 * tol
    free = informative & (p > s.lower + tol) & (p < s.upper - tol)
    if free.any():
        return float(np.median((v - p)[free]))
    # Only clipped coordinates: the smallest nu that holds those at their
    # lower bound there (nu >= v - lower).
    at_lower = informative & (p <= s.lower + tol)
    return float(np.max((v - s.lower)[at_lower], initial=0.0))


@PROPERTY_SETTINGS
@given(sumcap_instances())
def test_sumcap_projection_is_feasible(instance):
    s, v = instance
    assert s.contains(s.project(v))


@PROPERTY_SETTINGS
@given(sumcap_instances())
def test_sumcap_projection_is_idempotent(instance):
    s, v = instance
    p = s.project(v)
    assert np.allclose(s.project(p), p, rtol=0.0, atol=1e-9 * _scale(s, v))


@PROPERTY_SETTINGS
@given(sumcap_instances())
def test_sumcap_projection_satisfies_kkt(instance):
    s, v = instance
    p = s.project(v)
    scale = _scale(s, v)
    nu = _multiplier(s, v, p, atol=1e-9 * scale)
    assert nu >= 0.0
    assert np.allclose(p, np.clip(v - nu, s.lower, s.upper), rtol=0.0, atol=1e-9 * scale)
    if nu > 0.0:
        assert abs(p.sum() - s.cap) <= 1e-9 * max(1.0, abs(s.cap))


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 6))
    lower = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    widths = st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)
    upper = lower + np.array(draw(widths))
    return Box(lower=lower, upper=upper)


@st.composite
def products(draw):
    """A box and a budgeted box side by side (the wireless designs' layout)."""
    box = draw(boxes())
    sumcap, _ = draw(sumcap_instances())
    return ProductSet(blocks=(box, sumcap))


coefficients = st.integers(-2, 2)
fractions = st.floats(0.0, 1.0)
row_slacks = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


@st.composite
def linear_instances(draw):
    """A box and up to 7 rows of small integer coefficients, with b set so a
    drawn point of the box is feasible.  Zero slacks, repeated rows and
    opposite rows (an equality written as two inequalities) all occur."""
    box = draw(boxes())
    n, m = box.dim, draw(st.integers(1, 7))
    a_mat = np.array([draw(coefficients) for _ in range(m * n)], dtype=float).reshape(m, n)
    t = np.array([draw(fractions) for _ in range(n)])
    inside = np.clip(box.lower + t * (box.upper - box.lower), box.lower, box.upper)
    b_vec = a_mat @ inside + np.array([draw(row_slacks) for _ in range(m)])
    return BoxWithLinearInequalities(lower=box.lower, upper=box.upper, a_mat=a_mat, b_vec=b_vec)


def points(draw, s, rows=None):
    shape = s.dim if rows is None else (rows, s.dim)
    size = int(np.prod(shape))
    values = draw(st.lists(st.floats(-3e3, 3e3), min_size=size, max_size=size))
    return np.array(values).reshape(shape)


@PROPERTY_SETTINGS
@given(st.data(), st.one_of(boxes(), products()))
def test_box_and_product_projection_is_feasible_and_idempotent(data, s):
    v = points(data.draw, s)
    p = s.project(v)
    assert s.contains(p)
    scale = max(1.0, float(np.max(np.abs(v))))
    assert np.allclose(s.project(p), p, rtol=0.0, atol=1e-9 * scale)
    if isinstance(s, Box):
        assert np.array_equal(s.project(p), p)


@PROPERTY_SETTINGS
@given(st.data(), linear_instances())
def test_linear_projection_is_feasible_and_idempotent(data, s):
    v = points(data.draw, s)
    p = s.project(v)
    assert s.contains(p)
    assert np.allclose(s.project(p), p, rtol=0.0, atol=1e-9 * _scale(s, v))


@PROPERTY_SETTINGS
@given(st.data(), linear_instances())
def test_linear_projection_satisfies_kkt(data, s):
    v = points(data.draw, s)
    p = s.project(v)
    scale = _scale(s, v)
    eye = np.eye(s.dim)
    g = np.vstack((s.a_mat, eye, -eye))
    h = np.concatenate((s.b_vec, s.upper, -s.lower))
    # Only rows active at p may carry a multiplier; NNLS finds the best
    # mu >= 0 on them, and v - p must be reproduced.  (scipy's nnls aborts
    # the process on a matrix with no columns: with no active row, mu is empty.)
    g_act = g[g @ p - h >= -1e-9 * scale]
    mu = optimize.nnls(g_act.T, v - p)[0] if g_act.size else np.zeros(0)
    assert np.all(mu >= 0.0)
    assert np.allclose(g_act.T @ mu, v - p, rtol=0.0, atol=1e-9 * scale)


@PROPERTY_SETTINGS
@given(st.data(), st.one_of(boxes(), sumcap_instances().map(lambda i: i[0]), products(),
                            linear_instances()),
       st.integers(1, 5))
def test_stacked_projection_rows_equal_single_projections(data, s, rows):
    v = points(data.draw, s, rows)
    stacked = s.project(v)
    assert stacked.shape == v.shape
    for i in range(rows):
        assert stacked[i].tobytes() == s.project(v[i]).tobytes(), f"row {i}"


@st.composite
def budgeted_products(draw):
    """Two budgeted boxes side by side (the wireless designs' set)."""
    return ProductSet(blocks=(draw(sumcap_instances())[0], draw(sumcap_instances())[0]))


@PROPERTY_SETTINGS
@given(st.data(), st.one_of(sumcap_instances().map(lambda i: i[0]), budgeted_products()),
       st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_large_stacked_projection_rows_equal_single_projections(data, s, rows, seed):
    # A few drawn rows, repeated and perturbed at three scales, so free and
    # binding rows of every magnitude share one breakpoint search.
    drawn = points(data.draw, s, min(rows, 4))
    rng = np.random.default_rng(seed)
    v = drawn[rng.integers(0, len(drawn), rows)]
    v = v + rng.choice([0.0, 1e-9, 1.0, 1e3], (rows, 1)) * rng.normal(size=v.shape)
    stacked = s.project(v)
    assert stacked.shape == v.shape
    for i in range(rows):
        assert stacked[i].tobytes() == s.project(v[i]).tobytes(), f"row {i}"

"""Hypothesis property tests for the penalty gradient.

For generated margins, knees and constraint values, each component of
``penalty_gradient`` lies in [0, c_ell], is zero exactly when the constraint
holds with margin (w <= -gamma), and matches a central difference of
``penalty_value`` wherever w + gamma keeps away from the two kinks at 0 and
c_ell.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscgd import PenaltyParams, penalty_gradient, penalty_value

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def penalty_cases(draw):
    c_ell = draw(st.floats(1e-3, 1e3))
    gamma = draw(st.floats(0.0, c_ell, exclude_max=True))
    n = draw(st.integers(1, 4))
    w = draw(st.lists(st.floats(-3.0 * c_ell, 3.0 * c_ell), min_size=n, max_size=n))
    return PenaltyParams(gamma=gamma, c_ell=c_ell), np.array(w)


@PROPERTY_SETTINGS
@given(penalty_cases())
def test_gradient_lies_between_zero_and_the_knee(case):
    params, w = case
    grad = penalty_gradient(w, params)
    assert np.all(grad >= 0.0)
    assert np.all(grad <= params.c_ell)


@PROPERTY_SETTINGS
@given(penalty_cases())
def test_gradient_is_zero_exactly_where_the_margin_holds(case):
    params, w = case
    grad = penalty_gradient(w, params)
    assert np.array_equal(grad == 0.0, w <= -params.gamma)


@PROPERTY_SETTINGS
@given(penalty_cases(), st.data())
def test_gradient_matches_central_difference_away_from_kinks(case, data):
    params, w = case
    j = data.draw(st.integers(0, w.size - 1))
    h = 1e-6 * params.c_ell
    shifted = w[j] + params.gamma
    assume(min(abs(shifted), abs(shifted - params.c_ell)) > 1e3 * h)
    up, down = w.copy(), w.copy()
    up[j] += h
    down[j] -= h
    numeric = (penalty_value(up, params) - penalty_value(down, params)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(w))) / params.c_ell)
    assert abs(numeric - penalty_gradient(w, params)[j]) <= 1e-6 * params.c_ell * scale

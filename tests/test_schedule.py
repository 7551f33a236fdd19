import math

import numpy as np
import pytest

from cscgd import CONSTANT, DIMINISHING, StepSchedule


def test_diminishing_first_iteration_is_unit():
    s = StepSchedule(a=0.9, b=0.5, c=0.7, regime=DIMINISHING, horizon=10)
    assert tuple(arr[0] for arr in s.step_arrays()) == (1.0, 1.0, 1.0)


def test_constant_published_row():
    # (a, b, c) = (0.9167, 0.5, 0.75) at T = 1e4; expected values by direct
    # exponent evaluation, frozen here.
    s = StepSchedule(a=0.9167, b=0.5, c=0.75, regime=CONSTANT, horizon=10_000)
    alphas, betas, deltas = s.step_arrays()
    alpha, beta, delta = alphas[0], betas[0], deltas[0]
    assert alpha == pytest.approx(math.exp(-0.9167 * math.log(10_000)), rel=1e-12)
    assert alpha == pytest.approx(2.1537734e-04, rel=1e-6)
    assert beta == pytest.approx(0.01, rel=1e-12)
    assert delta == pytest.approx(1e-3, rel=1e-12)
    assert (alphas[9_998], betas[9_998], deltas[9_998]) == (alpha, beta, delta)


def test_diminishing_power_of_two():
    s = StepSchedule(a=0.75, b=0.5, c=0.75, regime=DIMINISHING, horizon=100)
    alphas, _, deltas = s.step_arrays()
    alpha, delta = alphas[15], deltas[15]
    assert alpha == pytest.approx(0.125, abs=1e-15)
    assert delta == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("regime", [DIMINISHING, CONSTANT])
def test_ordering_invariant(regime):
    s = StepSchedule(a=0.9167, b=0.5, c=0.75, regime=regime, horizon=500)
    alphas, betas, deltas = s.step_arrays()
    assert np.all(alphas > 0)
    assert np.all(alphas <= deltas + 1e-15)
    assert np.all(deltas <= betas + 1e-15)
    assert np.all(betas <= 1.0)


@pytest.mark.parametrize("regime", [DIMINISHING, CONSTANT])
def test_ratio_monotonicity(regime):
    s = StepSchedule(a=0.9, b=0.4, c=0.6, regime=regime, horizon=300)
    alphas, betas, deltas = s.step_arrays()
    r1 = alphas / deltas
    r2 = deltas / betas
    assert np.all(np.diff(r1) <= 1e-15)
    assert np.all(np.diff(r2) <= 1e-15)


def test_step_arrays_match_pointwise():
    # entry t - 1 is np.power of iteration t's base, bit for bit
    for regime in (DIMINISHING, CONSTANT):
        s = StepSchedule(a=0.8, b=0.5, c=0.6, regime=regime, horizon=50)
        alphas, betas, deltas = s.step_arrays()
        assert alphas.size == betas.size == deltas.size == 50
        for t in range(1, 51):
            base = np.float64(t if regime == DIMINISHING else 50)
            expected = tuple(float(np.power(base, -e)) for e in (0.8, 0.5, 0.6))
            assert expected == (alphas[t - 1], betas[t - 1], deltas[t - 1])


@pytest.mark.parametrize(
    "a, b, c",
    [(1.0, 0.5, 0.75), (0.5, 0.6, 0.55), (0.9, 0.5, 0.4), (0.9, 0.0, 0.5), (0.7, 0.5, 0.8)],
)
def test_exponent_ordering_enforced(a, b, c):
    with pytest.raises(ValueError):
        StepSchedule(a=a, b=b, c=c, horizon=10)

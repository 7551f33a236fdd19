import numpy as np
import pytest

from cscgd import (
    ConstantVec,
    ExponentialMean,
    TruncatedChiSquared,
    TruncatedExponential,
    make_rng,
    monte_carlo_mean,
)
from cscgd.oracles import quadrature_moments


def test_constant_vec_always_identical(rng):
    d = ConstantVec([1.0, 2.0])
    for _ in range(5):
        assert np.array_equal(d.draw(rng), [1.0, 2.0])
    assert d.draw(rng, 3).shape == (3, 2)


def test_truncated_exponential_support(rng):
    d = TruncatedExponential(mean=1.0, upper=2.0)
    x = d.draw(rng, 1_000_000)
    assert x.shape == (1_000_000, 1)
    assert np.all(x <= 2.0)
    assert np.all(x >= 0.0)


def test_truncated_exponential_mean_matches_quadrature(rng):
    d = TruncatedExponential(mean=[15.0, 20.0], upper=[20.0, 30.0])
    n = 1_000_000
    x = d.draw(rng, n)
    for i in range(2):
        m_quad = quadrature_moments(d, (1,), i)[1]
        assert d.mean()[i] == pytest.approx(m_quad, rel=1e-10)
        se = x[:, i].std(ddof=1) / np.sqrt(n)
        assert abs(x[:, i].mean() - m_quad) <= 3.0 * se


def test_truncated_exponential_lower_truncation(rng):
    d = TruncatedExponential(mean=1.0, upper=np.inf, lower=0.25)
    x = d.draw(rng, 200_000)
    assert np.all(x >= 0.25)
    m_quad = quadrature_moments(d, (1,))[1]
    se = x.std(ddof=1) / np.sqrt(x.size)
    assert abs(x.mean() - m_quad) <= 3.0 * se
    # memorylessness: E[X | X >= a] = a + mean
    assert m_quad == pytest.approx(1.25, rel=1e-10)


def test_truncated_chi_squared_mean_vs_quadrature(rng):
    d = TruncatedChiSquared(dof=10, lower=0.25)
    n = 1_000_000
    x = d.draw(rng, n)
    assert np.all(x >= 0.25)
    m_quad = quadrature_moments(d, (1,))[1]
    assert d.mean()[0] == pytest.approx(m_quad, rel=1e-9)
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - m_quad) <= 3.0 * se


def test_exponential_second_moment(rng):
    d = ExponentialMean(1.0)
    mean, se = monte_carlo_mean(lambda x: x**2, d, 1_000_000, rng)
    assert abs(mean[0] - 2.0) <= 3.0 * se[0]


def test_monte_carlo_identity_constant(rng):
    mean, se = monte_carlo_mean(lambda x: x, ConstantVec([3.0]), 100, rng)
    assert mean[0] == 3.0
    assert se[0] == 0.0


def test_monte_carlo_wired_inner_map_matches_moment_formula(rng):
    # throughput coordinates of the wired design: E[lam * L] = lam * E[L]
    lam = np.array([2.0, 3.0, 4.0])
    d = TruncatedExponential(mean=[15.0, 20.0, 35.0], upper=[20.0, 30.0, 60.0])
    mean, se = monte_carlo_mean(lambda L: lam * L, d, 1_000_000, rng)
    for i in range(3):
        m1 = quadrature_moments(d, (1,), i)[1]
        assert abs(mean[i] - lam[i] * m1) <= 3.0 * se[i]


def test_monte_carlo_non_finite_reports_sample(rng):
    d = ConstantVec([0.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            monte_carlo_mean(lambda x: 1.0 / x, d, 10, rng)


def test_reproducibility_and_stream_independence():
    a1 = make_rng(7, 0).random(64)
    a2 = make_rng(7, 0).random(64)
    b = make_rng(7, 1).random(64)
    c = make_rng(8, 0).random(64)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_draw_sequences_reproducible_via_stream():
    d = TruncatedChiSquared(dof=[10, 10], lower=[0.25, 0.25])
    x1 = d.draw(make_rng(3, 5), 10)
    x2 = d.draw(make_rng(3, 5), 10)
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: ExponentialMean(-1.0),
        lambda: TruncatedExponential(mean=0.0, upper=1.0),
        lambda: TruncatedExponential(mean=1.0, upper=0.5, lower=0.5),
        lambda: TruncatedChiSquared(dof=5, lower=0.1),
        lambda: TruncatedChiSquared(dof=10, lower=-0.1),
    ],
)
def test_invalid_parameters_rejected(ctor):
    with pytest.raises(ValueError):
        ctor()


def test_monte_carlo_requires_two_samples(rng):
    with pytest.raises(ValueError):
        monte_carlo_mean(lambda x: x, ConstantVec([1.0]), 1, rng)

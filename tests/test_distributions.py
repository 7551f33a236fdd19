import warnings

import numpy as np
import pytest
from scipy import special

from cscgd import (
    ConstantVec,
    ExponentialMean,
    TruncatedChiSquared,
    TruncatedExponential,
    make_rng,
    monte_carlo_mean,
)
from cscgd.distributions import chi_squared_quantile_table
from quadrature import quadrature_moments


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


class FixedUniforms:
    """Stands in for a generator: ``random`` hands out a copy of fixed uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert self.u.shape == shape
        return self.u.copy()


@pytest.mark.parametrize("lower", [0.0, [0.0, 2.0, 0.1]])
def test_truncated_exponential_draw_equals_the_plain_expression(lower):
    mean, upper = np.array([15.0, 20.0, 0.3]), np.array([20.0, np.inf, 5.0])
    d = TruncatedExponential(mean=mean, upper=upper, lower=lower)
    lo = -np.expm1(-np.broadcast_to(lower, (3,)) / mean)
    hi = -np.expm1(-upper / mean)
    edges = np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.75],
                      [1.0 - 2.0**-53] * 3, [2.0**-60, 1e-300, 0.0]])
    block = np.concatenate([edges, make_rng(5).random((257, 3))])
    for u in [block, *edges, block[-1]]:  # one block, then single draws
        expected = -mean * np.log1p(-(lo + u * (hi - lo)))
        got = d.draw(FixedUniforms(u), None if u.ndim == 1 else u.shape[0])
        assert got.shape == u.shape
        assert got.tobytes() == expected.tobytes()


def test_truncated_chi_squared_mean_vs_quadrature(rng):
    d = TruncatedChiSquared(dof=10, lower=0.25)
    n = 1_000_000
    x = d.draw(rng, n)
    assert np.all(x >= 0.25)
    m_quad = quadrature_moments(d, (1,))[1]
    assert d.mean()[0] == pytest.approx(m_quad, rel=1e-9)
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - m_quad) <= 3.0 * se


CHI_SQUARED_EDGES = [0.0, 1e-300, 1.0 - 2.0**-53]


@pytest.mark.parametrize("dof", [2, 4, 10, 20])
def test_truncated_chi_squared_support_edges(dof):
    d = TruncatedChiSquared(dof=[dof] * 3, lower=0.25)
    block = np.concatenate([np.array([CHI_SQUARED_EDGES] * 3).T, make_rng(dof).random((61, 3))])
    x = d.draw(FixedUniforms(block), block.shape[0])
    singles = np.array([d.draw(FixedUniforms(u)) for u in block])
    assert x.tobytes() == singles.tobytes()
    assert np.all(x >= 0.25)
    assert np.all(x[:2] == 0.25)  # u = 0 and u = 1e-300 sit on the truncation point
    assert np.all(np.isfinite(x))


def test_truncated_chi_squared_columns_with_other_laws_get_their_own_table():
    dof, lower = [2, 10, 20, 10, 10], [0.25, 0.25, 0.25, 0.5, 0.25]
    d = TruncatedChiSquared(dof=dof, lower=lower)
    u = np.concatenate([[CHI_SQUARED_EDGES[0]] * 5, [CHI_SQUARED_EDGES[2]] * 5,
                        make_rng(3).random(5 * 40)]).reshape(-1, 5)
    x = d.draw(FixedUniforms(u), u.shape[0])
    for j in range(5):  # each column equals a one-column law of its own
        alone = TruncatedChiSquared(dof=dof[j], lower=lower[j])
        assert x[:, j].tobytes() == alone.draw(FixedUniforms(u[:, j:j + 1]), u.shape[0]).tobytes()
    assert np.all(x[0] == lower)
    # equal (dof, lower) pairs share one read-only table
    table = chi_squared_quantile_table(10.0, 0.25)
    assert chi_squared_quantile_table(10.0, 0.25) is table
    assert TruncatedChiSquared(dof=[10, 10], lower=0.25)._coef is table.coef
    assert not any(a.flags.writeable for a in table.coef)


def test_truncated_chi_squared_without_truncation_starts_its_table_at_odds_2_to_minus_60():
    d = TruncatedChiSquared(dof=[2, 20], lower=0.0)
    u = np.array([[0.0, 0.0], [2.0**-53, 2.0**-53], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # u = 0 must not take the log of 0
        x = d.draw(FixedUniforms(u), 3)
    # u = 0 draws the first node, the quantile at odds 2^-60 (2 * 2^-60 on dof 2)
    assert x[0, 0] == pytest.approx(2.0 * 2.0**-60, rel=1e-12) and x[0, 1] > 0.0
    # from the least positive uniform up the table is exact again: here p = u
    exact = 2.0 * special.gammaincinv([1.0, 10.0], u[1:])
    np.testing.assert_allclose(x[1:], exact, rtol=1e-12, atol=0.0)


def _chi_squared_quantile_mpmath(mp, dof, lower, u):
    """Exact quantile of u, by Newton at 40 digits on the tail that is below 1/2."""
    k, g_lo, u = mp.mpf(dof) / 2, mp.mpf(lower) / 2, mp.mpf(u)
    p_lo = mp.gammainc(k, 0, g_lo, regularized=True)
    q_lo = mp.gammainc(k, g_lo, mp.inf, regularized=True)
    p, q = p_lo + u * q_lo, (1 - u) * q_lo
    if p < 0.5:
        g, residual = mp.mpf(special.gammaincinv(float(k), float(p))), \
            lambda g: mp.gammainc(k, 0, g, regularized=True) - p
    else:
        g, residual = mp.mpf(special.gammainccinv(float(k), float(q))), \
            lambda g: q - mp.gammainc(k, g, mp.inf, regularized=True)
    g = max(g, g_lo)
    for _ in range(20):
        step = residual(g) / (g ** (k - 1) * mp.exp(-g) / mp.gamma(k))
        g -= step
        if abs(step) < g * mp.mpf(10) ** -35:
            return 2 * g
    raise AssertionError(f"Newton did not converge at dof {dof}, u {u}")


@pytest.mark.parametrize("dof", [2, 4, 10, 20])
def test_truncated_chi_squared_quantiles_match_mpmath(dof):
    import mpmath  # a test dependency (pyproject [test]); a missing one fails here

    lower = 0.25
    edges = [0.0, 1e-300, 1e-12, 1e-8, 1e-4, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0**-53]
    u = np.concatenate([edges, make_rng(100 + dof).random(150)])
    d = TruncatedChiSquared(dof=dof, lower=lower)
    x = d.draw(FixedUniforms(u[:, None]), u.size)[:, 0]
    with mpmath.workdps(40):
        exact = [_chi_squared_quantile_mpmath(mpmath, dof, lower, ui) for ui in u]
        rel = np.array([float(abs(xi / ei - 1)) for xi, ei in zip(x, exact)])
    assert rel.max() <= 1e-12, (u[rel.argmax()], rel.max())
    # gammaincinv as a second reference where it is itself accurate: p =
    # cdf_lo + u (1 - cdf_lo) carries two roundings (2^-52 absolute), which
    # move its quantile by 2^-52 / f(x), f the parent density
    ok = u <= 1.0 - 1e-6
    cdf_lo = d._cdf_lo[0]
    ref = 2.0 * special.gammaincinv(dof / 2.0, cdf_lo + u[ok] * (1.0 - cdf_lo))
    density = d.pdf(x[ok]) * (1.0 - cdf_lo)
    assert np.all(np.abs(x[ok] / ref - 1.0) <= 1e-12 + 2.0**-52 / (density * x[ok]))


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
        lambda: TruncatedChiSquared(dof=2, lower=2000.0),  # no mass left in doubles
    ],
)
def test_invalid_parameters_rejected(ctor):
    with pytest.raises(ValueError):
        ctor()


def test_monte_carlo_requires_two_samples(rng):
    with pytest.raises(ValueError):
        monte_carlo_mean(lambda x: x, ConstantVec([1.0]), 1, rng)

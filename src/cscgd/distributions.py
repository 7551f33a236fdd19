"""Seeded sampling streams and the random-variable families the designs use.

Every family draws by inverse-CDF restriction (never rejection) so that a
single sample always consumes a fixed number of uniforms: runs indexed by
(seed, stream_id) stay reproducible and mutually independent regardless of
parameter values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Terms of the power series behind truncated_exponential_moments below t = 1.
_SERIES_J = np.arange(20)
_SERIES_FACT = np.array([math.factorial(j) for j in range(20)], dtype=float)


def make_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, stream_id) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.default_rng(ss)


def _param_array(value, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be scalar or 1-d")
    return arr


def truncated_exponential_moments(m, w):
    """E[Y] and E[Y^2] of an exponential of scale m restricted to [0, w].

    The closed forms m - w / expm1(t) and 2 m^2 - (w + 2 m) w / expm1(t),
    t = w / m, subtract nearly equal terms as t -> 0.  Below t = 1 both
    moments are w^k times the ratio of the power series in t of
    int_0^1 u^k e^(-t u) du and int_0^1 e^(-t u) du, whose terms
    (-t)^j / (j! (k + j + 1)) fall off without cancellation.
    """
    m, w = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(w, dtype=float))
    t = w / m
    terms = (-np.minimum(t, 1.0))[..., None] ** _SERIES_J / _SERIES_FACT
    den = np.sum(terms / (_SERIES_J + 1), axis=-1)
    w = np.where(np.isinf(w), 0.0, w)  # w / expm1(t) -> 0 as w -> inf
    tail = w / np.expm1(t)
    small = t < 1.0
    first = np.where(small, w * np.sum(terms / (_SERIES_J + 2), axis=-1) / den, m - tail)
    second = np.where(small, w**2 * np.sum(terms / (_SERIES_J + 3), axis=-1) / den,
                      2.0 * m * m - (w + 2.0 * m) * tail)
    return first, second


class ConstantVec:
    """Degenerate distribution returning a fixed vector."""

    def __init__(self, values):
        self.values = _param_array(values, "values")
        self.dim = self.values.size

    def draw(self, rng, size: int | None = None):
        if size is None:
            return self.values.copy()
        return np.tile(self.values, (size, 1))

    def mean(self) -> np.ndarray:
        return self.values.copy()


class ExponentialMean:
    """Exponential with the given mean(s); vector parameters draw i.i.d. components."""

    def __init__(self, mean):
        self.mean_param = _param_array(mean, "mean")
        if np.any(self.mean_param <= 0):
            raise ValueError("mean must be positive")
        self.dim = self.mean_param.size

    def draw(self, rng, size: int | None = None):
        shape = (self.dim,) if size is None else (size, self.dim)
        u = rng.random(shape)
        return -self.mean_param * np.log1p(-u)

    def mean(self) -> np.ndarray:
        return self.mean_param.copy()

    def pdf(self, x, i: int = 0):
        m = self.mean_param[i]
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.exp(-x / m) / m, 0.0)

    def support(self, i: int = 0):
        return 0.0, np.inf


class TruncatedExponential:
    """Exponential restricted to [lower, upper] via inverse-CDF truncation.

    ``mean`` is the scale of the parent exponential, not the mean of the
    truncated law; use :meth:`mean` for the latter.
    """

    def __init__(self, mean, upper, lower=0.0):
        self.mean_param, self.upper, self.lower = np.broadcast_arrays(
            _param_array(mean, "mean"),
            _param_array(upper, "upper"),
            _param_array(lower, "lower"),
        )
        self.mean_param = self.mean_param.astype(float)
        self.upper = self.upper.astype(float)
        self.lower = self.lower.astype(float)
        if np.any(self.mean_param <= 0):
            raise ValueError("mean must be positive")
        if np.any(self.lower < 0) or np.any(self.upper <= self.lower):
            raise ValueError("need 0 <= lower < upper")
        self.dim = self.mean_param.size
        self._cdf_lo = -np.expm1(-self.lower / self.mean_param)
        self._cdf_hi = -np.expm1(-self.upper / self.mean_param)
        self._mass = self._cdf_hi - self._cdf_lo
        self._neg_mean = -self.mean_param

    def draw(self, rng, size: int | None = None):
        shape = (self.dim,) if size is None else (size, self.dim)
        u = rng.random(shape)
        # -mean * log1p(-(cdf_lo + u * mass)), worked in place on u with
        # the same operations in the same order: no temporaries per block.
        u *= self._mass
        u += self._cdf_lo
        np.negative(u, u)
        np.log1p(u, u)
        u *= self._neg_mean
        return u

    def mean(self) -> np.ndarray:
        # Memoryless: X - lower is the law restricted to [0, upper - lower].
        first, _ = truncated_exponential_moments(self.mean_param, self.upper - self.lower)
        return self.lower + first

    def pdf(self, x, i: int = 0):
        m = self.mean_param[i]
        a, b = self.lower[i], self.upper[i]
        x = np.asarray(x, dtype=float)
        mass = self._mass[i]
        inside = (x >= a) & (x <= b)
        return np.where(inside, np.exp(-x / m) / (m * mass), 0.0)

    def support(self, i: int = 0):
        return float(self.lower[i]), float(self.upper[i])


class TruncatedChiSquared:
    """Chi-squared with even dof, restricted to [lower, inf).

    Inversion uses the regularized incomplete-gamma inverse, exact to
    machine precision, so each draw costs exactly one uniform.
    """

    def __init__(self, dof, lower=0.0):
        self.dof, self.lower = np.broadcast_arrays(
            _param_array(dof, "dof"), _param_array(lower, "lower")
        )
        self.dof = self.dof.astype(float)
        self.lower = self.lower.astype(float)
        if np.any(self.dof <= 0) or np.any(self.dof % 2 != 0):
            raise ValueError("dof must be even and positive")
        if np.any(self.lower < 0):
            raise ValueError("lower must be nonnegative")
        self.dim = self.dof.size
        self._k = self.dof / 2.0
        self._cdf_lo = special.gammainc(self._k, self.lower / 2.0)

    def draw(self, rng, size: int | None = None):
        shape = (self.dim,) if size is None else (size, self.dim)
        u = rng.random(shape)
        u = self._cdf_lo + u * (1.0 - self._cdf_lo)
        return 2.0 * special.gammaincinv(self._k, u)

    def mean(self) -> np.ndarray:
        k, g = self._k, self.lower / 2.0
        upper_mass = 1.0 - self._cdf_lo
        return self.dof * (1.0 - special.gammainc(k + 1.0, g)) / upper_mass

    def pdf(self, x, i: int = 0):
        k = self._k[i]
        x = np.asarray(x, dtype=float)
        mass = 1.0 - self._cdf_lo[i]
        logpdf = (k - 1.0) * np.log(np.maximum(x, 1e-300)) - x / 2.0 \
            - k * np.log(2.0) - special.gammaln(k)
        dens = np.exp(logpdf) / mass
        return np.where(x >= self.lower[i], dens, 0.0)

    def support(self, i: int = 0):
        return float(self.lower[i]), np.inf


def monte_carlo_mean(fn, dist, n_samples: int, rng):
    """Sample mean and standard error of fn over i.i.d. draws.

    fn receives the full (n, dim) batch and returns an (n,) or (n, k) array.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    batch = dist.draw(rng, n_samples)
    vals = np.asarray(fn(batch), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise ValueError(
            f"non-finite Monte-Carlo value at sample {bad[0]}: "
            f"zeta={batch[bad[0]]}, fn={vals[bad[0]]}"
        )
    # column-wise contiguous reductions: the strided axis-0 mean forgoes
    # pairwise summation and drifts ~n*eps on large batches
    cols = [np.ascontiguousarray(vals[:, j]) for j in range(vals.shape[1])]
    mean = np.array([c.mean() for c in cols])
    std_err = np.array([c.std(ddof=1) for c in cols]) / np.sqrt(n_samples)
    return mean, std_err

"""Seeded sampling streams and the random-variable families the designs use.

Every family draws by inverse-CDF restriction (never rejection) so that a
single sample always consumes a fixed number of uniforms: runs indexed by
(seed, stream_id) stay reproducible and mutually independent regardless of
parameter values.  A block of draws is column-major: its uniforms are
drawn in row order, as single draws take them, and laid out column by
column before the parameters are applied.

The exponential families invert in closed form.  The truncated chi-squared
law has no closed-form quantile, so it inverts by table (Hoermann & Leydold
2003, "Continuous random variate generation by fast numerical inversion",
ACM TOMACS 13(4)): :func:`chi_squared_quantile_table` tabulates the
quantile once per (dof, lower) as a cubic Hermite interpolant on a uniform
grid in the log-odds w of the parent CDF, and a draw is one uniform, one
logarithm and one cubic.  For dof 2 to 20 at lower 0.25 the draws are
within 2e-13 relative of the exact quantile from u = 0 to u = 1 - 2^-53
(the tests gate 1e-12 against mpmath at 40 digits).  The previous sampler,
``scipy.special.gammaincinv`` of cdf_lo + u (1 - cdf_lo), inverts a
probability already rounded near 1: it is off by 6.5e-9 at u = 1 - 1e-12
on dof 10 and returns inf at u = 1 - 2^-53 on dof 2.  The table takes
each tail from its own probability instead.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import special

from ._ufuncs import clip as _clip

# Terms of the power series behind truncated_exponential_moments below t = 1.
_SERIES_J = np.arange(20)
_SERIES_FACT = np.array([math.factorial(j) for j in range(20)], dtype=float)

# Grid spacing in w of the chi-squared quantile tables (a power of two, so
# 1 / QUANTILE_STEP is exact).  At 2^-8 the interpolation error is at most
# 1.9e-13 relative on dof 2 and falls with dof (1.4e-14 on dof 20); at 2^-7
# it is 3.0e-12 on dof 2.
QUANTILE_STEP = 2.0**-8
# Largest double below 1: the largest uniform a Generator returns.
_U_TOP = 1.0 - 2.0**-53
# A table starts at the truncation point unless its odds are below this
# (lower = 0, or nearly); then it starts here, below the odds of every
# positive uniform a Generator returns (2^-53 and up).
_ODDS_FLOOR = 2.0**-60


def make_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, stream_id) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.default_rng(ss)


def _uniforms(rng, size: int | None, dim: int) -> np.ndarray:
    """Uniforms for one draw (dim,), or a column-major (size, dim) block.

    A block's uniforms are drawn in row order, so it consumes the stream
    exactly as ``size`` single draws, and then laid out column by column:
    a ufunc that broadcasts a (dim,) parameter against the block then runs
    one inner loop per column, not one per row.
    """
    if size is None:
        return rng.random((dim,))
    return np.asfortranarray(rng.random((size, dim)))


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
        return np.broadcast_to(self.values, (size, self.dim)).copy(order="F")

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
        u = _uniforms(rng, size, self.dim)
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
        u = _uniforms(rng, size, self.dim)
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


class ChiSquaredQuantileTable(NamedTuple):
    """Quantile of chi-squared(dof) truncated to [lower, inf) as a function of w.

    With p = cdf_lo + u (1 - cdf_lo) and q = (1 - u) Q(dof/2, lower/2) the
    parent's CDF and survival at the quantile of u, w = log(p / q) =
    log((odds + u) / (1 - u)).  Cell j covers [w_start + j h, w_start +
    (j + 1) h), h = QUANTILE_STEP, and the quantile at t in [0, 1) of it is
    a[j] + t (b[j] + t (c[j] + t d[j])).  The last cell is a spare that
    only the clip at its left node reaches.
    """

    odds: float  # cdf_lo / (1 - cdf_lo), computed as P / Q, at least 2^-1074
    w_start: float
    coef: tuple  # (a, b, c, d), read-only float arrays, one entry per cell


@functools.lru_cache(maxsize=8)
def chi_squared_quantile_table(dof: float, lower: float) -> ChiSquaredQuantileTable:
    """Cubic Hermite table of the truncated chi-squared quantile in w.

    Nodes sit on a uniform grid in w from the truncation point (or from
    ``_ODDS_FLOOR`` when its odds are below that) to one cell past u = 1 -
    2^-53.  A node's quantile comes from ``gammaincinv`` of p = expit(w)
    on the lower half and from ``gammainccinv`` of q = expit(-w) on the
    upper half, so each tail is inverted from its own probability; its
    slope is dx/dw = 2 p q / f(x/2), f the Gamma(dof/2) density.  The
    first node is ``lower`` itself when the table starts there.  Pure in
    its arguments, so tables are shared: the arrays are read-only.
    """
    k, g_lo = 0.5 * dof, 0.5 * lower
    q_lo = float(special.gammaincc(k, g_lo))
    if not q_lo > 0.0:
        raise ValueError(f"lower = {lower} leaves chi-squared({dof}) no mass in double precision")
    # floored at the least double, so that u = 0 keeps w finite when lower = 0
    odds = max(float(special.gammainc(k, g_lo)) / q_lo, 2.0**-1074)
    # the draw's own expression at u = 0 and u = 1 - 2^-53
    u = np.array([0.0, _U_TOP])
    w_lo, w_top = np.log((max(odds, _ODDS_FLOOR) + u) / (1.0 - u)).tolist()
    n_cells = math.ceil((w_top - w_lo) / QUANTILE_STEP) + 2
    w = w_lo + QUANTILE_STEP * np.arange(n_cells + 1)
    upper_half = w >= 0.0
    g = np.empty_like(w)
    g[~upper_half] = special.gammaincinv(k, special.expit(w[~upper_half]))
    g[upper_half] = special.gammainccinv(k, special.expit(-w[upper_half]))
    if odds >= _ODDS_FLOOR:
        g[0] = g_lo
    # log(p q) - log f(g), with log p = -log(1 + e^-w), log q = -log(1 + e^w)
    log_slope = -np.logaddexp(0.0, -w) - np.logaddexp(0.0, w) \
        - ((k - 1.0) * np.log(g) - g - special.gammaln(k))
    x, m = 2.0 * g, 2.0 * QUANTILE_STEP * np.exp(log_slope)
    step = x[1:] - x[:-1]
    coef = (x[:-1], m[:-1], 3.0 * step - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * step)
    for arr in coef:
        arr.flags.writeable = False
    return ChiSquaredQuantileTable(odds, w_lo, coef)


class TruncatedChiSquared:
    """Chi-squared with even dof, restricted to [lower, inf).

    Each draw inverts one uniform u through the cubic Hermite table of
    :func:`chi_squared_quantile_table` for its column's (dof, lower):
    within 2e-13 relative of the exact quantile for dof 2 to 20, and never
    below ``lower``; u = 0 draws ``lower`` itself.  Every step is
    elementwise, so a block equals its single draws bit for bit; a block is
    column-major (see :func:`_uniforms`).  Columns with equal (dof, lower)
    share one table; when every column shares it, as in the fading designs,
    the draw's per-table operands are scalars, which cost about a fifth
    less than (dim,) rows even on a column-major block.  The public ``dof``
    and ``lower`` stay (dim,) arrays either way.  Where the truncation odds
    are below 2^-60, a u below 2^-60 (from a Generator, only u = 0) draws
    the quantile at odds 2^-60, the table's first node.
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
        columns = list(zip(self.dof.tolist(), self.lower.tolist()))
        tables = {col: chi_squared_quantile_table(*col) for col in columns}
        if len(tables) == 1:
            # every column draws alike: scalar operands broadcast against a
            # block in one inner loop, where (dim,) vectors take one per column
            (table,) = tables.values()
            self._odds, self._w_start = table.odds, table.w_start
            self._offset, self._last_cell = 0, float(table.coef[0].size - 1)
            self._floor = float(self.lower[0])
            self._coef = table.coef
        else:
            offset, cells = {}, 0
            for col, table in tables.items():
                offset[col] = cells
                cells += table.coef[0].size
            self._odds = np.array([tables[col].odds for col in columns])
            self._w_start = np.array([tables[col].w_start for col in columns])
            self._offset = np.array([offset[col] for col in columns], dtype=np.intp)
            self._last_cell = np.array([tables[col].coef[0].size - 1 for col in columns],
                                       dtype=float)
            self._floor = self.lower
            self._coef = tuple(np.concatenate(parts)
                               for parts in zip(*(t.coef for t in tables.values())))

    def draw(self, rng, size: int | None = None):
        u = _uniforms(rng, size, self.dim)
        # s = (w - w_start) / h, w = log((odds + u) / (1 - u)), in place
        s = u + self._odds
        np.subtract(1.0, u, out=u)
        s /= u
        np.log(s, out=s)
        s -= self._w_start
        s *= 1.0 / QUANTILE_STEP
        _clip(s, 0.0, self._last_cell, out=s)
        cell = s.astype(np.intp)
        s -= cell  # t, the position within the cell
        cell += self._offset
        a, b, c, d = self._coef
        x = d[cell]
        x *= s
        x += c[cell]
        x *= s
        x += b[cell]
        x *= s
        x += a[cell]
        return np.maximum(x, self._floor, out=x)

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

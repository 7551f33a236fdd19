"""Projectable convex feasible sets.

Three set variants cover everything the queuing designs need: plain boxes,
boxes intersected with a total-budget halfspace (arrival-rate and power
budgets), and products of such sets over disjoint coordinate blocks.  The
budgeted box is projected exactly by one breakpoint search on the budget
multiplier for all binding rows.  A fourth variant adds general linear
inequalities (service-tier ladders), projected by one finite NNLS solve.

``project`` takes one point (n,) or a stack of points (S, n), one per row;
each row of a stacked projection is bitwise equal to projecting it alone.
It raises ``FeasibleSetError`` on non-finite input, the solver step's only
finiteness check, scanned once per call: a product projects its blocks
unchecked (``_project``), through a layout (its ``dim`` and block slices)
fixed at construction.  Clips call the ``clip`` ufunc that ``ndarray.clip``
wraps, for the same bits.  ``contains`` and ``midpoint`` work on points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._ufuncs import clip as _clip, count_nonzero as _count_nonzero

MEMBERSHIP_SLACK = 1e-12


class FeasibleSetError(ValueError):
    """Raised when a feasible set is mis-configured or empty, or its projection fails."""


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise FeasibleSetError(f"{name} must be a one-dimensional vector")
    return v


def _as_points(v, dim: int) -> np.ndarray:
    """A point (dim,) or a stack of points (S, dim), all finite."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != dim:
        raise FeasibleSetError(f"point has dim {v.shape}, set has dim {dim}")
    if _count_nonzero(np.isfinite(v)) != v.size:
        raise FeasibleSetError("cannot project non-finite point")
    return v


class _Projectable:
    def project(self, v: np.ndarray) -> np.ndarray:
        return self._project(_as_points(v, self.dim))


@dataclass(frozen=True)
class Box(_Projectable):
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _as_vector(self.upper, "upper"))
        if self.lower.shape != self.upper.shape:
            raise FeasibleSetError("lower/upper dimension mismatch")
        if np.any(self.lower > self.upper):
            raise FeasibleSetError("empty box: lower > upper")

    @property
    def dim(self) -> int:
        return self.lower.size

    def _project(self, v: np.ndarray) -> np.ndarray:
        return _clip(v, self.lower, self.upper)

    def contains(self, v: np.ndarray, slack: float = MEMBERSHIP_SLACK) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(
            np.all(v >= self.lower - slack) and np.all(v <= self.upper + slack)
        )

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def squared_diameter(self) -> float:
        return float(np.sum((self.upper - self.lower) ** 2))


@dataclass(frozen=True)
class BoxWithSumCap(_Projectable):
    """Box intersected with the budget halfspace {x : sum(x) <= cap}.

    Projection is exact: clip(v - nu, lower, upper) with nu = 0 when the
    plain box projection already satisfies the budget, and otherwise the
    root of the piecewise-linear, nonincreasing s(nu) = sum(clip(v - nu)).
    Its kinks are the 2n breakpoints v - upper and v - lower; the root is
    interpolated on the segment where s first drops to the cap (Kiwiel
    2008, "Breakpoint searching algorithms for the continuous quadratic
    knapsack problem").  All binding rows of a stack, or a single point,
    share one sort, one (R, 2n, n) evaluation of s and one argmax; only the
    interpolation runs per row, on Python floats, rounded as numpy's are.
    """

    lower: np.ndarray
    upper: np.ndarray
    cap: float

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _as_vector(self.upper, "upper"))
        object.__setattr__(self, "cap", float(self.cap))
        if self.lower.shape != self.upper.shape:
            raise FeasibleSetError("lower/upper dimension mismatch")
        if np.any(self.lower > self.upper):
            raise FeasibleSetError("empty box: lower > upper")
        if np.sum(self.lower) > self.cap:
            raise FeasibleSetError("empty set: sum(lower) exceeds cap")
        object.__setattr__(self, "_bounds", np.stack((self.upper, self.lower)))

    @property
    def dim(self) -> int:
        return self.lower.size

    def _project(self, v: np.ndarray) -> np.ndarray:
        u = _clip(v, self.lower, self.upper)
        over = np.add.reduce(u, -1) > self.cap
        binding = _count_nonzero(over)
        if not binding:
            return u
        if v.ndim == 1:
            return self._search(v[None])[0]
        if binding == len(v):
            return self._search(v)
        u[over] = self._search(v[over])
        return u

    def _search(self, v: np.ndarray) -> np.ndarray:
        """Project the rows of v (R, n), each of whose box clip exceeds the cap."""
        cap, v3 = self.cap, v[:, None, :]
        bps = (v3 - self._bounds).reshape(len(v), -1)
        bps.sort(axis=-1)
        s = np.add.reduce(_clip(v3 - bps[:, :, None], self.lower, self.upper), -1)
        # argmax, not searchsorted: the first index with s <= cap gives
        # s[k-1] > cap >= s[k] even where rounding breaks monotonicity by an ulp.
        ks = (s <= cap).argmax(axis=-1)
        # s[k] > cap: past the last breakpoint every coordinate sits at its lower bound
        # (v - inf clips to it); only rounding kept s above a cap equal to sum(lower).
        # k = 0: s(bps[0]) = sum(upper) > cap unless rounding says otherwise.
        nus = [np.inf if sr[k] > cap else br[k] if k == 0
               else br[k - 1] + (sr[k - 1] - cap) / (sr[k - 1] - sr[k]) * (br[k] - br[k - 1])
               for k, sr, br in zip(ks.tolist(), s.tolist(), bps.tolist())]
        return _clip(v - np.array(nus)[:, None], self.lower, self.upper)

    def contains(self, v: np.ndarray, slack: float = MEMBERSHIP_SLACK) -> bool:
        v = np.asarray(v, dtype=float)
        scale = max(1.0, abs(self.cap))
        return bool(
            np.all(v >= self.lower - slack)
            and np.all(v <= self.upper + slack)
            and v.sum() <= self.cap + slack * scale
        )

    def midpoint(self) -> np.ndarray:
        return self.project(0.5 * (self.lower + self.upper))

    def squared_diameter(self) -> float:
        # Upper bound via the enclosing box; exact value is not needed.
        return float(np.sum((self.upper - self.lower) ** 2))


@dataclass(frozen=True)
class BoxWithLinearInequalities(_Projectable):
    """Box intersected with halfspaces {x : A x <= b}, stacked as G x <= h
    with G = [A; I; -I] and h = [b; upper; -lower].

    Projection is exact and finite (Lawson & Hanson 1974, ch. 23): one NNLS
    solve of the least-distance program for x - v marks the active rows G_A
    by their positive weights, then x = v - G_A^T mu with G_A G_A^T mu =
    G_A v - h_A, solved by least squares as repeated or opposite rows make it
    singular.  Used by the tiered-provisioning design (price ladders).
    """

    lower: np.ndarray
    upper: np.ndarray
    a_mat: np.ndarray
    b_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _as_vector(self.upper, "upper"))
        object.__setattr__(self, "a_mat", np.atleast_2d(np.asarray(self.a_mat, dtype=float)))
        object.__setattr__(self, "b_vec", _as_vector(self.b_vec, "b_vec"))
        if np.any(self.lower > self.upper):
            raise FeasibleSetError("empty box: lower > upper")
        if self.a_mat.shape != (self.b_vec.size, self.lower.size):
            raise FeasibleSetError("constraint matrix shape mismatch")
        eye = np.eye(self.dim)
        object.__setattr__(self, "_g", np.vstack((self.a_mat, eye, -eye)))
        object.__setattr__(self, "_h", np.concatenate((self.b_vec, self.upper, -self.lower)))
        try:
            self._project_one(0.5 * (self.lower + self.upper))
        except FeasibleSetError as err:
            raise FeasibleSetError(f"empty set: box midpoint has no projection ({err})") from None

    @property
    def dim(self) -> int:
        return self.lower.size

    def _project(self, v: np.ndarray) -> np.ndarray:
        if v.ndim == 2:
            return np.stack([self._project_one(row) for row in v])
        return self._project_one(v)

    def _project_one(self, v: np.ndarray) -> np.ndarray:
        g, h, free = self._g, self._h, self.lower < self.upper
        # A coordinate with lower == upper has one feasible value; fixing it
        # keeps its opposite box rows, which degenerate the NNLS, out of it.
        x = np.where(free, v, self.lower)
        slack = h - g @ x
        scale = np.max(np.abs(slack))
        # NNLS cannot resolve violations within rounding of the largest slack:
        # such rows count as met, and a point meeting every row is returned.
        slack[(slack < 0.0) & (slack >= -MEMBERSHIP_SLACK * scale)] = 0.0
        if np.all(slack >= 0.0):
            return x
        from scipy import optimize  # deferred: slow to import, and only this branch needs it
        # LDP min ||u|| s.t. G u <= slack as NNLS, E = [-G^T; -slack^T] and f = e_{k+1};
        # slack scaled to unit size keeps NNLS's internal tolerance relative.
        g_free = g[:, free]
        e_mat = np.vstack((-g_free.T, -slack / scale))
        try:
            weights, _ = optimize.nnls(e_mat, np.eye(e_mat.shape[0])[-1])
        except RuntimeError:
            raise FeasibleSetError(f"NNLS hit its {3 * g.shape[0]}-iteration limit") from None
        g_act = g_free[weights > 0.0]
        mu = np.linalg.lstsq(g_act @ g_act.T, -slack[weights > 0.0], rcond=None)[0]
        x[free] -= g_act.T @ mu
        if not self.contains(x):
            viol = g @ x - h
            raise FeasibleSetError(f"projected point violates row {np.argmax(viol)} of "
                                   f"[A; I; -I] x <= [b; upper; -lower] by {viol.max():.3e}")
        return x

    def contains(self, v: np.ndarray, slack: float = 1e-9) -> bool:
        return bool(np.all(self._g @ np.asarray(v, dtype=float) - self._h <= slack))

    def midpoint(self) -> np.ndarray:
        return self.project(0.5 * (self.lower + self.upper))

    def squared_diameter(self) -> float:
        return float(np.sum((self.upper - self.lower) ** 2))


@dataclass(frozen=True)
class ProductSet(_Projectable):
    """Cartesian product of feasible sets over consecutive coordinate blocks."""

    blocks: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise FeasibleSetError("product of zero sets")
        ends = np.cumsum([b.dim for b in self.blocks]).tolist()
        object.__setattr__(self, "dim", ends[-1])
        object.__setattr__(self, "_parts", tuple((..., slice(k - b.dim, k))
                                                 for b, k in zip(self.blocks, ends)))

    def _project(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([b._project(v[p]) for b, p in zip(self.blocks, self._parts)], -1)

    def contains(self, v: np.ndarray, slack: float | None = None) -> bool:
        """Every block contains its part; with no ``slack``, each block's own default."""
        v = np.asarray(v, dtype=float)
        return all(
            b.contains(v[p]) if slack is None else b.contains(v[p], slack)
            for b, p in zip(self.blocks, self._parts)
        )

    def midpoint(self) -> np.ndarray:
        return np.concatenate([b.midpoint() for b in self.blocks])

    def squared_diameter(self) -> float:
        return float(sum(b.squared_diameter() for b in self.blocks))

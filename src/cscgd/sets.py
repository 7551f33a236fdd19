"""Projectable convex feasible sets.

Three set variants cover everything the queuing designs need: plain boxes,
boxes intersected with a total-budget halfspace (arrival-rate and power
budgets), and products of such sets over disjoint coordinate blocks.  The
budgeted box is projected exactly by a vectorised breakpoint search on the
budget multiplier.  A fourth variant adds general linear inequalities
(service-tier ladders) via Dykstra's alternating projections.

``project`` takes one point (n,) or a stack of points (S, n), one per row;
each row of a stacked projection is bitwise equal to projecting it alone.
``contains`` and ``midpoint`` work on single points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MEMBERSHIP_SLACK = 1e-12


class FeasibleSetError(ValueError):
    """Raised when a feasible set is mis-configured or its projection fails to converge."""


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
    if not np.isfinite(v).all():
        raise FeasibleSetError("cannot project non-finite point")
    return v


@dataclass(frozen=True)
class Box:
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

    def project(self, v: np.ndarray) -> np.ndarray:
        return _as_points(v, self.dim).clip(self.lower, self.upper)

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
class BoxWithSumCap:
    """Box intersected with the budget halfspace {x : sum(x) <= cap}.

    Projection is exact: clip(v - nu, lower, upper) with nu = 0 when the
    plain box projection already satisfies the budget, and otherwise the
    root of the piecewise-linear, nonincreasing s(nu) = sum(clip(v - nu)).
    Its kinks are the 2n breakpoints v - upper and v - lower; the root is
    interpolated on the segment where s first drops to the cap (Kiwiel
    2008, "Breakpoint searching algorithms for the continuous quadratic
    knapsack problem").  A fixed number of array operations per point whose
    budget binds, no iteration.
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

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, v: np.ndarray) -> np.ndarray:
        v = _as_points(v, self.dim)
        u = v.clip(self.lower, self.upper)
        if v.ndim == 1:
            return self._onto_cap(v) if u.sum() > self.cap else u
        for i in np.flatnonzero(u.sum(axis=-1) > self.cap):
            u[i] = self._onto_cap(v[i])
        return u

    def _onto_cap(self, v: np.ndarray) -> np.ndarray:
        """Project one point v whose box clip exceeds the cap."""
        bps = np.sort(np.concatenate((v - self.upper, v - self.lower)))
        s = np.clip(v - bps[:, None], self.lower, self.upper).sum(axis=1)
        # argmax, not searchsorted: the first index with s <= cap gives
        # s[k-1] > cap >= s[k] even where rounding breaks monotonicity by an ulp.
        below = s <= self.cap
        k = int(np.argmax(below))
        if not below[k]:
            # Past the last breakpoint every coordinate sits at its lower
            # bound; only rounding kept s above a cap equal to sum(lower).
            return self.lower.copy()
        if k == 0:
            # s(bps[0]) = sum(upper) > cap unless rounding says otherwise.
            nu = bps[0]
        else:
            frac = (s[k - 1] - self.cap) / (s[k - 1] - s[k])
            nu = bps[k - 1] + frac * (bps[k] - bps[k - 1])
        return np.clip(v - nu, self.lower, self.upper)

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
class BoxWithLinearInequalities:
    """Box intersected with halfspaces {x : A x <= b}.

    Projection uses Dykstra's alternating projections over the box and each
    halfspace, which converges to the exact Euclidean projection for
    intersections of convex sets.  Used by the tiered-provisioning design
    whose price-ladder constraints are pairwise differences.
    """

    lower: np.ndarray
    upper: np.ndarray
    a_mat: np.ndarray
    b_vec: np.ndarray
    tol: float = 1e-12
    max_sweeps: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _as_vector(self.upper, "upper"))
        object.__setattr__(self, "a_mat", np.atleast_2d(np.asarray(self.a_mat, dtype=float)))
        object.__setattr__(self, "b_vec", _as_vector(self.b_vec, "b_vec"))
        if np.any(self.lower > self.upper):
            raise FeasibleSetError("empty box: lower > upper")
        if self.a_mat.shape != (self.b_vec.size, self.lower.size):
            raise FeasibleSetError("constraint matrix shape mismatch")

    @property
    def dim(self) -> int:
        return self.lower.size

    def _halfspace_project(self, v: np.ndarray, i: int) -> np.ndarray:
        a = self.a_mat[i]
        resid = a @ v - self.b_vec[i]
        if resid <= 0.0:
            return v
        return v - (resid / (a @ a)) * a

    def project(self, v: np.ndarray) -> np.ndarray:
        v = _as_points(v, self.dim)
        if v.ndim == 2:
            return np.stack([self._dykstra(row) for row in v])
        return self._dykstra(v)

    def _dykstra(self, v: np.ndarray) -> np.ndarray:
        n_sets = 1 + self.b_vec.size
        x = v.copy()
        increments = [np.zeros(self.dim) for _ in range(n_sets)]
        scale = max(1.0, float(np.linalg.norm(v)))
        for _ in range(self.max_sweeps):
            # Convergence is judged on the increment drift, not on x itself:
            # iterates can repeat for a few sweeps while the increments are
            # still being redistributed between the sets.
            drift = 0.0
            for i in range(n_sets):
                y = x + increments[i]
                if i == 0:
                    x = np.clip(y, self.lower, self.upper)
                else:
                    x = self._halfspace_project(y, i - 1)
                new_inc = y - x
                drift += float(np.sum((new_inc - increments[i]) ** 2))
                increments[i] = new_inc
            if drift <= (self.tol * scale) ** 2:
                return x
        raise FeasibleSetError(
            f"Dykstra projection did not converge in {self.max_sweeps} sweeps "
            f"(final squared drift {drift:.3e}, tolerance {(self.tol * scale) ** 2:.3e})"
        )

    def contains(self, v: np.ndarray, slack: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(
            np.all(v >= self.lower - slack)
            and np.all(v <= self.upper + slack)
            and np.all(self.a_mat @ v <= self.b_vec + slack)
        )

    def midpoint(self) -> np.ndarray:
        return self.project(0.5 * (self.lower + self.upper))

    def squared_diameter(self) -> float:
        return float(np.sum((self.upper - self.lower) ** 2))


@dataclass(frozen=True)
class ProductSet:
    """Cartesian product of feasible sets over consecutive coordinate blocks."""

    blocks: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise FeasibleSetError("product of zero sets")

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def _split(self, v: np.ndarray):
        out, k = [], 0
        for b in self.blocks:
            out.append(v[..., k:k + b.dim])
            k += b.dim
        return out

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise FeasibleSetError(f"point has dim {v.shape}, set has dim {self.dim}")
        return np.concatenate(
            [b.project(part) for b, part in zip(self.blocks, self._split(v))], axis=-1
        )

    def contains(self, v: np.ndarray, slack: float = MEMBERSHIP_SLACK) -> bool:
        v = np.asarray(v, dtype=float)
        return all(
            b.contains(part, slack) for b, part in zip(self.blocks, self._split(v))
        )

    def midpoint(self) -> np.ndarray:
        return np.concatenate([b.midpoint() for b in self.blocks])

    def squared_diameter(self) -> float:
        return float(sum(b.squared_diameter() for b in self.blocks))

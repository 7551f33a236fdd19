"""Generic problem bundle: minimize f(E[g(x, zeta)]) s.t. q(E[h(x, zeta)]) <= 0.

All maps are supplied as plain callables with closed-form Jacobians; the
solver never differentiates anything numerically.  Unconstrained problems
use num_constraints = 0 together with dim_h = 0, in which case the
constraint path of the solver is inert.

Every map also takes a leading axis, and row i of a stacked call is bitwise
equal to the single call on row i:

- ``sample(rng, k)`` draws a (k, dim_zeta) block that consumes the stream
  exactly as k single draws do.  The block may be column-major (the
  in-repo samplers return one, so that a ufunc broadcasting a (dim_zeta,)
  row against it runs one inner loop per column, not one per row);
- ``inner_g(x, zeta)`` / ``inner_h(x, zeta)`` take one point with a zeta
  block (k, dim_zeta), or stacked points x (S, dim_x) with one zeta per row
  (S, dim_zeta), and return (k or S, dim_g / dim_h).  They broadcast with
  ``...`` and must not assume C order: a block's rows may be strided, and
  numpy sums a contiguous row of 8 or more entries in another order than a
  strided one;
- ``inner_g_jacobian(x, zeta)`` / ``inner_h_jacobian(x, zeta)`` return the
  pair (value, Jacobian): the value has the bits of ``inner_g`` /
  ``inner_h`` at the same arguments, and on stacked points the halves are
  (S, dim_g / dim_h) and (S, dim_x, dim_g / dim_h).  One call serves a
  solver step, which uses g and its Jacobian at the same sample;
- ``outer_f`` on stacked trackers y (..., dim_g) returns (...,);
  ``outer_f_gradient`` returns (..., dim_g), ``outer_q`` on z (..., dim_h)
  returns (..., J) and ``outer_q_jacobian`` (..., dim_h, J).

Every map returns a float ndarray, or a pair of them (``outer_f`` on a
single point may return a float), and the solver uses the outputs as they
come.

The solver steps one row per seed through these maps, on C-contiguous
zeta rows (``solver.draw_zeta`` lays its blocks out in row order);
``evaluate_point`` maps sample blocks at one point.  A sum over the sample
axis folds the rows in sample order, whatever the layout (``np.cumsum``
along it does; ``np.add.reduce`` on a column-major block adds each column
pairwise, while over the outer axis of a C-order array, such as
``evaluate_point``'s (rows, sub-batches, dim) lanes, it adds row after row).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# Offsets of the three stacked points on which check_shapes tries the maps.
_CHECK_OFFSETS = 1e-3 * np.arange(1.0, 4.0)[:, None]
_MAPS = ("inner_g", "inner_g_jacobian", "outer_f", "outer_f_gradient",
         "inner_h", "inner_h_jacobian", "outer_q", "outer_q_jacobian")
_PAIRS = ("inner_g_jacobian", "inner_h_jacobian")  # maps that return (value, Jacobian)


@dataclass
class CompositionalProblem:
    dim_x: int
    dim_g: int
    dim_h: int
    num_constraints: int
    sample: Callable  # (rng, size=None) -> one zeta, or a (size, dim_zeta) block, any layout
    inner_g: Callable  # (x, zeta) -> vector[dim_g]; stacked -> (k, dim_g)
    inner_g_jacobian: Callable  # (x, zeta) -> (inner_g(x, zeta), matrix[dim_x, dim_g])
    outer_f: Callable  # (y) -> float; stacked y (..., dim_g) -> (...,)
    outer_f_gradient: Callable  # (y) -> vector[dim_g]; stacked -> (..., dim_g)
    feasible_set: object
    inner_h: Callable | None = None  # (x, zeta) -> vector[dim_h]; stacked -> (k, dim_h)
    inner_h_jacobian: Callable | None = None  # (x, zeta) -> (inner_h(x, zeta), [dim_x, dim_h])
    outer_q: Callable | None = None  # (z) -> vector[num_constraints]; stacked -> (..., J)
    outer_q_jacobian: Callable | None = None  # (z) -> matrix[dim_h, J]; stacked -> (..., dim_h, J)
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for n, v in (("dim_x", self.dim_x), ("dim_g", self.dim_g)):
            if v <= 0:
                raise ValueError(f"{n} must be positive")
        if self.dim_h < 0 or self.num_constraints < 0:
            raise ValueError("dims must be nonnegative")
        if self.constrained:
            missing = [
                n for n, v in (
                    ("inner_h", self.inner_h),
                    ("inner_h_jacobian", self.inner_h_jacobian),
                    ("outer_q", self.outer_q),
                    ("outer_q_jacobian", self.outer_q_jacobian),
                )
                if v is None
            ]
            if missing:
                raise ValueError(f"constrained problem lacks {missing}")
        if self.feasible_set.dim != self.dim_x:
            raise ValueError("feasible set dimension != dim_x")

    @property
    def constrained(self) -> bool:
        return self.num_constraints > 0

    def check_shapes(self, rng, n_draws: int = 10):
        """Draw a few samples and verify every map's shapes and batch contract.

        Single calls at the feasible set's midpoint must return float
        ndarrays of the declared shapes, and each Jacobian map a pair of
        them whose value half has the bits of its inner map at the same
        arguments.  On a block of three draws, the inner maps at the
        midpoint must return one row per sample, and
        every map on three stacked points (x rows with one zeta each, then
        the resulting y and z rows) one row per point; each row must be
        bitwise equal to the single call.  Raises ValueError naming the
        first map that fails; cheap sanity net for hand-written maps.
        """
        x = self.feasible_set.midpoint()
        n, m, d, J = self.dim_x, self.dim_g, self.dim_h, self.num_constraints
        inner = [("inner_g", self.inner_g, self.inner_g_jacobian, m)]
        if self.constrained:
            inner.append(("inner_h", self.inner_h, self.inner_h_jacobian, d))
        for _ in range(n_draws):
            zeta = self.sample(rng)
            for name, fn, jac, dim in inner:
                value = _expect(name, fn(x, zeta), (dim,))
                _expect_pair(name + "_jacobian", jac(x, zeta), value, (n, dim))
        y = np.asarray(self.inner_g(x, self.sample(rng)), dtype=float)
        _expect("outer_f_gradient", self.outer_f_gradient(y), (m,))
        float(self.outer_f(y))
        if self.constrained:
            z = np.asarray(self.inner_h(x, self.sample(rng)), dtype=float)
            _expect("outer_q", self.outer_q(z), (J,))
            _expect("outer_q_jacobian", self.outer_q_jacobian(z), (d, J))
        block = np.asarray(_on_block("sample", self.sample, rng, 3))
        if block.ndim != 2 or block.shape[0] != 3:
            raise ValueError(
                f"sample(rng, 3) returned shape {block.shape}, expected (3, dim_zeta)"
            )
        for name, fn, _, dim in inner:
            _rows_match(name, fn, (x, block), [(x, zeta) for zeta in block],
                        (3, dim), "on a sample block")

        xs = np.asarray(self.feasible_set.project(x + _CHECK_OFFSETS), dtype=float)
        points = [(xs[i], block[i]) for i in range(3)]

        def stacked(name, fn, args, singles, shape):
            return _rows_match(name, fn, args, singles, shape, "on stacked points")

        values = {}
        for name, fn, jac, dim in inner:
            jname = name + "_jacobian"
            values[name] = stacked(name, fn, (xs, block), points, (3, dim))
            _expect_pair(jname, _on_block(jname, jac, xs, block), values[name],
                         (3, n, dim), " on stacked points")
            stacked(jname, lambda *args, jac=jac: jac(*args)[1], (xs, block), points,
                    (3, n, dim))
        ys = values["inner_g"]
        stacked("outer_f", self.outer_f, (ys,), [(row,) for row in ys], (3,))
        stacked("outer_f_gradient", self.outer_f_gradient, (ys,), [(row,) for row in ys],
                (3, m))
        if self.constrained:
            zs = values["inner_h"]
            stacked("outer_q", self.outer_q, (zs,), [(row,) for row in zs], (3, J))
            stacked("outer_q_jacobian", self.outer_q_jacobian, (zs,),
                    [(row,) for row in zs], (3, d, J))

    def with_output_checks(self) -> "CompositionalProblem":
        """A copy whose maps check that their first output is a float ndarray.

        A Jacobian map's first output must be a pair of them.  On its first
        call each check puts the bare map back in its place, so every later
        call costs nothing extra.  Aliased maps (``inner_h is inner_g``)
        share one check and stay aliased.
        """
        checked = replace(self)
        groups = {}
        for name in _MAPS:
            fn = getattr(self, name)
            if fn is not None:
                groups.setdefault(id(fn), (fn, []))[1].append(name)
        for fn, names in groups.values():
            check = _expect_pair if names[0] in _PAIRS else _expect_floats

            def first_call(*args, fn=fn, names=names, check=check):
                for name in names:
                    setattr(checked, name, fn)
                return check(names[0], fn(*args))

            for name in names:
                setattr(checked, name, first_call)
        return checked


def _on_block(name: str, fn, *args):
    # A map written for one point or sample typically fails on stacked
    # arguments with a broadcasting, indexing or arity error that does not
    # say which map.
    try:
        return fn(*args)
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{name} does not support a leading axis: {exc}") from exc


def _rows_match(name: str, fn, args, singles, shape: tuple, where: str) -> np.ndarray:
    """``fn(*args)`` has ``shape`` and row i is bitwise ``fn(*singles[i])``."""
    rows = _expect(name, _on_block(name, fn, *args), shape)
    for i, single in enumerate(singles):
        if rows[i].tobytes() != np.asarray(fn(*single), dtype=float).tobytes():
            raise ValueError(
                f"{name} row {i} {where} is not bitwise equal to the single call"
            )
    return rows


def _expect_floats(name: str, value, half: str = ""):
    if not isinstance(value, np.ndarray):
        got = f"type {type(value).__name__}"
    elif value.dtype != float:
        got = f"dtype {value.dtype}"
    else:
        return value
    raise ValueError(f"{name} returned {got}, expected a float ndarray{half}")


def _expect(name: str, value, shape: tuple, half: str = ""):
    if _expect_floats(name, value, half).shape != shape:
        raise ValueError(f"{name} returned shape {value.shape}, expected {shape}{half}")
    return value


def _expect_pair(name: str, pair, value=None, shape=None, where: str = ""):
    """A (value, Jacobian) pair of float ndarrays; given ``value``, the value
    half must be bitwise ``value`` and the Jacobian half of ``shape``."""
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise ValueError(f"{name} returned type {type(pair).__name__}, "
                         f"expected a (value, Jacobian) pair")
    got = _expect_floats(name, pair[0], " as its value half")
    jac = _expect_floats(name, pair[1], " as its Jacobian half")
    if value is not None:
        _expect(name, jac, shape, " as its Jacobian half")
        if got.shape != value.shape or got.tobytes() != value.tobytes():
            raise ValueError(f"{name} value half{where} is not bitwise equal to "
                             f"{name.removesuffix('_jacobian')}")
    return pair

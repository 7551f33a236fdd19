"""Generic problem bundle: minimize f(E[g(x, zeta)]) s.t. q(E[h(x, zeta)]) <= 0.

All maps are supplied as plain callables with closed-form Jacobians; the
solver never differentiates anything numerically.  Unconstrained problems
use num_constraints = 0 together with dim_h = 0, in which case the
constraint path of the solver is inert.

The sampler and the inner maps also take a leading sample axis:
``sample(rng, k)`` draws a (k, dim_zeta) block that consumes the stream
exactly as k single draws do, and ``inner_g(x, block)`` /
``inner_h(x, block)`` return (k, dim_g) / (k, dim_h) whose row i is bitwise
equal to the single call on ``block[i]``.  The point x is never batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class CompositionalProblem:
    dim_x: int
    dim_g: int
    dim_h: int
    num_constraints: int
    sample: Callable  # (rng, size=None) -> one zeta, or a (size, dim_zeta) block
    inner_g: Callable  # (x, zeta) -> vector[dim_g]; zeta block -> (k, dim_g)
    inner_g_jacobian: Callable  # (x, zeta) -> matrix[dim_x, dim_g]
    outer_f: Callable  # (y) -> float
    outer_f_gradient: Callable  # (y) -> vector[dim_g]
    feasible_set: object
    inner_h: Callable | None = None  # (x, zeta) -> vector[dim_h]; block -> (k, dim_h)
    inner_h_jacobian: Callable | None = None
    outer_q: Callable | None = None  # (z) -> vector[num_constraints]
    outer_q_jacobian: Callable | None = None  # (z) -> matrix[dim_h, num_constraints]
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

    def check_shapes(self, rng, n_draws: int = 10, x: np.ndarray | None = None):
        """Draw a few samples and verify every map's output shape.

        Also checks the batch contract on a block of three draws: the block
        has a leading sample axis and every row of ``inner_g`` /
        ``inner_h`` on it is bitwise equal to the single call.  Raises
        ValueError naming the first map that fails; cheap sanity net for
        hand-written maps.
        """
        if x is None:
            x = self.feasible_set.midpoint()
        n, m, d, J = self.dim_x, self.dim_g, self.dim_h, self.num_constraints
        for _ in range(n_draws):
            zeta = self.sample(rng)
            _expect("inner_g", self.inner_g(x, zeta), (m,))
            _expect("inner_g_jacobian", self.inner_g_jacobian(x, zeta), (n, m))
            if self.constrained:
                _expect("inner_h", self.inner_h(x, zeta), (d,))
                _expect("inner_h_jacobian", self.inner_h_jacobian(x, zeta), (n, d))
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
        maps = [("inner_g", self.inner_g, m)]
        if self.constrained:
            maps.append(("inner_h", self.inner_h, d))
        for name, fn, dim in maps:
            rows = _expect(name, _on_block(name, fn, x, block), (3, dim)).astype(float)
            for i, zeta in enumerate(block):
                single = np.asarray(fn(x, zeta), dtype=float)
                if rows[i].tobytes() != single.tobytes():
                    raise ValueError(
                        f"{name} row {i} on a sample block is not bitwise equal "
                        "to the single call"
                    )


def _on_block(name: str, fn, *args):
    # A map written for one sample typically fails on a block with a
    # broadcasting, indexing or arity error that does not say which map.
    try:
        return fn(*args)
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{name} does not support a leading sample axis: {exc}") from exc


def _expect(name: str, value, shape: tuple):
    arr = np.asarray(value)
    if arr.shape != shape:
        raise ValueError(f"{name} returned shape {arr.shape}, expected {shape}")
    return arr

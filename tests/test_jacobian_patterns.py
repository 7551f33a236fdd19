"""The diagonal-structured inner Jacobians, entry by entry.

For the ergodic, outage, effective-capacity and wired designs, on one point
and on a stack of three: every nonzero of ``inner_g_jacobian`` lies on the
diagonals its map documents, each entry there equals its closed-form
partial, recomputed below one scalar at a time with ``math``, and the
problem still passes ``check_shapes``.
"""

import math

import numpy as np
import pytest

from cscgd import make_rng
from cscgd.problems import paper_ex1, paper_ex2, paper_ex3, paper_ex4


def _rate(bw, z, p):
    """b = B log(1 + zeta p) and its derivative in p."""
    return bw * math.log1p(z * p), bw * z / (1.0 + z * p)


def _ergodic(inst, x, zeta):
    # rows lam, p; columns lam, lam / b, lam / b^2
    n, entries = inst.n_queues, {}
    for i in range(n):
        lam = x[i]
        b, bp = _rate(inst.bandwidths[i], zeta[i], x[n + i])
        entries[i, i] = 1.0
        entries[i, n + i] = 1.0 / b
        entries[i, 2 * n + i] = 1.0 / (b * b)
        entries[n + i, n + i] = -lam * bp / (b * b)
        entries[n + i, 2 * n + i] = -2.0 * lam * bp / (b * b * b)
    return (2 * n, 3 * n), entries


def _outage(inst, x, zeta):
    # rows lam, p; columns smoothed outage level, lam
    n, eta, entries = inst.n_queues, inst.sharpness, {}
    for i in range(n):
        b, bp = _rate(inst.bandwidths[i], zeta[i], x[n + i])
        level = 1.0 / (1.0 + math.exp(-eta * (inst.rates[i] - b)))
        entries[n + i, i] = -eta * level * (1.0 - level) * bp
        entries[i, n + i] = 1.0
    return (2 * n, 2 * n), entries


def _effective_capacity(inst, x, zeta):
    # rows p; columns b, b^2
    n, entries = inst.n_queues, {}
    for i in range(n):
        b, bp = _rate(inst.bandwidths[i], zeta[i], x[i])
        entries[i, i] = bp
        entries[i, n + i] = 2.0 * b * bp
    return (n, 2 * n), entries


def _wired(inst, x, lengths):
    # rows lam; columns lam * length, lam * length^2
    n, entries = inst.n_queues, {}
    for i in range(n):
        entries[i, i] = lengths[i]
        entries[i, n + i] = lengths[i] ** 2
    return (n, 2 * n), entries


DESIGNS = {
    "ergodic": (paper_ex2, _ergodic),
    "outage": (paper_ex3, _outage),
    "effective-capacity": (paper_ex4, _effective_capacity),
    "wired": (paper_ex1, _wired),
}


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_nonzeros_on_documented_diagonals_equal_closed_forms(design, rows):
    make, closed_form = DESIGNS[design]
    inst = make()
    problem = inst.build()
    rng = make_rng(11)
    problem.check_shapes(rng)
    fs = problem.feasible_set
    mid = fs.midpoint()
    shape = mid.shape if rows is None else (rows,) + mid.shape
    x = fs.project(mid * rng.uniform(0.5, 1.5, size=shape))
    zeta = problem.sample(rng, rows)
    jac = problem.inner_g_jacobian(x, zeta)[1]
    assert jac.shape == x.shape[:-1] + (problem.dim_x, problem.dim_g)
    for xr, zr, jr in zip(np.atleast_2d(x), np.atleast_2d(zeta), jac.reshape((-1,) + jac.shape[-2:])):
        dims, entries = closed_form(inst, xr, zr)
        assert jr.shape == dims
        on_diagonals = np.zeros(dims, dtype=bool)
        for (i, j), value in entries.items():
            on_diagonals[i, j] = True
            assert jr[i, j] == pytest.approx(value, rel=1e-13, abs=0.0), (i, j)
        assert not jr[~on_diagonals].any(), np.argwhere(jr * ~on_diagonals)

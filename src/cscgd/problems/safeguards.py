"""Shared guards that keep outer-function gradients bounded.

Ratio-type outer maps (queuing delays, blocking ratios, QoS quotients) blow
up when a tracked denominator approaches zero.  Below the knee the
reciprocal is continued by its tangent line, so value and first derivative
stay continuous and bounded; on the safe side both match the exact formula
bit for bit.  :func:`diagonals` builds the diagonal-structured Jacobians.
"""

from __future__ import annotations

import numpy as np

from .._ufuncs import count_nonzero as _count_nonzero

EPS_DEN = 1e-9


def safe_inv(d, knee):
    """1/d for d >= knee, tangent-line continuation (2*knee - d)/knee^2 below."""
    d = np.asarray(d, dtype=float)
    safe = d >= knee
    if _count_nonzero(safe) == safe.size:
        return 1.0 / d
    guarded = np.where(safe, d, knee)  # avoid spurious division warnings
    return np.where(safe, 1.0 / guarded, (2.0 * knee - d) / (knee * knee))


def safe_inv_and_deriv(d, knee):
    """:func:`safe_inv` and its derivative with respect to d, from one knee test."""
    safe = d >= knee
    if _count_nonzero(safe) == safe.size:
        return 1.0 / d, -1.0 / d**2
    guarded = np.where(safe, d, knee)
    return (np.where(safe, 1.0 / guarded, (2.0 * knee - d) / (knee * knee)),
            np.where(safe, -1.0 / guarded**2, -1.0 / (knee * knee)))


def first_argmax_mask(values):
    """One-hot mask of each row's first maximizer (ties go to the lowest index)."""
    i = values.argmax(axis=-1)
    return np.arange(values.shape[-1]) == i[..., None]


def diagonals(shape, n, entries):
    """Zeros of ``shape`` (..., rows, cols) but for the n-long diagonal (row + i, col + i)
    of each ((row, col), values) entry, written through strided slices of a flat view."""
    flat = np.zeros(shape[:-2] + (shape[-2] * shape[-1],))
    for (row, col), values in entries:
        start, step = row * shape[-1] + col, shape[-1] + 1
        flat[..., start:start + n * step:step] = values
    return flat.reshape(shape)

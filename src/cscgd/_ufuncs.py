"""numpy's C ``count_nonzero`` and the ``clip`` ufunc, without their Python wrappers.

``np.count_nonzero(a)`` and ``ndarray.clip`` / ``np.clip`` go through
Python dispatchers before they reach these; the hot paths call them
directly.  numpy 2 moved both from ``numpy.core`` to ``numpy._core``.
"""

try:
    from numpy._core.multiarray import count_nonzero
    from numpy._core.umath import clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import count_nonzero
    from numpy.core.umath import clip

__all__ = ["clip", "count_nonzero"]

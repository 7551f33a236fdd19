"""References that only the tests call: two projections and an exact count.

The bisection on the budget multiplier and Dykstra's alternating
projections are the tests' second and third references for the budgeted
box and the box with linear inequalities, beside the sorted-breakpoint
scan in ``cscgd.oracles``.  The enumeration gives the provisioning
design's blocking probability exactly over a finite load set.  Like
``quadrature``, they share no code with the solver or ``cscgd.sets``
beyond its error type.
"""

from __future__ import annotations

import numpy as np

from cscgd.sets import FeasibleSetError


def project_box_sumcap_bisect(v, lower, upper, cap, tol=1e-12, max_iter=200) -> np.ndarray:
    """Projection onto {lower <= u <= upper, sum(u) <= cap} by bisection.

    Halves the bracket [0, max(v - lower)] on the budget multiplier until
    its width is within ``tol`` (relative above 1) and returns the upper
    bracket end, so the result is feasible and within about ``tol`` of the
    exact point.  Raises :class:`FeasibleSetError` after ``max_iter``
    halvings without convergence.
    """
    v = np.asarray(v, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), v.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), v.shape)
    u = np.clip(v, lower, upper)
    if u.sum() <= cap + tol:
        return u
    # sum(clip(v - nu)) is nonincreasing in nu, so the root is bracketed by
    # [0, max(v - lower)].
    lo, hi = 0.0, float(np.max(v - lower))
    for _ in range(max_iter):
        nu = 0.5 * (lo + hi)
        if np.clip(v - nu, lower, upper).sum() > cap:
            lo = nu
        else:
            hi = nu
        if hi - lo <= tol * max(1.0, hi):
            break
    else:
        raise FeasibleSetError(
            f"sum-cap bisection did not converge in max_iter={max_iter} "
            f"iterations; final bracket width {hi - lo:.3e}"
        )
    return np.clip(v - hi, lower, upper)


def project_linear_dykstra(v, lower, upper, a_mat, b_vec, tol=1e-12,
                           max_sweeps=2000) -> np.ndarray:
    """Projection onto {lower <= x <= upper, a_mat x <= b_vec} by Dykstra's
    alternating projections over the box and each halfspace.

    Converges to the exact projection; stops once the squared drift of the
    increments over one sweep is within ``(tol * max(1, |v|))**2``.  Raises
    :class:`FeasibleSetError` after ``max_sweeps`` sweeps without convergence.
    """
    v = np.asarray(v, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b_vec, dtype=float))
    n_sets = 1 + b_vec.size
    x = v.copy()
    increments = [np.zeros(v.size) for _ in range(n_sets)]
    scale = max(1.0, float(np.linalg.norm(v)))
    for _ in range(max_sweeps):
        # Convergence is judged on the increment drift, not on x itself:
        # iterates can repeat for a few sweeps while the increments are
        # still being redistributed between the sets.
        drift = 0.0
        for i in range(n_sets):
            y = x + increments[i]
            if i == 0:
                x = np.clip(y, lower, upper)
            else:
                a = a_mat[i - 1]
                resid = a @ y - b_vec[i - 1]
                x = y if resid <= 0.0 else y - (resid / (a @ a)) * a
            new_inc = y - x
            drift += float(np.sum((new_inc - increments[i]) ** 2))
            increments[i] = new_inc
        if drift <= (tol * scale) ** 2:
            return x
    raise FeasibleSetError(
        f"Dykstra projection did not converge in {max_sweeps} sweeps "
        f"(final squared drift {drift:.3e}, tolerance {(tol * scale) ** 2:.3e})"
    )


def enumerate_blocking_probability(loads, probs, r, cap) -> np.ndarray:
    """P(cap - r_i < zeta . r <= cap) / P(zeta . r <= cap) over a finite load set.

    ``loads`` is an (n_outcomes, n_classes) array of joint demand outcomes
    with probabilities ``probs``; exhaustive, no sampling.
    """
    loads = np.atleast_2d(np.asarray(loads, dtype=float))
    probs = np.asarray(probs, dtype=float)
    r = np.asarray(r, dtype=float)
    used = loads @ r
    below = probs[used <= cap].sum()
    if below <= 0.0:
        raise ValueError("conditioning event has zero probability")
    out = np.empty(r.size)
    for i in range(r.size):
        in_band = (used > cap - r[i]) & (used <= cap)
        out[i] = probs[in_band].sum() / below
    return out

"""Independent ground-truth machinery for the acceptance checks.

Everything here deliberately avoids the solver's code paths: moments come
from quadrature, optima from deterministic reformulations or from sample
averages over one frozen sample block, solved by line-searched projected
gradient descent, and the budgeted-box projection has a reference of its
own, a sorted-breakpoint scan, which does not call ``sets``.  Gradient
claims are checked by centered differences.  The references that only the
tests call (a bisection on the budget multiplier, Dykstra's alternating
projections and an exact blocking-probability count) live in
``tests/references.py``.

Every moment (the wired length moments, the reciprocal-rate moments of the
convexity scan) comes from one composite Gauss-Legendre rule, certified by
the agreement of two rule orders; no ``scipy.integrate``.  A fixed Gauss
rule converges geometrically on an integrand analytic in a Bernstein
ellipse around each panel (Trefethen, SIAM Review 50(1), 2008), so the
panels only have to keep away from the integrand's poles.  The ergodic
baseline writes out its own exact PK value and gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._ufuncs import clip as _clip
from .distributions import TruncatedChiSquared, make_rng

# Orders of the two Gauss-Legendre rules whose agreement certifies a
# moment, and the relative difference they may show.
LEGENDRE_POINTS = (12, 16)
LEGENDRE_RTOL = 1e-13
# (nodes, weights) on [-1, 1] of each order, computed once.
_LEGENDRE_RULES = {n: np.polynomial.legendre.leggauss(n) for n in LEGENDRE_POINTS}
# The moment panels end where the parent law's survival mass falls below
# this fraction of the truncated law's mass.
TAIL_MASS = 2.0**-60


# ---------------------------------------------------------------------------
# Certified moments: one composite Gauss-Legendre rule at two orders
# ---------------------------------------------------------------------------

def moment_panels(dist, component: int = 0) -> np.ndarray:
    """Panel edges of the moment rule on one marginal of ``dist``.

    An exponential law of scale m, truncated or not, gets equal panels no
    wider than m, so each panel sees the density fall by at most a factor
    e.  A truncated chi-squared law first gets panels that double from its
    lower end, each as wide as its distance to z = 0, where the
    reciprocal-rate integrand 1/log(1 + p z) has its pole, up to width 2,
    the scale of e^(-z/2); equal panels no wider than 2 follow.  The panels
    stop at the upper end of the support or where the parent's survival
    mass falls below ``TAIL_MASS`` of the truncated mass, whichever comes
    first, so a law with infinite support is integrated too.
    """
    lo, hi = dist.support(component)
    head = [lo]
    if isinstance(dist, TruncatedChiSquared):
        k, scale = 0.5 * dist.dof[component], 2.0
        hi = 2.0 * float(special.gammainccinv(k, TAIL_MASS * special.gammaincc(k, 0.5 * lo)))
        while 0.0 < head[-1] < scale:
            head.append(2.0 * head[-1])
    else:
        scale = float(dist.mean_param[component])
        hi = min(hi, lo - scale * math.log(TAIL_MASS * -math.expm1(-(hi - lo) / scale)))
    start = head.pop()
    tail = np.linspace(start, hi, max(1, math.ceil((hi - start) / scale)) + 1)
    return np.concatenate([head, tail])


def legendre_expectations(integrands, dist, component: int, points: int) -> dict:
    """{name: E[f(X)]} for each ``name: f`` of ``integrands``, X one marginal
    of ``dist``, by the ``points``-point rule on :func:`moment_panels`."""
    edges = moment_panels(dist, component)
    nodes, weights = _LEGENDRE_RULES[points]
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes
    w, density = half * weights, dist.pdf(x, component)
    return {name: float(np.sum(w * f(x) * density)) for name, f in integrands.items()}


def certified_expectations(law: str, integrands, dist, component: int = 0) -> dict:
    """{name: E[f(X)]} from the two ``LEGENDRE_POINTS`` rules.

    Returns the higher-order values of :func:`legendre_expectations`;
    raises ``ValueError`` naming the moment and ``law`` when the two
    orders differ by more than ``LEGENDRE_RTOL`` relative.
    """
    low, high = LEGENDRE_POINTS
    coarse = legendre_expectations(integrands, dist, component, low)
    fine = legendre_expectations(integrands, dist, component, high)
    for name, value in fine.items():
        if not abs(value - coarse[name]) <= LEGENDRE_RTOL * abs(value):
            raise ValueError(
                f"{name} of {law}: the {low}- and {high}-point Gauss-Legendre "
                f"rules give {coarse[name]!r} and {value!r}, more than "
                f"{LEGENDRE_RTOL:g} apart relative"
            )
    return fine


def certified_length_moments(dist):
    """(E[X], E[X^2]) per component of ``dist``, each certified.

    The moments of component i come from :func:`certified_expectations`,
    whose error names "queue i".
    """
    integrands = {"E[X]": lambda x: x, "E[X^2]": lambda x: x**2}
    rows = [certified_expectations(f"queue {i}", integrands, dist, i) for i in range(dist.dim)]
    return tuple(np.array([row[name] for row in rows]) for name in integrands)


# ---------------------------------------------------------------------------
# Finite-difference checks
# ---------------------------------------------------------------------------

@dataclass
class FiniteDifferenceReport:
    max_rel_err: float
    worst_index: tuple
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return self.skipped is None


def finite_difference_jacobian(fn, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Centered-difference Jacobian, rows indexed by input components."""
    point = np.asarray(point, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(point), dtype=float))
    jac = np.zeros((point.size, f0.size))
    for i in range(point.size):
        step = np.zeros_like(point)
        step[i] = h
        fp = np.atleast_1d(np.asarray(fn(point + step), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(point - step), dtype=float))
        jac[i] = (fp - fm) / (2.0 * h)
    return jac


def finite_difference_check(
    fn,
    analytic,
    point: np.ndarray,
    h: float = 1e-6,
    kink_distance=None,
) -> FiniteDifferenceReport:
    """Compare an analytic Jacobian/gradient against centered differences.

    ``analytic`` may be a vector (gradient of a scalar map) or a matrix with
    rows indexed by input components.  Points closer than 10 h to a kink,
    as measured by ``kink_distance``, are skipped rather than failed.
    """
    point = np.asarray(point, dtype=float)
    if kink_distance is not None and kink_distance(point) < 10.0 * h:
        return FiniteDifferenceReport(np.nan, (), skipped="kink proximity")
    fd = finite_difference_jacobian(fn, point, h)
    an = np.asarray(analytic, dtype=float)
    if an.ndim == 1:
        an = an[:, None]
    if an.shape != fd.shape:
        raise ValueError(f"analytic shape {an.shape} != finite-difference {fd.shape}")
    scale = max(float(np.max(np.abs(an))), 1.0)
    err = np.abs(fd - an) / scale
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    return FiniteDifferenceReport(float(err[worst]), worst)


# ---------------------------------------------------------------------------
# Independent projection (sorted breakpoints) and projected descent
# ---------------------------------------------------------------------------

def project_box_sumcap_sorted(v, lower, upper, cap) -> np.ndarray:
    """Exact projection onto {lower <= u <= upper, sum(u) <= cap}.

    Evaluates the piecewise-linear multiplier function at every sorted
    breakpoint with one (B, n) clip and one row sum, then interpolates on
    the first segment that reaches the cap; shares no code with the search
    in ``sets.BoxWithSumCap``.  Calls the ufuncs themselves (``clip``,
    which broadcasts scalar bounds, ``add.reduce``, and a sort and a mask
    for the distinct breakpoints), with the bits of ``np.clip``, ``sum``
    and ``np.unique``: a descent projects thousands of 3-entry blocks,
    where the wrappers cost more than the arithmetic.
    """
    v = np.asarray(v, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    u = _clip(v, lower, upper)
    if np.add.reduce(u) <= cap:
        return u
    # s(nu) = sum(clip(v - nu, lower, upper)) is piecewise linear and
    # nonincreasing; breakpoints where components enter/leave saturation.
    bps = np.concatenate([v - upper, v - lower])
    bps.sort()
    bps = bps[np.concatenate(([True], bps[1:] != bps[:-1]))]
    s_vals = np.add.reduce(_clip(v - bps[:, None], lower, upper), 1)
    k = int(np.searchsorted(-s_vals, -cap))  # first index with s <= cap
    if k == 0:
        nu = bps[0]
    else:
        hi = min(k, bps.size - 1)
        lo_nu, hi_nu = bps[k - 1], bps[hi]
        s_lo, s_hi = s_vals[k - 1], s_vals[hi]
        if s_lo == s_hi:
            nu = hi_nu
        else:
            # linear interpolation on the active segment
            frac = (s_lo - cap) / (s_lo - s_hi)
            nu = lo_nu + frac * (hi_nu - lo_nu)
    return _clip(v - nu, lower, upper)


@dataclass
class DescentResult:
    x: np.ndarray
    value: float
    grad_map_norm: float
    iterations: int
    converged: bool


def projected_gradient_descent(
    value_fn,
    grad_fn,
    project_fn,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    initial_step: float = 1.0,
) -> DescentResult:
    """Projected gradient descent driven to a gradient-map norm.

    Armijo backtracking makes the global progress; once the certified
    decrease falls under floating precision of the objective, a fixed-step
    polish phase (no value comparisons) contracts the fixed-point residual
    the rest of the way.
    """
    x = project_fn(np.asarray(x0, dtype=float))
    fx = value_fn(x)
    step = initial_step

    def gmap(xv, gv):
        return float(np.linalg.norm(xv - project_fn(xv - gv)))

    g = np.asarray(grad_fn(x), dtype=float)
    gmap_norm = gmap(x, g)
    it = 0
    for it in range(1, max_iter + 1):
        if gmap_norm <= tol:
            return DescentResult(x, fx, gmap_norm, it, True)
        accepted = False
        for _ in range(60):
            cand = project_fn(x - step * g)
            fc = value_fn(cand)
            d = cand - x
            if fc <= fx + g @ d + 0.5 * float(d @ d) / max(step, 1e-300):
                accepted = True
                break
            step *= 0.5
        if not accepted or not np.any(cand != x):
            break
        x, fx = cand, fc
        g = np.asarray(grad_fn(x), dtype=float)
        gmap_norm = gmap(x, g)
        step = min(step * 2.0, 1e6)

    polish_step = max(min(step, 1.0), 1e-6)
    stale = 0
    for _ in range(10_000):
        if gmap_norm <= tol or stale > 60:
            break
        cand = project_fn(x - polish_step * g)
        if not np.any(cand != x):
            polish_step *= 4.0  # below float resolution of x: try coarser
            stale += 1
            continue
        g_new = np.asarray(grad_fn(cand), dtype=float)
        new_norm = gmap(cand, g_new)
        if new_norm <= gmap_norm * (1.0 + 1e-3):
            x, g, gmap_norm = cand, g_new, new_norm
            polish_step = min(polish_step * 1.5, 1e6)
            stale = 0
        else:
            polish_step *= 0.25  # step too long for the local curvature
            stale += 1
        it += 1
    return DescentResult(x, value_fn(x), gmap_norm, it, gmap_norm <= tol)


# ---------------------------------------------------------------------------
# Deterministic baseline for the wired design
# ---------------------------------------------------------------------------

@dataclass
class WiredBaseline:
    f_star: float
    x_star: np.ndarray
    moments1: np.ndarray
    moments2: np.ndarray
    lambda_upper: np.ndarray  # per-queue cap implied by the delay limit
    grad_map_norm: float
    grid_check_gap: float  # best local-grid value minus f_star (>= -1e-9)
    grid_refinement_change: float
    instance: object = None

    def objective(self, lam) -> float:
        """Deterministic (moment-exact) objective, shared contract with f_star."""
        return self.instance.objective_from_moments(
            np.asarray(lam, dtype=float), self.moments1, self.moments2
        )

    def max_constraint(self, lam) -> float:
        """Moment-exact worst delay slack at arrival rates lam."""
        lam = np.asarray(lam, dtype=float)
        y = np.concatenate([lam * self.moments1, lam * self.moments2])
        return float(np.max(self.instance.delays(y)) - self.instance.d_max)


def wired_fstar(instance, tol: float = 1e-10, grid_radius: float = 0.02) -> WiredBaseline:
    """Deterministic optimum of the wired design from certified length moments.

    The moments come from :func:`certified_length_moments`.  The delay cap
    is equivalent to a per-queue upper bound on the arrival rate, so the
    feasible region is a budgeted box; the convex objective is minimized by
    projected descent and cross-checked on local grids.
    """
    n = instance.n_queues
    m1, m2 = certified_length_moments(instance.length_distribution())
    c = instance.capacities
    psi, phi = instance.psi_weights, instance.phi_weights
    d_max = instance.d_max
    lam_bar = 2.0 * c**2 * d_max / (m2 + 2.0 * c * d_max * m1)
    upper = np.minimum(instance.lambda_max, lam_bar)
    lower = np.full(n, instance.lambda_min)
    if np.any(lower > upper) or lower.sum() > instance.lambda_cap:
        raise ValueError("infeasible instance: delay cap excludes the whole box")

    def values(lam):  # one objective per row of lam
        delay = lam * m2 / (2.0 * c * (c - lam * m1))
        return np.sum(phi * delay - psi * np.log(lam * m1), axis=-1)

    def value(lam):
        return float(values(lam))

    def grad(lam):
        return phi * m2 / (2.0 * (c - lam * m1) ** 2) - psi / lam

    def project(v):
        return project_box_sumcap_sorted(v, lower, upper, instance.lambda_cap)

    x0 = project(0.5 * (lower + upper))
    res = projected_gradient_descent(value, grad, project, x0, tol=tol)

    def local_grid_best(radius: float, points: int) -> float:
        span = radius * (instance.lambda_max - instance.lambda_min)
        axes = [
            np.linspace(res.x[i] - span[i], res.x[i] + span[i], points)
            for i in range(n)
        ]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        cand = np.clip(mesh, lower, upper)
        cand = cand[cand.sum(axis=1) <= instance.lambda_cap]
        return float(values(cand).min(initial=np.inf))

    coarse = local_grid_best(grid_radius, 5)
    fine = local_grid_best(grid_radius, 9)
    return WiredBaseline(
        f_star=res.value,
        x_star=res.x,
        moments1=m1,
        moments2=m2,
        lambda_upper=upper,
        grad_map_norm=res.grad_map_norm,
        grid_check_gap=min(coarse, fine) - res.value,
        grid_refinement_change=abs(fine - coarse),
        instance=instance,
    )


# ---------------------------------------------------------------------------
# Sample-average baselines: one frozen sample block, projected descent
# ---------------------------------------------------------------------------

def ergodic_fstar(instance, n_samples: int, seed: int) -> DescentResult:
    """Sample-average optimum of the ergodic design from the exact PK delay.

    Freezes one block of fading draws and minimizes, by projected descent
    over the rate and power budgets, sum(phi lam m2 / (2 (1 - lam m1)) -
    psi log lam) with m1 = mean(1/b), m2 = mean(1/b^2) and b = B log(1 +
    zeta p).  Value and gradient are written out here and each budget block
    is projected by :func:`project_box_sumcap_sorted`, so nothing is shared
    with the design's maps or its safeguards.  The utilization lam m1 stays
    below 1 wherever lambda_max is below the slowest rate B log(1 + p_min G).
    The rate floor is not a constraint of the descent: a ``ValueError``
    naming the slack is raised when the mean worst-user rate at the solution
    does not clear r_min.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    n = instance.n_queues
    # row-major whatever the sampler's layout, so that the means below fold row by row
    zeta = instance.channel_distribution().draw(make_rng(seed, 0), n_samples)
    zeta = np.ascontiguousarray(zeta)
    bw, psi, phi = instance.bandwidths, instance.psi_weights, instance.phi_weights
    lam_box = (instance.lambda_min, instance.lambda_max, instance.lambda_cap)
    p_box = (instance.p_min, instance.p_max, instance.p_max)

    def mean(a):  # the bits of a.mean(0), without its wrapper
        return np.add.reduce(a, 0) / n_samples

    def value(x):
        lam, inv = x[:n], 1.0 / (bw * np.log1p(zeta * x[n:]))
        m1, m2 = mean(inv), mean(inv * inv)
        return float(np.add.reduce(phi * lam * m2 / (2.0 * (1.0 - lam * m1)) - psi * np.log(lam)))

    def grad(x):
        lam, p = x[:n], x[n:]
        inv = 1.0 / (bw * np.log1p(zeta * p))
        inv2 = inv * inv
        db = bw * zeta / (1.0 + zeta * p)  # d b / d p
        m1, m2 = mean(inv), mean(inv2)
        slack = 1.0 - lam * m1
        d_m1 = phi * lam * lam * m2 / (2.0 * slack**2)  # d value / d m1
        d_m2 = phi * lam / (2.0 * slack)  # d value / d m2
        d_lam = phi * m2 / (2.0 * slack**2) - psi / lam
        d_p = -d_m1 * mean(db * inv2) - 2.0 * d_m2 * mean(db * inv2 * inv)
        return np.concatenate([d_lam, d_p])

    def project(v):
        return np.concatenate([project_box_sumcap_sorted(v[:n], *lam_box),
                               project_box_sumcap_sorted(v[n:], *p_box)])

    x0 = 0.5 * np.repeat([instance.lambda_min + instance.lambda_max,
                          instance.p_min + instance.p_max], n)
    res = projected_gradient_descent(value, grad, project, x0, tol=1e-8)
    worst = (bw * np.log1p(zeta * res.x[n:])).min(axis=1)
    slack = float(worst.mean()) - instance.r_min
    if not slack > 0.0:
        raise ValueError(
            f"the rate floor binds at the sample-average solution: mean "
            f"worst-user rate minus r_min is {slack:.6g}, so the unconstrained "
            f"descent is no reference for this instance"
        )
    return res


def sample_average_baseline(
    problem,
    n_samples: int = 100_000,
    seed: int = 12345,
    tol: float = 1e-8,
    max_iter: int = 20_000,
) -> DescentResult:
    """Local optimum of the fixed-sample smoothed objective.

    Freezes one common-random-number block, then runs deterministic
    projected descent on x -> f(mean_s g(x, zeta_s)), mapping the whole
    block in one call per map; the gradient takes g and its Jacobian from
    one ``inner_g_jacobian`` call.  For non-convex designs this is a locally
    optimal reference value, not a certificate.
    """
    # row-major whatever the sampler's layout: the means below fold its rows in order
    block = np.ascontiguousarray(problem.sample(make_rng(seed, 0), n_samples))

    def value(x):
        return float(problem.outer_f(problem.inner_g(x, block).mean(0)))

    def grad(x):
        g, jac = problem.inner_g_jacobian(np.broadcast_to(x, (n_samples, x.size)), block)
        fg = np.asarray(problem.outer_f_gradient(g.mean(0)), dtype=float)
        return (jac @ fg).mean(0)

    x0 = problem.feasible_set.midpoint()
    return projected_gradient_descent(
        value, grad, problem.feasible_set.project, x0, tol=tol, max_iter=max_iter
    )


# ---------------------------------------------------------------------------
# Numerical convexity scan
# ---------------------------------------------------------------------------

@dataclass
class HessianScanResult:
    x_axis: np.ndarray
    y_axis: np.ndarray
    min_eigenvalues: np.ndarray  # (len(x_axis), len(y_axis))
    global_min: float

    def is_psd(self, tol: float = -1e-8) -> bool:
        return self.global_min >= tol

    def csv_rows(self):
        """(x, y, min eigenvalue) as Python floats, row-major."""
        eigs = self.min_eigenvalues.tolist()
        for i, x in enumerate(self.x_axis.tolist()):
            for j, y in enumerate(self.y_axis.tolist()):
                yield x, y, eigs[i][j]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("lambda,p,min_eig\n")
            for x, y, e in self.csv_rows():
                fh.write(f"{x!r},{y!r},{e!r}\n")


def hessian_psd_scan(
    fn,
    x_axis,
    y_axis,
    hx: float | None = None,
    hy: float | None = None,
) -> HessianScanResult:
    """Minimum eigenvalue of the central-difference Hessian over a 2-d grid.

    Steps default to 1e-4 of each axis range, balancing truncation against
    cancellation at the scan's scale.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    y_axis = np.asarray(y_axis, dtype=float)
    if hx is None:
        hx = 1e-4 * (x_axis[-1] - x_axis[0])
    if hy is None:
        hy = 1e-4 * (y_axis[-1] - y_axis[0])
    eigs = np.empty((x_axis.size, y_axis.size))
    for i, x in enumerate(x_axis):
        for j, y in enumerate(y_axis):
            f0 = fn(x, y)
            fxp, fxm = fn(x + hx, y), fn(x - hx, y)
            fyp, fym = fn(x, y + hy), fn(x, y - hy)
            fpp, fpm = fn(x + hx, y + hy), fn(x + hx, y - hy)
            fmp, fmm = fn(x - hx, y + hy), fn(x - hx, y - hy)
            hxx = (fxp - 2.0 * f0 + fxm) / hx**2
            hyy = (fyp - 2.0 * f0 + fym) / hy**2
            hxy = (fpp - fpm - fmp + fmm) / (4.0 * hx * hy)
            if not (math.isfinite(hxx) and math.isfinite(hyy) and math.isfinite(hxy)):
                raise ValueError(f"non-finite Hessian at cell ({x}, {y})")
            mean = 0.5 * (hxx + hyy)
            radius = math.hypot(0.5 * (hxx - hyy), hxy)
            eigs[i, j] = mean - radius
    return HessianScanResult(
        x_axis=x_axis,
        y_axis=y_axis,
        min_eigenvalues=eigs,
        global_min=float(eigs.min()),
    )


def make_delay_utility_surface(
    antennas: int,
    bandwidth: float = 10.0,
    fading_lower: float = 0.25,
    log_weight: float = 0.1,
):
    """Scalar (rate, power) objective summand used by the convexity scan.

    The delay term is the PK expression driven by the reciprocal-rate
    moments E[1/b] and E[1/b^2], b = bandwidth log(1 + p z), of the
    truncated chi-squared fading law z; the reward is a small log term.
    The moments come from :func:`certified_expectations`, memoized per
    power value.  A fixed rule makes them smooth in p, which the scan's
    second differences need.  ``fading_lower`` must be positive: 1/b has a
    pole at z = 0.
    """
    if not fading_lower > 0.0:
        raise ValueError(f"fading_lower must be positive, got {fading_lower!r}: "
                         f"the reciprocal rate has a pole at zero fading")
    dist = TruncatedChiSquared(dof=[2.0 * antennas], lower=[fading_lower])

    @functools.lru_cache(maxsize=None)
    def moments(p: float):
        law = f"chi-squared({2 * antennas}) fading above {fading_lower!r} at p = {float(p)!r}"
        return tuple(certified_expectations(law, {
            "E[1/b]": lambda z: 1.0 / (bandwidth * np.log1p(p * z)),
            "E[1/b^2]": lambda z: 1.0 / (bandwidth * np.log1p(p * z)) ** 2,
        }, dist).values())

    def surface(lam: float, p: float) -> float:
        i1, i2 = moments(p)
        return lam * i2 / (2.0 * (1.0 - lam * i1)) - log_weight * math.log(lam)

    return surface

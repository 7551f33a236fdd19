"""Independent ground-truth machinery for the acceptance checks.

Everything here deliberately avoids the solver's code paths: moments come
from adaptive quadrature, optima from deterministic reformulations solved
by line-searched projected gradient descent or brute-force grids, and the
budgeted-box projection has two references of its own, a sorted-breakpoint
scan and a bisection on the budget multiplier, and the box with linear
inequalities has Dykstra's alternating projections; none of them calls
``sets``.  Gradient claims are checked by centered differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .distributions import make_rng
from .problems.safeguards import safe_inv
from .sets import FeasibleSetError

QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 400}


# ---------------------------------------------------------------------------
# Quadrature moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureMoments:
    orders: tuple
    values: dict
    abs_errors: dict

    def __getitem__(self, order: int) -> float:
        return self.values[order]

    def relative_error(self, order: int) -> float:
        v = abs(self.values[order])
        return self.abs_errors[order] / max(v, 1e-300)


def quadrature_moments(dist, orders, component: int = 0) -> QuadratureMoments:
    """E[X^k] of one marginal of ``dist`` by adaptive quadrature."""
    lo, hi = dist.support(component)
    values, errors = {}, {}
    for k in orders:
        val, err = integrate.quad(
            lambda x, k=k: x**k * dist.pdf(x, component), lo, hi, **QUAD_OPTS
        )
        values[int(k)] = val
        errors[int(k)] = err
    return QuadratureMoments(tuple(int(k) for k in orders), values, errors)


def expectation(fn, dist, component: int = 0) -> float:
    """E[fn(X)] for one marginal, by adaptive quadrature."""
    lo, hi = dist.support(component)
    val, _ = integrate.quad(
        lambda x: fn(x) * dist.pdf(x, component), lo, hi, **QUAD_OPTS
    )
    return val


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
# Independent projections (sorted breakpoints, bisection, Dykstra) and
# projected descent
# ---------------------------------------------------------------------------

def project_box_sumcap_sorted(v, lower, upper, cap) -> np.ndarray:
    """Exact projection onto {lower <= u <= upper, sum(u) <= cap}.

    Scans the piecewise-linear multiplier function over its sorted
    breakpoints one Python-level evaluation at a time; shares no code with
    the vectorised search in ``sets.BoxWithSumCap``.
    """
    v = np.asarray(v, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), v.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), v.shape)
    u = np.clip(v, lower, upper)
    if u.sum() <= cap:
        return u
    # s(nu) = sum(clip(v - nu, lower, upper)) is piecewise linear and
    # nonincreasing; breakpoints where components enter/leave saturation.
    bps = np.unique(np.concatenate([v - upper, v - lower]))
    s_vals = np.array([np.clip(v - nu, lower, upper).sum() for nu in bps])
    k = int(np.searchsorted(-s_vals, -cap))  # first index with s <= cap
    if k == 0:
        nu = bps[0]
    else:
        lo_nu, hi_nu = bps[k - 1], bps[min(k, bps.size - 1)]
        s_lo = s_vals[k - 1]
        s_hi = np.clip(v - hi_nu, lower, upper).sum()
        if s_lo == s_hi:
            nu = hi_nu
        else:
            # linear interpolation on the active segment
            frac = (s_lo - cap) / (s_lo - s_hi)
            nu = lo_nu + frac * (hi_nu - lo_nu)
    return np.clip(v - nu, lower, upper)


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
    """Deterministic optimum of the wired design from quadrature moments.

    The delay cap is equivalent to a per-queue upper bound on the arrival
    rate, so the feasible region is a budgeted box; the convex objective is
    minimized by projected descent and cross-checked on local grids.
    """
    dist = instance.length_distribution()
    n = instance.n_queues
    m1 = np.array([quadrature_moments(dist, (1,), i)[1] for i in range(n)])
    m2 = np.array([quadrature_moments(dist, (2,), i)[2] for i in range(n)])
    c = instance.capacities
    psi, phi = instance.psi_weights, instance.phi_weights
    d_max = instance.d_max
    lam_bar = 2.0 * c**2 * d_max / (m2 + 2.0 * c * d_max * m1)
    upper = np.minimum(instance.lambda_max, lam_bar)
    lower = np.full(n, instance.lambda_min)
    if np.any(lower > upper) or lower.sum() > instance.lambda_cap:
        raise ValueError("infeasible instance: delay cap excludes the whole box")

    def value(lam):
        delay = lam * m2 / (2.0 * c * (c - lam * m1))
        return float(np.sum(phi * delay - psi * np.log(lam * m1)))

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
        best = np.inf
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        for cand in mesh:
            cand = np.clip(cand, lower, upper)
            if cand.sum() > instance.lambda_cap:
                continue
            best = min(best, value(cand))
        return best

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
# Brute-force baseline for the ergodic design
# ---------------------------------------------------------------------------

@dataclass
class GridSearchResult:
    best_point: np.ndarray
    best_value: float
    best_std_err: float
    constraint_estimate: float
    constraint_std_err: float
    n_feasible: int
    n_evaluated: int
    grid_spec: dict = field(default_factory=dict)


def ergodic_fstar(
    instance,
    lambda_points: int = 7,
    p_points: int = 7,
    mc_samples: int = 100_000,
    seed: int = 0,
    n_batches: int = 10,
    lambda_axis=None,
    p_axis=None,
) -> GridSearchResult:
    """Grid search over (rates, powers) with common random numbers.

    The same fixed fading sample matrix prices every grid point, making the
    comparison a paired test; per-queue moment vectors are cached per power
    value and the rate coordinates are swept vectorized.
    """
    if mc_samples < 2:
        raise ValueError("mc_samples must be at least 2")
    n = instance.n_queues
    rng = make_rng(seed, 0)
    zeta = instance.channel_distribution().draw(rng, mc_samples)  # (S, n)
    lam_axis = (
        np.asarray(lambda_axis, dtype=float)
        if lambda_axis is not None
        else np.linspace(instance.lambda_min, instance.lambda_max, lambda_points)
    )
    p_axis = (
        np.asarray(p_axis, dtype=float)
        if p_axis is not None
        else np.linspace(instance.p_min, instance.p_max, p_points)
    )
    psi, phi = instance.psi_weights, instance.phi_weights
    eps = instance.varsigma_eps

    rate_cache: dict = {}

    def rates_for(i: int, p: float) -> np.ndarray:
        key = (i, float(p))
        if key not in rate_cache:
            rate_cache[key] = instance.bandwidths[i] * np.log1p(zeta[:, i] * p)
        return rate_cache[key]

    lam_mesh = np.stack(
        np.meshgrid(*([lam_axis] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    lam_mesh = lam_mesh[lam_mesh.sum(axis=1) <= instance.lambda_cap]
    if lam_mesh.size == 0:
        raise ValueError("empty feasible rate grid")

    best = None
    n_feasible = 0
    n_evaluated = 0
    batch_edges = np.linspace(0, mc_samples, n_batches + 1).astype(int)

    p_mesh = np.stack(
        np.meshgrid(*([p_axis] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    p_mesh = p_mesh[p_mesh.sum(axis=1) <= instance.p_max]
    if p_mesh.size == 0:
        raise ValueError("empty feasible power grid")

    for p in p_mesh:
        b = np.stack([rates_for(i, p[i]) for i in range(n)], axis=1)  # (S, n)
        worst = b.min(axis=1)
        min_rate = worst.mean()
        min_rate_se = worst.std(ddof=1) / math.sqrt(mc_samples)
        n_evaluated += lam_mesh.shape[0]
        if min_rate < instance.r_min:
            continue
        m1 = (1.0 / b).mean(axis=0)
        m2 = (1.0 / b**2).mean(axis=0)
        rho = lam_mesh * m1
        delay = (lam_mesh * m2 / 2.0) * safe_inv(1.0 - rho, eps)
        values = (phi * delay - psi * np.log(lam_mesh)).sum(axis=1)
        n_feasible += values.size
        k = int(np.argmin(values))
        if best is None or values[k] < best[0]:
            best = (
                float(values[k]),
                np.concatenate([lam_mesh[k], p]),
                b,
                float(min_rate),
                float(min_rate_se),
            )

    if best is None:
        raise ValueError("no feasible grid point satisfies the rate floor")

    value, point, b, min_rate, min_rate_se = best
    lam_best = point[:n]
    batch_vals = []
    for lo, hi in zip(batch_edges[:-1], batch_edges[1:]):
        bb = b[lo:hi]
        m1 = (1.0 / bb).mean(axis=0)
        m2 = (1.0 / bb**2).mean(axis=0)
        delay = (lam_best * m2 / 2.0) * safe_inv(1.0 - lam_best * m1, eps)
        batch_vals.append(float(np.sum(phi * delay - psi * np.log(lam_best))))
    best_se = float(np.std(batch_vals, ddof=1) / math.sqrt(n_batches))

    return GridSearchResult(
        best_point=point,
        best_value=value,
        best_std_err=best_se,
        constraint_estimate=float(instance.r_min - min_rate),
        constraint_std_err=min_rate_se,
        n_feasible=n_feasible,
        n_evaluated=n_evaluated,
        grid_spec={
            "lambda_axis": lam_axis.tolist(),
            "p_axis": p_axis.tolist(),
            "mc_samples": mc_samples,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Sample-average local baseline (non-convex designs)
# ---------------------------------------------------------------------------

def sample_average_baseline(
    problem,
    n_samples: int = 100_000,
    seed: int = 12345,
    tol: float = 1e-8,
    max_iter: int = 20_000,
) -> DescentResult:
    """Local optimum of the fixed-sample smoothed objective.

    Freezes one large common-random-number batch, then runs deterministic
    projected descent on x -> f(mean_s g(x, zeta_s)).  For non-convex
    designs this is a locally optimal reference value, not a certificate.
    """
    rng = make_rng(seed, 0)
    batch = [problem.sample(rng) for _ in range(n_samples)]

    def mean_g(x):
        acc = np.asarray(problem.inner_g(x, batch[0]), dtype=float).copy()
        for zeta in batch[1:]:
            acc += problem.inner_g(x, zeta)
        return acc / len(batch)

    def value(x):
        return float(problem.outer_f(mean_g(x)))

    def grad(x):
        ybar = mean_g(x)
        fg = np.asarray(problem.outer_f_gradient(ybar), dtype=float)
        acc = np.asarray(problem.inner_g_jacobian(x, batch[0]), dtype=float) @ fg
        for zeta in batch[1:]:
            acc += problem.inner_g_jacobian(x, zeta) @ fg
        return acc / len(batch)

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
        for i, x in enumerate(self.x_axis):
            for j, y in enumerate(self.y_axis):
                yield x, y, self.min_eigenvalues[i, j]

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
    moments of the truncated chi-squared fading law; the reward is a small
    log term.  Moments are memoized per power value, exact to quadrature
    precision.
    """
    from .distributions import TruncatedChiSquared

    dist = TruncatedChiSquared(dof=[2.0 * antennas], lower=[fading_lower])
    cache: dict = {}

    def moments(p: float):
        key = float(p)
        if key not in cache:
            i1 = expectation(lambda z: 1.0 / (bandwidth * math.log1p(p * z)), dist)
            i2 = expectation(lambda z: 1.0 / (bandwidth * math.log1p(p * z)) ** 2, dist)
            cache[key] = (i1, i2)
        return cache[key]

    def surface(lam: float, p: float) -> float:
        i1, i2 = moments(p)
        return lam * i2 / (2.0 * (1.0 - lam * i1)) - log_weight * math.log(lam)

    return surface


# ---------------------------------------------------------------------------
# Exact blocking probability by enumeration (provisioning design)
# ---------------------------------------------------------------------------

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

"""Two-timescale projected quasi-gradient solver with tracked expectations.

Per iteration, one fresh sample updates the tracking vectors y (inner
objective map) and z (inner constraint map) by exponential averaging, and
the iterate moves along the quasi-gradient assembled from outer gradients
evaluated at the freshly updated trackers, plus a penalty pull toward the
feasible region, followed by projection.  The returned design point is the
average of the second half of the iterates.

Independent seeds run side by side: the state holds one row per seed
(x, y, z and the tail sum are (S, .) arrays) and one kernel call steps
every row.  Each seed keeps its own generator, and every row is bitwise
equal to the same seed run alone.  A one-seed run steps the same kernel
on single points (x (n,), y (dim_g,), z (dim_h,)), where every ufunc
takes numpy's same-shape loop instead of broadcasting against a (1, n)
row; only its output keeps the seed axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ufuncs import count_nonzero as _count_nonzero
from .distributions import make_rng
from .penalty import PenaltyParams, penalty_gradient
from .problem import CompositionalProblem
from .schedule import DIMINISHING, StepSchedule

DEFAULT_LOG_POINTS = 1_000
# Rows of zeta drawn at once per seed by run; a block consumes a seed's
# stream exactly as that many single draws.
ZETA_BLOCK_ROWS = 1024


class NonFiniteGradientError(RuntimeError):
    """A map produced a non-finite value; names the map, iteration and seed."""

    def __init__(self, source: str, t: int, seed: int | None = None):
        self.source = source
        self.t = t
        self.seed = seed
        where = "" if seed is None else f" of seed {seed}"
        super().__init__(f"non-finite value from {source} at iteration {t}{where}")


@dataclass
class SolverConfig:
    """What :func:`run` solves with, checked in full when it is built.

    A bad value raises ``ValueError`` naming its field: no seed, a
    negative seed, ``horizon < 2``, ``log_points < 2``, and whatever
    :class:`StepSchedule` (exponents, regime) and :class:`PenaltyParams`
    (``0 <= gamma < c_ell``) refuse.
    """

    a: float
    b: float
    c: float
    regime: str = DIMINISHING
    horizon: int = 1000
    gamma: float = 0.0
    c_ell: float = 1.0
    seeds: tuple = (0,)
    x0: np.ndarray | None = None
    log_points: int | None = None

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must name at least one seed, got none")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            # a seed is the entropy of its SeedSequence
            raise ValueError(f"seeds must be non-negative, got {negative}")
        if self.horizon < 2:
            raise ValueError(f"horizon must be at least 2, got {self.horizon}")
        if self.log_points is not None and self.log_points < 2:
            # the logged grid holds t = 1 and t = horizon
            raise ValueError(f"log_points must be at least 2, got {self.log_points}")
        self.schedule()
        self.penalty_params()

    def schedule(self) -> StepSchedule:
        return StepSchedule(self.a, self.b, self.c, self.regime, self.horizon)

    def penalty_params(self) -> PenaltyParams:
        return PenaltyParams(self.gamma, self.c_ell)


@dataclass
class SolverState:
    """One row per seed: x (S, n), y (S, dim_g), z (S, dim_h), tail_sum (S, n).

    A one-seed state may instead hold single points (see :func:`drop_seed_axis`).

    z may be the very array y (see :func:`init_state`), or a separate one."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    seeds: tuple
    t: int = 1
    tail_sum: np.ndarray = None
    tail_count: int = 0
    tail_start: int = 1  # first iteration included in the tail average

    def __post_init__(self):
        if self.tail_sum is None:
            self.tail_sum = np.zeros_like(self.x)


def seed_streams(seeds) -> list:
    """The solver's generator (stream 0) of each seed."""
    return [make_rng(seed, 0) for seed in seeds]


def draw_zeta(problem: CompositionalProblem, rngs, size: int | None = None) -> np.ndarray:
    """One zeta per seed as an (S, dim_zeta) array, or a (size, S, dim_zeta) block.

    Row s of the result comes from ``rngs[s]`` alone, and a block consumes
    each stream exactly as ``size`` single draws.  A block is C-contiguous
    whatever the layout of the sampler's blocks, so each step gets
    contiguous (S, dim_zeta) rows: the samples are stacked into it, one
    copy per block.
    """
    if size is None:
        return np.stack([problem.sample(rng) for rng in rngs])
    draws = [problem.sample(rng, size) for rng in rngs]
    block = np.empty((size, len(draws)) + np.shape(draws[0])[1:])
    return np.stack(draws, axis=1, out=block)


def init_state(problem: CompositionalProblem, config: SolverConfig, zeta0) -> SolverState:
    """x1 = projected box midpoint (or configured point); y1, z1 from one extra sample.

    ``zeta0`` holds that extra sample, one row per seed of ``config.seeds``.
    When ``inner_h is inner_g``, z1 is y1 itself: the two would stay bitwise equal.
    """
    if config.x0 is not None:
        x1 = problem.feasible_set.project(np.asarray(config.x0, dtype=float))
    else:
        x1 = problem.feasible_set.project(problem.feasible_set.midpoint())
    zeta0 = np.asarray(zeta0)
    seeds = tuple(config.seeds)
    if len(zeta0) != len(seeds):
        raise ValueError(f"zeta0 has {len(zeta0)} rows for {len(seeds)} seeds")
    x1 = np.tile(x1, (len(seeds), 1))
    y1 = np.array(problem.inner_g(x1, zeta0), dtype=float, copy=True)
    if not problem.constrained:
        z1 = np.zeros((len(seeds), 0))
    elif problem.inner_h is problem.inner_g:
        z1 = y1
    else:
        z1 = np.array(problem.inner_h(x1, zeta0), dtype=float, copy=True)
    tail_start = math.ceil(config.horizon / 2)
    return SolverState(x=x1, y=y1, z=z1, seeds=seeds, t=1, tail_start=tail_start)


def drop_seed_axis(state: SolverState) -> None:
    """Put a one-seed state on single points: x (n,), y (dim_g,), z (dim_h,).

    On vectors of a few entries a ufunc on (n,) operands costs about half
    the same ufunc broadcasting (n,) against (1, n).  z stays y when it is y.
    """
    y = state.y[0]
    state.z = y if state.z is state.y else state.z[0]
    state.x, state.y, state.tail_sum = state.x[0], y, state.tail_sum[0]


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # Stacked matmul runs one gemv per row, bitwise equal to the single
    # ``mat @ vec``; einsum and multiply-then-sum round differently.
    return (mats @ vecs[..., None])[..., 0]


def cscgd_step(
    problem: CompositionalProblem,
    state: SolverState,
    alpha: float,
    beta: float,
    delta: float,
    penalty_params: PenaltyParams,
    zeta: np.ndarray,
) -> np.ndarray:
    """One sample, one tracking update, one projected quasi-gradient step per seed.

    ``zeta`` holds one sample per row of the state, (S, dim_zeta), or one
    (dim_zeta,) sample for a single-point state.  Updates
    ``state`` in place: the trackers y and z (step ``beta``; once when z is
    y), the tail sum and count, the iterate x (steps ``alpha`` and
    ``delta``) and the iteration counter.  Trackers are updated before they
    feed the gradient assembly.  ``alpha = delta = 0`` gives pure tracking
    at a frozen x.  Returns the constraint estimates q(z) at the updated
    trackers, (S, J) or (J,) (J = 0 for an unconstrained problem).

    g and its Jacobian come from one ``inner_g_jacobian`` call; the
    Jacobian of h only on rows with an active penalty.  The map outputs
    are used as they come, so they must be float ndarrays (:func:`run`
    checks each map's first output once per run).  A non-finite step is
    caught by the projection, which rejects non-finite input, and raised
    as :class:`NonFiniteGradientError`.
    """
    t = state.t
    x = state.x
    if t >= state.tail_start:
        state.tail_sum += x
        state.tail_count += 1

    gval, jac_g = problem.inner_g_jacobian(x, zeta)
    state.y *= 1.0 - beta
    state.y += beta * gval

    constrained = problem.constrained
    if constrained and state.z is not state.y:
        state.z *= 1.0 - beta
        state.z += beta * problem.inner_h(x, zeta)

    fgrad = problem.outer_f_gradient(state.y)
    direction = alpha * _matvec(jac_g, fgrad)

    if constrained:
        qval = problem.outer_q(state.z)
        try:
            lgrad = penalty_gradient(qval, penalty_params)
        except ValueError:  # non-finite q(z); checking here first would cost every step
            raise _non_finite(problem, state, x, zeta, qval) from None
        if delta != 0.0 and _count_nonzero(lgrad):
            # Only rows with an active penalty move: adding a zero pull
            # elsewhere could turn -0.0 into +0.0, or inf * 0 into NaN.
            active = np.logical_or.reduce(lgrad, -1)
            rows = slice(None) if _count_nonzero(active) == active.size else active
            jac_q = problem.outer_q_jacobian(state.z[rows])
            if problem.inner_h_jacobian is problem.inner_g_jacobian:
                jac_h = jac_g[rows]
            else:
                jac_h = problem.inner_h_jacobian(x[rows], zeta[rows])[1]
            direction[rows] += delta * _matvec(jac_h, _matvec(jac_q, lgrad[rows]))
    else:
        qval = state.z  # (S, 0): no constraints

    v = x - direction
    try:
        state.x = problem.feasible_set.project(v)
    except ValueError:  # the projection's own scan is the step's finiteness check
        if not np.isfinite(v).all():
            raise _non_finite(problem, state, x, zeta, v) from None
        raise
    state.t = t + 1
    return qval


def _non_finite(problem, state, x, zeta, values) -> NonFiniteGradientError:
    """Name the first seed whose row of ``values`` is non-finite, and its map.

    Only that seed's row is probed, one single-point call per map; a
    Jacobian map is probed on its Jacobian half, after the inner map that
    gives its value.  A single-point state is the row of its one seed.
    """
    row, point = 0, (x, zeta, state.y, state.z)
    if x.ndim == 2:
        row = int(np.argmin(np.all(np.isfinite(values), axis=-1)))
        point = [a[row] for a in point]
    x, zeta, y, z = point
    probes = [
        ("inner_g", lambda: problem.inner_g(x, zeta)),
        ("inner_g_jacobian", lambda: problem.inner_g_jacobian(x, zeta)[1]),
        ("outer_f_gradient", lambda: problem.outer_f_gradient(y)),
    ]
    if problem.constrained:
        probes += [
            ("inner_h", lambda: problem.inner_h(x, zeta)),
            ("inner_h_jacobian", lambda: problem.inner_h_jacobian(x, zeta)[1]),
            ("outer_q", lambda: problem.outer_q(z)),
            ("outer_q_jacobian", lambda: problem.outer_q_jacobian(z)),
        ]
    source = next((name for name, fn in probes if not _finite(fn)), "projection input")
    return NonFiniteGradientError(source, state.t, state.seeds[row])


def _finite(fn) -> bool:
    try:
        return bool(np.all(np.isfinite(np.asarray(fn(), dtype=float))))
    except FloatingPointError:
        return False


def logged_iterations(horizon: int, log_points: int | None = None) -> np.ndarray:
    """Iterations at which the trajectory is recorded.

    Every iteration when the horizon is at most ``log_points`` (default
    ``DEFAULT_LOG_POINTS``), otherwise at most that many log-spaced points
    that always include t = 1 and t = horizon.  The grid only observes the
    run: the iterates and the tail average do not depend on it.
    """
    if log_points is None:
        log_points = DEFAULT_LOG_POINTS
    if horizon <= log_points:
        return np.arange(1, horizon + 1)
    pts = np.unique(
        np.round(np.logspace(0.0, np.log10(horizon), log_points)).astype(int)
    )
    return pts[(pts >= 1) & (pts <= horizon)]


def run(problem: CompositionalProblem, config: SolverConfig) -> tuple[np.ndarray, list]:
    """Execute the full horizon for every seed; (tail-averaged points, trajectories).

    All seeds of ``config.seeds`` step together through :func:`cscgd_step`,
    each on its own stream 0, drawn in blocks of ``ZETA_BLOCK_ROWS``; one
    seed steps on single points (:func:`drop_seed_axis`), with the same
    bits as a one-row stack.  The points are an (S, n) array, row s for
    ``config.seeds[s]``, at any S.  Trajectory s is a dict of column
    arrays, one row per logged iteration (see :func:`logged_iterations`:
    every iteration when T is at most ``config.log_points``, else
    log-spaced ones, 599 at T = 1e4 by default); the log buffers hold only
    those rows.  The columns are ``t``, ``alpha``, ``beta``, ``delta``,
    ``obj`` (f at the tracker y), ``viol`` (L x J constraint estimates
    q(z)), ``step_sq`` (squared step norm) and ``x`` (L x n iterates after
    the step).  ``obj`` comes from one ``outer_f`` call on the logged
    trackers after the loop, and ``step_sq`` from the logged iterates and
    the ones before them.  The first output of every map is checked to be
    a float ndarray, once per run; a map that returns anything else raises
    ValueError naming it.  The values of ``config`` were checked when it
    was built (see :class:`SolverConfig`).
    """
    T = int(config.horizon)
    problem = problem.with_output_checks()
    seeds = config.seeds
    n_seeds = len(seeds)
    rngs = seed_streams(seeds)
    penalty_params = config.penalty_params()
    state = init_state(problem, config, draw_zeta(problem, rngs))
    single = n_seeds == 1
    if single:  # same-shape ufuncs skip numpy's broadcasting (see drop_seed_axis)
        drop_seed_axis(state)
    alphas, betas, deltas = config.schedule().step_arrays()

    log_ts = logged_iterations(T, config.log_points)
    rows = log_ts.size
    ys = np.empty((rows, n_seeds, problem.dim_g))
    viol = np.empty((rows, n_seeds, problem.num_constraints))
    xs = np.empty((rows, n_seeds, problem.dim_x))
    xs_before = np.empty_like(xs)  # iterates before each logged step
    log_list = log_ts.tolist() + [0]  # trailing sentinel matches no t
    i = 0
    # Python floats: scalar step-size arithmetic costs less than on numpy scalars.
    steps = zip(alphas.tolist(), betas.tolist(), deltas.tolist())
    for start in range(0, T, ZETA_BLOCK_ROWS):
        block = draw_zeta(problem, rngs, min(ZETA_BLOCK_ROWS, T - start))
        if single:
            block = block[:, 0]
        # block first: zip stops on its end without taking a step size
        for zeta, (alpha, beta, delta) in zip(block, steps):
            t = state.t
            x = state.x
            qval = cscgd_step(problem, state, alpha, beta, delta, penalty_params, zeta)
            if t == log_list[i]:
                ys[i] = state.y
                viol[i] = qval
                xs_before[i] = x
                xs[i] = state.x
                i += 1
    obj = problem.outer_f(ys)
    step_sq = ((xs - xs_before) ** 2).sum(axis=-1)

    shared = {"t": log_ts, "alpha": alphas[log_ts - 1], "beta": betas[log_ts - 1],
              "delta": deltas[log_ts - 1]}
    trajectories = [
        {**shared, "obj": obj[:, s], "viol": viol[:, s], "step_sq": step_sq[:, s],
         "x": xs[:, s]}
        for s in range(n_seeds)
    ]
    return (state.tail_sum / state.tail_count).reshape(n_seeds, -1), trajectories


def tracking_weights(schedule: StepSchedule) -> tuple[np.ndarray, float]:
    """Per-sample weights of the final tracking vector after a full horizon.

    y_{T+1} = w0 * y_1 + sum_t w_t g(x_t, zeta_t) with w_t = beta_t *
    prod_{s>t} (1 - beta_s); useful for exact variance bands in frozen-x
    tracking checks.
    """
    _, betas, _ = schedule.step_arrays()
    decay = np.cumprod((1.0 - betas)[::-1])[::-1]  # prod over s > t, shifted
    tail = np.concatenate([decay[1:], [1.0]])
    weights = betas * tail
    w0 = float(np.prod(1.0 - betas))
    return weights, w0


@dataclass
class StepBoundReport:
    """Per-iteration comparison of observed squared steps with their bound."""

    ts: np.ndarray
    mean_step_sq: np.ndarray
    std_err: np.ndarray
    bound: np.ndarray

    @property
    def flagged(self) -> np.ndarray:
        """Points whose mean exceeds the bound by more than three standard errors."""
        return (self.mean_step_sq - 3.0 * self.std_err) > self.bound

    @property
    def violation_count(self) -> int:
        return int(np.sum(self.flagged))


def step_bound_diagnostic(trajectories, constants: dict) -> StepBoundReport:
    """Check E||x_{t+1} - x_t||^2 <= 2 a_t^2 C_f C_g + 2 d_t^2 J C_ell^2 C_q C_h.

    ``trajectories`` is a list of per-seed trajectory column dicts (as
    returned by :func:`run` or read back from the CSVs) sharing the same
    logged iterations.  A point is flagged when the seed-averaged squared
    step exceeds the bound by more than three standard errors.
    """
    if not len(trajectories) or not np.asarray(trajectories[0]["t"]).size:
        raise ValueError("need at least one non-empty trajectory")
    n_seeds = len(trajectories)
    ts = np.asarray(trajectories[0]["t"])
    steps = np.empty((n_seeds, ts.size))
    for i, c in enumerate(trajectories):
        if np.asarray(c["t"]).size != ts.size:
            raise ValueError("trajectories have mismatched logging grids")
        steps[i] = c["step_sq"]
    alphas = np.asarray(trajectories[0]["alpha"])
    deltas = np.asarray(trajectories[0]["delta"])
    c_f, c_g = constants["C_f"], constants["C_g"]
    c_q, c_h = constants.get("C_q", 0.0), constants.get("C_h", 0.0)
    c_ell, j = constants.get("C_ell", 0.0), constants.get("J", 0)
    bound = 2.0 * alphas**2 * c_f * c_g + 2.0 * deltas**2 * j * c_ell**2 * c_q * c_h
    mean = steps.mean(axis=0)
    if n_seeds > 1:
        se = steps.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    else:
        se = np.zeros_like(mean)
    return StepBoundReport(ts=ts, mean_step_sq=mean, std_err=se, bound=bound)


def convergence_bound_terms(constants: dict, schedule: StepSchedule) -> dict:
    """Order-of-magnitude pieces of the gap/violation bounds.

    D1 and D2 depend on initialization through the tracking residuals; with
    sample-based initialization those residuals are bounded by the inner
    variances, which is what is used here.  The result is an order estimate,
    not a certified constant.
    """
    c_f, c_g = constants["C_f"], constants["C_g"]
    c_h, c_q = constants.get("C_h", 0.0), constants.get("C_q", 0.0)
    v_g, v_h = constants.get("V_g", 0.0), constants.get("V_h", 0.0)
    l_f, l_q = constants.get("L_f", 0.0), constants.get("L_q", 0.0)
    c_ell, j = constants.get("C_ell", 1.0), constants.get("J", 0)
    d_x = constants["D_x"]
    pen = j * c_ell**2 * c_q * c_h
    d_y = v_g + 2.0 * v_g + 2.0 * c_g * (c_f * c_g + pen)
    d_z = v_h + 2.0 * v_h + 2.0 * c_h * (c_f * c_g + pen)
    d_1 = d_x + d_y + d_z
    d_2 = max(
        4.0 * (c_g + c_h) * c_f * c_g
        + 4.0 * (c_g + c_h) * pen
        + (l_f * c_g + math.sqrt(max(j, 1)) * l_q * c_h * c_ell + c_h * c_q) * d_x,
        2.0 * (c_f * c_g + pen),
        4.0 * (v_g + v_h),
    )
    T = schedule.horizon
    alphas, betas, deltas = schedule.step_arrays()
    t0 = math.ceil(T / 2)
    sl = slice(t0 - 1, T)
    tail = np.sum(
        deltas[sl] ** 2 / alphas[sl]
        + betas[sl] ** 2 / alphas[sl]
        + deltas[sl] ** 2 / (alphas[sl] * betas[sl])
    )
    omega = 2.0 * d_1 / (T * alphas[-1]) + 2.0 * d_2 * tail / T
    return {"D_1": d_1, "D_2": d_2, "omega": float(omega)}


def zero_violation_gamma(constants: dict, schedule: StepSchedule) -> float:
    """Margin choice that drives the violation bound to zero.

    Evaluates sqrt(J T^(c-a) (omega + sqrt(C_f C_g) D_x) / 2^(c-a)); at desk
    scale this usually exceeds its own validity range and must be capped by
    the caller (e.g. at half the Slater margin).
    """
    j = constants.get("J", 0)
    if j == 0:
        return 0.0
    terms = convergence_bound_terms(constants, schedule)
    T = schedule.horizon
    expo = schedule.c - schedule.a
    c_f, c_g, d_x = constants["C_f"], constants["C_g"], constants["D_x"]
    val = j * T**expo * (terms["omega"] + math.sqrt(c_f * c_g) * d_x) / 2.0**expo
    return float(math.sqrt(val))

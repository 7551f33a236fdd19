"""Experiment harness: configs, multi-seed runs, metrics, plot-data emission.

A run is fully determined by (config, seed): the trajectory CSV bytes, the
summary rows and the plot data reproduce exactly.  The seeds of an
experiment are solved together, in one batched solver call, or split into
one contiguous chunk per process when a pool is requested.  Each seed owns
its RNG streams (stream 0 drives the solver, stream 1 the fresh evaluation
batch), so neither batching nor scheduling can leak into the results.  The
shape check of a built problem draws from stream 2.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from scipy import special

from .distributions import make_rng
from .problems import constrained_quadratic_problem, get_preset, quadratic_problem
from .solver import SolverConfig, run

EPS_PLOT = 1e-12
# Smallest horizon ladder a rate fit accepts.
LADDER_MIN_HORIZONS = 4
LADDER_MIN_SEEDS = 10
# Rows drawn and mapped at once by evaluate_point (its docstring says why so few).
EVAL_CHUNK_ROWS = 2048
# Sub-batches behind evaluate_point's standard errors.
EVAL_BATCHES = 10
# Sample count and seed of the sample-average oracle baselines.
SAMPLE_AVERAGE_ORACLE = {"n_samples": 2000, "seed": 99}


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    a: float = 0.9167
    b: float = 0.5
    c: float = 0.75
    regime: str = "constant"
    horizon: int = 10_000
    gamma: float = 0.0
    c_ell: float | None = None  # None: instance default
    seeds: tuple = (0,)
    eval_samples: int = 100_000
    out_dir: str = "runs"
    oracle_gap: bool = False
    workers: int = 1
    log_points: int | None = None
    x0: tuple | None = None
    instance_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError(f"horizon must be at least 2, got {self.horizon}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.eval_samples < 2 * EVAL_BATCHES:
            # evaluate_point draws at least two samples per sub-batch
            raise ValueError(f"eval_samples must be at least {2 * EVAL_BATCHES}, "
                             f"got {self.eval_samples}")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed, got none")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            # a seed is the entropy of its SeedSequence
            raise ValueError(f"seeds must be non-negative, got {negative}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            # each seed owns its trajectory file and its summary row
            raise ValueError(f"seeds must be distinct, got {repeated} more than once")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        d["x0"] = None if self.x0 is None else list(self.x0)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        d["seeds"] = tuple(d.get("seeds", (0,)))
        if d.get("x0") is not None:
            d["x0"] = tuple(d["x0"])
        if "instance_overrides" in d and d["instance_overrides"] is None:
            d["instance_overrides"] = {}
        return cls(**d)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.canonical_json())
            fh.write("\n")

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        # Identifies the experiment: where it writes and how many workers
        # run it stay out of the digest (but not out of config.json).
        d = self.to_dict()
        del d["out_dir"], d["workers"]
        payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def solver_config(self, seeds, c_ell: float) -> SolverConfig:
        x0 = None if self.x0 is None else np.asarray(self.x0, dtype=float)
        return SolverConfig(
            a=self.a, b=self.b, c=self.c, regime=self.regime,
            horizon=self.horizon, gamma=self.gamma, c_ell=c_ell,
            seeds=tuple(seeds), log_points=self.log_points, x0=x0,
        )


TOY_TARGETS = {
    "quadratic-toy": quadratic_problem,
    "constrained-quadratic-toy": constrained_quadratic_problem,
}


def resolve_problem(config: ExperimentConfig):
    """(problem, c_ell) for the configured preset or toy target.

    The problem's shapes and batch contract are checked on their own
    stream (2), so the solver (0) and evaluation (1) streams are untouched.
    """
    overrides = config.instance_overrides or {}
    if config.preset in TOY_TARGETS:
        problem = TOY_TARGETS[config.preset](**overrides)
        c_ell = float(config.c_ell) if config.c_ell is not None else 1.0
    else:
        instance = get_preset(config.preset, overrides or None)
        if config.c_ell is not None:
            c_ell = float(config.c_ell)
        elif hasattr(instance, "default_c_ell"):
            c_ell = float(instance.default_c_ell())
        else:
            c_ell = 1.0
        problem = instance.build()
    problem.check_shapes(make_rng(0, 2))
    return problem, c_ell


# ---------------------------------------------------------------------------
# Trajectory CSV contract
# ---------------------------------------------------------------------------

def trajectory_header(num_constraints: int) -> str:
    cols = ["t", "alpha", "beta", "delta", "obj"]
    cols += [f"viol_{j + 1}" for j in range(num_constraints)]
    cols.append("step_sq")
    return ",".join(cols)


def write_trajectory_csv(path: str, trajectory: dict, num_constraints: int):
    """One row per logged iteration of a :func:`run` trajectory.

    Each entry is the ``repr`` of its Python value, formatted column by
    column; a float column that holds one value bit for bit (every step
    size of the constant regime) is formatted once.
    """
    cols = [trajectory[name] for name in ("t", "alpha", "beta", "delta", "obj")]
    cols += [trajectory["viol"][:, j] for j in range(num_constraints)]
    cols.append(trajectory["step_sq"])
    lines = [trajectory_header(num_constraints)]
    lines += map(",".join, zip(*map(_column_reprs, cols)))
    payload = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def _column_reprs(col: np.ndarray):
    if col.dtype == np.float64 and col.size:
        bits = col.view(np.int64)
        if not np.count_nonzero(bits != bits[0]):
            return [repr(col[0].item())] * col.size
    return map(repr, col.tolist())


def read_trajectory_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Point evaluation and summaries
# ---------------------------------------------------------------------------

def evaluate_point(problem, x, n_samples: int, seed: int):
    """Plug-in estimates of F(x) and Q(x) from a fresh sample batch.

    Standard errors come from re-evaluating the outer functions on batch
    sub-means, which respects the non-linear plug-in structure.  Samples
    are drawn with one ``sample`` call and mapped with one call per inner
    map in blocks of at most ``EVAL_CHUNK_ROWS`` rows; a block ends at the
    last sub-batch end within that reach, if there is one.  So a 2000-sample
    call maps one 2000-row block of ten sub-batches, a 20 000-sample call
    one block per sub-batch, and a 100 000-sample call four 2048-row blocks
    and a 1808-row one per sub-batch.  A block of two or more whole
    sub-batches is folded in one reduction over their side-by-side lanes
    (``_lane_sum``); any other block lies in one sub-batch and is folded
    after the running sum it carries from the block before when it began
    there (``_row_sum``, one accumulate per column).  Blocks come as the
    sampler lays them out, column-major for the in-repo designs, and the
    maps keep that layout, so that each ufunc broadcasting a parameter row
    against a block runs one inner loop per column.  Both folds add rows in
    sample order, so the estimates equal a one-sample-at-a-time loop bit
    for bit, at any block size and in either layout.  The ten sub-batch
    means go through ``outer_f`` and ``outer_q`` as one stack, whose rows
    are the single calls' bits by the batch contract that ``check_shapes``
    enforces, and their totals are folded row by row.

    Blocks stay that small so that the cost of a call does not depend on
    what the process ran before: paper-ex1's block arrays (2048 rows of 6
    float columns) stay under glibc's default 128 KiB mmap threshold and
    are reused from the heap.  Wider problems such as paper-ex2-k5 (15
    columns) exceed it and stay on the heap only because glibc's dynamic
    threshold has risen past them.  Blocks served by mmap fault their
    pages in again on every block.
    """
    rng = make_rng(seed, 1)
    x = np.asarray(x, dtype=float)
    h_is_g = problem.inner_h is problem.inner_g
    map_h = problem.constrained and not h_is_g
    per_batch = max(2, n_samples // EVAL_BATCHES)
    total = per_batch * EVAL_BATCHES
    g_sums = np.empty((EVAL_BATCHES, problem.dim_g))
    h_sums = np.empty((EVAL_BATCHES, problem.dim_h)) if map_h else None
    maps = [(g_sums, problem.inner_g)] + ([(h_sums, problem.inner_h)] if map_h else [])
    start = 0
    while start < total:
        stop = min(start + EVAL_CHUNK_ROWS, total)
        if stop - stop % per_batch > start:
            stop -= stop % per_batch
        zeta = problem.sample(rng, stop - start)
        # p >= 2 only for a block of whole sub-batches; any other block lies
        # in one sub-batch and carries when it starts inside it.
        b, p = start // per_batch, (stop - start) // per_batch
        for sums, fn in maps:
            rows = np.asarray(fn(x, zeta), dtype=float)
            if p >= 2:
                sums[b:b + p] = _lane_sum(rows, p)
            else:
                sums[b] = _row_sum(rows, sums[b] if start % per_batch else None)
        start = stop
    g_means = g_sums / per_batch
    f_vals = np.ascontiguousarray(problem.outer_f(g_means), dtype=float)
    out = {
        "f": float(problem.outer_f(_row_sum(g_means) / EVAL_BATCHES)),
        "f_std_err": float(f_vals.std(ddof=1) / math.sqrt(EVAL_BATCHES)),
        "n_samples": total,
    }
    if problem.constrained:
        h_means = g_means if h_is_g else h_sums / per_batch
        q_vals = np.ascontiguousarray(problem.outer_q(h_means), dtype=float)
        out["q"] = np.asarray(problem.outer_q(_row_sum(h_means) / EVAL_BATCHES), dtype=float)
        out["q_std_err"] = q_vals.std(axis=0, ddof=1) / math.sqrt(EVAL_BATCHES)
    else:
        out["q"] = np.zeros(0)
        out["q_std_err"] = np.zeros(0)
    return out


def _row_sum(rows, carry=None) -> np.ndarray:
    """Sum of ``rows`` (k, dim) added strictly in row order, after ``carry``.

    Equal bit for bit to a left fold, so chunked sums equal one fold over
    all rows.  ``cumsum`` along axis 0 adds row after row in any memory
    order; on a column-major block it runs one accumulate per column.
    ``np.add.reduce`` along axis 0 would not do: it adds a contiguous
    column pairwise (``_lane_sum`` reduces a C-order copy instead).  A
    carried sum enters as row 0 of a (k + 1, dim) column-major stack.
    evaluate_point folds with it the blocks that lie in one sub-batch: on
    a column-major (2048, 6) block, paper-ex1's shape, its accumulate took
    44-46 us against 56-58 us for a one-lane ``_lane_sum`` (timeit, 2-core
    x86-64 host).
    """
    if carry is not None:
        stack = np.empty((rows.shape[0] + 1, rows.shape[1]), order="F")
        stack[0] = carry
        stack[1:] = rows
        rows = stack
    return rows.cumsum(axis=0)[-1]


def _lane_sum(rows, p: int) -> np.ndarray:
    """Sums (p, dim) of the p equal consecutive pieces of ``rows`` (p m, dim).

    Each piece is added strictly in row order, with the bits of
    ``_row_sum``.  The pieces are copied side by side into a C-order
    (m, p, dim) lane array, whose reduction over its outer axis adds one
    contiguous (p, dim) row after another into the accumulator, in any
    layout of ``rows``.  It starts from -0.0, which leaves every first row
    as it is: numpy's default start of +0.0 would turn a lane of -0.0
    entries into +0.0.  On a column-major (2000, 9) block, paper-ex2-k5's
    g at 2000 samples, one reduction over its ten 200-row sub-batches took
    28 us against 85 us for ten ``_row_sum`` calls (timeit, same host).
    """
    lanes = rows.reshape((rows.shape[0] // p, p, rows.shape[1]), order="F").copy()
    return np.add.reduce(lanes, axis=0, initial=-0.0)


@dataclass
class RunSummary:
    seed: int
    x_hat: np.ndarray
    f_hat: float
    f_std_err: float
    max_violation: float
    violation_std_err: float
    gap: float | None
    wall_time: float
    config_hash: str
    trajectory_path: str


# ---------------------------------------------------------------------------
# Oracle baseline
# ---------------------------------------------------------------------------

def compute_oracle(config: ExperimentConfig) -> dict:
    """Deterministic or sample-average baseline value for the configured preset."""
    # deferred: no solve or evaluation needs the oracles
    from .oracles import ergodic_fstar, sample_average_baseline, wired_fstar

    name = config.preset
    if name in TOY_TARGETS:
        problem = TOY_TARGETS[name](**(config.instance_overrides or {}))
        return {
            "method": "closed-form",
            "f_star": float(problem.metadata["f_star"]),
            "preset": name,
        }
    instance = get_preset(name, config.instance_overrides or None)
    if name == "paper-ex1":
        base = wired_fstar(instance)
        payload = {
            "method": "deterministic-moments",
            "f_star": base.f_star,
            "x_star": base.x_star.tolist(),
            "grad_map_norm": base.grad_map_norm,
        }
    else:
        if name.startswith("paper-ex2"):
            method = "sample-average-exact-pk"
            res = ergodic_fstar(instance, **SAMPLE_AVERAGE_ORACLE)
        else:
            method = "sample-average-local"
            res = sample_average_baseline(instance.build(), **SAMPLE_AVERAGE_ORACLE)
        payload = {
            "method": method,
            "f_star": res.value,
            "x_star": res.x.tolist(),
            "grad_map_norm": res.grad_map_norm,
        }
    payload["preset"] = name
    return payload


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def _run_batch(payload: dict) -> list:
    """Solve a batch of seeds in one ``run`` call; [(RunSummary, curves)] per seed.

    The problem is resolved once for the batch.  Each seed's ``wall_time``
    is its share of the batch's solve time (the solve time over the number
    of seeds), so the shares add up to the solve time.  Every seed still
    gets its own trajectory CSV and its own ``evaluate_point`` call.
    """
    config = ExperimentConfig.from_dict(payload["config"])
    seeds = tuple(payload["seeds"])
    f_star = payload["f_star"]
    problem, c_ell = resolve_problem(config)
    t0 = time.perf_counter()
    x_hats, trajectories = run(problem, config.solver_config(seeds, c_ell))
    wall = (time.perf_counter() - t0) / len(seeds)
    results = []
    for seed, x_hat, trajectory in zip(seeds, x_hats, trajectories):
        path = os.path.join(config.out_dir, f"trajectory-seed{seed}.csv")
        write_trajectory_csv(path, trajectory, problem.num_constraints)
        ev = evaluate_point(problem, x_hat, config.eval_samples, seed)
        max_viol = float(np.max(ev["q"])) if ev["q"].size else 0.0
        viol_se = float(np.max(ev["q_std_err"])) if ev["q"].size else 0.0
        summary = RunSummary(
            seed=seed,
            x_hat=x_hat,
            f_hat=ev["f"],
            f_std_err=ev["f_std_err"],
            max_violation=max_viol,
            violation_std_err=viol_se,
            gap=None if f_star is None else ev["f"] - f_star,
            wall_time=wall,
            config_hash=config.config_hash(),
            trajectory_path=path,
        )
        results.append((summary, curve_arrays(trajectory)))
    return results


def run_experiment(config: ExperimentConfig):
    """Execute all seeds, persist trajectories and summaries.

    The seeds run as one batch, or as one contiguous chunk per worker
    process when ``workers > 1``.  Returns (list of RunSummary in seed
    order, dict of aggregate curves).  When ``oracle_gap`` is set, the gaps
    are taken to the F* of :func:`compute_oracle`.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    f_star = float(compute_oracle(config)["f_star"]) if config.oracle_gap else None
    seeds = list(config.seeds)
    n_chunks = min(config.workers, len(seeds))
    chunks = [seeds[i * len(seeds) // n_chunks:(i + 1) * len(seeds) // n_chunks]
              for i in range(n_chunks)]
    payloads = [{"config": config.to_dict(), "seeds": chunk, "f_star": f_star}
                for chunk in chunks]
    if len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            results = [r for batch in pool.map(_run_batch, payloads) for r in batch]
    else:
        results = _run_batch(payloads[0])
    summaries = [r[0] for r in results]
    curves = aggregate_curves([r[1] for r in results], f_star=f_star)
    write_summary_csv(os.path.join(config.out_dir, "summary.csv"), summaries)
    write_plot_csv(os.path.join(config.out_dir, "curves.csv"), curves)
    config.save(os.path.join(config.out_dir, "config.json"))
    return summaries, curves


def write_summary_csv(path: str, summaries: list):
    lines = ["seed,f_hat,f_std_err,max_violation,violation_std_err,gap,"
             "wall_time,config_hash,x_hat"]
    for s in summaries:
        gap = "" if s.gap is None else repr(s.gap)
        xs = ";".join(repr(float(v)) for v in s.x_hat)
        lines.append(
            f"{s.seed},{s.f_hat!r},{s.f_std_err!r},{s.max_violation!r},"
            f"{s.violation_std_err!r},{gap},{s.wall_time:.3f},{s.config_hash},{xs}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Aggregation and plot data
# ---------------------------------------------------------------------------

def curve_arrays(trajectory: dict) -> dict:
    """Per-seed series that :func:`aggregate_curves` averages over seeds."""
    viol = trajectory["viol"]
    return {
        "t": trajectory["t"].astype(float),
        "obj": trajectory["obj"],
        "viol": viol.max(axis=1) if viol.shape[1] else np.zeros(viol.shape[0]),
        "step_sq": trajectory["step_sq"],
    }


def aggregate_curves(arrays_list: list, f_star: float | None = None) -> dict:
    ts = arrays_list[0]["t"]
    for arr in arrays_list[1:]:
        if arr["t"].shape != ts.shape or np.any(arr["t"] != ts):
            raise ValueError("seeds logged different iteration grids")
    obj = np.stack([a["obj"] for a in arrays_list])
    viol = np.stack([a["viol"] for a in arrays_list])
    step_sq = np.stack([a["step_sq"] for a in arrays_list])
    gap = obj - (f_star if f_star is not None else 0.0)
    n = obj.shape[0]

    def seed_std(m):
        return m.std(axis=0, ddof=1) if n > 1 else np.zeros(m.shape[1])

    return {
        "t": ts,
        "mean_gap": gap.mean(axis=0),
        "std_gap": seed_std(gap),
        "mean_violation": viol.mean(axis=0),
        "std_violation": seed_std(viol),
        "mean_step_sq": step_sq.mean(axis=0),
    }


def subsample_log(ts: np.ndarray, max_points: int = 200) -> np.ndarray:
    """Indices of a log-spaced subset of ts keeping the first and last entry."""
    if ts.size <= max_points:
        return np.arange(ts.size)
    targets = np.unique(np.round(
        np.logspace(np.log10(ts[0]), np.log10(ts[-1]), max_points)
    ))
    idx = np.unique(np.searchsorted(ts, targets).clip(0, ts.size - 1))
    if idx[0] != 0:
        idx = np.concatenate([[0], idx])
    if idx[-1] != ts.size - 1:
        idx = np.concatenate([idx, [ts.size - 1]])
    return idx


def write_plot_csv(path: str, curves: dict):
    idx = subsample_log(curves["t"])
    names = ("mean_gap", "std_gap", "mean_violation", "std_violation")
    # Python floats, whose repr is the plain shortest round-trip number
    columns = [curves[name][idx].tolist() for name in names]
    lines = ["t," + ",".join(names)]
    for t, *values in zip(curves["t"][idx].tolist(), *columns):
        lines.append(f"{int(t)}," + ",".join(map(repr, values)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Trend and rate statistics
# ---------------------------------------------------------------------------

def mann_kendall(series) -> dict:
    """Mann-Kendall S statistic and its normal deviate; S < 0 means downtrend."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("series too short for a trend test")
    s = 0
    for i in range(n - 1):
        s += int(np.sum(np.sign(x[i + 1:] - x[i])))
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return {"s": s, "z": z}


@dataclass
class RateFit:
    slope: float
    intercept: float
    std_err: float
    ci_low: float
    ci_high: float
    clipped: bool
    horizons: np.ndarray
    means: np.ndarray


def check_ladder(ladder: dict):
    """Raise ``ValueError`` unless ``ladder`` (horizon -> per-seed entries)
    has at least ``LADDER_MIN_HORIZONS`` horizons of at least
    ``LADDER_MIN_SEEDS`` seeds each."""
    if len(ladder) < LADDER_MIN_HORIZONS:
        raise ValueError(f"need at least {LADDER_MIN_HORIZONS} horizons")
    for T, vals in ladder.items():
        if len(vals) < LADDER_MIN_SEEDS:
            raise ValueError(f"horizon {T} has {len(vals)} seeds, need {LADDER_MIN_SEEDS}")


def rate_fit(ladder: dict) -> RateFit:
    """Least-squares slope of log(quantity) against log(horizon).

    ``ladder`` maps horizon -> per-seed terminal quantities, checked by
    :func:`check_ladder`.  Non-positive quantities are clipped at 1e-12 and
    flagged.  The confidence interval is the usual two-sided 95% OLS band
    on the slope.
    """
    check_ladder(ladder)
    horizons = np.array(sorted(ladder), dtype=float)
    means = np.array([np.mean(ladder[int(T)]) for T in horizons])
    clipped = bool(np.any(means <= EPS_PLOT))
    means_c = np.maximum(means, EPS_PLOT)
    lx = np.log(horizons)
    ly = np.log(means_c)
    n = lx.size
    vx = lx - lx.mean()
    slope = float(vx @ (ly - ly.mean()) / (vx @ vx))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = max(n - 2, 1)
    se = float(math.sqrt((resid @ resid) / dof / (vx @ vx)))
    tq = special.stdtrit(dof, 0.975)  # = stats.t.ppf(0.975, dof), without importing scipy.stats
    return RateFit(
        slope=slope, intercept=intercept, std_err=se,
        ci_low=slope - tq * se, ci_high=slope + tq * se,
        clipped=clipped, horizons=horizons, means=means,
    )

"""The benchmark's workloads, driven through the public cscgd API.

Every workload is a closed loop in one process with ``workers=1``: the next
experiment starts when the previous one returns.  A process pool on a small
shared host would measure the scheduler, not the solver.  Seeds are
``base_seed .. base_seed + n - 1``.

- ``ex1-fleet`` (the CLI default experiment) spends about half its time in
  ``evaluate_point`` and writes full 1e4-row trajectories: evaluation,
  the wired maps, CSV output and the ``wired_fstar`` set-up show here.  Its
  budget never binds, so it is the "no change" case for the bisection.
- ``ex2-k5-budget`` spends most of its solve in the bisection of the
  budgeted-box projection and samples chi-squared fading through
  ``gammaincinv``: ``sets`` and sampling changes show here, evaluation
  barely runs, so it is the "no change" case for evaluation.
"""

from __future__ import annotations

import hashlib
import math
import os
from time import perf_counter

import numpy as np

from spans import EVAL_SPAN, Tracer, installed


class Workload:
    """One fixed experiment plus the design-quality guards on it."""

    name = ""
    preset = ""
    n_seeds = 0
    horizon = 0
    eval_samples = 0

    def __init__(self, base_seed: int, out_dir: str):
        self.base_seed = base_seed
        self.out_dir = out_dir
        self.oracle_s = 0.0

    def setup(self):
        """Import, preset build and oracle baseline before the first timed call."""
        from cscgd.harness import ExperimentConfig, resolve_problem

        self.config = ExperimentConfig(
            preset=self.preset, regime="constant", horizon=self.horizon,
            seeds=tuple(range(self.base_seed, self.base_seed + self.n_seeds)),
            eval_samples=self.eval_samples, out_dir=self.out_dir, workers=1,
        )
        problem, _ = resolve_problem(self.config)
        self.feasible_set = problem.feasible_set
        t0 = perf_counter()
        self.baseline()
        self.oracle_s = perf_counter() - t0

    def baseline(self):
        """Oracle baseline and guard constants."""

    def quality(self, summaries) -> dict:
        """Design-quality values: name -> (value, unit, passes its guard)."""
        raise NotImplementedError


class Ex1Fleet(Workload):
    name = "ex1-fleet"
    preset = "paper-ex1"
    n_seeds = 1
    horizon = 10_000
    eval_samples = 100_000

    def baseline(self):
        from cscgd.oracles import wired_fstar
        from cscgd.problems import get_preset

        self.base = wired_fstar(get_preset(self.preset))

    def quality(self, summaries):
        base = self.base
        xs = [s.x_hat for s in summaries]
        gap = np.mean([abs(base.objective(x) - base.f_star) / abs(base.f_star) for x in xs])
        viol = np.mean([base.max_constraint(x) for x in xs])
        d_max = base.instance.d_max
        # Criterion-1 tolerances of the acceptance suite.
        return {
            "gap_rel": (float(gap), "1", gap <= 0.05),
            "violation_max": (float(viol), "s", viol <= 1e-2 * d_max),
        }


class Ex2Budget(Workload):
    name = "ex2-k5-budget"
    preset = "paper-ex2-k5"
    n_seeds = 2
    horizon = 2_000
    eval_samples = 2_000

    def baseline(self):
        from cscgd.problems import get_preset

        self.r_min = get_preset(self.preset).r_min

    def quality(self, summaries):
        viol = np.mean([s.max_violation for s in summaries])
        return {"violation_max": (float(viol), "rate", viol <= 0.05 * self.r_min)}


WORKLOADS = {w.name: w for w in (Ex1Fleet, Ex2Budget)}


class Rep:
    """One timed pass over a workload's experiment."""

    def __init__(self, workload: Workload, traced: bool):
        from cscgd.harness import run_experiment

        for fname in output_files(workload):
            os.remove(fname)
        self.tracer = Tracer()
        with installed(self.tracer, full=traced):
            t0 = perf_counter()
            summaries = run_experiment(workload.config)[0]
            self.wall_s = perf_counter() - t0
        self.seed_iters = workload.horizon * len(summaries)
        self.solve_times = [s.wall_time for s in summaries]  # one per seed
        self.solve_s = sum(self.solve_times)
        self.eval_samples = self.tracer.counters[EVAL_SPAN + ".samples"]
        self.eval_times = self.tracer.durations[EVAL_SPAN]  # one per seed
        # A seed's output files: its trajectory and the experiment's curves.
        self.seed_files = {s.seed: (f"trajectory-seed{s.seed}.csv", "curves.csv")
                           for s in summaries}
        self.files = output_digests(workload)
        self.bad_seeds = {
            s.seed for s in summaries
            if not (workload.feasible_set.contains(s.x_hat) and math.isfinite(s.f_hat))
        }
        self.quality = workload.quality(summaries)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name, d in sorted(self.files.items()):
            h.update(f"{name} {d}\n".encode())
        return h.hexdigest()

    def mismatched_seeds(self, other: "Rep") -> set:
        """Seeds whose trajectory or the experiment's curves.csv differ."""
        return {seed for seed, names in self.seed_files.items()
                if any(self.files.get(n) != other.files.get(n) for n in names)}


def output_files(workload: Workload) -> list:
    """Every trajectory CSV and curves.csv in the workload's out_dir.

    summary.csv is left out: it carries wall times.
    """
    if not os.path.isdir(workload.out_dir):
        return []
    return [os.path.join(workload.out_dir, f) for f in sorted(os.listdir(workload.out_dir))
            if f == "curves.csv" or (f.startswith("trajectory-seed") and f.endswith(".csv"))]


def output_digests(workload: Workload) -> dict:
    """sha256 of each output file, keyed by its file name."""
    out = {}
    for path in output_files(workload):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out

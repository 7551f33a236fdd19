"""The two non-convex designs: outage-limited rates and effective capacity.

Neither objective is convex, so the claim is stationarity rather than
global optimality: the solver's output improves on the starting point and
its late-run movement collapses, and a deterministic sample-average descent
lands in the same neighbourhood.
"""

import numpy as np

from cscgd import SolverConfig, run
from cscgd.harness import evaluate_point
from cscgd.oracles import sample_average_baseline
from cscgd.problems import paper_ex3, paper_ex4

for build in (paper_ex3, paper_ex4):
    inst = build()
    problem = inst.build()
    print(f"\n=== {inst.name} (n = {problem.dim_x} design variables) ===")

    config = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                          horizon=10_000, seeds=(0,))
    (x_hat,), (trajectory,) = run(problem, config)
    x_init = problem.feasible_set.project(problem.feasible_set.midpoint())

    ev_hat = evaluate_point(problem, x_hat, n_samples=20_000, seed=5)
    ev_init = evaluate_point(problem, x_init, n_samples=20_000, seed=5)
    print(f"F at start  : {ev_init['f']:.4f}")
    print(f"F at output : {ev_hat['f']:.4f}   (improved: {ev_hat['f'] < ev_init['f']})")

    tail = trajectory["t"] > 0.9 * config.horizon  # the last tenth of the run
    movement = np.mean(np.sqrt(trajectory["step_sq"][tail]) / trajectory["alpha"][tail])
    print(f"late-run movement per unit step: {movement:.3g}")

    local = sample_average_baseline(problem, n_samples=1_000, seed=9)
    print(f"sample-average local optimum: F~{local.value:.4f} at "
          f"{np.round(local.x, 3)} (local reference, not a certificate)")

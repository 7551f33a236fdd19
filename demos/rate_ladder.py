"""Empirical decay of the optimality gap across a horizon ladder.

On the deterministic quadratic toy every run is pure arithmetic, so the
log-log slope of the terminal gap against the horizon is a clean read of
the step-size regime.  The theoretical bound for exponents (0.75, 0.5,
0.75) is a 1/4-power decay; the toy decays much faster, which counts in
favour (bounds are upper bounds).
"""

import numpy as np

from cscgd import SolverConfig, run
from cscgd.harness import rate_fit
from cscgd.problems import quadratic_problem

problem = quadratic_problem()
ladder = {}
for horizon in (1_000, 4_000, 16_000, 64_000):
    config = SolverConfig(a=0.75, b=0.5, c=0.75, regime="constant",
                          horizon=horizon, seeds=tuple(range(10)), x0=np.array([1.0]))
    x_hats, _ = run(problem, config)  # one row per seed
    gaps = [0.5 * float(x_hat[0] ** 2) for x_hat in x_hats]
    ladder[horizon] = gaps
    print(f"T={horizon:>6}: gap {np.mean(gaps):.3e}")

fit = rate_fit(ladder)
print(f"\nfitted slope {fit.slope:.3f} "
      f"(95% CI [{fit.ci_low:.3f}, {fit.ci_high:.3f}])")
print("theory guarantees at most -0.25 for this regime; steeper is better")

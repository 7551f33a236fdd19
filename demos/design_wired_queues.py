"""Design arrival rates for three parallel M/G/1 queues on wired links.

The solver only ever sees one packet-length sample per iteration, yet it
steers the rates toward the optimum of the moment-exact problem.  Because
the packet-length law here is known (truncated exponential), we can compute
that optimum independently and watch the optimality gap close.
"""

import numpy as np

from cscgd import SolverConfig, run
from cscgd.oracles import wired_fstar
from cscgd.problems import paper_ex1

inst = paper_ex1()
problem = inst.build()

print("queues:", inst.n_queues)
print("capacities:", inst.capacities)
print("rate box: [%.1f, %s], total budget %.0f" % (
    inst.lambda_min, inst.lambda_max, inst.lambda_cap))

# Independent deterministic baseline from quadrature moments of the
# packet-length law; the solver never touches this code path.
base = wired_fstar(inst)
print(f"\nbaseline F* = {base.f_star:.4f} at rates {np.round(base.x_star, 3)}")
print(f"  (gradient-map norm {base.grad_map_norm:.1e}, "
      f"local grid check gap {base.grid_check_gap:.1e})")

config = SolverConfig(
    a=0.9167, b=0.5, c=0.75, regime="constant", horizon=10_000,
    gamma=0.0, c_ell=inst.default_c_ell(), seeds=(0,),
)
(x_hat,), (trajectory,) = run(problem, config)

print(f"\nsolver x_hat = {np.round(x_hat, 3)} after {config.horizon} samples")
print(f"F(x_hat) = {base.objective(x_hat):.4f}  "
      f"(gap {base.objective(x_hat) - base.f_star:.4f}, "
      f"{100 * abs(base.objective(x_hat) - base.f_star) / abs(base.f_star):.1f}% "
      f"of |F*|)")
print(f"worst delay slack at x_hat: {base.max_constraint(x_hat):.4f} "
      f"(negative = feasible, cap {inst.d_max})")

print("\ngap along the run (tracked-objective estimate):")
for t in (1, 10, 100, 1_000, 10_000):
    k = np.searchsorted(trajectory["t"], t)  # first logged row at or after t
    print(f"  t={trajectory['t'][k]:>6}: F~{trajectory['obj'][k]:8.3f}  "
          f"constraint~{trajectory['viol'][k, 0]:8.4f}")

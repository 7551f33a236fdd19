"""Joint arrival-rate and transmit-power design under fading (ergodic view).

The expected worst-user rate must stay above a floor; no closed form exists
for the optimum, so the reference is the sample-average optimum of the exact
PK delay on one frozen block of fading draws.  Watch the solver respect the
rate-floor constraint while trading throughput against queuing delay.
"""

import numpy as np

from cscgd import SolverConfig, run
from cscgd.harness import evaluate_point
from cscgd.oracles import ergodic_fstar
from cscgd.problems import paper_ex2

inst = paper_ex2(antennas=5)
problem = inst.build()

print(f"{inst.n_queues} users, rate floor {inst.r_min}, "
      f"power budget {inst.p_max}, fading dof {2 * inst.antennas}")

print("\nsample-average reference (exact PK delay, 2000 frozen fading draws):")
ref = ergodic_fstar(inst, 2000, 7)
ref_ev = evaluate_point(problem, ref.x, n_samples=40_000, seed=7)
print(f"  value {ref.value:.3f} (fresh samples {ref_ev['f']:.3f}) at")
print(f"  rates  {np.round(ref.x[:3], 2)}")
print(f"  powers {np.round(ref.x[3:], 2)}")
print(f"  rate-floor slack {-ref_ev['q'][0]:.2f}")

config = SolverConfig(
    a=0.9167, b=0.5, c=0.75, regime="constant", horizon=20_000,
    gamma=0.0, c_ell=inst.default_c_ell(), seeds=(1,),
)
(x_hat,), _ = run(problem, config)
ev = evaluate_point(problem, x_hat, n_samples=40_000, seed=1)

print(f"\nsolver design after {config.horizon} channel samples:")
print(f"  rates  {np.round(x_hat[:3], 2)}")
print(f"  powers {np.round(x_hat[3:], 2)}")
print(f"  F(x_hat) = {ev['f']:.3f} +- {ev['f_std_err']:.3f} "
      f"(reference {ref.value:.3f})")
print(f"  constraint value {ev['q'][0]:.3f} +- {ev['q_std_err'][0]:.3f} "
      f"(negative = rate floor met)")

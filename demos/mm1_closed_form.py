"""Service-rate design for a single M/M/1 queue, checked against closed form.

U(mu) = r lam/mu - h (lam/mu)/(mu - lam) has the known maximizer
mu* = lam + u + sqrt(u (u + lam)) with u = h/r.  Running the solver on the
compositional wrapping recovers it to high precision, a useful end-to-end
smoke test before tackling designs without closed forms.
"""

from cscgd import SolverConfig, run
from cscgd.problems import mm1_optimal_mu, mm1_problem, mm1_utility

for lam, r, h in [(1.0, 1.0, 1.0), (2.0, 0.7, 1.3), (0.6, 1.8, 0.9)]:
    mu_star = mm1_optimal_mu(lam, r, h)
    problem = mm1_problem(lam, r, h)
    config = SolverConfig(a=0.6, b=0.4, c=0.5, regime="diminishing",
                          horizon=30_000, seeds=(0,))
    (x_hat,), _ = run(problem, config)
    print(f"lam={lam:.1f} r={r:.1f} h={h:.1f}: "
          f"mu*={mu_star:.6f}  solver={x_hat[0]:.6f}  "
          f"|err|={abs(x_hat[0] - mu_star):.2e}  "
          f"U(mu*)={mm1_utility(mu_star, lam, r, h):.4f}")

import math

import numpy as np
import pytest

from cscgd import ConstantVec, SolverConfig, run
from cscgd.checks import gradient_suite
from cscgd.distributions import ExponentialMean
from cscgd.problems import (
    mm1_optimal_mu,
    mm1_problem,
    mm1_utility,
    mm1_utility_derivative,
    paper_ex5,
)
from references import enumerate_blocking_probability


class TestCloudProvisioning:
    def test_uncongested_system_has_no_blocking(self):
        inst = paper_ex5(load_dist=ConstantVec([0.1, 0.1, 0.1]), sharpness=500.0)
        problem = inst.build()
        x = np.array([1.0, 1.5, 3.0, 50.0])  # capacity far above any demand
        g = problem.inner_g(x, np.array([0.1, 0.1, 0.1]))
        taken = g[3:6]
        within_band = g[:3]
        assert np.all(taken > 1 - 1e-12)
        assert np.all(np.abs(within_band) < 1e-12)

    def test_smoothed_indicator_half_at_threshold(self):
        inst = paper_ex5()
        problem = inst.build()
        r = np.array([1.0, 1.5, 3.0])
        cap = 10.0
        zeta = np.array([10.0 / 5.5, 10.0 / 5.5, 10.0 / 5.5])  # zeta . r = cap
        g = problem.inner_g(np.concatenate([r, [cap]]), zeta)
        assert g[3] == pytest.approx(0.5, abs=1e-12)

    def test_blocking_probability_three_outcome_enumeration(self):
        # one class, loads {0, 1, 2} equally likely, r = 1, C = 1:
        # P(0 < zeta <= 1) / P(zeta <= 1) = (1/3) / (2/3)
        loads = np.array([[0.0], [1.0], [2.0]])
        probs = np.full(3, 1.0 / 3.0)
        blocked = enumerate_blocking_probability(loads, probs, r=[1.0], cap=1.0)
        assert blocked[0] == pytest.approx(0.5, abs=1e-15)

    def test_blocking_ratio_from_tracked_indicator_means(self):
        inst = paper_ex5(prices=(1.0,), subscriber_rates=(10.0,))
        y = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0])
        assert inst.blocking_probabilities(y)[0] == pytest.approx(0.5, rel=1e-12)

    def test_objective_is_negated_profit(self):
        inst = paper_ex5()
        problem = inst.build()
        y = np.array([0.1, 0.2, 0.05, 0.8, 0.7, 0.9, 20.0])
        assert problem.outer_f(y) == pytest.approx(-inst.profit(y), rel=1e-12)

    def test_tier_ladder_enforced_by_projection(self, rng):
        inst = paper_ex5()
        fs = inst.build().feasible_set
        gaps = np.diff(inst.prices)
        for _ in range(50):
            v = rng.normal(scale=5.0, size=4) + 3.0
            x = fs.project(v)
            r = x[:3]
            assert np.all(np.diff(r) >= inst.tier_lower * gaps - 1e-8)
            assert np.all(np.diff(r) <= inst.tier_upper * gaps + 1e-8)

    def test_gradients_match_finite_differences(self):
        inst = paper_ex5(load_dist=ExponentialMean([1.0, 1.0, 1.0]), sharpness=5.0)
        result = gradient_suite(inst.build(), n_points=30)
        assert result.passed, result.detail

    @pytest.mark.parametrize("eta", [1.0, 10.0, 100.0])
    def test_indicator_sharpens_with_eta(self, eta):
        inst = paper_ex5(sharpness=eta)
        problem = inst.build()
        x = np.array([1.0, 1.5, 3.0, 10.0])
        zeta = np.array([1.0, 1.0, 1.0])  # load 5.5 <= 10: taken in truth
        g = problem.inner_g(x, zeta)
        err = abs(g[3] - 1.0)
        assert err <= (1.0 + 1e-9) / (1.0 + math.exp(eta * 0.45))

    def test_price_ordering_required(self):
        with pytest.raises(ValueError):
            paper_ex5(prices=(2.0, 1.0, 4.0))


class TestMm1:
    def test_closed_form_with_unit_parameters(self):
        # u = h / r = 1: mu* = lam + 1 + sqrt(1 * (1 + lam)) = 2 + sqrt(2)
        assert mm1_optimal_mu(1.0, 1.0, 1.0) == pytest.approx(2.0 + math.sqrt(2.0),
                                                              rel=1e-15)

    def test_stationarity_of_closed_form(self, rng):
        for _ in range(20):
            lam = rng.uniform(0.3, 3.0)
            r = rng.uniform(0.3, 3.0)
            h = rng.uniform(0.3, 3.0)
            mu = mm1_optimal_mu(lam, r, h)
            assert abs(mm1_utility_derivative(mu, lam, r, h)) < 1e-9

    def test_local_optimality(self):
        mu = mm1_optimal_mu(1.0, 1.0, 1.0)
        u0 = mm1_utility(mu, 1.0, 1.0, 1.0)
        assert u0 >= mm1_utility(mu + 0.1, 1.0, 1.0, 1.0)
        assert u0 >= mm1_utility(mu - 0.1, 1.0, 1.0, 1.0)

    def test_grid_argmax_matches_closed_form(self):
        lam, r, h = 1.0, 1.0, 1.0
        grid = np.linspace(lam + 1e-3, lam + 10.0, 20_001)
        vals = [mm1_utility(m, lam, r, h) for m in grid]
        best = grid[int(np.argmax(vals))]
        resolution = grid[1] - grid[0]
        assert abs(best - mm1_optimal_mu(lam, r, h)) <= resolution

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            mm1_utility(0.9, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mm1_optimal_mu(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="unstable"):
            mm1_problem(1.0, 1.0, 1.0, box=(0.9, 5.0))

    def test_solver_recovers_closed_form_quickly(self):
        for seed, (lam, r, h) in enumerate([(1.0, 1.0, 1.0), (1.7, 0.6, 1.4)]):
            problem = mm1_problem(lam, r, h)
            cfg = SolverConfig(a=0.6, b=0.4, c=0.5, regime="diminishing",
                               horizon=20_000, seeds=(seed,))
            (x_hat,), _ = run(problem, cfg)
            assert abs(x_hat[0] - mm1_optimal_mu(lam, r, h)) < 1e-3

import functools
import math

import numpy as np
import pytest

from cscgd import ExponentialMean, PenaltyParams, TruncatedExponential, make_rng, penalty_value
from cscgd.distributions import TruncatedChiSquared, truncated_exponential_moments
from cscgd.harness import SAMPLE_AVERAGE_ORACLE, evaluate_point
from cscgd.oracles import (
    LEGENDRE_POINTS,
    certified_expectations,
    certified_length_moments,
    ergodic_fstar,
    finite_difference_check,
    hessian_psd_scan,
    make_delay_utility_surface,
    sample_average_baseline,
    wired_fstar,
)
from cscgd.problems import Mg1WiredInstance, paper_ex1, paper_ex2, paper_ex3, quadratic_problem
from quadrature import expectation, quadrature_moments
from references import enumerate_blocking_probability


class TestQuadrature:
    def test_exponential_moments_analytic(self):
        d = ExponentialMean(1.7)
        q = quadrature_moments(d, (1, 2, 3, 4))
        for k in (1, 2, 3, 4):
            assert q[k] == pytest.approx(math.factorial(k) * 1.7**k, rel=1e-10)
            assert q.relative_error(k) < 1e-10

    def test_truncated_families_error_estimates(self):
        for dist in (TruncatedExponential(mean=15.0, upper=20.0),
                     TruncatedChiSquared(dof=10, lower=0.25)):
            q = quadrature_moments(dist, (1, 2))
            assert q.relative_error(1) < 1e-10
            assert q.relative_error(2) < 1e-10


def _trunc_exp_moment_series(m, b, k):
    # E[X^k] of an exponential (scale m) on [0, b] = b^k times the ratio of
    # the power series in t = b / m of int_0^1 u^k e^(-t u) du and of
    # int_0^1 e^(-t u) du: no cancellation at small t.
    t = b / m
    num = sum((-t) ** j / (math.factorial(j) * (k + j + 1)) for j in range(30))
    den = sum((-t) ** j / (math.factorial(j) * (j + 1)) for j in range(30))
    return b**k * num / den


class TestCertifiedLengthMoments:
    LAWS = {
        "paper-ex1": lambda: paper_ex1().length_distribution(),
        "corner-queue": lambda: TruncatedExponential(mean=10.0, upper=40.0),
        "upper/mean=60": lambda: TruncatedExponential(mean=0.5, upper=30.0),
        "upper/mean=1e-3": lambda: TruncatedExponential(mean=15.0, upper=0.015),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_match_adaptive_quadrature_and_closed_forms(self, law):
        dist = self.LAWS[law]()
        m1, m2 = certified_length_moments(dist)
        assert m1.shape == m2.shape == (dist.dim,)
        for i, (m, b) in enumerate(zip(dist.mean_param, dist.upper)):
            quad = quadrature_moments(dist, (1, 2), i)
            if b / m >= 0.1:
                closed = (dist.mean()[i], truncated_exponential_moments(m, b)[1])
            else:
                # the closed forms cancel to ~1e-7 relative at b / m = 1e-3
                closed = tuple(_trunc_exp_moment_series(m, b, k) for k in (1, 2))
            for k, value in ((1, m1[i]), (2, m2[i])):
                assert value == pytest.approx(quad[k], rel=1e-14, abs=0.0)
                assert value == pytest.approx(closed[k - 1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 1.0, 10.0])
    def test_closed_forms_free_of_cancellation(self, ratio):
        dist = TruncatedExponential(mean=[15.0, 0.5], upper=[15.0 * ratio, 0.5 * ratio])
        m1, m2 = certified_length_moments(dist)
        assert dist.mean() == pytest.approx(m1, rel=1e-13, abs=0.0)
        for i, (m, b) in enumerate(zip(dist.mean_param, dist.upper)):
            assert truncated_exponential_moments(m, b)[1] == pytest.approx(m2[i], rel=1e-13, abs=0.0)

    def test_closed_form_mean_shifts_by_lower_and_takes_an_open_support(self):
        shifted = TruncatedExponential(mean=2.0, upper=2.3, lower=0.3)
        plain = TruncatedExponential(mean=2.0, upper=2.0)
        assert shifted.mean()[0] == pytest.approx(0.3 + plain.mean()[0], rel=1e-15)
        assert TruncatedExponential(mean=2.0, upper=np.inf, lower=0.3).mean()[0] == 2.3

    def test_ex1_penalty_knee_stays_at_its_floor(self):
        assert paper_ex1().default_c_ell() == 1.0

    def test_disagreeing_rule_orders_raise_naming_the_queue(self, monkeypatch):
        from cscgd import oracles

        exact = oracles.legendre_expectations
        low, high = LEGENDRE_POINTS

        def skewed(integrands, dist, component, points):
            values = exact(integrands, dist, component, points)
            if (component, points) == (1, low) and "E[X^2]" in values:
                values["E[X^2]"] *= 1.0 + 1e-12
            return values

        monkeypatch.setattr(oracles, "legendre_expectations", skewed)
        dist = paper_ex1().length_distribution()
        square = {"E[X^2]": lambda x: x**2}
        coarse = skewed(square, dist, 1, low)["E[X^2]"]
        fine = exact(square, dist, 1, high)["E[X^2]"]
        with pytest.raises(ValueError, match=rf"E\[X\^2\] of queue 1: .*"
                                             rf"{coarse!r} and {fine!r}"):
            wired_fstar(paper_ex1())

    def test_infinite_support_matches_the_memoryless_closed_forms(self):
        # paper-ex3's channel: an exponential of mean 1 above G, so X - G is
        # a unit exponential, E[X] = G + 1 and E[X^2] = G^2 + 2G + 2
        dist = paper_ex3().channel_distribution()
        m1, m2 = certified_length_moments(dist)
        g = dist.lower
        assert np.all(np.isinf(dist.upper))
        np.testing.assert_allclose(m1, g + 1.0, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(m2, g * g + 2.0 * g + 2.0, rtol=1e-14, atol=0.0)


class TestReciprocalRateMoments:
    # At dof 2 the density does not vanish at z = 0, so only the panels
    # that double from the lower end keep the pole of 1/log(1 + p z) away.
    @pytest.mark.parametrize("dof, lower", [(10, 0.25), (20, 0.25), (2, 0.25), (2, 0.05)])
    @pytest.mark.parametrize("p", [14.0, 50.0, 100.0])
    def test_match_adaptive_quadrature(self, dof, lower, p):
        dist = TruncatedChiSquared(dof=[dof], lower=[lower])
        moments = certified_expectations(
            "fading", {"E[1/b]": lambda z: 1.0 / (10.0 * np.log1p(p * z)),
                       "E[1/b^2]": lambda z: 1.0 / (10.0 * np.log1p(p * z)) ** 2}, dist)
        for name, k in (("E[1/b]", 1), ("E[1/b^2]", 2)):
            quad = expectation(lambda z: 1.0 / (10.0 * math.log1p(p * z)) ** k, dist)
            assert moments[name] == pytest.approx(quad, rel=1e-14, abs=0.0)

    def test_surface_matches_a_surface_on_adaptive_quadrature(self):
        # criterion 8's summand with the moments of tests/quadrature.py, on a
        # coarser grid of the same box
        lam_axis, p_axis = np.linspace(0.1, 15.0, 7), np.linspace(14.0, 100.0, 7)
        for antennas in (5, 10):
            dist = TruncatedChiSquared(dof=[2.0 * antennas], lower=[0.25])

            @functools.lru_cache(maxsize=None)
            def moments(p):
                return tuple(expectation(lambda z: 1.0 / (10.0 * math.log1p(p * z)) ** k, dist)
                             for k in (1, 2))

            def quad_surface(lam, p):
                i1, i2 = moments(p)
                return lam * i2 / (2.0 * (1.0 - lam * i1)) - 0.1 * math.log(lam)

            ours = hessian_psd_scan(make_delay_utility_surface(antennas), lam_axis, p_axis)
            ref = hessian_psd_scan(quad_surface, lam_axis, p_axis)
            np.testing.assert_allclose(ours.min_eigenvalues, ref.min_eigenvalues,
                                       rtol=0.0, atol=1e-11)

    def test_surface_rejects_a_fading_floor_at_zero(self):
        with pytest.raises(ValueError, match="fading_lower"):
            make_delay_utility_surface(5, fading_lower=0.0)


class TestFiniteDifference:
    def test_linear_map_exact(self):
        a = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])

        rep = finite_difference_check(
            lambda x: a.T @ x, a, np.array([0.3, -0.2, 1.1]), h=1e-6
        )
        assert rep.ok
        assert rep.max_rel_err < 1e-9

    def test_kink_proximity_skipped(self):
        params = PenaltyParams(gamma=0.0, c_ell=1.0)
        point = np.array([1e-7])  # within 10h of the zero kink
        rep = finite_difference_check(
            lambda w: np.array([penalty_value(w, params)]),
            np.array([[0.0]]),
            point,
            h=1e-6,
            kink_distance=lambda w: float(np.min(np.abs(w))),
        )
        assert rep.skipped == "kink proximity"
        assert not rep.ok


class TestWiredBaseline:
    def test_corner_optimal_single_queue(self):
        # weak delay penalty, log reward: optimum sits at the upper corner
        inst = Mg1WiredInstance(
            capacities=(100.0,), lambda_min=0.5, lambda_max=(3.0,),
            lambda_cap=10.0, d_max=0.5, mean_lengths=(10.0,),
            max_lengths=(40.0,), psi_weights=(1.0,), phi_weights=(0.01,),
        )
        base = wired_fstar(inst)
        assert base.x_star[0] == pytest.approx(3.0, abs=1e-9)

    def test_preset_baseline_properties(self):
        base = wired_fstar(paper_ex1())
        assert math.isfinite(base.f_star)
        assert base.grad_map_norm <= 1e-10
        assert base.max_constraint(base.x_star) <= 1e-9
        assert base.grid_check_gap >= -1e-9
        assert base.grid_refinement_change < 1e-4
        fs = paper_ex1().feasible_set()
        assert fs.contains(base.x_star, slack=1e-9)

    def test_delay_cap_folds_into_rate_bound(self):
        # shrink the delay cap so it binds and caps the rates below the box
        inst = paper_ex1(d_max=0.01)
        base = wired_fstar(inst)
        assert np.any(base.lambda_upper < inst.lambda_max)
        assert base.max_constraint(base.x_star) <= 1e-9

    def test_infeasible_instance_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            wired_fstar(paper_ex1(d_max=1e-9))


@pytest.fixture(scope="module")
def ex2_small():
    """ergodic_fstar on a smaller block than ``ex2_reference``, from another seed."""
    return ergodic_fstar(paper_ex2(), 500, 5)


class TestErgodicBaseline:
    # ex2_reference (conftest) is ergodic_fstar at the harness's parameters.

    def test_generic_sample_average_route_agrees(self, ex2_small):
        # the design's own maps, averaged over the same frozen block, reach the
        # exact-PK optimum only while the design prices the PK ratio exactly
        generic = sample_average_baseline(paper_ex2().build(), 500, 5)
        assert ex2_small.converged and generic.converged
        assert generic.value == pytest.approx(ex2_small.value, rel=1e-6, abs=0.0)
        assert np.allclose(generic.x, ex2_small.x, atol=1e-3)

    def test_local_grid_finds_nothing_lower(self, ex2_reference):
        inst = paper_ex2()
        n, params = inst.n_queues, SAMPLE_AVERAGE_ORACLE
        zeta = inst.channel_distribution().draw(make_rng(params["seed"], 0),
                                                params["n_samples"])
        lower = np.repeat([inst.lambda_min, inst.p_min], n)
        upper = np.repeat([inst.lambda_max, inst.p_max], n)
        span = 0.02 * (upper - lower)
        axes = [x + span[i] * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
                for i, x in enumerate(ex2_reference.x)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * n)
        cand = np.clip(mesh, lower, upper)
        cand = cand[(cand[:, :n].sum(1) <= inst.lambda_cap) & (cand[:, n:].sum(1) <= inst.p_max)]
        values = []
        for x in cand:  # exact PK value on the frozen block
            lam, inv = x[:n], 1.0 / (inst.bandwidths * np.log1p(zeta * x[n:]))
            m1, m2 = inv.mean(0), (inv**2).mean(0)
            values.append(np.sum(inst.phi_weights * lam * m2 / (2.0 * (1.0 - lam * m1))
                                 - inst.psi_weights * np.log(lam)))
        assert len(cand) > 100
        assert min(values) >= ex2_reference.value - 1e-9

    def test_best_point_satisfies_rate_floor(self, ex2_reference):
        problem = paper_ex2().build()
        assert problem.feasible_set.contains(ex2_reference.x, slack=1e-9)
        ev = evaluate_point(problem, ex2_reference.x, n_samples=20_000, seed=3)
        assert ev["q"][0] + 3.0 * ev["q_std_err"][0] < 0.0

    def test_sample_sizes_agree_within_measured_spread(self, ex2_small, ex2_reference):
        # Measured: the value's standard deviation over seeds is 5.5e-4 at
        # 500 samples (12 seeds) and 2.0e-4 at 2000 (6 seeds); the mean moves
        # by 5e-4 between the two sizes.  Bound: four pooled deviations.
        assert ex2_small.converged
        assert abs(ex2_small.value - ex2_reference.value) <= 4.0 * math.hypot(5.5e-4, 2.0e-4)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            ergodic_fstar(paper_ex2(), 1, 0)

    def test_binding_rate_floor_raises_naming_the_slack(self):
        with pytest.raises(ValueError, match=r"rate floor binds.* r_min is -\d"):
            ergodic_fstar(paper_ex2(r_min=60.0), 20, 0)


class TestHessianScan:
    def test_separable_quadratic(self):
        res = hessian_psd_scan(
            lambda x, y: x**2 + y**2,
            np.linspace(-1.0, 1.0, 7),
            np.linspace(-1.0, 1.0, 7),
        )
        assert np.allclose(res.min_eigenvalues, 2.0, atol=1e-4)
        assert res.is_psd()

    def test_saddle(self):
        res = hessian_psd_scan(
            lambda x, y: x * y,
            np.linspace(-1.0, 1.0, 5),
            np.linspace(-1.0, 1.0, 5),
        )
        assert np.allclose(res.min_eigenvalues, -1.0, atol=1e-4)
        assert not res.is_psd()
        assert res.global_min == pytest.approx(-1.0, abs=1e-4)

    def test_csv_rows_row_major(self, tmp_path):
        res = hessian_psd_scan(
            lambda x, y: x**2 + y**2,
            np.array([0.0, 1.0]),
            np.array([10.0, 20.0]),
        )
        rows = list(res.csv_rows())
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, 10.0), (0.0, 20.0), (1.0, 10.0), (1.0, 20.0)
        ]
        path = tmp_path / "scan.csv"
        res.write_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "lambda,p,min_eig"
        assert len(text) == 5
        values = [[float(field) for field in line.split(",")] for line in text[1:]]
        assert values == [list(row) for row in rows]


class TestSampleAverageBaseline:
    def test_toy_reaches_origin(self):
        res = sample_average_baseline(quadratic_problem(), n_samples=10, seed=0)
        assert abs(res.x[0]) < 1e-7
        assert res.value == pytest.approx(0.0, abs=1e-14)


class TestBlockingEnumeration:
    def test_zero_probability_condition_rejected(self):
        with pytest.raises(ValueError):
            enumerate_blocking_probability(
                [[5.0]], [1.0], r=[1.0], cap=1.0
            )

    def test_multi_class(self):
        loads = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        probs = np.full(4, 0.25)
        r = np.array([1.0, 2.0])
        blocked = enumerate_blocking_probability(loads, probs, r, cap=2.0)
        # used in {0, 1, 2, 3}; conditioning on used <= 2 keeps {0, 1, 2}
        assert blocked[0] == pytest.approx((1 / 4) / (3 / 4))  # used in (1, 2]
        assert blocked[1] == pytest.approx((2 / 4) / (3 / 4))  # used in (0, 2]

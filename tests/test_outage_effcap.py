import numpy as np
import pytest
from scipy.special import expit as sigmoid

from cscgd.checks import gradient_suite
from cscgd.problems import constant_report, paper_ex3, paper_ex4


class TestOutage:
    def test_sigmoid_saturates_far_from_threshold(self):
        inst = paper_ex3(sharpness=50.0)
        # strong channel: rate far above the fixed rate -> outage ~ 0
        good = inst.outage_level(np.full(3, 50.0), np.full(3, 2.0))
        assert np.all(good < 1e-10)
        # rate far below the fixed rate -> outage ~ 1
        bad = inst.outage_level(np.full(3, 10.0), np.full(3, 1e-4))
        assert np.all(bad > 1 - 1e-10)

    @pytest.mark.parametrize("eta", [1.0, 10.0, 100.0])
    def test_smoothed_indicator_converges_pointwise(self, eta):
        inst = paper_ex3(sharpness=eta)
        p = np.full(3, 10.0)
        zeta = np.full(3, 0.0323)  # rate ~ 28: below every fixed rate, gap >= 2
        b = inst.bandwidths * np.log1p(zeta * p)
        hard = (inst.rates >= b).astype(float)
        assert np.all(hard == 1.0)
        err = np.max(np.abs(inst.outage_level(p, zeta) - hard))
        prev_eta = eta / 10.0
        if prev_eta >= 1.0:
            prev = np.max(np.abs(
                paper_ex3(sharpness=prev_eta).outage_level(p, zeta) - hard
            ))
            assert err < prev
        # 1 - sigmoid at 1e-12 scale carries ~1e-4 relative cancellation noise
        bound = float(sigmoid(-eta * np.min(np.abs(inst.rates - b))))
        assert err <= bound * 1.01

    def test_unconstrained_build(self):
        problem = paper_ex3().build()
        assert problem.num_constraints == 0
        assert problem.dim_h == 0

    def test_waiting_time_formula(self):
        inst = paper_ex3()
        u = np.array([0.1, 0.2, 0.3])
        v = np.array([5.0, 6.0, 7.0])
        y = np.concatenate([u, v])
        a = inst.rates * (1 - u)
        expected = v * (1 + u) / (2 * inst.rates * (1 - u) * (a - v))
        assert np.allclose(inst.waiting_times(y), expected, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        result = gradient_suite(paper_ex3().build(), n_points=30)
        assert result.passed, result.detail

    def test_constant_report_published_form(self):
        inst = paper_ex3()
        report = constant_report(inst)
        gain = 100.0 * 0.25 / (1.0 + 10.0 * 0.25)
        expected = 3.0 + 3.0 * 0.5 * (1.0 + gain**2)
        assert report["C_g"] == pytest.approx(expected, rel=1e-12)
        assert report["J"] == 0
        assert report["C_f"] > 0 and report["L_f"] > 0

    def test_rate_cap_validation(self):
        with pytest.raises(ValueError, match="below every fixed rate"):
            paper_ex3(lambda_max=35.0)


class TestEffectiveCapacity:
    def test_qos_exponent_zero_at_arrival_mean(self):
        inst = paper_ex4()
        u = inst.arrival_means.copy()
        v = u**2 + 3.0
        y = np.concatenate([u, v])
        assert np.allclose(inst.qos_exponent(y), 0.0)
        assert np.allclose(inst.effective_capacity(y), inst.arrival_means)

    def test_delay_tail_decreases_with_service_mean(self):
        inst = paper_ex4()
        problem = inst.build()
        tails = []
        for mean_rate in (8.0, 12.0, 20.0):
            u = np.full(3, mean_rate)
            v = u**2 + 25.0
            y = np.concatenate([u, v])
            theta = inst.qos_exponent(y)
            alup = inst.effective_capacity(y)
            tails.append(np.exp(-theta * alup * inst.delay_target))
            assert problem.outer_f(y) == pytest.approx(float(np.sum(
                inst.phi_weights * tails[-1]
                - inst.psi_weights * np.log(alup)
            )), rel=1e-12)
        assert np.all(tails[1] < tails[0]) and np.all(tails[2] < tails[1])

    def test_gradients_match_finite_differences(self):
        result = gradient_suite(paper_ex4().build(), n_points=30)
        assert result.passed, result.detail

    def test_constant_report_published_form(self):
        report = constant_report(paper_ex4())
        assert report["C_g"] == pytest.approx((1 + 4 * 100.0**2) * 100.0**2 * 0.9**2)
        assert report["V_g"] == pytest.approx((1 + 4 * 100.0**2) * 100.0**2 * 0.9**4)
        assert report["J"] == 0

    def test_invalid_arrival_statistics_rejected(self):
        with pytest.raises(ValueError):
            paper_ex4(arrival_means=(0.0, 5.0, 5.0))
        with pytest.raises(ValueError):
            paper_ex4(delay_target=-1.0)

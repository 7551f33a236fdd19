import math

import numpy as np
import pytest

from cscgd.checks import gradient_suite
from cscgd.problems import Mg1ErgodicInstance, constant_report, paper_ex2
from cscgd.problems.safeguards import safe_inv


def test_published_rate_floor_value():
    # b(p_min, G) with p_min = 14, G = 0.25, B = 10
    inst = paper_ex2()
    rate = inst.rates(np.full(3, 14.0), np.full(3, 0.25))
    assert rate[0] == pytest.approx(10.0 * math.log(4.5), rel=1e-12)


def test_rate_monotone_in_power(rng):
    inst = paper_ex2()
    problem = inst.build()
    for _ in range(50):
        zeta = problem.sample(rng)
        p = rng.uniform(14.0, 33.0, size=3)
        bp = inst.bandwidths * zeta / (1.0 + zeta * p)
        assert np.all(bp > 0.0)
        assert np.all(inst.rates(p + 0.1, zeta) > inst.rates(p, zeta))


def test_inner_map_layout():
    inst = paper_ex2()
    problem = inst.build()
    lam = np.array([1.0, 2.0, 3.0])
    p = np.array([20.0, 25.0, 30.0])
    zeta = np.array([5.0, 8.0, 11.0])
    g = problem.inner_g(np.concatenate([lam, p]), zeta)
    b = inst.rates(p, zeta)
    assert np.allclose(g[:3], lam)
    assert np.allclose(g[3:6], lam / b)
    assert np.allclose(g[6:], lam / b**2)


def test_constraint_restores_rate_floor_offset():
    problem = paper_ex2().build()
    z = np.array([-40.0])
    assert problem.outer_q(z)[0] == pytest.approx(35.0 - 40.0)
    assert problem.outer_q_jacobian(z)[0, 0] == 1.0


def test_min_rate_subgradient_first_index_tie_break():
    inst = paper_ex2()
    problem = inst.build()
    p = np.array([20.0, 20.0, 30.0])
    zeta = np.array([4.0, 4.0, 9.0])  # queues 0 and 1 tie for the minimum
    x = np.concatenate([np.ones(3), p])
    jac = problem.inner_h_jacobian(x, zeta)[1]
    assert jac[3, 0] != 0.0
    assert jac[4, 0] == 0.0 and jac[5, 0] == 0.0


def test_utilization_guard_continuous_at_knee():
    inst = paper_ex2()
    problem = inst.build()
    eps = inst.varsigma_eps
    rho = 1.0 - eps  # a smooth point of the exact branch; the knee sits at rho = eps

    def f_at(rho_val):
        y = np.concatenate([np.ones(3), np.array([rho_val, 0.02, 0.02]),
                            np.full(3, 1e-4)])
        return problem.outer_f(y)

    below = f_at(rho - 1e-11)
    above = f_at(rho + 1e-11)
    assert below == pytest.approx(above, rel=1e-8)
    # both branches evaluate to x / eps right at the knee
    x_val = 0.37
    assert x_val * safe_inv(np.array([eps]), eps)[0] == pytest.approx(x_val / eps)
    lin = x_val * (2 * eps - eps) / eps**2
    assert lin == pytest.approx(x_val / eps)


def _tracker(rho):
    lam = np.array([2.0, 3.0, 4.0])
    return np.concatenate([lam, np.full(3, rho), np.array([1e-3, 2e-3, 4e-3])])


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_outer_maps_equal_the_exact_pk_formula_below_the_knee(rho):
    inst = paper_ex2()
    problem = inst.build()
    psi, phi = inst.psi_weights, inst.phi_weights
    y = _tracker(rho)
    lam, m2 = y[:3], y[6:]
    exact = np.sum(phi * m2 / (2.0 * (1.0 - rho)) - psi * np.log(lam))
    assert problem.outer_f(y) == pytest.approx(exact, rel=1e-14, abs=0.0)
    grad = problem.outer_f_gradient(y)
    assert np.allclose(grad[:3], -psi / lam, rtol=1e-14, atol=0.0)
    assert np.allclose(grad[3:6], phi * m2 / (2.0 * (1.0 - rho) ** 2), rtol=1e-14, atol=0.0)
    assert np.allclose(grad[6:], phi / (2.0 * (1.0 - rho)), rtol=1e-14, atol=0.0)


def test_outer_maps_continuous_at_utilization_eps():
    problem = paper_ex2().build()
    eps = paper_ex2().varsigma_eps
    below, above = _tracker(eps - 1e-11), _tracker(eps + 1e-11)
    assert problem.outer_f(below) == pytest.approx(problem.outer_f(above), rel=1e-8)
    assert np.allclose(problem.outer_f_gradient(below), problem.outer_f_gradient(above),
                       rtol=1e-6, atol=0.0)


def test_gradients_match_finite_differences():
    result = gradient_suite(paper_ex2().build(), n_points=30)
    assert result.passed, result.detail


def test_constant_report_published_forms():
    inst = paper_ex2()
    report = constant_report(inst)
    gain = (1.0 + 14.0 * 0.25) ** 2
    assert report["C_h"] == pytest.approx(10.0 / gain, rel=1e-12)
    assert report["V_h"] == report["C_h"]
    assert report["C_q"] == 1.0 and report["L_q"] == 0.0
    b0 = 10.0 * math.log(4.5)
    expected_cg = 3.0
    for _ in range(3):
        expected_cg += (1.0 / b0**2) * (1.0 + 15.0 / (gain * b0**2))
        expected_cg += (1.0 / b0**4) * (1.0 + 30.0 / (gain * b0**2))
    assert report["C_g"] == pytest.approx(expected_cg, rel=1e-12)


def test_default_c_ell_covers_worst_constraint():
    inst = paper_ex2()
    floor_rate = 10.0 * math.log(4.5)
    assert inst.default_c_ell() == pytest.approx(2.0 * (35.0 - floor_rate))


def test_invalid_instances_rejected():
    with pytest.raises(ValueError):
        paper_ex2(fading_lower=0.0)
    with pytest.raises(ValueError):
        Mg1ErgodicInstance(
            bandwidths=(10.0,), p_min=60.0, p_max=100.0, lambda_min=0.1,
            lambda_max=15.0, lambda_cap=37.0, r_min=35.0, fading_lower=0.25,
            antennas=5, psi_weights=(1.0,), phi_weights=(10.0,),
            varsigma_eps=1.2,
        )

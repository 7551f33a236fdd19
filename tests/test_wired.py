import numpy as np
import pytest

from cscgd.checks import gradient_suite
from cscgd.problems import Mg1WiredInstance, constant_report, paper_ex1
from cscgd.problems.safeguards import safe_inv
from quadrature import quadrature_moments


def small_instance(**overrides):
    base = dict(
        capacities=(100.0, 200.0),
        lambda_min=0.1,
        lambda_max=(4.0, 6.0),
        lambda_cap=8.0,
        d_max=0.05,
        mean_lengths=(10.0, 15.0),
        max_lengths=(40.0, 60.0),
        psi_weights=(1.0, 1.5),
        phi_weights=(10.0, 15.0),
    )
    base.update(overrides)
    return Mg1WiredInstance(**base)


def test_inner_map_values():
    problem = small_instance().build()
    lam = np.array([2.0, 3.0])
    lengths = np.array([5.0, 7.0])
    g = problem.inner_g(lam, lengths)
    assert np.allclose(g, [10.0, 21.0, 50.0, 147.0])
    assert problem.inner_h is problem.inner_g


def test_objective_matches_deterministic_formula_at_moment_point():
    inst = small_instance()
    problem = inst.build()
    dist = inst.length_distribution()
    m1 = np.array([quadrature_moments(dist, (1,), i)[1] for i in range(2)])
    m2 = np.array([quadrature_moments(dist, (2,), i)[2] for i in range(2)])
    lam = np.array([2.0, 3.0])
    y = np.concatenate([lam * m1, lam * m2])
    delay = lam * m2 / (2.0 * inst.capacities * (inst.capacities - lam * m1))
    expected = float(np.sum(inst.phi_weights * delay
                            - inst.psi_weights * np.log(lam * m1)))
    assert problem.outer_f(y) == pytest.approx(expected, rel=1e-12)
    assert inst.objective_value(y) == pytest.approx(expected, rel=1e-12)
    assert inst.objective_from_moments(lam, m1, m2) == pytest.approx(expected, rel=1e-12)


def test_constraint_zero_when_delay_hits_limit():
    inst = small_instance()
    problem = inst.build()
    # u = 0 makes delay_i = v_i / (2 C_i^2); choose v so delay equals d_max
    v = inst.d_max * 2.0 * inst.capacities**2
    z = np.concatenate([np.zeros(2), v])
    assert problem.outer_q(z)[0] == pytest.approx(0.0, abs=1e-12)


def test_constraint_uses_first_maximizer():
    inst = small_instance()
    problem = inst.build()
    v = inst.d_max * 2.0 * inst.capacities**2  # both queues exactly at the limit
    z = np.concatenate([np.zeros(2), v])
    jac = problem.outer_q_jacobian(z)
    assert jac[2, 0] != 0.0  # first queue's block selected
    assert jac[3, 0] == 0.0


def test_safeguard_matches_exact_formula_on_safe_region():
    inst = small_instance()
    problem = inst.build()
    y = np.array([30.0, 50.0, 800.0, 2000.0])
    u, v = y[:2], y[2:]
    exact = v / (2.0 * inst.capacities * (inst.capacities - u))
    assert np.allclose(inst.delays(y), exact, rtol=0.0, atol=0.0)
    # linear continuation takes over past the knee and stays finite
    y_bad = np.array([100.0 - 1e-12, 50.0, 800.0, 2000.0])
    assert np.isfinite(problem.outer_f(y_bad))
    assert np.all(np.isfinite(problem.outer_f_gradient(y_bad)))


def test_safeguard_continuity_at_knee():
    inst = small_instance()
    c = inst.capacities[0]
    knee = inst.eps_den * c
    lo = float(safe_inv(np.array([knee * (1 - 1e-9)]), knee)[0])
    hi = float(safe_inv(np.array([knee * (1 + 1e-9)]), knee)[0])
    assert lo == pytest.approx(hi, rel=1e-6)


def test_objective_convex_along_feasible_segments(rng):
    inst = paper_ex1()
    baseline_dist = inst.length_distribution()
    m1 = np.array([quadrature_moments(baseline_dist, (1,), i)[1] for i in range(3)])
    m2 = np.array([quadrature_moments(baseline_dist, (2,), i)[2] for i in range(3)])
    fs = inst.feasible_set()

    def value(lam):
        return inst.objective_from_moments(lam, m1, m2)

    for _ in range(100):
        a = fs.project(rng.uniform(0.1, 5.0, size=3) * np.array([1.0, 1.4, 1.8]))
        b = fs.project(rng.uniform(0.1, 5.0, size=3) * np.array([1.0, 1.4, 1.8]))
        mid = 0.5 * (a + b)
        assert value(mid) <= 0.5 * (value(a) + value(b)) + 1e-12


def test_gradients_match_finite_differences():
    result = gradient_suite(small_instance().build(), n_points=30)
    assert result.passed, result.detail


def test_every_iterate_feasible_on_preset():
    from cscgd import SolverConfig, run

    inst = paper_ex1()
    problem = inst.build()
    cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                       horizon=400, c_ell=inst.default_c_ell(), seeds=(9,))
    _, (traj,) = run(problem, cfg)
    for x in traj["x"]:
        assert problem.feasible_set.contains(x, slack=1e-12)


def test_preset_warns_about_worst_case_utilization():
    with pytest.warns(UserWarning, match="relying on the denominator safeguard"):
        paper_ex1()


def test_constant_report_reproduces_moment_formula():
    inst = paper_ex1()
    report = constant_report(inst)
    dist = inst.length_distribution()
    total = 0.0
    for i in range(3):
        moments = quadrature_moments(dist, (2, 4), i)
        total += inst.lambda_max[i] * (moments[2] + moments[4])
    assert report["C_g"] == pytest.approx(total, rel=1e-10)
    assert report["C_g"] == report["V_g"] == report["C_h"] == report["V_h"]
    assert report["J"] == 1
    assert report["D_x"] == pytest.approx(float(np.sum((inst.lambda_max - 0.1) ** 2)))


def test_default_c_ell_floor():
    inst = paper_ex1()
    # delay cap is slack at the preset numbers, so the default falls back to 1
    assert inst.default_c_ell() == 1.0


def test_invalid_instances_rejected():
    with pytest.raises(ValueError):
        small_instance(psi_weights=(1.0,))
    with pytest.raises(ValueError):
        small_instance(utilization_eps=1.5)

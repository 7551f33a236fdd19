import numpy as np
import pytest

from cscgd import Box, BoxWithLinearInequalities, BoxWithSumCap, FeasibleSetError, ProductSet
from cscgd.checks import projection_suite
from cscgd.oracles import (
    project_box_sumcap_bisect,
    project_box_sumcap_sorted,
    project_linear_dykstra,
)
from cscgd.problems import paper_ex5


def test_box_clamp():
    box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
    assert np.allclose(box.project(np.array([2.0, -1.0])), [1.0, 0.0])


def test_projection_identity_inside():
    box = Box(lower=[0.0, 0.0], upper=[1.0, 1.0])
    v = np.array([0.3, 0.8])
    assert np.array_equal(box.project(v), v)
    capped = BoxWithSumCap(lower=[0.0, 0.0], upper=[1.0, 1.0], cap=1.5)
    assert np.array_equal(capped.project(v), v)


def test_sumcap_symmetric_split():
    capped = BoxWithSumCap(lower=[0.0, 0.0], upper=[10.0, 10.0], cap=1.0)
    proj = capped.project(np.array([1.0, 1.0]))
    assert np.allclose(proj, [0.5, 0.5], atol=1e-9)


def test_sumcap_matches_brute_force_refinement():
    # two-stage grid refinement as an independent oracle on the 2-d instance
    capped = BoxWithSumCap(lower=[0.0, 0.0], upper=[10.0, 10.0], cap=1.0)
    v = np.array([1.0, 1.0])
    proj = capped.project(v)

    def refine(center, width, points=41):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        best, best_val = None, np.inf
        for u0 in axes[0]:
            for u1 in axes[1]:
                u = np.array([u0, u1])
                if np.any(u < 0.0) or np.any(u > 10.0) or u.sum() > 1.0 + 1e-15:
                    continue
                val = np.sum((u - v) ** 2)
                if val < best_val:
                    best, best_val = u, val
        return best

    center = np.array([0.5, 0.5])
    for width in (0.5, 0.05, 0.005, 5e-4, 5e-5, 5e-6):
        center = refine(center, width)
    assert np.allclose(proj, center, atol=1e-6)


def test_sumcap_agrees_with_sorted_breakpoint_oracle(rng):
    for _ in range(500):
        n = rng.integers(1, 6)
        lower = rng.normal(size=n)
        upper = lower + rng.uniform(0.1, 3.0, size=n)
        cap = lower.sum() + rng.uniform(0.0, (upper - lower).sum())
        s = BoxWithSumCap(lower=lower, upper=upper, cap=cap)
        v = rng.normal(scale=3.0, size=n)
        assert np.allclose(
            s.project(v), project_box_sumcap_sorted(v, lower, upper, cap), atol=1e-9
        )


@pytest.mark.parametrize("n", range(1, 7))
def test_sumcap_agrees_with_both_oracles(rng, n):
    for _ in range(300):
        lower = rng.normal(size=n)
        upper = lower + rng.uniform(0.0, 3.0, size=n)
        cap = lower.sum() + rng.uniform(0.0, 1.2) * (upper - lower).sum()
        v = rng.normal(scale=3.0, size=n)
        got = BoxWithSumCap(lower=lower, upper=upper, cap=cap).project(v)
        for oracle in (project_box_sumcap_sorted, project_box_sumcap_bisect):
            assert np.allclose(got, oracle(v, lower, upper, cap), rtol=0.0, atol=1e-9), oracle


@pytest.mark.parametrize("lower, upper, cap, v, want", [
    # tied breakpoints: equal coordinates with equal bounds share both kinks
    ([0.0, 0.0, 0.0], [2.0, 2.0, 2.0], 3.0, [4.0, 4.0, 4.0], [1.0, 1.0, 1.0]),
    ([0.0, 1.0], [2.0, 3.0], 1.0, [3.0, 4.0], [0.0, 1.0]),
    # cap == sum(lower): the only feasible point with a binding cap is lower
    ([0.5, -1.0, 2.0], [1.0, 1.0, 3.0], 1.5, [9.0, 9.0, 9.0], [0.5, -1.0, 2.0]),
    ([0.1, 0.2, 0.3], [1.0, 1.0, 1.0], 0.1 + 0.2 + 0.3, [0.2, 0.3, 0.4], [0.1, 0.2, 0.3]),
    # here rounding leaves s above the cap at every breakpoint
    ([0.1, 0.1], [3.0, 3.0], 0.2, [1.1, 0.7], [0.1, 0.1]),
    # n = 1: the cap acts as a tighter upper bound
    ([0.0], [5.0], 2.0, [3.0], [2.0]),
    ([0.0], [5.0], 2.0, [-1.0], [0.0]),
    # cap one ulp below sum(upper): s at the first breakpoint rounds to <= cap
    ([0.0], [0.1], 0.09999999999999999, [0.7], [0.1]),
    # v already on the cap is its own projection
    ([0.0, 0.0], [2.0, 2.0], 1.0, [0.25, 0.75], [0.25, 0.75]),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2.0, [1.0, 0.5, 0.5], [1.0, 0.5, 0.5]),
    # entries of +-1e6
    ([0.0, 0.0, 0.0], [10.0, 10.0, 10.0], 12.0, [1e6, -1e6, 1e6], [6.0, 0.0, 6.0]),
    ([-5.0, -5.0], [5.0, 5.0], 1.0, [1e6, 1e6], [0.5, 0.5]),
])
def test_sumcap_degenerate_cases(lower, upper, cap, v, want):
    s = BoxWithSumCap(lower=lower, upper=upper, cap=cap)
    got = s.project(np.array(v))
    assert s.contains(got)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.allclose(got, project_box_sumcap_sorted(v, lower, upper, cap), rtol=0.0, atol=1e-9)
    # The bisection stops on a bracket of width tol * max(1, nu), which is
    # 1e-6 at |v| = 1e6; the projection moves at most that far.
    bisect_atol = 2e-12 * max(1.0, float(np.max(np.subtract(v, lower))))
    assert np.allclose(
        got, project_box_sumcap_bisect(v, lower, upper, cap), rtol=0.0, atol=bisect_atol
    )


def test_product_blockwise():
    s = ProductSet(blocks=(
        Box(lower=[0.0], upper=[1.0]),
        BoxWithSumCap(lower=[0.0, 0.0], upper=[2.0, 2.0], cap=1.0),
    ))
    v = np.array([5.0, 1.0, 1.0])
    assert np.allclose(s.project(v), [1.0, 0.5, 0.5], atol=1e-9)
    assert s.dim == 3
    assert s.contains(s.midpoint())


def test_linear_inequalities_non_convergence_raises():
    kw = dict(lower=[0.0, 0.0], upper=[2.0, 2.0], a_mat=[[1.0, -1.0]], b_vec=[0.0])
    v = np.array([2.0, 0.0])  # Dykstra needs many sweeps to settle at (1, 1)
    assert np.allclose(BoxWithLinearInequalities(**kw).project(v), [1.0, 1.0])
    with pytest.raises(FeasibleSetError, match="did not converge in 1 sweeps"):
        project_linear_dykstra(v, **kw, max_sweeps=1)


def _random_ladder(rng, n):
    """A price ladder around a drawn feasible point p: the gaps
    x_{i+1} - x_i lie in a band around p's own gaps, and sum(x) is capped."""
    lower = rng.normal(size=n)
    upper = lower + rng.uniform(0.5, 5.0, size=n)
    p = rng.uniform(lower, upper)
    rows, rhs = [], []
    for i in range(n - 1):
        row = np.zeros(n)
        row[i], row[i + 1] = 1.0, -1.0
        gap = p[i + 1] - p[i]
        rows += [row, -row]
        rhs += [-gap + rng.uniform(0.0, 1.0), gap + rng.uniform(0.0, 2.0)]
    rows.append(np.ones(n))
    rhs.append(p.sum() + rng.uniform(0.0, 2.0))
    kw = dict(lower=lower, upper=upper, a_mat=np.array(rows), b_vec=np.array(rhs))
    return kw, p


def _assert_agrees_with_dykstra(kw, v):
    got = BoxWithLinearInequalities(**kw).project(v)
    # Dykstra's sweep count has a heavy tail on these ladders (up to ~1.2e3
    # here, over 1e5 on narrower bands); the budget only keeps the oracle
    # from giving up.
    ref = project_linear_dykstra(v, **kw, max_sweeps=20_000)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n", range(1, 7))
def test_linear_inequalities_agree_with_dykstra_oracle(rng, n):
    for _ in range(40):
        kw, inside = _random_ladder(rng, n)
        assert np.array_equal(BoxWithLinearInequalities(**kw).project(inside), inside)
        for v in (inside, kw["lower"] + rng.normal(scale=4.0, size=n)):
            _assert_agrees_with_dykstra(kw, v)


def test_linear_inequalities_criterion_7_set_agrees_with_dykstra_oracle(rng):
    s = paper_ex5().feasible_set()
    kw = dict(lower=s.lower, upper=s.upper, a_mat=s.a_mat, b_vec=s.b_vec)
    mid = s.midpoint()
    span = 3.0 * (np.abs(mid) + 1.0)  # the spread projection_suite draws with
    for _ in range(150):
        _assert_agrees_with_dykstra(kw, mid + span * rng.standard_normal(s.dim))
    _assert_agrees_with_dykstra(kw, mid)  # on the boundary
    inside = np.array([2.0, 3.0, 5.0, 20.0])
    assert np.array_equal(s.project(inside), inside)
    _assert_agrees_with_dykstra(kw, inside)


def test_linear_inequalities_nnls_iteration_limit_raises(monkeypatch):
    s = BoxWithLinearInequalities(lower=[0.0, 0.0], upper=[2.0, 2.0], a_mat=[[1.0, -1.0]],
                                  b_vec=[0.0])

    def stalled(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr("scipy.optimize.nnls", stalled)
    with pytest.raises(FeasibleSetError, match="NNLS hit its 15-iteration limit"):
        s.project(np.array([2.0, 0.0]))


def test_sumcap_bisection_non_convergence_raises():
    kw = dict(lower=[0.0, 0.0], upper=[10.0, 10.0], cap=1.0)
    v = np.array([3.0, 2.0])  # box clip sums to 5: the budget binds
    assert np.allclose(BoxWithSumCap(**kw).project(v), [1.0, 0.0])
    with pytest.raises(FeasibleSetError, match=r"max_iter=1 .* bracket width 1\.500e\+00"):
        project_box_sumcap_bisect(v, **kw, max_iter=1)


def test_linear_inequalities_projection_small_qp(rng):
    # box [0,2]^2 with x0 - x1 <= 0; check against a refined grid search
    s = BoxWithLinearInequalities(
        lower=[0.0, 0.0], upper=[2.0, 2.0],
        a_mat=[[1.0, -1.0]], b_vec=[0.0],
    )
    v = np.array([2.0, 0.0])
    proj = s.project(v)
    assert s.contains(proj, slack=1e-8)
    assert np.allclose(proj, [1.0, 1.0], atol=1e-6)  # symmetry of the halfspace
    for _ in range(50):
        v = rng.normal(scale=2.0, size=2)
        p = s.project(v)
        assert s.contains(p, slack=1e-8)
        # optimality via a local perturbation check
        for _ in range(20):
            q = p + rng.normal(scale=1e-3, size=2)
            if s.contains(q, slack=0.0):
                assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-9


def test_linear_inequalities_row_violated_by_rounding_counts_as_met():
    # The row touches only fixed coordinates, and b is A x at a point of the
    # box, but the stacked G x rounds the row's slack to about -1e-13.  Passed
    # to NNLS as is, that reads as an infeasible set: the polish lands outside.
    lower = [889.5129571313623, -940.3568716118904, 290.94407269182966, 112.995976950662]
    upper = [1410.4177179174658, *lower[1:]]
    s = BoxWithLinearInequalities(lower=lower, upper=upper, a_mat=[[0.0, -1.0, -1.0, 1.0]],
                                  b_vec=[762.4087758707227])
    v = np.array([-1607.484770071206, -2332.345651180767, 335.65181567054333, 2569.9526642921983])
    assert np.allclose(s.project(v), lower, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("variant", ["box", "sumcap", "product", "linear"])
def test_projection_property_suite(variant):
    sets = {
        "box": Box(lower=[-1.0, 0.0, 2.0], upper=[1.0, 5.0, 2.5]),
        "sumcap": BoxWithSumCap(lower=[0.1, 0.1, 0.1], upper=[5.0, 7.0, 9.0], cap=15.0),
        "product": ProductSet(blocks=(
            BoxWithSumCap(lower=[0.1, 0.1], upper=[5.0, 5.0], cap=7.0),
            Box(lower=[0.0], upper=[1.0]),
        )),
        "linear": BoxWithLinearInequalities(
            lower=[0.0, 0.0, 0.0], upper=[4.0, 4.0, 4.0],
            a_mat=[[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], b_vec=[0.5, 0.5],
        ),
    }
    result = projection_suite(sets[variant], n_trials=10_000)
    assert result.passed, result.detail


def test_empty_sets_rejected():
    with pytest.raises(FeasibleSetError):
        Box(lower=[1.0], upper=[0.0])
    with pytest.raises(FeasibleSetError):
        BoxWithSumCap(lower=[1.0, 1.0], upper=[2.0, 2.0], cap=1.0)
    with pytest.raises(FeasibleSetError, match="empty set"):
        BoxWithLinearInequalities(lower=[0.0, 0.0], upper=[1.0, 1.0], a_mat=[[1.0, 1.0]],
                                  b_vec=[-1.0])
    with pytest.raises(FeasibleSetError):
        ProductSet(blocks=())


def test_non_finite_point_rejected():
    box = Box(lower=[0.0], upper=[1.0])
    with pytest.raises(FeasibleSetError):
        box.project(np.array([np.nan]))


def test_midpoint_and_diameter():
    box = Box(lower=[0.0, -2.0], upper=[1.0, 2.0])
    assert np.allclose(box.midpoint(), [0.5, 0.0])
    assert box.squared_diameter() == pytest.approx(1.0 + 16.0)
    capped = BoxWithSumCap(lower=[0.0, 0.0], upper=[4.0, 4.0], cap=1.0)
    m = capped.midpoint()
    assert capped.contains(m)

import numpy as np
import pytest

from cscgd import Box, CompositionalProblem


def draw_uniform(rng, size=None):
    return rng.random(2 if size is None else (size, 2))


def inner_linear(x, z):
    # x and x . z per sample; a leading sample axis on z gives one row each
    return np.concatenate(
        [np.broadcast_to(x, z.shape), (x * z).sum(axis=-1, keepdims=True)], axis=-1
    )


def linear_jacobian(x, z):
    # (x, x . z) and [I | z] per row: d(x, x . z)/dx
    jac = np.zeros(z.shape[:-1] + (2, 3))
    jac[..., [0, 1], [0, 1]] = 1.0
    jac[..., :, 2] = z
    return inner_linear(x, z), jac


def make_problem(**overrides):
    base = dict(
        dim_x=2, dim_g=3, dim_h=0, num_constraints=0,
        sample=draw_uniform,
        inner_g=inner_linear,
        inner_g_jacobian=linear_jacobian,
        outer_f=lambda y: (y * y).sum(axis=-1),
        outer_f_gradient=lambda y: 2.0 * y,
        feasible_set=Box(lower=[0.0, 0.0], upper=[1.0, 1.0]),
    )
    base.update(overrides)
    return CompositionalProblem(**base)


def test_shape_check_passes_for_consistent_maps(rng):
    make_problem().check_shapes(rng, n_draws=10)


def test_shape_check_catches_bad_jacobian(rng):
    problem = make_problem(inner_g_jacobian=lambda x, z: (inner_linear(x, z), np.eye(2)))
    with pytest.raises(ValueError, match="inner_g_jacobian"):
        problem.check_shapes(rng)


@pytest.mark.parametrize("inner_g", [
    lambda x, z: np.concatenate([x, [x @ z]]),  # written for one sample
    lambda x, z: inner_linear(x, np.atleast_2d(z)[0]),  # maps the first row only
])
def test_shape_check_catches_inner_g_ignoring_the_batch_axis(rng, inner_g):
    with pytest.raises(ValueError, match="^inner_g "):
        make_problem(inner_g=inner_g).check_shapes(rng)


def test_shape_check_catches_block_rows_out_of_order(rng):
    def reversed_rows(x, z):
        g = inner_linear(x, z)
        return g if z.ndim == 1 else g[::-1]

    with pytest.raises(ValueError, match="inner_g row 0 .* not bitwise equal"):
        make_problem(inner_g=reversed_rows).check_shapes(rng)


@pytest.mark.parametrize("sample", [
    lambda rng: rng.random(2),
    lambda rng, size=None: rng.random(2),
])
def test_shape_check_catches_sample_without_size(rng, sample):
    with pytest.raises(ValueError, match="^sample"):
        make_problem(sample=sample).check_shapes(rng)


def constrained(**overrides):
    # one constraint on h = x . z
    maps = dict(
        dim_h=1, num_constraints=1,
        inner_h=lambda x, z: (x * z).sum(axis=-1, keepdims=True),
        inner_h_jacobian=lambda x, z: ((x * z).sum(axis=-1, keepdims=True), z[..., None]),
        outer_q=lambda z: z - 1.0,
        outer_q_jacobian=lambda z: np.ones(z.shape + (1,)),
    )
    maps.update(overrides)
    return maps


def test_shape_check_passes_for_consistent_constrained_maps(rng):
    make_problem(**constrained()).check_shapes(rng)


@pytest.mark.parametrize("name, overrides", [
    ("inner_g", {"inner_g": lambda x, z: inner_linear(np.atleast_2d(x)[0], z)}),
    ("inner_g_jacobian",
     {"inner_g_jacobian": lambda x, z: (inner_linear(x, z), np.vstack([np.eye(2), z]).T)}),
    ("outer_f", {"outer_f": lambda y: float(y @ y)}),
    ("outer_f_gradient", {"outer_f_gradient": lambda y: 2.0 * np.atleast_2d(y)[0]}),
    ("outer_q", constrained(outer_q=lambda z: np.array([z[0] - 1.0]))),
    ("outer_q_jacobian", constrained(outer_q_jacobian=lambda z: np.ones((1, 1)))),
])
def test_shape_check_catches_maps_written_for_one_point(rng, name, overrides):
    # each map passes on single points and fails on three stacked ones
    with pytest.raises(ValueError, match=f"^{name} "):
        make_problem(**overrides).check_shapes(rng)


@pytest.mark.parametrize("name, overrides, got", [
    ("inner_g", {"inner_g": lambda x, z: inner_linear(x, z).tolist()}, "type list"),
    ("inner_g_jacobian",
     {"inner_g_jacobian": lambda x, z: (inner_linear(x, z), linear_jacobian(x, z)[1].astype(int))},
     "dtype int64"),
    ("outer_f_gradient", {"outer_f_gradient": lambda y: (2.0 * y).astype(np.float32)},
     "dtype float32"),
    ("outer_q", constrained(outer_q=lambda z: list(z - 1.0)), "type list"),
    ("outer_q_jacobian", constrained(outer_q_jacobian=lambda z: np.ones(z.shape + (1,), int)),
     "dtype int64"),
    ("inner_g_jacobian",
     {"inner_g_jacobian": lambda x, z: (inner_linear(x, z).tolist(), linear_jacobian(x, z)[1])},
     "type list"),
])
def test_shape_check_names_a_map_that_returns_no_float_ndarray(rng, name, overrides, got):
    with pytest.raises(ValueError, match=f"^{name} returned {got}, expected a float ndarray"):
        make_problem(**overrides).check_shapes(rng)


def test_shape_check_names_a_jacobian_map_that_returns_no_pair(rng):
    problem = make_problem(inner_g_jacobian=lambda x, z: linear_jacobian(x, z)[1])
    with pytest.raises(ValueError, match=r"^inner_g_jacobian returned type ndarray, "
                                         r"expected a \(value, Jacobian\) pair"):
        problem.check_shapes(rng)


@pytest.mark.parametrize("where", ["single", "stacked"])
@pytest.mark.parametrize("name", ["inner_g_jacobian", "inner_h_jacobian"])
def test_shape_check_catches_a_value_half_one_ulp_off(rng, name, where):
    maps = constrained(inner_g_jacobian=linear_jacobian)
    exact = maps[name]

    def one_ulp_off(x, z):
        value, jac = exact(x, z)
        if (x.ndim == 1) == (where == "single"):
            value = np.nextafter(value, np.inf)
        return value, jac

    maps[name] = one_ulp_off
    inner = name.removesuffix("_jacobian")
    on = " on stacked points" if where == "stacked" else ""
    message = f"^{name} value half{on} is not bitwise equal to {inner}$"
    with pytest.raises(ValueError, match=message):
        make_problem(**maps).check_shapes(rng)


def test_constrained_requires_all_constraint_maps():
    with pytest.raises(ValueError, match="inner_h"):
        make_problem(dim_h=1, num_constraints=1)


def test_feasible_set_dimension_must_match():
    with pytest.raises(ValueError, match="feasible set"):
        make_problem(feasible_set=Box(lower=[0.0], upper=[1.0]))


def test_dimensions_validated():
    with pytest.raises(ValueError):
        make_problem(dim_x=0)
    with pytest.raises(ValueError):
        make_problem(dim_h=-1)


def test_jacobian_shapes_stable_over_random_draws(rng):
    # the declared dims hold for every sampled realization
    problem = make_problem()
    x = problem.feasible_set.midpoint()
    for _ in range(50):
        zeta = problem.sample(rng)
        assert np.asarray(problem.inner_g(x, zeta)).shape == (3,)
        assert np.asarray(problem.inner_g_jacobian(x, zeta)[1]).shape == (2, 3)

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cscgd
from cscgd.harness import (
    EVAL_CHUNK_ROWS,
    ExperimentConfig,
    aggregate_curves,
    compute_oracle,
    curve_arrays,
    evaluate_point,
    mann_kendall,
    rate_fit,
    read_trajectory_csv,
    run_experiment,
    subsample_log,
    trajectory_header,
    write_plot_csv,
    write_trajectory_csv,
)
from cscgd.harness import _lane_sum, _row_sum
from cscgd.oracles import wired_fstar
from cscgd.problems import paper_ex1
from cscgd.solver import SolverConfig, run


def small_config(tmp_path, **kw):
    base = dict(
        preset="paper-ex1", horizon=300, seeds=(0, 1), out_dir=str(tmp_path / "out"),
        eval_samples=2_000,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path, gamma=0.1, c_ell=2.0, workers=2)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg
        assert loaded.canonical_json() == cfg.canonical_json()

    def test_hash_depends_on_content(self, tmp_path):
        a = small_config(tmp_path)
        b = small_config(tmp_path, horizon=301)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == small_config(tmp_path).config_hash()

    def test_hash_ignores_out_dir_and_workers(self, tmp_path):
        a = small_config(tmp_path, out_dir=str(tmp_path / "a"), workers=1)
        b = small_config(tmp_path, out_dir=str(tmp_path / "b"), workers=4)
        assert a.canonical_json() != b.canonical_json()
        assert a.config_hash() == b.config_hash()

    def test_rejects_fewer_eval_samples_than_two_per_sub_batch(self):
        # evaluate_point would round 19 samples up to two per sub-batch, 20
        with pytest.raises(ValueError, match="^eval_samples must be at least 20, got 19$"):
            ExperimentConfig(preset="quadratic-toy", eval_samples=19)
        assert ExperimentConfig(preset="quadratic-toy", eval_samples=20).eval_samples == 20

    def test_rejects_negative_seeds(self):
        # numpy's SeedSequence would reject them later, naming no field
        with pytest.raises(ValueError, match=r"^seeds must be non-negative, got \[-3, -1\]$"):
            ExperimentConfig(preset="quadratic-toy", seeds=(0, -3, 2, -1))
        assert ExperimentConfig(preset="quadratic-toy", seeds=(0,)).seeds == (0,)


class TestTrajectoryCsv:
    def test_header_matches_contract(self):
        assert trajectory_header(0) == "t,alpha,beta,delta,obj,step_sq"
        assert trajectory_header(2) == "t,alpha,beta,delta,obj,viol_1,viol_2,step_sq"

    def test_round_trip_full_precision(self, tmp_path):
        problem = paper_ex1().build()
        cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                           horizon=50, c_ell=1.0, seeds=(0,))
        _, (traj,) = run(problem, cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, problem.num_constraints)
        data = read_trajectory_csv(path)
        assert list(data) == ["t", "alpha", "beta", "delta", "obj", "viol_1", "step_sq"]
        assert np.array_equal(data["t"], traj["t"])
        assert np.array_equal(data["obj"], traj["obj"])
        assert np.array_equal(data["step_sq"], traj["step_sq"])
        raw = path.read_bytes()
        assert b"\r" not in raw

    @staticmethod
    def row_wise_csv(traj, num_constraints):
        cols = [traj[name].tolist() for name in ("t", "alpha", "beta", "delta", "obj")]
        cols += [traj["viol"][:, j].tolist() for j in range(num_constraints)]
        cols.append(traj["step_sq"].tolist())
        lines = [trajectory_header(num_constraints)]
        lines += [",".join(map(repr, row)) for row in zip(*cols)]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("regime", ["constant", "diminishing"])
    def test_columns_equal_row_wise_repr(self, tmp_path, regime):
        problem = paper_ex1().build()
        cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime=regime,
                           horizon=300, c_ell=1.0, seeds=(0,))
        _, (traj,) = run(problem, cfg)
        assert (np.unique(traj["alpha"]).size == 1) == (regime == "constant")
        write_trajectory_csv(tmp_path / "traj.csv", traj, problem.num_constraints)
        assert (tmp_path / "traj.csv").read_bytes() == self.row_wise_csv(traj, 1)

    def test_columns_equal_row_wise_repr_on_edge_values(self, tmp_path):
        # equal under == but not bit for bit (signed zeros), NaN and inf
        traj = {"t": np.arange(1, 5), "alpha": np.array([0.0, -0.0, 0.0, 0.0]),
                "beta": np.full(4, -0.0), "delta": np.full(4, np.nan),
                "obj": np.array([np.inf, -np.inf, 1e-300, 5e-324]),
                "viol": np.array([[0.1, 2.0], [0.1, -0.0], [0.1, 0.0], [0.1, 3.0]]),
                "step_sq": np.full(4, 1 / 3)}
        write_trajectory_csv(tmp_path / "edge.csv", traj, 2)
        assert (tmp_path / "edge.csv").read_bytes() == self.row_wise_csv(traj, 2)

    def test_determinism_byte_identical(self, tmp_path):
        problem = paper_ex1().build()
        cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                           horizon=100, c_ell=1.0, seeds=(3,))
        for name in ("a.csv", "b.csv"):
            _, (traj,) = run(problem, cfg)
            write_trajectory_csv(tmp_path / name, traj, 1)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestRunExperiment:
    def test_smoke_two_rows(self, tmp_path):
        cfg = small_config(tmp_path, horizon=2, seeds=(0,))
        summaries, curves = run_experiment(cfg)
        data = read_trajectory_csv(summaries[0].trajectory_path)
        assert data["t"].size == 2
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "curves.csv").exists()
        assert math.isfinite(summaries[0].f_hat)

    def test_repeat_identical_files(self, tmp_path):
        cfg = small_config(tmp_path, out_dir=str(tmp_path / "rr"))
        run_experiment(cfg)
        first = {
            f.name: f.read_bytes()
            for f in (tmp_path / "rr").iterdir() if f.suffix in (".csv", ".json")
        }
        run_experiment(cfg)
        for f in sorted(first):
            again = (tmp_path / "rr" / f).read_bytes()
            if f == "summary.csv":
                # wall-time column is the only nondeterministic field
                strip = lambda raw: [
                    b",".join(v for i, v in enumerate(line.split(b",")) if i != 6)
                    for line in raw.splitlines()
                ]
                assert strip(again) == strip(first[f])
            else:
                assert again == first[f], f

    def test_parallel_matches_serial(self, tmp_path):
        cfg_s = small_config(tmp_path, out_dir=str(tmp_path / "ser"), workers=1)
        cfg_p = small_config(tmp_path, out_dir=str(tmp_path / "par"), workers=2)
        run_experiment(cfg_s)
        run_experiment(cfg_p)
        for seed in (0, 1):
            assert (tmp_path / "ser" / f"trajectory-seed{seed}.csv").read_bytes() == \
                (tmp_path / "par" / f"trajectory-seed{seed}.csv").read_bytes()

    def test_seeds_share_the_batch_solve_time(self, tmp_path):
        # one solver call steps both seeds; each reports half its time
        summaries, _ = run_experiment(small_config(tmp_path))
        assert [s.seed for s in summaries] == [0, 1]
        assert summaries[0].wall_time == summaries[1].wall_time > 0.0

    def test_gap_run_computes_the_oracle_and_writes_no_cache(self, tmp_path):
        cfg = small_config(tmp_path, oracle_gap=True)
        summaries, _ = run_experiment(cfg)
        f_star = compute_oracle(cfg)["f_star"]
        assert [s.gap for s in summaries] == [s.f_hat - f_star for s in summaries]
        assert all(type(s.gap) is float for s in summaries)
        assert not list((tmp_path / "out").glob("oracle-*.json"))

    def test_toy_target_oracle(self, tmp_path):
        cfg = ExperimentConfig(preset="quadratic-toy", horizon=100, seeds=(0,),
                               out_dir=str(tmp_path / "toy"))
        payload = compute_oracle(cfg)
        assert payload["f_star"] == 0.0

    def test_oracle_follows_the_overrides_and_sample_average_parameters(self, monkeypatch):
        from types import SimpleNamespace

        from cscgd import harness

        toy = ExperimentConfig(preset="constrained-quadratic-toy")
        other = ExperimentConfig(preset="constrained-quadratic-toy",
                                 instance_overrides={"threshold": 0.5})
        assert (compute_oracle(toy)["f_star"], compute_oracle(other)["f_star"]) == (0.045, 0.125)
        calls = []

        def fake_ergodic_fstar(instance, **params):
            calls.append((instance.lambda_cap, params))
            return SimpleNamespace(value=-1.0, x=np.zeros(6), grad_map_norm=0.0)

        monkeypatch.setattr("cscgd.oracles.ergodic_fstar", fake_ergodic_fstar)
        compute_oracle(ExperimentConfig(preset="paper-ex2-k5",
                                        instance_overrides={"lambda_cap": 30.0}))
        assert calls == [(30.0, harness.SAMPLE_AVERAGE_ORACLE)]


class TestEvaluatePoint:
    def test_matches_moment_exact_objective(self, tmp_path):
        inst = paper_ex1()
        problem = inst.build()
        base = wired_fstar(inst)
        x = np.array([2.0, 3.0, 4.0])
        ev = evaluate_point(problem, x, n_samples=40_000, seed=0)
        exact = base.objective(x)
        assert abs(ev["f"] - exact) <= 5.0 * ev["f_std_err"] + 1e-6
        assert ev["q"].shape == (1,)

    def test_two_route_agreement_tracked_vs_fresh(self, tmp_path):
        # f(y_T) from the run against a fresh-batch evaluation at x_hat
        cfg = small_config(tmp_path, horizon=4_000, seeds=(0, 1, 2),
                           eval_samples=20_000)
        summaries, curves = run_experiment(cfg)
        problem = paper_ex1().build()
        finals = curves["mean_gap"][-1]  # f_star None: these are objectives
        fresh = np.mean([s.f_hat for s in summaries])
        spread = 3.0 * (np.std([s.f_hat for s in summaries], ddof=1)
                        + np.mean([s.f_std_err for s in summaries]))
        assert abs(finals - fresh) <= spread + 0.05 * abs(fresh)

    @pytest.mark.parametrize("dim", [1, 2, 6, 15])
    def test_row_sum_equals_the_left_fold(self, dim):
        rng = np.random.default_rng(dim)
        for k in (1, 2, 8, 9, 200, EVAL_CHUNK_ROWS):
            # magnitudes over many decades, so that summation order shows
            rows = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-8, 9, (k, dim))
            carry = rng.standard_normal(dim) * 1e3
            for block in (rows, np.asfortranarray(rows)):
                # the cumsum left fold the evaluation used, and a plain loop
                assert _row_sum(block).tobytes() == np.cumsum(rows, axis=0)[-1].tobytes()
                folded = np.cumsum(np.concatenate((carry[None], rows)), axis=0)[-1]
                assert _row_sum(block, carry).tobytes() == folded.tobytes()
                acc = carry.copy()
                for row in rows:
                    acc = acc + row
                assert acc.tobytes() == folded.tobytes()

    @pytest.mark.parametrize("dim", [1, 6, 9])
    def test_lane_sum_equals_a_left_fold_per_piece(self, dim):
        rng = np.random.default_rng(100 + dim)
        for p in range(2, 11):
            for m in (2, 7, 200):
                # magnitudes over 16 decades, so that summation order shows
                rows = rng.standard_normal((p * m, dim)) * 10.0 ** rng.integers(-8, 9, (p * m, dim))
                # a lane of -0.0 sums to -0.0, as a fold from its first row does
                zero = rng.integers(p)
                rows[zero * m:(zero + 1) * m] = -0.0
                expected = np.empty((p, dim))
                for j in range(p):
                    acc = rows[j * m]
                    for row in rows[j * m + 1:(j + 1) * m]:
                        acc = acc + row
                    expected[j] = acc
                assert np.signbit(expected[zero]).all()
                for block in (rows, np.asfortranarray(rows)):
                    assert _lane_sum(block, p).tobytes() == expected.tobytes()


class TestStatistics:
    def test_rate_fit_exact_power_law(self):
        ladder = {T: [T**-0.25] * 10 for T in (10, 100, 1000, 10_000)}
        fit = rate_fit(ladder)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.std_err == pytest.approx(0.0, abs=1e-12)
        assert not fit.clipped

    def test_rate_fit_constant_sequence(self):
        ladder = {T: [2.5] * 10 for T in (10, 100, 1000, 10_000)}
        fit = rate_fit(ladder)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rate_fit_clips_non_positive(self):
        ladder = {10: [1.0] * 10, 100: [0.1] * 10, 1000: [0.0] * 10,
                  10_000: [-1e-3] * 10}
        fit = rate_fit(ladder)
        assert fit.clipped
        assert fit.slope < 0

    def test_rate_fit_preconditions(self):
        with pytest.raises(ValueError, match="horizons"):
            rate_fit({10: [1.0] * 10, 100: [1.0] * 10})
        with pytest.raises(ValueError, match="seeds"):
            rate_fit({T: [1.0] * 3 for T in (10, 100, 1000, 10_000)})

    def test_rate_fit_matches_linregress_and_its_t_band(self, rng):
        from scipy import stats

        horizons = (10, 30, 100, 300, 1000, 3000)
        ladder = {T: list(T**-0.4 * np.exp(rng.normal(scale=0.3, size=10)))
                  for T in horizons}
        fit = rate_fit(ladder)
        ref = stats.linregress(np.log(horizons), np.log([np.mean(ladder[T]) for T in horizons]))
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12, abs=1e-15)
        assert fit.intercept == pytest.approx(ref.intercept, rel=1e-12, abs=1e-15)
        assert fit.std_err == pytest.approx(ref.stderr, rel=1e-10)
        # the two-sided 95% band: t quantile 0.975 at n - 2 degrees of freedom
        tq = stats.t.ppf(0.975, len(horizons) - 2)
        assert fit.ci_low == pytest.approx(ref.slope - tq * ref.stderr, rel=1e-10)
        assert fit.ci_high == pytest.approx(ref.slope + tq * ref.stderr, rel=1e-10)

    def test_harness_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(cscgd.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, cscgd.harness; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("code", [
        "import cscgd",
        "import cscgd.cli",
        "from cscgd.harness import ExperimentConfig, run_experiment; "
        "run_experiment(ExperimentConfig(preset='paper-ex2-k5', horizon=200, "
        "eval_samples=200, out_dir=sys.argv[1]))",
    ], ids=["import-cscgd", "import-cli", "run-paper-ex2-k5"])
    def test_solve_path_leaves_oracles_and_optional_scipy_unloaded(self, code, tmp_path):
        src = os.path.dirname(os.path.dirname(cscgd.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        unused = ("scipy.optimize", "scipy.integrate", "cscgd.oracles", "cscgd.checks")
        check = f"loaded = set({unused!r}) & set(sys.modules); assert not loaded, loaded"
        subprocess.run([sys.executable, "-c", f"import sys; {code}; {check}", str(tmp_path)],
                       env=env, check=True)

    def test_wired_oracle_path_leaves_scipy_integrate_and_optimize_unloaded(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cscgd.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        unused = ("scipy.integrate", "scipy.optimize")
        check = f"loaded = set({unused!r}) & set(sys.modules); assert not loaded, loaded"
        for code in (
            "from cscgd.oracles import wired_fstar; from cscgd.problems import paper_ex1; "
            "wired_fstar(paper_ex1())",
            "from cscgd.cli import main; "
            "assert main(['oracle', '--preset', 'paper-ex1', '--out', sys.argv[1]]) == 0",
            "from cscgd.harness import ExperimentConfig, run_experiment; "
            "s, _ = run_experiment(ExperimentConfig(preset='paper-ex1', horizon=200, "
            "eval_samples=200, out_dir=sys.argv[1], oracle_gap=True)); "
            "assert s[0].gap is not None",
            "from cscgd.cli import main; "
            "assert main(['oracle', '--preset', 'paper-ex2-k5', '--out', sys.argv[1]]) == 0",
            "from cscgd.harness import ExperimentConfig, run_experiment; "
            "s, _ = run_experiment(ExperimentConfig(preset='paper-ex2-k5', horizon=200, "
            "eval_samples=200, out_dir=sys.argv[1], oracle_gap=True)); "
            "assert s[0].gap is not None",
            "from cscgd.problems import PRESETS, constant_report; "
            "[constant_report(build()) for build in PRESETS.values()]",
            "from cscgd.oracles import make_delay_utility_surface; "
            "make_delay_utility_surface(5)(1.0, 20.0)",
            "from cscgd.cli import main; "
            "assert main(['scan-hessian', '-k', '5', '--grid', '5']) == 0",
        ):
            subprocess.run([sys.executable, "-W", "ignore", "-c",
                            f"import sys; {code}; {check}", str(tmp_path)],
                           env=env, check=True)

    def test_mann_kendall_continuity_correction(self):
        # S = 8 and Var S = n (n - 1) (2n + 5) / 18 = 50/3; z = (S - 1) / sqrt(Var S)
        # = 1.71464, where the uncorrected S / sqrt(Var S) would be 1.95959
        up = mann_kendall([1.0, 3.0, 2.0, 4.0, 5.0])
        down = mann_kendall([-1.0, -3.0, -2.0, -4.0, -5.0])
        assert up["s"] == 8 and down["s"] == -8
        assert up["z"] == pytest.approx(7.0 / math.sqrt(50.0 / 3.0), rel=1e-12)
        assert down["z"] == pytest.approx(-7.0 / math.sqrt(50.0 / 3.0), rel=1e-12)

    def test_mann_kendall_directions(self):
        down = mann_kendall(np.linspace(5.0, 1.0, 40))
        up = mann_kendall(np.linspace(1.0, 5.0, 40))
        flat = mann_kendall(np.ones(40))
        assert down["s"] < 0 and down["z"] < -3
        assert up["s"] > 0 and up["z"] > 3
        assert flat["s"] == 0

    def test_subsample_preserves_endpoints(self):
        ts = np.arange(1, 100_001, dtype=float)
        idx = subsample_log(ts, max_points=120)
        assert idx[0] == 0 and idx[-1] == ts.size - 1
        assert idx.size <= 130


class TestPlotData:
    def test_single_seed_zero_std(self, tmp_path):
        problem = paper_ex1().build()
        cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                           horizon=60, c_ell=1.0, seeds=(0,))
        _, (traj,) = run(problem, cfg)
        curves = aggregate_curves([curve_arrays(traj)])
        write_plot_csv(tmp_path / "plot.csv", curves)
        assert np.all(curves["std_gap"] == 0.0)
        assert np.all(curves["std_violation"] == 0.0)
        lines = (tmp_path / "plot.csv").read_text().splitlines()
        assert lines[0] == "t,mean_gap,std_gap,mean_violation,std_violation"
        assert lines[1].startswith("1,")
        assert lines[-1].startswith("60,")
        # plain numbers: every field reads back with float(), to the value
        rows = np.array([[float(field) for field in line.split(",")] for line in lines[1:]])
        names = lines[0].split(",")
        for j, name in enumerate(names):
            assert np.array_equal(rows[:, j], curves[name], equal_nan=True)

    def test_wired_gap_series_trends_down(self, tmp_path):
        from cscgd.harness import mann_kendall, subsample_log
        from cscgd.oracles import wired_fstar

        base = wired_fstar(paper_ex1())
        problem = paper_ex1().build()
        trajs = []
        for seed in range(10):
            cfg = SolverConfig(a=0.9167, b=0.5, c=0.75, regime="constant",
                               horizon=2_000, c_ell=1.0, seeds=(seed,),
                               log_points=2_000)
            _, (traj,) = run(problem, cfg)
            trajs.append(traj)
        curves = aggregate_curves([curve_arrays(t) for t in trajs], f_star=base.f_star)
        idx = subsample_log(curves["t"], 150)
        assert mann_kendall(curves["mean_gap"][idx])["s"] < 0
        # final tracked constraint estimate non-positive within 3 sigma
        se = curves["std_violation"][-1] / np.sqrt(len(trajs))
        assert curves["mean_violation"][-1] <= 3.0 * se

    def test_mismatched_grids_rejected(self, tmp_path):
        problem = paper_ex1().build()
        cfg1 = SolverConfig(a=0.9167, b=0.5, c=0.75, horizon=50, c_ell=1.0, seeds=(0,))
        cfg2 = SolverConfig(a=0.9167, b=0.5, c=0.75, horizon=60, c_ell=1.0, seeds=(0,))
        _, (t1,) = run(problem, cfg1)
        _, (t2,) = run(problem, cfg2)
        with pytest.raises(ValueError, match="grids"):
            aggregate_curves([curve_arrays(t1), curve_arrays(t2)])

import csv
import json

import numpy as np
import pytest

from cscgd import harness
from cscgd.cli import main
from cscgd.harness import read_trajectory_csv


def test_run_smoke(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main([
        "run", "--preset", "paper-ex1", "--seeds", "0", "--horizon", "50",
        "--out", str(out), "--eval-samples", "500",
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "mean F(x_hat)" in captured
    data = read_trajectory_csv(out / "trajectory-seed0.csv")
    assert data["t"].size == 50
    assert (out / "config.json").exists()


def test_run_repeat_byte_identical(tmp_path):
    out = tmp_path / "exp"
    args = ["run", "--preset", "paper-ex1", "--seeds", "3", "--horizon", "80",
            "--out", str(out), "--eval-samples", "500"]
    main(args)
    first = (out / "trajectory-seed3.csv").read_bytes()
    main(args)
    assert (out / "trajectory-seed3.csv").read_bytes() == first


@pytest.mark.parametrize("option, field", [
    ("--horizon", "horizon"), ("--workers", "workers"), ("--log-points", "log_points"),
    ("--eval-samples", "eval_samples"),
])
def test_run_rejects_a_zero_option_instead_of_dropping_it(tmp_path, option, field):
    args = ["run", "--preset", "quadratic-toy", "--seeds", "0", "--eval-samples", "500",
            "--out", str(tmp_path / "exp"), option, "0"]
    if option != "--horizon":
        args += ["--horizon", "50"]
    with pytest.raises(ValueError, match=f"^{field} must be at least"):
        main(args)


@pytest.mark.parametrize("seeds, message", [
    ("3:3", "seeds must name at least one seed"), ("1,1", "seeds must be distinct"),
    ("-1", "seeds must be non-negative"),
], ids=["empty", "repeated", "negative"])
def test_run_rejects_empty_or_repeated_seeds_before_any_output(tmp_path, seeds, message):
    out = tmp_path / "exp"
    with pytest.raises(ValueError, match=f"^{message}"):
        main(["run", "--preset", "quadratic-toy", f"--seeds={seeds}", "--horizon", "50",
              "--eval-samples", "500", "--out", str(out)])
    assert not out.exists()


def test_run_list_presets(capsys):
    rc = main(["run", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("paper-ex1", "paper-ex2-k5", "paper-ex2-k10", "paper-ex3",
                 "paper-ex4"):
        assert name in out


def test_oracle_then_gap_run(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["oracle", "--preset", "quadratic-toy", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == "quadratic-toy: F* = 0 (closed-form)\n"
    assert not out.exists()
    rc = main([
        "run", "--preset", "quadratic-toy", "--seeds", "0:2", "--horizon", "200",
        "--out", str(out), "--gap", "--eval-samples", "500",
    ])
    assert rc == 0
    assert "mean gap" in capsys.readouterr().out
    assert not list(out.glob("oracle-*.json"))


def test_config_file_flow(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "paper-ex1", "horizon": 40, "seeds": [0],
        "out_dir": str(tmp_path / "o"), "eval_samples": 500,
    }))
    rc = main(["run", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "o" / "summary.csv").exists()


def test_ratefit_synthetic(tmp_path, capsys):
    rc = main([
        "ratefit", "--preset", "quadratic-toy", "--horizons", "100,200,400,800",
        "--seeds", "0:10", "--abc", "0.75,0.5,0.75", "--regime", "constant",
        "--out", str(tmp_path / "ladder"), "--eval-samples", "500",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_ratefit_gaps_of_every_horizon_use_the_same_f_star(tmp_path, monkeypatch):
    f_stars = []
    compute_oracle = harness.compute_oracle

    def recording_compute_oracle(config):
        payload = compute_oracle(config)
        f_stars.append((config.horizon, payload["f_star"]))
        return payload

    monkeypatch.setattr("cscgd.harness.compute_oracle", recording_compute_oracle)
    horizons = (100, 200, 400, 800)
    rc = main([
        "ratefit", "--preset", "constrained-quadratic-toy",
        "--horizons", ",".join(map(str, horizons)),
        "--seeds", "0:10", "--abc", "0.75,0.5,0.75", "--regime", "constant",
        "--out", str(tmp_path / "ladder"), "--eval-samples", "500",
    ])
    assert rc == 0
    f_star = f_stars[0][1]
    assert f_stars == [(T, f_star) for T in horizons]
    for T in horizons:
        with open(tmp_path / "ladder" / f"T{T}" / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["gap"]) for r in rows] == [float(r["f_hat"]) - f_star for r in rows]
    assert not list((tmp_path / "ladder").glob("**/oracle-*.json"))


@pytest.mark.parametrize("extra", [
    ["--horizons", "100,200,400"],
    ["--horizons", "100,200,400,800", "--seeds", "0:9"],
    ["--seeds", "0:9"],
], ids=["three-horizons", "nine-seeds", "default-ladder-nine-seeds"])
def test_ratefit_refuses_a_short_ladder_before_any_solve(tmp_path, monkeypatch, extra):
    def no_run(config):
        raise AssertionError(f"solved horizon {config.horizon}")

    monkeypatch.setattr("cscgd.cli.run_experiment", no_run)
    with pytest.raises(ValueError, match="need at least 4 horizons|seeds, need 10"):
        main(["ratefit", "--preset", "quadratic-toy", "--out", str(tmp_path / "ladder"),
              *extra])
    assert not (tmp_path / "ladder").exists()


def test_ratefit_refuses_a_repeated_horizon_before_any_solve(tmp_path, monkeypatch):
    def no_run(config):
        raise AssertionError(f"solved horizon {config.horizon}")

    monkeypatch.setattr("cscgd.cli.run_experiment", no_run)
    with pytest.raises(ValueError, match="horizon 100 is repeated"):
        main(["ratefit", "--preset", "quadratic-toy", "--out", str(tmp_path / "ladder"),
              "--horizons", "100,100,200,400,800", "--seeds", "0:10"])
    assert not (tmp_path / "ladder").exists()


def test_ratefit_readme_ladder_prints_an_unclipped_slope(tmp_path, capsys):
    # The README example: the constrained toy starts at x1 = 0.525, away from
    # x* = 0.3, so every horizon has a positive gap to fit.
    rc = main(["ratefit", "--preset", "constrained-quadratic-toy",
               "--horizons", "100,200,400,800", "--seeds", "0:10",
               "--out", str(tmp_path / "ladder")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "horizons: [100, 200, 400, 800]"
    assert lines[2] == "slope = -0.1125 (95% CI [-0.1236, -0.1014])"  # not [clipped]


def test_ratefit_paper_ex1_prints_the_fit_of_its_ladder(tmp_path, capsys):
    horizons = [100, 200, 400, 800]
    rc = main([
        "ratefit", "--preset", "paper-ex1", "--horizons", ",".join(map(str, horizons)),
        "--seeds", "0:10", "--out", str(tmp_path / "ladder"), "--eval-samples", "500",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"horizons: {horizons}"
    ladder = {}
    for T in horizons:
        with open(tmp_path / "ladder" / f"T{T}" / "summary.csv", encoding="utf-8") as fh:
            ladder[T] = [abs(float(row["gap"])) for row in csv.DictReader(fh)]
    means = [float(np.mean(ladder[T])) for T in horizons]
    assert lines[1] == f"gap means: {means}"
    assert len(set(means)) == len(means)
    fit = harness.rate_fit(ladder)
    assert lines[2] == (f"slope = {fit.slope:.4f} (95% CI [{fit.ci_low:.4f}, "
                        f"{fit.ci_high:.4f}])" + (" [clipped]" if fit.clipped else ""))


def test_scan_hessian(tmp_path, capsys):
    rc = main(["scan-hessian", "-k", "5", "--grid", "7",
               "--out", str(tmp_path / "scan.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PSD verdict" in out and "True" in out
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "lambda,p,min_eig"
    assert len(lines) == 50


def test_check_command(capsys):
    rc = main(["check", "--presets", "paper-ex1", "--points", "5",
               "--trials", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out

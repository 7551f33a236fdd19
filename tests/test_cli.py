import csv
import json

import numpy as np

from cscgd import harness
from cscgd.cli import main
from cscgd.harness import ExperimentConfig, load_oracle_cache, read_trajectory_csv


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
    assert "F*" in capsys.readouterr().out
    rc = main([
        "run", "--preset", "quadratic-toy", "--seeds", "0:2", "--horizon", "200",
        "--out", str(out), "--gap", "--eval-samples", "500",
    ])
    assert rc == 0
    assert "mean gap" in capsys.readouterr().out


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


def test_ratefit_computes_the_oracle_once_per_ladder(tmp_path, monkeypatch):
    calls = []
    compute_oracle = harness.compute_oracle

    def counting_compute_oracle(config, instance=None):
        calls.append(config.horizon)
        return compute_oracle(config, instance)

    monkeypatch.setattr("cscgd.harness.compute_oracle", counting_compute_oracle)
    horizons = (100, 200, 400, 800)
    rc = main([
        "ratefit", "--preset", "quadratic-toy", "--horizons", ",".join(map(str, horizons)),
        "--seeds", "0:10", "--abc", "0.75,0.5,0.75", "--regime", "constant",
        "--out", str(tmp_path / "ladder"), "--eval-samples", "500",
    ])
    assert rc == 0
    assert calls == [100]
    payloads = [
        load_oracle_cache(ExperimentConfig(preset="quadratic-toy", horizon=T,
                                           out_dir=str(tmp_path / "ladder" / f"T{T}")))
        for T in horizons
    ]
    assert [p["f_star"] for p in payloads] == [0.0] * len(horizons)
    assert all(p == payloads[0] for p in payloads)


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

"""Command-line entry points for experiments and verification.

Subcommands: ``run`` (multi-seed experiment), ``oracle`` (compute the
baseline optimum for a preset), ``ratefit`` (horizon ladder and decay
slope), ``scan-hessian`` (numerical convexity scan), ``check`` (gradient
and invariant suites).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .harness import (
    ExperimentConfig,
    check_ladder,
    compute_oracle,
    rate_fit,
    run_experiment,
    target_names,
)
from .penalty import PenaltyParams
from .problems import PRESETS, get_preset


def _parse_seeds(text: str) -> tuple:
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi)))
    return tuple(int(s) for s in text.split(",") if s)


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
    else:
        values = {"preset": "paper-ex1"}
    # an option's dest is the config field it sets; --seeds is parsed below
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    values.update((name, value) for name, value in vars(args).items()
                  if name in fields and value is not None)
    if args.seeds is not None:
        values["seeds"] = _parse_seeds(args.seeds)
    if args.abc is not None:
        values["a"], values["b"], values["c"] = (float(v) for v in args.abc.split(","))
    return ExperimentConfig.from_dict(values)


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("config", nargs="?", help="experiment config JSON")
    p.add_argument("--preset", help="preset name (see 'run --list')")
    p.add_argument("--seeds", help="'0:50' or comma list")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--abc", help="step exponents 'a,b,c'")
    p.add_argument("--regime", choices=["diminishing", "constant"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--c-ell", dest="c_ell", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--gap", dest="oracle_gap", action="store_const", const=True,
                   help="report the gap to the oracle's F*")
    p.add_argument("--eval-samples", dest="eval_samples", type=int)
    p.add_argument("--log-points", dest="log_points", type=int,
                   help="trajectory rows: every iteration when the horizon "
                        "is at most this (default 1000), else this many "
                        "log-spaced ones; set to the horizon for full logging")


def cmd_run(args) -> int:
    if args.list:
        for name in target_names():
            print(name)
        return 0
    config = _config_from_args(args)
    summaries, curves = run_experiment(config)
    gaps = [s.gap for s in summaries if s.gap is not None]
    print(f"preset={config.preset} seeds={len(summaries)} hash={config.config_hash()}")
    print(f"mean F(x_hat) = {np.mean([s.f_hat for s in summaries]):.6g}")
    print(f"mean max violation = {np.mean([s.max_violation for s in summaries]):.6g}")
    if gaps:
        print(f"mean gap = {np.mean(gaps):.6g}")
    print(f"outputs in {config.out_dir}")
    return 0


def cmd_oracle(args) -> int:
    payload = compute_oracle(_config_from_args(args))
    print(f"{payload['preset']}: F* = {payload['f_star']:.8g} ({payload['method']})")
    return 0


def cmd_ratefit(args) -> int:
    horizons = [int(h) for h in args.horizons.split(",")]
    seeds = _parse_seeds(args.seeds) if args.seeds is not None else tuple(range(10))
    repeated = sorted({T for T in horizons if horizons.count(T) > 1})
    if repeated:  # each would be solved again into the same T<h>/ directory
        raise ValueError(f"horizon {repeated[0]} is repeated in --horizons")
    check_ladder(dict.fromkeys(horizons, seeds))
    base = _config_from_args(args)
    ladder = {}
    for T in horizons:
        cfg = ExperimentConfig.from_dict({
            **base.to_dict(),
            "horizon": T,
            "seeds": list(seeds),
            "out_dir": os.path.join(base.out_dir, f"T{T}"),
            "oracle_gap": True,
        })
        summaries, _ = run_experiment(cfg)
        ladder[T] = [abs(s.gap) for s in summaries]
    fit = rate_fit(ladder)
    print(f"horizons: {sorted(ladder)}")
    print(f"gap means: {[float(np.mean(v)) for _, v in sorted(ladder.items())]}")
    print(f"slope = {fit.slope:.4f} (95% CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}])"
          + (" [clipped]" if fit.clipped else ""))
    return 0


def cmd_scan_hessian(args) -> int:
    from .oracles import hessian_psd_scan, make_delay_utility_surface

    surface = make_delay_utility_surface(antennas=args.antennas)
    lam_axis = np.linspace(0.1, 15.0, args.grid)
    p_axis = np.linspace(14.0, 100.0, args.grid)
    result = hessian_psd_scan(surface, lam_axis, p_axis)
    print(f"K={args.antennas}: global min eigenvalue = {result.global_min:.3e}"
          f" over {args.grid}x{args.grid} grid")
    print(f"PSD verdict (tol -1e-8): {result.is_psd()}")
    if args.out:
        result.write_csv(args.out)
        print(f"heatmap written to {args.out}")
    return 0 if result.is_psd() else 1


def cmd_check(args) -> int:
    from .checks import gradient_suite, penalty_suite, projection_suite

    results = []
    presets = args.presets.split(",") if args.presets else sorted(PRESETS)
    for name in presets:
        inst = get_preset(name)
        results.append(gradient_suite(inst.build(), n_points=args.points))
        results.append(projection_suite(inst.feasible_set(), n_trials=args.trials))
    results.append(penalty_suite(PenaltyParams(gamma=0.1, c_ell=2.0),
                                 n_trials=args.trials))
    ok = True
    for r in results:
        print(r)
        ok = ok and r.passed
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cscgd",
        description="Constrained stochastic compositional gradient descent "
                    "for queuing-system design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a multi-seed experiment")
    _add_run_options(p_run)
    p_run.add_argument("--list", action="store_true", help="list presets and toy targets")
    p_run.set_defaults(fn=cmd_run)

    p_oracle = sub.add_parser("oracle", help="compute a preset's baseline optimum")
    _add_run_options(p_oracle)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_rate = sub.add_parser("ratefit", help="fit the gap decay over a horizon ladder")
    _add_run_options(p_rate)
    p_rate.add_argument("--horizons", default="1000,10000,100000,1000000")
    p_rate.set_defaults(fn=cmd_ratefit)

    p_scan = sub.add_parser("scan-hessian", help="numerical convexity scan")
    p_scan.add_argument("--antennas", "-k", type=int, default=5)
    p_scan.add_argument("--grid", type=int, default=51)
    p_scan.add_argument("--out", help="heatmap CSV path")
    p_scan.set_defaults(fn=cmd_scan_hessian)

    p_check = sub.add_parser("check", help="gradient and invariant suites")
    p_check.add_argument("--presets", help="comma list (default: all)")
    p_check.add_argument("--points", type=int, default=25)
    p_check.add_argument("--trials", type=int, default=2000)
    p_check.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

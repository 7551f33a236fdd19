"""cscgd benchmark: run one workload end to end, or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ex1-fleet --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics, the
tracing overhead and a reconciliation of the layer times against the
untraced per-iteration time.  Each pass runs the workload's fixed
experiment once; passes repeat until ``--seconds`` is spent.  End-to-end
timings are means over the passes, scaled to the host's mean speed during
the run by a fixed calibration kernel timed between passes (see
``calibrate.py``); the raw means are printed beside them.  Set-up time is
the median over fresh interpreters, scaled the same way.

Every pass is checked: each returned point lies in the feasible set, each
F estimate is finite, the trajectory CSVs and curves.csv are byte-identical
across passes (traced and untraced alike), deterministic counters repeat
exactly across traced passes, and the workload's design-quality guards
hold.  The output digest is printed beside the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passes, 1 when one fails, and 2 when the checkout holds no
cscgd source under ``src/``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import calibrate  # noqa: E402
from spans import SOLVER_SPANS  # noqa: E402
from workloads import WORKLOADS, Rep  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "seed_iters_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-call span times measured on every workload.
PER_CALL_SPANS = (
    "sets.project",
    "distributions.sample",
    "problems.inner_g",
    "problems.inner_g_jacobian",
    "problems.outer_f",
    "problems.outer_f_gradient",
    "problems.outer_q",
    "penalty.penalty_gradient",
    "distributions.sample.eval",
    "problems.inner_g.eval",
)

# Per-call span times of maps some workload never calls: the wired design
# aliases inner_h to inner_g, and the Jacobians of the constraint path run
# only while the penalty is active.  They are reported, and recorded in the
# results file, but are not contract metrics: a zero-call time has no value.
REPORT_ONLY_SPANS = (
    "problems.inner_h",
    "problems.inner_h_jacobian",
    "problems.outer_q_jacobian",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this fresh process and exit")
    return p.parse_args(argv)


def import_cscgd() -> str | None:
    """Import cscgd from this checkout's src/; an error message on failure."""
    if not os.path.isfile(os.path.join(SRC, "cscgd", "__init__.py")):
        return f"no cscgd source under {SRC}"
    sys.path.insert(0, SRC)
    # Same filter as the test suite: the wired preset knowingly relies on
    # its denominator safeguard.
    warnings.filterwarnings(
        "ignore", message=r"lambda_max \* max_length exceeds", category=UserWarning)
    import cscgd

    if os.path.dirname(os.path.abspath(cscgd.__file__)) != os.path.join(SRC, "cscgd"):
        return f"cscgd imported from {cscgd.__file__}, not from {SRC}"
    return None


def setup_probe(args) -> int:
    out_dir = os.path.join(RUNS, f"probe-{os.getpid()}")
    try:
        WORKLOADS[args.workload](args.seed, out_dir).setup()
        elapsed = perf_counter() - T_START
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def probe_setup_times(args) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(workload, seconds: float, traced: bool):
    """(untraced passes, traced passes, calibration kernel times).

    Untraced passes are interleaved with traced ones when ``traced``; the
    calibration kernel runs after each round.  Stops before a round would
    overrun ``seconds``, after at least two passes of each kind that is
    measured.
    """
    plain, spans, cal_times = [], [], []
    t0 = perf_counter()
    while True:
        plain.append(Rep(workload, traced=False))
        if traced:
            spans.append(Rep(workload, traced=True))
        calibrate.sample(cal_times)
        elapsed = perf_counter() - t0
        rounds = len(plain)
        if rounds >= 2 and elapsed * (rounds + 1) / rounds > seconds:
            return plain, spans, cal_times


def raw_timings(plain, setup_times) -> dict:
    """Timings of the untraced passes, in host seconds.

    Pass times are means (totals over the run), like the calibration kernel
    they are scaled by; set-up time is the median of the probes.
    """
    n = len(plain)
    return {
        "wall_s": sum(r.wall_s for r in plain) / n,
        "setup_s": statistics.median(setup_times),
        "seed_iters_per_s": sum(r.seed_iters for r in plain) / sum(r.solve_s for r in plain),
        "eval_samples_per_s": (sum(r.eval_samples for r in plain)
                               / sum(sum(r.eval_times) for r in plain)),
    }


def end_to_end_metrics(raw: dict, speed: float) -> dict:
    """Contract metrics: raw timings in reference seconds, plus peak RSS.

    ``speed`` is the host's speed during the run relative to the reference
    (``calibrate.REFERENCE_S`` over the mean kernel time): a time scales by
    it, a rate by its inverse.
    """
    out = {}
    for name, value in raw.items():
        out[name] = value / speed if name.endswith("_per_s") else value * speed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def layer_timings(rep) -> dict:
    """Per-layer times of one traced pass; ``None`` where a span never ran."""
    tr = rep.tracer
    out = {"solver.self_us_per_iter": 1e6 * tr.self_time("solver.run") / rep.seed_iters}
    for name in PER_CALL_SPANS + REPORT_ONLY_SPANS:
        out[f"{name}_us"] = tr.per_call_us(name)
    out["harness.eval_self_us_per_sample"] = (
        1e6 * tr.self_time("harness.evaluate_point") / rep.eval_samples)
    out["harness.write_trajectory_csv_s"] = tr.total["harness.write_trajectory_csv"]
    out["harness.aggregate_s"] = tr.total["harness.aggregate"]
    return out


def layer_counters(rep) -> dict:
    """Deterministic per-layer counts of one traced pass."""
    tr = rep.tracer
    out = {f"{name}_calls_per_iter": tr.calls[name] / rep.seed_iters
           for name in SOLVER_SPANS}
    out["sets.binding_frac"] = (tr.counters["sets.project.binding"]
                                / tr.calls["sets.project"])
    out["penalty.active_frac"] = (tr.counters["penalty.penalty_gradient.active"]
                                  / rep.seed_iters)
    return out


def per_layer_metrics(workload, plain, spans):
    """(contract metrics, report-only values, reconciliation line, counters).

    Every time comes from the fastest traced pass, so the layer shares of
    one pass add up; it is set against the fastest untraced pass.
    """
    best = min(spans, key=lambda r: r.wall_s)
    fastest = min(plain, key=lambda r: r.wall_s)
    timings = layer_timings(best)
    counters = layer_counters(best)
    overhead = best.wall_s / fastest.wall_s - 1.0

    metrics = {}
    for key, value in timings.items():
        if key.removesuffix("_us") not in REPORT_ONLY_SPANS:
            metrics[key] = (value, "s" if key.endswith("_s") else "us")
    for key, value in counters.items():
        metrics[key] = (value, "1/iter" if key.endswith("_per_iter") else "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    report_only = {f"{n}_us": (timings[f"{n}_us"], "us") for n in REPORT_ONLY_SPANS}
    report_only["oracles.baseline_s"] = (workload.oracle_s, "s")

    # Shares add up: solver.run self time plus its child spans is the traced
    # solve time; set it against the untraced 1 / seed_iters_per_s.
    layers_us = 1e6 * best.tracer.total["solver.run"] / best.seed_iters
    self_us = timings["solver.self_us_per_iter"]
    untraced_us = 1e6 * fastest.solve_s / fastest.seed_iters
    excess = layers_us / untraced_us - 1.0
    within = abs(excess) <= max(overhead, 0.0)
    reconcile = (
        f"reconcile {workload.name}: layers {layers_us:.3f} us/iter "
        f"(solver self {self_us:.3f} + spans {layers_us - self_us:.3f}) vs untraced "
        f"{untraced_us:.3f} us/iter: excess {excess:+.4f}, trace.overhead_frac "
        f"{overhead:+.4f} -> {'within' if within else 'outside'}"
    )
    return metrics, report_only, reconcile, counters


def git_sha():
    """HEAD of the checkout's git metadata, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(base_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "base_seed": base_seed,
    }


def check(workload, plain, spans):
    """(attempted, failed, problems) over every pass of the run."""
    ref = plain[0]
    attempted, failed, problems = 0, 0, []
    for i, rep in enumerate(plain + spans):
        kind = "untraced" if i < len(plain) else "traced"
        bad = rep.bad_seeds | rep.mismatched_seeds(ref)
        attempted += len(rep.seed_files)
        failed += len(bad)
        if rep.bad_seeds:
            problems.append(f"{kind} pass: infeasible x_hat or non-finite f_hat "
                            f"for seeds {sorted(rep.bad_seeds)}")
        if rep.digest != ref.digest:
            problems.append(f"{kind} pass: output digest {rep.digest} != {ref.digest}")
        for name, (value, _, ok) in rep.quality.items():
            if not ok:
                problems.append(f"{kind} pass: guard {name} = {value!r} failed")
    counters = [r.tracer.counters for r in spans]
    calls = [r.tracer.calls for r in spans]
    if any(c != counters[0] for c in counters) or any(c != calls[0] for c in calls):
        problems.append("traced passes: deterministic counters differ")
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_cscgd()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    workload = WORKLOADS[args.workload](args.seed, os.path.join(
        RUNS, f"{args.workload}-trace{args.trace}-{os.getpid()}"))
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed)}
    try:
        workload.setup()
        setup_times = [] if args.trace else probe_setup_times(args)
        plain, spans, cal_times = measure(workload, args.seconds, bool(args.trace))
        attempted, failed, problems = check(workload, plain, spans)
        report = {k: (v, unit) for k, (v, unit, _) in plain[0].quality.items()}
        report["failed_frac"] = (failed / attempted, "ratio")
        cal_s = statistics.mean(cal_times)
        report["host.calibration_s"] = (cal_s, "s")
        reconcile = None
        if args.trace:
            metrics, report_only, reconcile, counters = per_layer_metrics(
                workload, plain, spans)
            report.update(report_only)
            record["counters"] = counters
        else:
            raw = raw_timings(plain, setup_times)
            report.update({f"raw.{k}": (v, END_TO_END[k]) for k, v in raw.items()})
            metrics = {k: (v, END_TO_END[k]) for k, v in
                       end_to_end_metrics(raw, calibrate.REFERENCE_S / cal_s).items()}
        result = {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record.update(
            passes={"untraced": len(plain), "traced": len(spans)},
            setup_probes_s=setup_times, calibration_s=cal_times, report=report, reconcile=reconcile,
            digest=plain[0].digest, files=plain[0].files, problems=problems)

        print(f"workload {args.workload}  base_seed {args.seed}  trace {args.trace}  "
              f"passes {len(plain)} untraced + {len(spans)} traced")
        print("env " + json.dumps(record["env"], sort_keys=True))
        for name, (value, unit) in list(metrics.items()) + list(report.items()):
            print(f"  {name} = " + ("n/a (never called)" if value is None
                                    else f"{value!r} {unit}"))
        if reconcile:
            print(reconcile)
        print(f"digest {plain[0].digest}  (sha256 over {len(plain[0].files)} output "
              "files: trajectory CSVs and curves.csv)")
        for p in problems:
            print(f"CHECK FAILED: {p}")
    except Exception:
        traceback.print_exc()
        record["problems"] = [traceback.format_exc()]
    finally:
        shutil.rmtree(workload.out_dir, ignore_errors=True)
    record["result"] = result
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    path = os.path.join(RUNS, "results",
                        f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

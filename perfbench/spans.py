"""Outside-in span tracing of the cscgd layers.

Spans are recorded around calls into each layer's public functions by
wrapping them from here; no program code is edited.  Spans nest strictly
(one thread, one process), so each is aggregated in memory by name: call
count, total time and the part of that time covered by child spans.  A
span's self time is its total minus its child time.

Calls made while ``harness.evaluate_point`` is active carry an ``.eval``
infix (``problems.inner_g.eval``), so evaluation work is never added into
the solver's numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Problem-bundle fields in wrapping order: a field that aliases an earlier
# one (``inner_h is inner_g`` on the wired design) reuses its wrapper, so
# the solver still takes its aliased path and the trace measures the same
# work as the untraced run.
PROBLEM_MAPS = (
    ("sample", "distributions.sample"),
    ("inner_g", "problems.inner_g"),
    ("inner_g_jacobian", "problems.inner_g_jacobian"),
    ("inner_h", "problems.inner_h"),
    ("inner_h_jacobian", "problems.inner_h_jacobian"),
    ("outer_f", "problems.outer_f"),
    ("outer_f_gradient", "problems.outer_f_gradient"),
    ("outer_q", "problems.outer_q"),
    ("outer_q_jacobian", "problems.outer_q_jacobian"),
)

# Solver-side spans, in the order the report lists them.
SOLVER_SPANS = tuple(name for _, name in PROBLEM_MAPS) + (
    "penalty.penalty_gradient",
    "sets.project",
)

EVAL_SPAN = "harness.evaluate_point"


class Tracer:
    """Aggregated spans plus deterministic event counters."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counters = Counter()
        self.durations = defaultdict(list)  # per call, for spans wrapped with keep
        self._stack = [0.0]  # child-time accumulator of each open span
        self._in_eval = 0

    def wrap(self, name: str, fn, observe=None, enters_eval: bool = False,
             keep: bool = False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(key, args, result)`` runs after the span closes; its cost
        is charged to neither the span nor its parent's self time.  With
        ``keep`` every call's duration is kept in ``durations``.
        """
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            key = name + ".eval" if tracer._in_eval else name
            stack.append(0.0)
            if enters_eval:
                tracer._in_eval += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if enters_eval:
                    tracer._in_eval -= 1
                child = stack.pop()
            if observe is not None:
                observe(key, args, out)
            tracer.calls[key] += 1
            tracer.total[key] += t1 - t0
            tracer.child[key] += child
            if keep:
                tracer.durations[key].append(t1 - t0)
            stack[-1] += perf_counter() - t0
            return out

        return traced

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def per_call_us(self, name: str) -> float | None:
        n = self.calls[name]
        return 1e6 * self.total[name] / n if n else None


class TracedSet:
    """Feasible-set proxy whose ``project`` is a span.

    Forwards ``dim``, ``midpoint`` and ``contains``.  Counts projections
    whose output differs from the plain box clip (the budget binds).
    """

    def __init__(self, tracer: Tracer, inner):
        self._inner = inner
        self.dim = inner.dim
        lower, upper = box_bounds(inner)

        def binding(key, args, out):
            if not np.array_equal(out, np.clip(args[0], lower, upper)):
                tracer.counters[key + ".binding"] += 1

        self.project = tracer.wrap("sets.project", inner.project, observe=binding)

    def midpoint(self):
        return self._inner.midpoint()

    def contains(self, v, *args, **kwargs):
        return self._inner.contains(v, *args, **kwargs)


def box_bounds(feasible_set):
    """Enclosing box (lower, upper) of a cscgd feasible set."""
    blocks = getattr(feasible_set, "blocks", None)
    if blocks is not None:
        parts = [box_bounds(b) for b in blocks]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    return feasible_set.lower, feasible_set.upper


def traced_problem(tracer: Tracer, problem):
    """Copy of a problem bundle whose maps and projection are spans."""
    wrappers = {}
    fields = {}
    for attr, name in PROBLEM_MAPS:
        fn = getattr(problem, attr)
        if fn is None:
            continue
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(name, fn)
        fields[attr] = wrappers[fn]
    fields["feasible_set"] = TracedSet(tracer, problem.feasible_set)
    return dataclasses.replace(problem, **fields)


@contextlib.contextmanager
def installed(tracer: Tracer, full: bool):
    """Patch the harness and solver globals for the duration of the block.

    With ``full=False`` only ``harness.evaluate_point`` is wrapped, which is
    one span per seed and cheap enough for the untraced measurement.  Its
    per-call durations are kept.
    """
    from cscgd import harness, solver

    def active(key, args, out):
        if np.any(out != 0.0):
            tracer.counters[key + ".active"] += 1

    def resolve_problem(config, _orig=harness.resolve_problem):
        problem, c_ell = _orig(config)
        return traced_problem(tracer, problem), c_ell

    def samples(key, args, out):
        tracer.counters[key + ".samples"] += out["n_samples"]

    patches = [(harness, "evaluate_point",
                tracer.wrap(EVAL_SPAN, harness.evaluate_point, observe=samples,
                            enters_eval=True, keep=True))]
    if full:
        patches += [
            (harness, "resolve_problem", resolve_problem),
            (harness, "run", tracer.wrap("solver.run", harness.run)),
            (harness, "write_trajectory_csv",
             tracer.wrap("harness.write_trajectory_csv", harness.write_trajectory_csv)),
            (harness, "aggregate_curves",
             tracer.wrap("harness.aggregate", harness.aggregate_curves)),
            (solver, "penalty_gradient",
             tracer.wrap("penalty.penalty_gradient", solver.penalty_gradient,
                         observe=active)),
        ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)

"""Constrained stochastic compositional gradient descent for queuing design.

Minimizes f(E[g(x, zeta)]) subject to q(E[h(x, zeta)]) <= 0 from sequential
samples of zeta, tracking the inner expectations explicitly and steering
feasibility through a saturated quadratic penalty.  Ships the queuing-system
design instances, independent verification oracles, and an experiment
harness with a small CLI.
"""

from .distributions import (
    ConstantVec,
    ExponentialMean,
    TruncatedChiSquared,
    TruncatedExponential,
    make_rng,
    monte_carlo_mean,
)
from .penalty import PenaltyParams, penalty_gradient, penalty_value
from .problem import CompositionalProblem
from .schedule import CONSTANT, DIMINISHING, StepSchedule
from .sets import (
    Box,
    BoxWithLinearInequalities,
    BoxWithSumCap,
    FeasibleSetError,
    ProductSet,
)
from .solver import (
    NonFiniteGradientError,
    SolverConfig,
    SolverState,
    cscgd_step,
    draw_zeta,
    init_state,
    run,
    seed_streams,
    step_bound_diagnostic,
    zero_violation_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BoxWithLinearInequalities",
    "BoxWithSumCap",
    "CONSTANT",
    "CompositionalProblem",
    "ConstantVec",
    "DIMINISHING",
    "ExponentialMean",
    "FeasibleSetError",
    "NonFiniteGradientError",
    "PenaltyParams",
    "ProductSet",
    "SolverConfig",
    "SolverState",
    "StepSchedule",
    "TruncatedChiSquared",
    "TruncatedExponential",
    "cscgd_step",
    "draw_zeta",
    "init_state",
    "make_rng",
    "monte_carlo_mean",
    "penalty_gradient",
    "penalty_value",
    "run",
    "seed_streams",
    "step_bound_diagnostic",
    "zero_violation_gamma",
]

"""Desk-scale simulator for annealer-style iterative solvers of a*x = b.

The package models the output of an annealing device as a Boltzmann sampler,
encodes the squared residual as a QUBO over fixed-point registers, runs
adaptive bit-shift refinement loops driven by normal, truncated-normal, or
exact finite-register correction laws, and evaluates the convergence-rate
functionals that certify almost-sure convergence.
"""

from .dist import DiscreteDist, boltzmann_dist, quantile, std_normal_quantile
from .encoding import (
    BitRange,
    SupportKind,
    SupportSpec,
    SupportTooLargeError,
    decode,
    enumerate_patterns,
    enumerate_support,
)
from .experiments import (
    EULER_GAMMA,
    LOG_ABS_NORMAL_MEAN,
    LimitCheckRow,
    McOutcome,
    McSummary,
    ks_discrete_vs_continuous,
    limit_check,
    log_abs_normal_mean_check,
    mc_convergence,
)
from .qubo import QuboProblem, build_qubo, exhaustive_deviation, export_qubo, import_qubo
from .rate import E_func, E_max, RatePoint, r_func, rate_curve, rate_points_to_csv
from .sampler import (
    PRESETS,
    BoltzmannModel,
    CorrectionModel,
    NormalModel,
    TruncNormalModel,
    model_id,
    preset,
    q_value,
)
from .solver import (
    DegenerateProblemError,
    IterationTrace,
    ProblemInstance,
    normalize,
    replay_errors,
    residual_exponent,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BitRange",
    "BoltzmannModel",
    "CorrectionModel",
    "DegenerateProblemError",
    "DiscreteDist",
    "E_func",
    "E_max",
    "EULER_GAMMA",
    "IterationTrace",
    "LOG_ABS_NORMAL_MEAN",
    "LimitCheckRow",
    "McOutcome",
    "McSummary",
    "NormalModel",
    "PRESETS",
    "ProblemInstance",
    "QuboProblem",
    "RatePoint",
    "SupportKind",
    "SupportSpec",
    "SupportTooLargeError",
    "TruncNormalModel",
    "boltzmann_dist",
    "build_qubo",
    "decode",
    "enumerate_patterns",
    "enumerate_support",
    "exhaustive_deviation",
    "export_qubo",
    "import_qubo",
    "ks_discrete_vs_continuous",
    "limit_check",
    "log_abs_normal_mean_check",
    "mc_convergence",
    "model_id",
    "normalize",
    "preset",
    "q_value",
    "quantile",
    "r_func",
    "rate_curve",
    "rate_points_to_csv",
    "replay_errors",
    "residual_exponent",
    "solve",
    "std_normal_quantile",
]

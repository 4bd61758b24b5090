"""Partition identification in single-parameter exponential family bandits:
allocation lower bounds, a matching track-and-stop procedure, and a
reproducible Monte Carlo harness."""

from ._version import __version__
from .errors import (ConfigError, DegenerateInstance, DomainError,
                     InfeasibleAlternative, NumericalError, PartidError,
                     UnsupportedCase)
from .spef import (Direction, Family, SpefModel, bernoulli, clamp_to_interior,
                   gaussian, kl, kl_array, kl_dnu, kl_dnu_inverse,
                   kl_dnu_range, kl_inverse, kl_inverse_capped, mean_domain,
                   poisson, sample)
from .partitions import (ConvexSublevel, HalfSpace, Side, Threshold,
                         UnionHalfSpaces, ball, classify, dimension,
                         distance_to_halfspace, ellipsoid, from_dict, to_dict)
from .lb_solvers import (InnerSolution, LowerBoundSolution, inner_inf, solve,
                         solve_convex, solve_halfspace, solve_threshold,
                         solve_two_arm_gaussian, solve_union_halfspaces)
from .reference_oracle import GridSpec, brute_force_inner, brute_force_lb
from .track_stop import RunResult, StoppingConfig, beta_threshold, run
from .config import ExperimentConfig, RiskDemoConfig, parse_config
from .experiments import (ExperimentReport, RiskReport, risk_demo,
                          run_experiment, run_single, write_rows_csv,
                          write_summary_json)

__all__ = [
    "__version__",
    "PartidError", "DomainError", "DegenerateInstance",
    "InfeasibleAlternative", "UnsupportedCase", "NumericalError",
    "ConfigError",
    "Family", "Direction", "SpefModel", "gaussian", "bernoulli", "poisson",
    "mean_domain", "kl", "kl_array", "kl_dnu", "kl_dnu_range", "kl_inverse",
    "kl_inverse_capped", "kl_dnu_inverse", "clamp_to_interior", "sample",
    "Side", "Threshold", "HalfSpace", "ConvexSublevel", "UnionHalfSpaces",
    "ball", "ellipsoid", "classify", "dimension", "distance_to_halfspace",
    "to_dict", "from_dict",
    "LowerBoundSolution", "InnerSolution", "inner_inf", "solve",
    "solve_threshold", "solve_halfspace", "solve_convex",
    "solve_union_halfspaces", "solve_two_arm_gaussian",
    "GridSpec", "brute_force_lb", "brute_force_inner",
    "StoppingConfig", "RunResult", "beta_threshold", "run",
    "ExperimentConfig", "RiskDemoConfig", "parse_config",
    "ExperimentReport", "RiskReport", "run_experiment", "run_single",
    "risk_demo", "write_rows_csv", "write_summary_json",
]

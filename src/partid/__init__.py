"""Partition identification in single-parameter exponential family bandits:
allocation lower bounds, a matching track-and-stop procedure, and a
reproducible Monte Carlo harness.

``import partid`` loads the modules the solvers and the run loop use:
errors, spef, partitions, lb_solvers, track_stop and experiments. Two
modules load on first access to one of their names instead: the config
parser, partid.config (parse_config, ExperimentConfig, RiskDemoConfig),
and the reference oracle, partid.reference_oracle (GridSpec,
brute_force_lb, brute_force_inner, solve_two_arm_gaussian). The process
pool (concurrent.futures and multiprocessing) loads with the first
campaign or risk demo run on more than one worker.
"""

import importlib

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
                         solve_union_halfspaces)
from .track_stop import (RunResult, StoppingConfig, beta_threshold, run,
                         run_deltas)
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
    "StoppingConfig", "RunResult", "beta_threshold", "run", "run_deltas",
    "ExperimentConfig", "RiskDemoConfig", "parse_config",
    "ExperimentReport", "RiskReport", "run_experiment", "run_single",
    "risk_demo", "write_rows_csv", "write_summary_json",
]

# name -> the submodule that defines it, imported on first access; the two
# submodules resolve to themselves, as they did when the package loaded them
_LAZY = {
    "GridSpec": "reference_oracle", "brute_force_lb": "reference_oracle",
    "brute_force_inner": "reference_oracle",
    "solve_two_arm_gaussian": "reference_oracle",
    "reference_oracle": "reference_oracle",
    "ExperimentConfig": "config", "RiskDemoConfig": "config",
    "parse_config": "config", "config": "config",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

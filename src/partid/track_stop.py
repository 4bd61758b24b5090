"""Sequential track-and-stop runner for partition identification.

One run alternates three ingredients until a generalized likelihood ratio
clears a time-dependent threshold: solve the allocation problem at the
empirical means, track those weights with forced exploration, and test
whether the empirical means are far enough (in weighted divergence) from
the opposite component to commit to a side.

The tracking rule pulls any arm whose count has fallen below
sqrt(t) - K/2 (lowest index first), else the arm maximizing w_hat_i - N_i/t,
where a later arm takes the pull only when its lag exceeds the leader's by
more than TIE_BAND.
This keeps min_i N_i(t) >= (sqrt(t) - K/2)^+ - 1 at all times; the runner
asserts that inequality after every pull and reports violations instead of
hiding them.

Stopping compares the statistic

    Z(t) = inf over the opposite component's closure of
           sum_i N_i(t) * kl_i(mean_hat_i, nu_i)

against beta(t, delta) = log(c_const * t / delta). Z is exactly the count-
weighted inner infimum from lb_solvers, so its value is t times the unit
allocation cost at N/t. When the empirical means sit on the partition
boundary, or on a component the inner solvers do not cover, Z is taken as
zero: the run keeps sampling rather than stopping on an undefined test.

One loop serves every partition. run_deltas checks the truth, takes the
geometry that lb_solvers.prepare builds (or the one its caller passes)
and asks it one thing per step, geometry.step(means, counts, beta) at
the step's clamped empirical means, which returns the side, Z and the
weights to track, or None for the weights when Z clears beta and the run
stops. The fallbacks above, and uniform weights on a boundary step or
where the allocation fails (tracking then pulls the least-sampled arm),
are the step's own, so the loop has no error handling. A geometry's
step, inner and solution compute only from their arguments and what
prepare fixed, so a campaign (experiments) prepares one geometry for all
its runs and passes it to each.

delta enters only the threshold: a step's side, Z and weights do not
depend on beta, and Z clearing beta at a smaller delta means it clears
it at every larger one. So on one generator the run at a larger delta is
a prefix of the run at a smaller one, and run_deltas walks one path for
a set of deltas: it steps under the largest delta not yet crossed, and
at that delta's crossing records its result and steps again, at the same
t, under the next delta's beta. Each result equals run at its delta
alone on a generator in the same state, and run is run_deltas with one
delta.

The loop runs on Python scalars: the step count is an int, the counts a
list of ints, the reward sums and the clamped means lists of floats, and
the geometry takes those lists and returns its weights as a list, which
the loop only reads (a threshold step shares its one-hot weights across
steps). Each step does work only for the arm that moved: the clamped
means list is built once, from the first pull of each arm, and after
each pull only that arm's mean is recomputed and clamped, each by the
same comparisons against the arm's clamp bounds; sqrt(t) - K/2 and
min(counts) are taken once per pull, for the exploration-floor test,
and the D-tracking of the next step, written out in the loop, reuses
them for its starved-arm test. With K of 2 to a
few dozen, numpy's per-call cost exceeds the arithmetic it would do; a
geometry that needs an array (a solver) converts the means once per
step. A threshold step needs none, nor does a Gaussian half-space step:
its margins are left-to-right sums on the list, and its statistic is
the closed form on the lists, with constants prepared once. Every
hyperplane product is taken that way, so a trajectory does not depend
on the host's BLAS. Rewards come from spef.samplers: with every arm
Gaussian they are the floats of one scalar standard normal per pull,
drawn from numpy in blocks. The result's final counts and means are
returned as numpy arrays. Empirical means are clamped
spef.CLAMP_EPSILON inside every finite domain edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInstance
from .lb_solvers import prepare, require_covered
# unused here: perfbench/test_tracer.py checks a traced pass swaps this site
from .lb_solvers import solve  # noqa: F401
from .partitions import PartitionSpec, Side, classify
from .spef import SpefModel, clamp_bounds, samplers

# D-tracking moves the pull off the leader only for a lag larger by more
# than this, so a solver's rounding in w_hat does not reroute a run
TIE_BAND = 1e-9


@dataclass(frozen=True)
class StoppingConfig:
    """Confidence level and loop bounds for one run."""
    delta: float
    c_const: float = math.e
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not (self.c_const > 0 and math.isfinite(self.c_const)):
            raise ValueError(f"c_const must be positive, got {self.c_const}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class RunResult:
    stop_time: int
    declared: Side
    correct: bool
    glr_at_stop: float
    forced_exploration_violations: int
    truncated: bool
    final_counts: np.ndarray
    final_means: np.ndarray


def beta_threshold(t: int, cfg: StoppingConfig) -> float:
    """Stopping level log(c_const * t / delta)."""
    return math.log(cfg.c_const * t / cfg.delta)


def run(models: Sequence[SpefModel], true_means, spec: PartitionSpec,
        cfg: StoppingConfig, rng: np.random.Generator,
        geometry=None) -> RunResult:
    """Execute one run against the given ground truth: run_deltas with the
    one stopping config cfg.

    Draws from true_means (never shown to the decision logic), stops when
    the statistic clears beta_threshold or max_steps is hit; the latter is
    reported as truncated, never silently dropped.
    """
    return run_deltas(models, true_means, spec, (cfg,), rng, geometry)[0]


def run_deltas(models: Sequence[SpefModel], true_means, spec: PartitionSpec,
               stops: Sequence[StoppingConfig], rng: np.random.Generator,
               geometry=None) -> list[RunResult]:
    """One sample path against the given ground truth, with a result for
    each stopping config in stops, in their order.

    The configs must differ only in delta (ValueError otherwise), and
    each result equals run at its config alone on a generator in the same
    state: the run at a larger delta is a prefix of the path. geometry is lb_solvers.prepare(models, spec), prepared here when not
    given; a campaign prepares it once and passes it to every path. A
    truth on a side that lb_solvers.covers rejects raises UnsupportedCase,
    and max_steps below the number of arms (the first pulls alone would
    exceed it) raises ValueError, both before the first draw. With every
    arm Gaussian the rewards are drawn from rng in blocks (spef.samplers),
    so the path leaves rng past the last draw it used.
    """
    stops = tuple(stops)
    if not stops:
        raise ValueError("no stopping config given")
    first = stops[0]
    if any(s.c_const != first.c_const or s.max_steps != first.max_steps
           for s in stops):
        raise ValueError("stopping configs of one path must differ only "
                         "in delta")
    true_means = np.atleast_1d(np.asarray(true_means, dtype=float))
    k = len(models)
    if true_means.size != k:
        raise ValueError(f"{k} models for {true_means.size} true means")
    if first.max_steps < k:
        raise ValueError(f"max_steps {first.max_steps} is below the {k} "
                         f"initial pulls, one per arm")
    true_side = classify(spec, true_means)
    if true_side is Side.BOUNDARY:
        raise DegenerateInstance("true means lie on the partition boundary")
    require_covered(spec, true_side)
    if geometry is None:
        geometry = prepare(models, spec)
    return _track_and_stop(models, true_means, true_side, geometry, stops,
                           rng)


def _track_and_stop(models: Sequence[SpefModel], true_means: np.ndarray,
                    true_side: Side, geometry,
                    stops: Sequence[StoppingConfig],
                    rng: np.random.Generator) -> list[RunResult]:
    """The run loop every geometry (see lb_solvers.prepare) shares: each
    step is one geometry.step(means, counts, beta), which gives the side,
    the statistic Z and the weights to track, or None for the weights when
    Z clears beta. It steps under the largest delta of stops not yet
    crossed, and at a crossing records that delta's result and steps again
    at the same t under the next one, until the smallest delta's crossing
    or max_steps, where every delta not yet crossed is truncated."""
    k = len(models)
    # clamp_to_interior's interval per arm, unbounded on infinite sides
    bounds = [clamp_bounds(m) for m in models]
    draws = samplers(models, true_means, rng)
    counts, sums, means = [1] * k, [0.0] * k, [0.0] * k
    # built once from one pull per arm; after that each pull refreshes only
    # the pulled arm's entry, by the same comparisons clamp_to_interior
    # makes (a NaN mean passes through both)
    for i in range(k):
        v = sums[i] = sums[i] + draws[i]()
        lo, hi = bounds[i]
        if v < lo:
            v = lo
        elif v > hi:
            v = hi
        means[i] = v
    t, max_steps, half, sqrt = k, stops[0].max_steps, k / 2.0, math.sqrt
    need, least = sqrt(t) - half, 1
    # the largest delta (lowest beta) first; equal deltas keep their order
    order = sorted(range(len(stops)), key=lambda j: stops[j].delta,
                   reverse=True)
    results: list = [None] * len(stops)
    crossed = 0
    # beta_threshold's operations and the tie band, on locals
    log, c_const, delta = math.log, stops[0].c_const, stops[order[0]].delta
    band = TIE_BAND
    step = geometry.step
    violations = 0

    while True:
        side, z, w_hat = step(means, counts, log(c_const * t / delta))
        if w_hat is None:
            results[order[crossed]] = _result(t, side, true_side, z,
                                              violations, False, counts,
                                              means)
            crossed += 1
            if crossed == len(order):
                break
            delta = stops[order[crossed]].delta
            continue
        if t >= max_steps:
            # an exact tie is measure-zero; it is declared A1
            declared = Side.A1 if side is Side.BOUNDARY else side
            for j in order[crossed:]:
                results[j] = _result(t, declared, true_side, z, violations,
                                     True, counts, means)
            break
        # D-tracking: a starved arm, one whose count is below
        # need = sqrt(t) - K/2, goes first (lowest index first; least is
        # min(counts), so one is found); else the arm whose fraction
        # counts[i] / t lags w_hat[i] most, the lowest index keeping the
        # pull against lags within TIE_BAND of its own
        if least < need:
            for arm in range(k):
                if counts[arm] < need:
                    break
        else:
            # top is the leader's lag plus the band
            arm, top = 0, w_hat[0] - counts[0] / t + band
            for i in range(1, k):
                v = w_hat[i] - counts[i] / t
                if v > top:
                    arm, top = i, v + band
        s = sums[arm] = sums[arm] + draws[arm]()
        n = counts[arm] = counts[arm] + 1
        v = s / n
        lo, hi = bounds[arm]
        if v < lo:
            v = lo
        elif v > hi:
            v = hi
        means[arm] = v
        t += 1
        need, least = sqrt(t) - half, min(counts)
        # the floor (sqrt(t) - K/2)^+ - 1, less a rounding slack: with
        # need <= 0 both it and need - 1 are below every count
        if least < need - 1.0 - 1e-9:
            violations += 1

    return results


def _result(t: int, declared: Side, true_side: Side, z, violations: int,
            truncated: bool, counts: list, means: list) -> RunResult:
    """The result at step t, with copies of the counts and means."""
    return RunResult(
        stop_time=t,
        declared=declared,
        correct=declared is true_side,
        glr_at_stop=float(z),
        forced_exploration_violations=violations,
        truncated=truncated,
        final_counts=np.array(counts, dtype=np.int64),
        final_means=np.array(means),
    )

"""Sequential track-and-stop runner for partition identification.

One run alternates three ingredients until a generalized likelihood ratio
clears a time-dependent threshold: solve the allocation problem at the
empirical means, track those weights with forced exploration, and test
whether the empirical means are far enough (in weighted divergence) from
the opposite component to commit to a side.

The tracking rule pulls any arm whose count has fallen below
sqrt(t) - K/2 (lowest index first), else the arm maximizing w_hat_i - N_i/t.
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

One loop serves every partition: it prepares the geometry once per run
(lb_solvers.prepare) and asks it, at each step's clamped empirical means,
for the side, the statistic and the allocation weights. Uniform weights
stand in on a boundary step or where the allocation fails; tracking then
pulls the least-sampled arm.

The loop runs on Python scalars: the step count is an int, the counts a
list of ints, the reward sums and the clamped means lists of floats, and
the geometry takes those lists and returns its weights as a list. Each
step does work only for the arm that moved: the clamped means list is
built once, and after a pull only that arm's mean is recomputed and
clamped; sqrt(t) - K/2 and min(counts) are taken once per pull, for the
exploration-floor test, and the next step's starved-arm test reuses them
(_d_tracking). With K of 2 to a few dozen, numpy's per-call cost exceeds
the arithmetic it would do; a geometry that needs an array (a solver)
converts the means once per step. A Gaussian half-space step needs none:
its two margins are left-to-right sums on the list (partitions.row_dot),
and its statistic is the closed form on the lists, with constants
prepared once per run. Every hyperplane product is taken that way, so a
trajectory does not depend on the host's BLAS. The result's final
counts and means are returned as numpy arrays. Empirical means are
clamped spef.CLAMP_EPSILON inside every finite domain edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInstance, PartidError, UnsupportedCase
from .lb_solvers import prepare, require_covered
# unused here: perfbench/test_tracer.py checks a traced pass swaps this site
from .lb_solvers import solve  # noqa: F401
from .partitions import PartitionSpec, Side, classify
from .spef import SpefModel, clamp_bounds, clamp_to_interior, sampler


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


def _d_tracking(counts, t: int, need: float, least, w_hat) -> int:
    """The D-tracking rule: the arm to pull after t pulls with the given
    per-arm counts and target weights w_hat. A starved arm, one whose count
    is below need = sqrt(t) - K/2, goes first (lowest index first); else the
    arm whose realized fraction counts[i] / t lags w_hat[i] most (lowest
    index on ties). least is min(counts); the run loop passes need and
    least as its exploration-floor test computed them."""
    k = len(counts)
    if least < need:
        for i in range(k):
            if counts[i] < need:
                return i
    arm, lag = 0, w_hat[0] - counts[0] / t
    for i in range(1, k):
        v = w_hat[i] - counts[i] / t
        if v > lag:
            arm, lag = i, v
    return arm


def run(models: Sequence[SpefModel], true_means, spec: PartitionSpec,
        cfg: StoppingConfig, rng: np.random.Generator) -> RunResult:
    """Execute one run against the given ground truth.

    Draws from true_means (never shown to the decision logic), stops when
    the statistic clears beta_threshold or max_steps is hit; the latter is
    reported as truncated, never silently dropped. The geometry is
    prepared once (lb_solvers.prepare), and each step evaluates it at the
    step's clamped empirical means. A truth on a side that
    lb_solvers.covers rejects raises UnsupportedCase, and max_steps below
    the number of arms (the first pulls alone would exceed it) raises
    ValueError, both before the first draw.
    """
    true_means = np.atleast_1d(np.asarray(true_means, dtype=float))
    k = len(models)
    if true_means.size != k:
        raise ValueError(f"{k} models for {true_means.size} true means")
    if cfg.max_steps < k:
        raise ValueError(f"max_steps {cfg.max_steps} is below the {k} "
                         f"initial pulls, one per arm")
    true_side = classify(spec, true_means)
    if true_side is Side.BOUNDARY:
        raise DegenerateInstance("true means lie on the partition boundary")
    require_covered(spec, true_side)
    geometry = prepare(models, spec)
    return _track_and_stop(models, true_means, true_side, geometry, cfg, rng)


def _track_and_stop(models: Sequence[SpefModel], true_means: np.ndarray,
                    true_side: Side, geometry, cfg: StoppingConfig,
                    rng: np.random.Generator) -> RunResult:
    """The run loop every geometry (see lb_solvers.prepare) shares. Z is 0
    where the statistic raises DegenerateInstance or UnsupportedCase, and
    w_hat is uniform on a boundary step or where weights raises any
    PartidError."""
    k = len(models)
    # clamp_to_interior's interval per arm, unbounded on infinite sides
    bounds = [clamp_bounds(m) for m in models]
    draws = [sampler(m, float(x), rng, arm=i)
             for i, (m, x) in enumerate(zip(models, true_means))]
    counts, sums = [1] * k, [0.0] * k
    for i in range(k):
        sums[i] += draws[i]()
    # built once; after each pull only the pulled arm's entry is refreshed,
    # by the comparisons clamp_to_interior makes
    means = [clamp_to_interior(m, s / n)
             for m, s, n in zip(models, sums, counts)]
    t, max_steps, half, sqrt = k, cfg.max_steps, k / 2.0, math.sqrt
    need, least = sqrt(t) - half, 1
    uniform = [1.0 / k] * k
    boundary = Side.BOUNDARY
    side_of, statistic, weights = \
        geometry.side, geometry.statistic, geometry.weights
    violations = 0
    truncated = False

    while True:
        side = side_of(means)
        z = 0.0
        if side is not boundary:
            try:
                z = statistic(means, counts, side)
            except (DegenerateInstance, UnsupportedCase):
                pass
            if z >= beta_threshold(t, cfg):
                declared = side
                break
        if t >= max_steps:
            truncated = True
            # an exact tie is measure-zero; it is declared A1
            declared = Side.A1 if side is boundary else side
            break

        w_hat = uniform
        if side is not boundary:
            try:
                w_hat = weights(means, side)
            except PartidError:
                pass
        arm = _d_tracking(counts, t, need, least, w_hat)
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
        if least < max(0.0, need) - 1.0 - 1e-9:
            violations += 1

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

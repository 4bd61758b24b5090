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

One loop serves every partition and asks a per-geometry step kernel for
statistic(means, counts) -> (side, Z) and allocation(means, side) -> w_hat.
The threshold kernel evaluates closed forms. The solver kernel calls
classify, inner_inf and solve, except on a half-space: there it prepares
the geometry once per run (lb_solvers.PreparedHalfSpace) and each step
evaluates the same side test, inner infimum and saddle weights on it,
with the same trajectory. On a threshold partition both kernels give the
same trajectory from the same seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInstance, PartidError, UnsupportedCase
from .lb_solvers import (DEFAULT_SETTINGS, PreparedHalfSpace, SolverSettings,
                         check_threshold_level, inner_inf, require_covered,
                         solve)
from .partitions import (TOL_CLASS, HalfSpace, PartitionSpec, Side, Threshold,
                         classify)
from .spef import (DEFAULT_CLAMP, FAMILIES, ClampPolicy, SpefModel,
                   clamp_bounds, clamp_to_interior, sampler)


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


@dataclass
class RunState:
    """Mutable per-run statistics: total pulls, per-arm counts, reward sums.
    The run loop keeps one per run and updates it in place."""
    t: int
    counts: np.ndarray
    sums: np.ndarray

    def means(self, models: Sequence[SpefModel],
              clamp: ClampPolicy = DEFAULT_CLAMP) -> np.ndarray:
        raw = self.sums / np.maximum(self.counts, 1)
        return np.array([clamp_to_interior(m, x, clamp)
                         for m, x in zip(models, raw)])


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


def d_tracking_next(state: RunState, w_hat) -> int:
    """Arm to pull: a starved arm (count below sqrt(t) - K/2, lowest index
    first) if any, else the arm whose realized fraction lags w_hat most."""
    k = state.counts.size
    need = math.sqrt(state.t) - k / 2.0
    starved = np.nonzero(state.counts < need)[0]
    if starved.size:
        return int(starved[0])
    return int(np.argmax(np.asarray(w_hat) - state.counts / state.t))


def _glr(models, means, counts, spec) -> float:
    try:
        return inner_inf(models, means, counts.astype(float), spec).value
    except (DegenerateInstance, UnsupportedCase):
        return 0.0


def glr_statistic(models: Sequence[SpefModel], state: RunState,
                  spec: PartitionSpec,
                  clamp: ClampPolicy = DEFAULT_CLAMP) -> float:
    """Count-weighted divergence from the empirical means to the closure of
    the opposite component; zero whenever that test is undefined."""
    return _glr(models, state.means(models, clamp), state.counts, spec)


class _SolverKernel:
    """Solver-backed step kernel, which run() uses for every geometry but
    the threshold. An undefined statistic counts as zero and a failed solve
    as uniform weights, under which tracking pulls the least-sampled arm;
    so does a step whose means sit on the boundary. A half-space is
    prepared once per run (lb_solvers.PreparedHalfSpace): each step then
    tests the side, checks the means and evaluates the inner infimum and
    the saddle weights on the prepared rows, which with Gaussian arms are
    fixed. Other geometries call classify, inner_inf and solve each step."""

    def __init__(self, models: Sequence[SpefModel], spec: PartitionSpec,
                 settings: SolverSettings, true_side: Side):
        require_covered(spec, true_side)
        self.models = models
        self.spec = spec
        self.settings = settings
        self.uniform = np.full(len(models), 1.0 / len(models))
        self.halfspace = (PreparedHalfSpace(models, spec.a, spec.b)
                          if isinstance(spec, HalfSpace) else None)

    def statistic(self, means, counts):
        hs = self.halfspace
        if hs is None:
            side = classify(self.spec, means)
            if side is Side.BOUNDARY:
                return side, 0.0
            return side, _glr(self.models, means, counts, self.spec)
        side = hs.side(means)
        if side is Side.BOUNDARY:
            return side, 0.0
        hs.check_means(means)
        try:
            return side, hs.inner(means, counts.astype(float), side)[0]
        except (DegenerateInstance, UnsupportedCase):
            return side, 0.0

    def allocation(self, means, side):
        if side is Side.BOUNDARY:
            return self.uniform
        try:
            if self.halfspace is not None:
                w_hat = self.halfspace.weights(means, self.settings)
            else:
                w_hat = solve(self.models, means, self.spec,
                              self.settings).w_star
        except PartidError:
            return self.uniform
        return w_hat if np.isfinite(w_hat).all() else self.uniform


class _ThresholdKernel:
    """Step kernel for Threshold(u): the closed-form threshold branches of
    inner_inf and solve_threshold, the same expressions in the same order,
    without the solver plumbing that would dominate nested simulations.
    statistic keeps the divergences to the level that it evaluates, and
    allocation, which the loop calls next at the same means, reads those
    back instead of evaluating them again."""

    def __init__(self, models: Sequence[SpefModel], spec: Threshold):
        check_threshold_level(models, spec.u)
        self.u = spec.u
        self.k = len(models)
        self.uniform = np.full(self.k, 1.0 / self.k)
        # gap[i](x, u): unchecked kl of arm i from mean x to the level
        self.gap = [functools.partial(FAMILIES[m.family].kl, m)
                    for m in models]
        self.gaps = [0.0] * self.k

    def statistic(self, means, counts):
        u, gap, gaps = self.u, self.gap, self.gaps
        margin = float(np.max(means)) - u
        if abs(margin) <= TOL_CLASS:
            return Side.BOUNDARY, 0.0
        if margin > 0:
            z = 0.0
            for i in range(self.k):
                v = means[i]
                if v > u:
                    g = gaps[i] = gap[i](v, u)
                    z += float(counts[i]) * g
            return Side.A1, z
        z = math.inf
        for i in range(self.k):
            g = gaps[i] = gap[i](means[i], u)
            c = float(counts[i]) * g
            if c < z:
                z = c
        return Side.A2, z

    def allocation(self, means, side):
        u, gaps = self.u, self.gaps
        if side is Side.BOUNDARY:
            return self.uniform
        if side is Side.A1:
            jstar = -1
            best = 0.0
            for i in range(self.k):
                if means[i] > u:
                    g = gaps[i]
                    if g > best:
                        best = g
                        jstar = i
            if jstar < 0:       # every above-level divergence underflowed
                return self.uniform
            w_hat = np.zeros(self.k)
            w_hat[jstar] = 1.0
            return w_hat
        gaps = np.array(gaps)
        if np.any(gaps <= 0.0):     # a mean pinned at the level
            return self.uniform
        inv = 1.0 / gaps
        w_hat = inv / float(inv.sum())
        return w_hat if np.all(np.isfinite(w_hat)) else self.uniform


def run(models: Sequence[SpefModel], true_means, spec: PartitionSpec,
        cfg: StoppingConfig, rng: np.random.Generator,
        settings: SolverSettings = DEFAULT_SETTINGS,
        clamp: ClampPolicy = DEFAULT_CLAMP) -> RunResult:
    """Execute one run against the given ground truth.

    Draws from true_means (never shown to the decision logic), stops when
    the statistic clears beta_threshold or max_steps is hit; the latter is
    reported as truncated, never silently dropped. Threshold partitions
    get the closed-form kernel, every other geometry the solver kernel,
    which solves the allocation afresh at each step's clamped empirical
    means. A truth on a side that lb_solvers.covers rejects raises
    UnsupportedCase before the first draw.
    """
    true_means = np.atleast_1d(np.asarray(true_means, dtype=float))
    k = len(models)
    if true_means.size != k:
        raise ValueError(f"{k} models for {true_means.size} true means")
    true_side = classify(spec, true_means)
    if true_side is Side.BOUNDARY:
        raise DegenerateInstance("true means lie on the partition boundary")
    if isinstance(spec, Threshold):
        kernel = _ThresholdKernel(models, spec)
    else:
        kernel = _SolverKernel(models, spec, settings, true_side)
    return _track_and_stop(models, true_means, true_side, kernel, cfg, rng,
                           clamp)


def _track_and_stop(models: Sequence[SpefModel], true_means: np.ndarray,
                    true_side: Side, kernel, cfg: StoppingConfig,
                    rng: np.random.Generator, clamp: ClampPolicy) -> RunResult:
    """The run loop every geometry shares; the kernel supplies each step."""
    k = len(models)
    # clamp_to_interior's bounds, for the arms with a finite domain edge
    bounds = [(i, lo, hi) for i, (lo, hi) in
              enumerate(clamp_bounds(m, clamp) for m in models)
              if math.isfinite(lo) or math.isfinite(hi)]
    draws = [sampler(m, float(x), rng, arm=i)
             for i, (m, x) in enumerate(zip(models, true_means))]
    state = RunState(t=k, counts=np.zeros(k, dtype=np.int64),
                     sums=np.zeros(k))
    counts, sums = state.counts, state.sums
    for i in range(k):
        sums[i] += draws[i]()
        counts[i] += 1
    violations = 0
    truncated = False

    while True:
        means = sums / counts
        for i, lo, hi in bounds:
            v = means[i]
            if v < lo:
                means[i] = lo
            elif v > hi:
                means[i] = hi
        side, z = kernel.statistic(means, counts)
        if side is not Side.BOUNDARY and z >= beta_threshold(state.t, cfg):
            declared = side
            break
        if state.t >= cfg.max_steps:
            truncated = True
            # an exact tie is measure-zero; it is declared A1
            declared = Side.A1 if side is Side.BOUNDARY else side
            break

        arm = d_tracking_next(state, kernel.allocation(means, side))
        sums[arm] += draws[arm]()
        counts[arm] += 1
        state.t += 1
        floor = max(0.0, math.sqrt(state.t) - k / 2.0) - 1.0
        if counts.min() < floor - 1e-9:
            violations += 1

    return RunResult(
        stop_time=state.t,
        declared=declared,
        correct=declared is true_side,
        glr_at_stop=float(z),
        forced_exploration_violations=violations,
        truncated=truncated,
        final_counts=counts.copy(),
        final_means=means,
    )

"""Run loop: stopping rule, tracking rule, and the prepared geometries.

The run loop takes each geometry from lb_solvers.prepare. Every prepared
geometry must give, bit for bit, the trajectory of the same loop driven by
this file's own reference, which calls the public classify, inner_inf and
solve at every step; the parity suites here are what license the closed
forms and prepared rows for the nested-simulation sweeps. The loop itself
is checked against a plain loop written here, which recomputes every mean
each step. Pinned trajectories guard the half-space runs and the threshold
runs with many arms or with means that cross the level.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from partid import lb_solvers, partitions
from partid.cli import main
from partid.config import parse_config
from partid.errors import (DegenerateInstance, DomainError,
                           InfeasibleAlternative, NumericalError,
                           PartidError, UnsupportedCase)
from partid.lb_solvers import (PreparedHalfSpace, _Row, inner_inf, prepare,
                               solve)
from partid.partitions import (TOL_CLASS, HalfSpace, Side, Threshold,
                               UnionHalfSpaces, ball, classify, ellipsoid)
from partid.spef import (bernoulli, clamp_to_interior, gaussian, poisson,
                         sampler)
from partid.track_stop import (StoppingConfig, _d_tracking, _track_and_stop,
                               beta_threshold, run)

G1 = gaussian(1.0)


class _PublicApiKernel:
    """Reference geometry for the run loop: the public classify, inner_inf
    and solve at every step, which validate the means and prepare a fresh
    geometry per call, so nothing a run records carries between steps. The
    loop applies the fallbacks it documents."""

    def __init__(self, models, spec):
        self.models, self.spec = models, spec

    def side(self, means):
        return classify(self.spec, means)

    def statistic(self, means, counts, side):
        return inner_inf(self.models, means, np.asarray(counts, dtype=float),
                         self.spec).value

    def weights(self, means, side):
        w_hat = solve(self.models, means, self.spec).w_star
        if not np.all(np.isfinite(w_hat)):
            raise NumericalError("non-finite reference weights")
        return w_hat


def _run_public_api(models, mu, spec, cfg, rng):
    """The run loop driven by the public solvers, whatever the geometry."""
    return _track_and_stop(models, mu, classify(spec, mu),
                           _PublicApiKernel(models, spec), cfg, rng)


class TestStoppingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingConfig(delta=0.0)
        with pytest.raises(ValueError):
            StoppingConfig(delta=1.0)
        with pytest.raises(ValueError):
            StoppingConfig(delta=0.1, c_const=0.0)
        with pytest.raises(ValueError):
            StoppingConfig(delta=0.1, max_steps=0)

    def test_beta_threshold_shape(self):
        cfg = StoppingConfig(delta=0.1)
        assert beta_threshold(1, cfg) < beta_threshold(10, cfg)
        tight = StoppingConfig(delta=0.001)
        assert beta_threshold(10, tight) > beta_threshold(10, cfg)
        assert beta_threshold(5, cfg) == pytest.approx(
            math.log(math.e * 5 / 0.1))


def _next_arm(t, counts, w_hat):
    """_d_tracking with sqrt(t) - K/2 and min(counts) taken from t and
    counts."""
    return _d_tracking(counts, t, math.sqrt(t) - len(counts) / 2.0,
                       min(counts), w_hat)


class TestDTracking:
    def test_starved_arm_wins_lowest_index_first(self):
        # sqrt(100) - 3/2 = 8.5, so arm 0 is starved
        assert _next_arm(100, np.array([3, 50, 47]), [0.0, 0.5, 0.5]) == 0

    def test_tracks_largest_deficit_otherwise(self):
        counts = np.array([20, 40, 40])
        assert _next_arm(100, counts, [0.5, 0.25, 0.25]) == 0
        assert _next_arm(100, counts, [0.1, 0.6, 0.3]) == 1

    @pytest.mark.parametrize("t,counts,w_hat,want", [
        # sqrt(100) - 2 = 8: arms 1 and 3 are starved, the lower one wins
        (100, [40, 5, 50, 5], [0.25] * 4, 1),
        # a count equal to the floor is not starved: sqrt(36) - 1 = 5
        (36, [5, 31], [0.9, 0.1], 0),
        # equal lags: the lowest index wins
        (100, [30, 20, 30, 20], [0.3, 0.2, 0.3, 0.2], 0),
        (100, [30, 20, 30, 20], [0.25, 0.25, 0.25, 0.25], 1),
        # the run loop's uniform weights
        (64, [16, 16, 16, 16], [0.25] * 4, 0),
    ])
    def test_lists_and_arrays_pick_the_same_arm(self, t, counts, w_hat,
                                                want):
        as_array = np.array(counts, dtype=np.int64)
        assert _next_arm(t, list(counts), w_hat) == want
        assert _next_arm(t, as_array, np.array(w_hat)) == want
        assert _next_arm(t, as_array, w_hat) == want


class TestRun:
    CFG = StoppingConfig(delta=0.1, max_steps=100_000)

    def test_easy_threshold_instance(self):
        res = run([G1, G1], [2.0, 0.0], Threshold(1.0), self.CFG,
                  np.random.default_rng(0))
        assert res.declared is Side.A1
        assert res.correct
        assert not res.truncated
        assert res.glr_at_stop >= beta_threshold(res.stop_time, self.CFG)
        assert res.forced_exploration_violations == 0
        assert int(res.final_counts.sum()) == res.stop_time

    def test_below_side_instance(self):
        res = run([G1, G1], [-1.0, 0.0], Threshold(1.0), self.CFG,
                  np.random.default_rng(1))
        assert res.declared is Side.A2
        assert res.correct

    def test_halfspace_instance(self):
        res = run([G1, G1], [0.0, 0.0], HalfSpace((1.0, 1.0), 1.0),
                  self.CFG, np.random.default_rng(2))
        assert res.declared is Side.A1
        assert res.correct

    def test_ball_instance(self):
        # truth outside the unit disk: every step solves the ball saddle
        # and its inner infimum at the empirical means
        cfg = StoppingConfig(delta=0.01, max_steps=100_000)
        res = run([G1, G1], [1.5, 1.0], ball((0.0, 0.0), 1.0), cfg,
                  np.random.default_rng(1))
        assert not res.truncated
        assert res.declared is Side.A1
        assert res.correct
        assert res.glr_at_stop >= beta_threshold(res.stop_time, cfg)
        assert res.forced_exploration_violations == 0

    def test_single_arm(self):
        res = run([G1], [1.5], Threshold(1.0), self.CFG,
                  np.random.default_rng(3))
        assert res.declared is Side.A1
        assert res.correct

    def test_truncation_is_reported(self):
        cfg = StoppingConfig(delta=1e-12, max_steps=25)
        res = run([G1, G1], [2.0, 0.0], Threshold(1.0), cfg,
                  np.random.default_rng(4))
        assert res.truncated
        assert res.stop_time == 25
        assert res.declared in (Side.A1, Side.A2)

    def test_same_seed_reproduces(self):
        a = run([G1, G1], [2.0, 0.0], Threshold(1.0), self.CFG,
                np.random.default_rng(7))
        b = run([G1, G1], [2.0, 0.0], Threshold(1.0), self.CFG,
                np.random.default_rng(7))
        assert a.stop_time == b.stop_time
        assert a.glr_at_stop == b.glr_at_stop
        np.testing.assert_array_equal(a.final_counts, b.final_counts)

    def test_boundary_truth_rejected(self):
        with pytest.raises(DegenerateInstance):
            run([G1, G1], [1.0, 0.0], Threshold(1.0), self.CFG,
                np.random.default_rng(0))

    def test_max_steps_below_arm_count_rejected_before_drawing(self):
        # the K first pulls alone would overrun max_steps
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="max_steps 2 is below the 5"):
            run([G1] * 5, [0.0, 0.5, 1.5, 0.2, 0.1], Threshold(1.0),
                StoppingConfig(delta=0.1, max_steps=2), rng)
        assert rng.bit_generator.state == before
        res = run([G1] * 5, [0.0, 0.5, 1.5, 0.2, 0.1], Threshold(1.0),
                  StoppingConfig(delta=1e-9, max_steps=5), rng)
        assert (res.stop_time, res.truncated) == (5, True)

    @pytest.mark.parametrize("spec", [ball((0.0,), 1.0),
                                      ellipsoid((0.0,), (1.0,))],
                             ids=["ball", "ellipsoid"])
    def test_center_of_another_dimension_rejected_before_drawing(self, spec):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="center has 1 entries for 2"):
            run([G1, G1], [2.0, 2.0], spec, self.CFG, rng)
        assert rng.bit_generator.state == before

    def test_result_arrays(self):
        res = run([G1, bernoulli()], [2.0, 0.3], Threshold(0.5), self.CFG,
                  np.random.default_rng(0))
        assert isinstance(res.final_counts, np.ndarray)
        assert res.final_counts.dtype == np.int64
        assert isinstance(res.final_means, np.ndarray)
        assert res.final_means.dtype == np.float64
        assert res.final_counts.shape == res.final_means.shape == (2,)

    def test_arm_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run([G1, G1], [1.0], Threshold(0.5), self.CFG,
                np.random.default_rng(0))

    def test_bad_true_mean_rejected(self):
        with pytest.raises(DomainError):
            run([bernoulli(), bernoulli()], [0.5, 1.5], Threshold(0.6),
                self.CFG, np.random.default_rng(0))

    def test_tracking_concentrates_on_best_arm(self):
        res = run([G1, G1], [2.0, 0.0], Threshold(1.0),
                  StoppingConfig(delta=1e-3), np.random.default_rng(11))
        # w* = (1, 0): the share of arm 0 should dominate
        assert res.final_counts[0] / res.stop_time > 0.6


@pytest.mark.parametrize("spec", [
    ball((0.0, 0.0), 1.0),
    UnionHalfSpaces((((1.0, 0.0), -1.0), ((0.0, 1.0), -1.0))),
], ids=["ball", "union"])
def test_uncovered_truth_side_raises_before_drawing(spec):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(UnsupportedCase, match="not covered"):
        run([G1, G1], [0.0, 0.0], spec,
            StoppingConfig(delta=0.1, max_steps=5), rng)
    assert rng.bit_generator.state == before


PARITY_CASES = [
    ("gaussian_above", [gaussian(0.5), gaussian(1.5)], [2.0, 0.0], 1.0),
    ("gaussian_below", [G1, G1], [0.0, -0.5], 1.0),
    ("bernoulli_above", [bernoulli(), bernoulli()], [0.8, 0.3], 0.55),
    ("bernoulli_below", [bernoulli(), bernoulli()], [0.2, 0.35], 0.6),
    ("poisson_above", [poisson(), poisson()], [2.0, 0.5], 1.2),
    ("mixed_three", [G1, bernoulli(), poisson()], [0.2, 0.4, 0.9], 0.6),
    ("single_arm", [G1], [1.8], 1.0),
]


@pytest.mark.parametrize("name,models,mu,u", PARITY_CASES,
                         ids=[c[0] for c in PARITY_CASES])
@pytest.mark.parametrize("seed", [1, 2])
def test_threshold_fast_path_parity(name, models, mu, u, seed):
    spec = Threshold(u)
    cfg = StoppingConfig(delta=0.05, max_steps=4000)
    mu_arr = np.asarray(mu, dtype=float)
    fast = run(models, mu, spec, cfg, np.random.default_rng(seed))
    slow = _run_public_api(models, mu_arr, spec, cfg,
                           np.random.default_rng(seed))
    assert fast.stop_time == slow.stop_time
    assert fast.declared is slow.declared
    assert fast.correct == slow.correct
    assert fast.glr_at_stop == slow.glr_at_stop
    assert fast.truncated == slow.truncated
    assert fast.forced_exploration_violations == \
        slow.forced_exploration_violations
    np.testing.assert_array_equal(fast.final_counts, slow.final_counts)
    np.testing.assert_array_equal(fast.final_means, slow.final_means)


def test_threshold_fast_path_parity_under_truncation():
    spec = Threshold(1.0)
    cfg = StoppingConfig(delta=1e-9, max_steps=60)
    mu = np.array([1.3, 0.9])
    fast = run([G1, G1], mu, spec, cfg, np.random.default_rng(13))
    slow = _run_public_api([G1, G1], mu, spec, cfg,
                           np.random.default_rng(13))
    assert fast.truncated and slow.truncated
    assert fast.stop_time == slow.stop_time
    assert fast.declared is slow.declared
    assert fast.glr_at_stop == slow.glr_at_stop
    np.testing.assert_array_equal(fast.final_counts, slow.final_counts)
    np.testing.assert_array_equal(fast.final_means, slow.final_means)


WIDE_ARMS = {
    9: [G1, bernoulli(), poisson(), gaussian(0.5), bernoulli(), gaussian(2.0),
        poisson(), gaussian(0.8), bernoulli()],
    12: [gaussian(v) for v in (1.0, 0.5, 2.0, 0.8, 1.5, 0.3, 1.2, 0.7, 1.0,
                               2.5, 0.4, 0.9)],
}

# (K, truth, level, (stop_time, declared, glr_at_stop, final_counts)) at
# delta 0.01 and seed 1. From K = 8 on, the inverse-gap weights sum t* in
# numpy's pairwise blocks; a change here is a trajectory change.
WIDE_PINNED = [
    ("k9_below", 9, [0.2, 0.35, 0.1, 0.0, 0.45, -0.3, 0.25, 0.4, 0.3], 0.6,
     (902, Side.A2, 12.41498875776166,
      [145, 110, 27, 32, 260, 43, 93, 96, 96])),
    ("k9_above", 9, [0.2, 0.35, 0.1, 0.0, 0.45, -0.3, 0.25, 0.9, 0.3], 0.6,
     (445, Side.A1, 11.97195631133223,
      [17, 17, 17, 17, 17, 17, 17, 309, 17])),
    ("k12_below", 12, [0.1, -0.4, 0.3, -0.2, 0.0, 0.5, -0.6, 0.2, -0.1, 0.4,
                       0.6, -0.3], 1.0,
     (410, Side.A2, 11.675186458141967,
      [47, 15, 63, 15, 25, 25, 19, 19, 15, 107, 45, 15])),
    ("k12_above", 12, [0.1, -0.4, 0.3, -0.2, 0.0, 0.5, -0.6, 0.2, -0.1, 1.8,
                       0.6, -0.3], 1.0,
     (308, Side.A1, 11.445845732733677,
      [12, 12, 12, 12, 12, 12, 12, 12, 12, 176, 12, 12])),
]


@pytest.mark.parametrize("name,k,mu,u,want", WIDE_PINNED,
                         ids=[p[0] for p in WIDE_PINNED])
def test_threshold_pinned_trajectory_many_arms(name, k, mu, u, want):
    res = run(WIDE_ARMS[k], mu, Threshold(u), StoppingConfig(delta=0.01),
              np.random.default_rng(1))
    assert (res.stop_time, res.declared, res.glr_at_stop,
            res.final_counts.tolist()) == want
    assert not res.truncated


def test_fast_path_validates_level_against_domains():
    cfg = StoppingConfig(delta=0.1)
    with pytest.raises(DomainError, match="outside arm 1 domain"):
        run([G1, bernoulli()], [3.0, 0.5], Threshold(2.0), cfg,
            np.random.default_rng(0))


HALFSPACE_CONFIG = (Path(__file__).resolve().parent.parent / "configs"
                    / "halfspace_symmetric.json")

# (stop_time, declared, glr_at_stop, final_counts) of solver-kernel runs;
# a change here is a trajectory change and must be stated as one.
PINNED = [
    ("halfspace_symmetric_seed1", 1, (63, Side.A1, 9.801378364327906, [32, 31])),
    ("halfspace_symmetric_seed2", 2, (87, Side.A1, 10.225316731880215, [44, 43])),
]


@pytest.mark.parametrize("name,seed,want", PINNED, ids=[p[0] for p in PINNED])
def test_solver_kernel_pinned_trajectory(name, seed, want):
    cfg = parse_config(str(HALFSPACE_CONFIG))
    res = run(list(cfg.arms), cfg.true_means, cfg.partition,
              StoppingConfig(delta=0.01), np.random.default_rng(seed))
    assert (res.stop_time, res.declared) == want[:2]
    assert res.glr_at_stop == pytest.approx(want[2], rel=1e-12, abs=0.0)
    assert res.final_counts.tolist() == want[3]


K4_GAUSSIAN = [gaussian(0.5), G1, gaussian(2.0), gaussian(0.8)]
K4_TRUTH = [0.5, 0.1, 0.3, 0.4]

# (row, seed, (stop_time, declared, glr_at_stop, final_counts)) of K = 4
# Gaussian half-space runs with the truth on A2, at delta 0.01. HalfSpace
# rejects a zero entry, so the row with one runs as a union's row is
# prepared. Both the run's statistic and the public inner_inf take the
# same Gaussian closed form, so the parity suites cannot see it drift;
# these tuples can, and a change here is a trajectory change.
K4_PINNED = [
    ("zero_entry_seed1", (1.0, -0.6, 0.0, 0.9), 1,
     (273, Side.A2, 11.579032608460196, [86, 73, 15, 99])),
    ("zero_entry_seed2", (1.0, -0.6, 0.0, 0.9), 2,
     (219, Side.A2, 11.13367782213977, [69, 58, 13, 79])),
    ("all_nonzero_seed1", (1.0, -0.6, 0.3, 0.9), 1,
     (461, Side.A2, 11.804293716257765, [129, 109, 77, 146])),
    ("all_nonzero_seed2", (1.0, -0.6, 0.3, 0.9), 2,
     (640, Side.A2, 12.209352279803543, [178, 152, 107, 203])),
]


@pytest.mark.parametrize("name,a,seed,want", K4_PINNED,
                         ids=[p[0] for p in K4_PINNED])
def test_gaussian_halfspace_pinned_trajectory_k4(name, a, seed, want):
    cfg = StoppingConfig(delta=0.01)
    rng = np.random.default_rng(seed)
    if 0.0 in a:
        geometry = PreparedHalfSpace(K4_GAUSSIAN, _Row(a, 0.2))
        res = _track_and_stop(K4_GAUSSIAN, np.array(K4_TRUTH), Side.A2,
                              geometry, cfg, rng)
    else:
        res = run(K4_GAUSSIAN, K4_TRUTH, HalfSpace(a, 0.2), cfg, rng)
    assert (res.stop_time, res.declared, res.glr_at_stop,
            res.final_counts.tolist()) == want
    assert not res.truncated


def test_solver_kernel_pinned_trajectory_mixed_families():
    models = [bernoulli(), poisson(), bernoulli()]
    res = run(models, [0.3, 0.5, 0.4], HalfSpace((1.0, 1.0, 1.0), 2.5),
              StoppingConfig(delta=0.1), np.random.default_rng(5))
    assert (res.stop_time, res.declared) == (19, Side.A1)
    assert res.glr_at_stop == pytest.approx(6.431008983450423, rel=1e-12,
                                            abs=0.0)
    assert res.final_counts.tolist() == [5, 11, 3]


PREPARED_CASES = [
    ("gaussian2_a1", [gaussian(0.5), gaussian(2.0)], [0.0, 0.3],
     HalfSpace((1.0, 2.0), 1.9), 20),
    ("gaussian3_a2", [gaussian(0.4), gaussian(1.3), gaussian(0.8)],
     [0.5, -0.2, 0.9], HalfSpace((1.0, -0.5, 0.7), 0.6), 20),
    ("gaussian4_a1", [G1, gaussian(0.3), gaussian(1.7), gaussian(0.6)],
     [0.1, 0.2, -0.3, 0.0], HalfSpace((0.8, -1.2, 0.5, 1.1), 0.5), 20),
    ("mixed_a1", [bernoulli(), poisson(), gaussian(0.7)], [0.3, 1.2, 0.1],
     HalfSpace((1.0, -0.5, 0.8), 1.0), 20),
    ("mixed_a2", [poisson(), bernoulli(), gaussian(1.5)], [2.0, 0.7, 0.8],
     HalfSpace((0.5, 1.0, 1.0), 0.5), 20),
    # truth outside the set: PreparedConvex and PreparedUnion evaluate
    # their own inner and solution at every step, which must match the
    # public inner_inf and solve bit for bit
    ("gaussian_ball_a1", [G1, G1], [1.5, 1.0], ball((0.0, 0.0), 1.0), 3),
    ("poisson_ellipsoid_a1", [poisson(), poisson()], [2.5, 0.4],
     ellipsoid((1.0, 1.0), (1.0, 0.5)), 3),
    ("bernoulli_ball_a1", [bernoulli(), bernoulli()], [0.95, 0.5],
     ball((0.5, 0.5), 0.25), 3),
    ("gaussian_union2_a1", [G1, gaussian(0.5)], [0.0, 0.0],
     UnionHalfSpaces((((1.0, 0.0), 1.0), ((0.0, 1.0), 1.2))), 3),
    # one all-nonzero row dominates: the single-row certificate settles
    # most steps before any search
    ("gaussian_union3_single_a1", [G1, gaussian(0.5), gaussian(1.5)],
     [0.0, 0.0, 0.0],
     UnionHalfSpaces((((1.0, 0.5, 0.8), 1.0), ((0.0, 1.0, 0.0), 3.0))), 3),
]


@pytest.mark.parametrize("name,models,mu,spec,seeds", PREPARED_CASES,
                         ids=[c[0] for c in PREPARED_CASES])
def test_halfspace_prepared_parity(name, models, mu, spec, seeds):
    # the prepared geometry must reproduce, bit for bit, the run that
    # calls the public functions at every step
    mu = np.asarray(mu)
    cfg = StoppingConfig(delta=0.01, max_steps=5000)
    for seed in range(seeds):
        got = run(models, mu, spec, cfg, np.random.default_rng(seed))
        want = _run_public_api(models, mu, spec, cfg,
                               np.random.default_rng(seed))
        assert (got.stop_time, got.declared, got.glr_at_stop,
                got.final_counts.tolist()) == \
            (want.stop_time, want.declared, want.glr_at_stop,
             want.final_counts.tolist()), f"seed {seed}"


def _halfspace_geometry(models=(G1, G1), spec=HalfSpace((1.0, 1.0), 1.0)):
    geometry = prepare(list(models), spec)
    assert isinstance(geometry, PreparedHalfSpace)
    return geometry


class TestPreparedHalfSpaceChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_raises(self, bad):
        # as in the run loop: side first, then statistic on the same means
        geometry = _halfspace_geometry()
        means = [bad, 0.0]
        geometry.side(means)
        with pytest.raises(DomainError, match="mu\\[0\\]"):
            geometry.statistic(means, [3, 3], Side.A1)

    # every class prepare returns that records the means side took (the
    # threshold records none: its statistic takes the means it is given)
    @pytest.mark.parametrize("spec,side", [
        (HalfSpace((1.0, 1.0), 1.0), Side.A2),
        (ball((0.0, 0.0), 1.0), Side.A1),
        (UnionHalfSpaces((((1.0, 0.0), 3.0), ((0.0, 1.0), 1.0))), Side.A1),
    ], ids=["halfspace", "convex", "union"])
    def test_means_other_than_sides_raise(self, spec, side):
        geometry = prepare([G1, G1], spec)
        with pytest.raises(ValueError, match="last side call"):
            geometry.statistic([2.0, 0.0], [3, 3], side)
        geometry.side([2.0, 0.0])
        with pytest.raises(ValueError, match="last side call"):
            geometry.weights([2.0, 0.0], side)

    def test_unreachable_half_space_raises(self, tmp_path, capsys):
        models = [bernoulli(), bernoulli()]
        spec = HalfSpace((1.0, 1.0), 2.5)
        with pytest.raises(InfeasibleAlternative):
            run(models, [0.5, 0.5], spec, StoppingConfig(delta=0.1),
                np.random.default_rng(0))
        path = tmp_path / "unreachable.json"
        path.write_text(json.dumps({
            "arms": [{"family": "bernoulli"}, {"family": "bernoulli"}],
            "true_means": [0.5, 0.5],
            "partition": {"type": "halfspace", "a": [1.0, 1.0], "b": 2.5},
            "deltas": [0.1], "replications": 1, "seed": 1,
            "max_steps": 50}))
        code = main(["run", str(path), "--delta", "0.1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "does not intersect" in capsys.readouterr().err

    @pytest.mark.parametrize("means", [[0.5, 0.5], [0.5, 0.5 + 1e-13]])
    def test_boundary_band_gives_zero_and_uniform(self, means):
        geometry = _halfspace_geometry()
        means = np.array(means)
        assert geometry.side(means) is Side.BOUNDARY

        class OnTheBand:
            # every step's means sit where the half-space puts them on the
            # band; the loop must evaluate neither statistic nor weights
            def side(self, mu):
                return geometry.side(means)

            def statistic(self, *args):
                raise AssertionError("statistic on a boundary step")

            def weights(self, *args):
                raise AssertionError("weights on a boundary step")

        res = _track_and_stop([G1, G1], np.zeros(2), Side.A1, OnTheBand(),
                              StoppingConfig(delta=0.1, max_steps=40),
                              np.random.default_rng(0))
        assert (res.truncated, res.declared, res.glr_at_stop) == \
            (True, Side.A1, 0.0)
        # uniform weights: tracking alternates between the two arms
        assert res.final_counts.tolist() == [20, 20]


def _outcome(f, *args):
    """f(*args), or the type of the solver error it raised."""
    try:
        return f(*args)
    except (DegenerateInstance, InfeasibleAlternative, DomainError,
            NumericalError) as exc:
        return type(exc)


def _step_and_public(models, a, b, means, counts):
    """(run step, public reference) outcomes of side, statistic and weights
    at the means. The reference is classify, inner_inf and solve on
    HalfSpace(a, b); a row with a zero entry, which HalfSpace rejects, is
    classified as a one-row union and evaluated by a freshly prepared
    row's inner and solution, the array entry points inner_inf and solve
    call (inner_inf on the union checks means that are not finite).
    Statistic and weights follow the step's side, as in the run loop, and
    weights only at means statistic has checked."""
    geometry = PreparedHalfSpace(models, _Row(a, b))
    side = geometry.side(means)
    got, want = [side], []
    x = np.array(means)
    if 0.0 in a:
        union = UnionHalfSpaces(((a, b),))
        want.append(classify(union, x))
        fresh = PreparedHalfSpace(models, _Row(a, b))
        w = np.array(counts, dtype=float)
        if np.all(np.isfinite(x)):
            want.append(_outcome(lambda: fresh.inner(x, w, side)[0]))
        else:
            want.append(_outcome(lambda: inner_inf(models, x, counts,
                                                   union).value))
        # the certificate's tangency ratio is 0/0 at an untouched arm
        with np.errstate(invalid="ignore"):
            want.append(_outcome(lambda: fresh.solution(x).w_star.tolist()))
    else:
        spec = HalfSpace(a, b)
        want.append(classify(spec, x))
        want.append(_outcome(lambda: inner_inf(models, x, counts,
                                               spec).value))
        want.append(_outcome(lambda: solve(models, x, spec).w_star.tolist()))
    if side is Side.BOUNDARY:
        return got, want[:1]
    got.append(_outcome(geometry.statistic, means, counts, side))
    if not np.all(np.isfinite(x)):
        return got, want[:2]
    got.append(_outcome(geometry.weights, means, side))
    return got, want


def _gaussian_row(rng, k):
    """k Gaussian arms of mixed variances and a random row for them, with
    some zero entries (never all) in about 40% of rows, and an offset."""
    models = [gaussian(float(v)) for v in 10.0 ** rng.uniform(-2, 2, k)]
    a = rng.uniform(0.1, 2.0, k) * rng.choice((-1.0, 1.0), k)
    if k > 1 and rng.random() < 0.4:
        a[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
    return models, tuple(a.tolist()), float(rng.normal(0.0, 2.0))


def _means_near(rng, a, b, margin):
    """Means whose unit-row margin is about margin, up to rounding."""
    a = np.array(a)
    unit = a / np.linalg.norm(a)
    p = rng.normal(0.0, 1.5, a.size) * 10.0 ** rng.integers(0, 3)
    p -= (float(unit @ p) - b / np.linalg.norm(a)) * unit
    return (p + margin * unit).tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_gaussian_halfspace_step_matches_the_public_solvers(k):
    # the run step's closed form on floats against classify, inner_inf and
    # solve, with ==: both sides, means at the edge of the boundary band
    # (1e-3 relative of +-TOL_CLASS), counts with a zero entry (the
    # general path) and means that are not finite
    rng = np.random.default_rng(700 + k)
    seen = set()
    for _ in range(120):
        models, a, b = _gaussian_row(rng, k)
        margins = [float(rng.normal(0.0, 2.0)) for _ in range(2)] + [
            s * 1e-12 * (1.0 + float(rng.uniform(-1e-3, 1e-3)))
            for s in (1.0, -1.0)]
        for margin in margins:
            means = _means_near(rng, a, b, margin)
            counts = rng.integers(1, 60, k).tolist()
            cases = [counts]
            if k > 1:
                cases.append(counts[:])
                cases[-1][int(rng.integers(k))] = 0
            for c in cases:
                got, want = _step_and_public(models, a, b, means, c)
                assert got == want, (models, a, b, means, c)
                seen.add((got[0], 0 in c,
                          len(got) > 1 and isinstance(got[1], float)
                          and got[1] > 0.0))
        bad = means[:]
        bad[int(rng.integers(k))] = [math.nan, math.inf,
                                     -math.inf][int(rng.integers(3))]
        with np.errstate(invalid="ignore"):
            got, want = _step_and_public(models, a, b, bad, counts)
        assert got == want and got[1] is DomainError, (a, b, bad)
    assert {(Side.A1, False, True), (Side.A2, False, True)} <= seen
    assert Side.BOUNDARY in {s for s, _, _ in seen}


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_side_and_classify_agree_at_the_band_edges(k):
    # walk one arm's mean a float at a time across +-TOL_CLASS and compare
    # the prepared side with classify at every float within a few ulps of
    # the crossing, with `is`: the band is decided by one expression
    rng = np.random.default_rng(900 + k)
    seen = set()
    for _ in range(30):
        models, a, b = _gaussian_row(rng, k)
        spec = UnionHalfSpaces(((a, b),)) if 0.0 in a else HalfSpace(a, b)
        geometry = PreparedHalfSpace(models, _Row(a, b))
        i = next(j for j, aj in enumerate(a) if aj != 0.0)
        for edge in (TOL_CLASS, -TOL_CLASS):
            means = _means_near(rng, a, b, edge)
            start = geometry.side(means)
            # leaving the band needs |margin| to grow, entering it to shrink
            grow = (start is Side.BOUNDARY) == (edge > 0)
            toward = math.inf if grow == (a[i] > 0) else -math.inf
            for _ in range(10 ** 4):
                if geometry.side(means) is not start:
                    break
                means[i] = math.nextafter(means[i], toward)
            else:
                raise AssertionError("the walk never crossed the band edge")
            crossing = means[i]
            for step in range(-4, 5):
                x = crossing
                for _ in range(abs(step)):
                    x = math.nextafter(x, math.copysign(math.inf, step))
                means[i] = x
                got = geometry.side(means)
                assert got is classify(spec, np.array(means)), (a, b, means)
                seen.add(got)
    assert seen == {Side.A1, Side.A2, Side.BOUNDARY}


class _NoNumpy:
    """Stands in for a module's numpy: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used on a Gaussian half-space step")


@pytest.mark.parametrize("models,a,b,truth", [
    ([G1, G1], (1.0, 1.0), 1.0, [0.0, 0.0]),
    ([gaussian(0.4), gaussian(1.3), gaussian(0.8)], (1.0, -0.5, 0.7), 0.6,
     [0.5, -0.2, 0.9]),
    (K4_GAUSSIAN, (1.0, -0.6, 0.0, 0.9), 0.2, K4_TRUTH),
], ids=["k2", "k3", "k4_zero_entry"])
def test_gaussian_halfspace_step_makes_no_numpy_call(monkeypatch, models, a,
                                                     b, truth):
    # after prepare, side, statistic and weights (zero counts included)
    # and a whole run give the same floats with numpy taken away from
    # lb_solvers and partitions
    rng = np.random.default_rng(17)
    geometry = PreparedHalfSpace(models, _Row(a, b))
    steps = []
    for _ in range(40):
        means = [float(x) for x in rng.normal(0.0, 1.5, len(a))]
        counts = rng.integers(0, 30, len(a)).tolist()
        steps.append((means, counts))

    def step_outcomes():
        out = []
        for means, counts in steps:
            side = geometry.side(means)
            out.append(side)
            if side is not Side.BOUNDARY:
                out.append(_outcome(geometry.statistic, means, counts, side))
                out.append(_outcome(geometry.weights, means, side))
        return out

    truth = np.array(truth)
    true_side = classify(UnionHalfSpaces(((a, b),)), truth)

    def one_run():
        res = _track_and_stop(models, truth, true_side, geometry,
                              StoppingConfig(delta=0.01),
                              np.random.default_rng(3))
        return (res.stop_time, res.declared, res.glr_at_stop,
                res.final_counts.tolist())

    want = step_outcomes(), one_run()
    monkeypatch.setattr(lb_solvers, "np", _NoNumpy())
    monkeypatch.setattr(partitions, "np", _NoNumpy())
    got = step_outcomes(), one_run()
    assert got == want
    assert {Side.A1, Side.A2} <= {x for x in want[0] if isinstance(x, Side)}
    # some steps have a zero count, whose statistic is the general path
    assert any(0 in counts for _, counts in steps)


def _count_public_calls(monkeypatch, names=("classify", "inner_inf",
                                            "solve")):
    """Wrap every binding site under partid of each named function, so a
    call is counted whichever module's name it goes through."""
    calls = []
    sources = {"classify": "partid.partitions", "inner_inf":
               "partid.lb_solvers", "solve": "partid.lb_solvers"}
    for name in names:
        real = getattr(sys.modules[sources[name]], name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "partid"
                                   or mod_name.startswith("partid.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_halfspace_steps_skip_the_public_solvers(monkeypatch):
    # one classify of the truth per run; no half-space or threshold step
    # goes through classify, inner_inf or solve
    calls = _count_public_calls(monkeypatch)
    res = run([gaussian(0.5), G1], [0.0, 0.0], HalfSpace((1.0, 1.0), 1.0),
              StoppingConfig(delta=0.01), np.random.default_rng(0))
    assert res.stop_time > 10
    assert calls == ["classify"]

    calls.clear()
    res = run([G1, bernoulli(), poisson()], [0.2, 0.4, 0.9], Threshold(0.6),
              StoppingConfig(delta=0.01), np.random.default_rng(0))
    assert res.stop_time > 10
    assert calls == ["classify"]

    # nor does a convex-set or union step go through inner_inf or solve:
    # they evaluate their prepared classes' inner and solution
    for models, mu, spec in ([G1, G1], [1.5, 1.0], ball((0.0, 0.0), 1.0)), \
            ([G1, gaussian(0.5)], [0.0, 0.0],
             UnionHalfSpaces((((1.0, 0.0), 1.0), ((0.0, 1.0), 1.2)))):
        calls.clear()
        res = run(models, mu, spec, StoppingConfig(delta=0.01),
                  np.random.default_rng(1))
        assert not res.truncated and res.stop_time > 10
        assert "inner_inf" not in calls and "solve" not in calls


def _reference_run(models, true_means, spec, cfg, rng):
    """(result fields, sides) of the run loop written out plainly, apart
    from the one in track_stop: every step recomputes every mean and clamps
    it with clamp_to_interior, takes the side, statistic and weights of a
    geometry from prepare, and calls beta_threshold and _d_tracking, by
    _next_arm from t and the counts. sides lists the side of every step."""
    true_means = np.asarray(true_means, dtype=float)
    k = len(models)
    geometry = prepare(list(models), spec)
    draws = [sampler(m, float(x), rng, arm=i)
             for i, (m, x) in enumerate(zip(models, true_means))]
    t, counts, sums = k, [1] * k, [0.0] * k
    for i in range(k):
        sums[i] += draws[i]()
    violations, truncated, sides = 0, False, []
    while True:
        means = [clamp_to_interior(m, s / n)
                 for m, s, n in zip(models, sums, counts)]
        side = geometry.side(means)
        sides.append(side)
        z = 0.0
        if side is not Side.BOUNDARY:
            try:
                z = geometry.statistic(means, counts, side)
            except (DegenerateInstance, UnsupportedCase):
                pass
            if z >= beta_threshold(t, cfg):
                declared = side
                break
        if t >= cfg.max_steps:
            truncated = True
            declared = Side.A1 if side is Side.BOUNDARY else side
            break
        w_hat = [1.0 / k] * k
        if side is not Side.BOUNDARY:
            try:
                w_hat = geometry.weights(means, side)
            except PartidError:
                pass
        arm = _next_arm(t, counts, w_hat)
        sums[arm] += draws[arm]()
        counts[arm] += 1
        t += 1
        floor = max(0.0, math.sqrt(t) - k / 2.0) - 1.0
        if min(counts) < floor - 1e-9:
            violations += 1
    return (t, declared, float(z), violations, truncated, list(counts),
            means), sides


def _result_fields(res):
    return (res.stop_time, res.declared, res.glr_at_stop,
            res.forced_exploration_violations, res.truncated,
            res.final_counts.tolist(), res.final_means.tolist())


GV = [gaussian(v) for v in (1.0, 0.5, 2.0, 0.8, 1.5, 0.3)]

# (name, models, truth, spec, delta, max_steps, seeds)
REFERENCE_CASES = [
    *[(f"gaussian_threshold_above_k{k}", GV[:k],
       [0.1 * i for i in range(k - 1)] + [1.6], Threshold(1.0), 0.01,
       100_000, (1, 2)) for k in range(1, 7)],
    *[(f"gaussian_threshold_below_k{k}", GV[:k],
       [0.5 - 0.15 * i for i in range(k)], Threshold(1.0), 0.01,
       100_000, (1, 2)) for k in range(1, 7)],
    # a Bernoulli draw is 0 or 1, so the first means sit on the clamp edges
    ("bernoulli_threshold_above", [bernoulli()] * 3, [0.3, 0.85, 0.5],
     Threshold(0.7), 0.05, 100_000, (1, 2, 3)),
    ("bernoulli_threshold_below", [bernoulli()] * 3, [0.2, 0.35, 0.1],
     Threshold(0.6), 0.05, 100_000, (1, 2, 3)),
    ("poisson_threshold", [poisson()] * 3, [0.5, 2.2, 1.0], Threshold(1.5),
     0.05, 100_000, (1, 2)),
    ("gaussian_halfspace", [gaussian(0.5), G1, gaussian(2.0)],
     [0.3, 0.1, 0.2], HalfSpace((1.0, -0.6, 0.9), 0.2), 0.01, 100_000,
     (1, 2)),
    ("mixed_halfspace", [bernoulli(), poisson(), gaussian(0.7)],
     [0.3, 1.2, 0.1], HalfSpace((1.0, -0.5, 0.8), 1.0), 0.05, 100_000,
     (1,)),
    ("ball", [G1, G1], [1.5, 1.0], ball((0.0, 0.0), 1.0), 0.05, 100_000,
     (1,)),
    ("union2", [G1, gaussian(0.5)], [0.0, 0.0],
     UnionHalfSpaces((((1.0, 0.0), 1.0), ((0.0, 1.0), 1.2))), 0.05,
     100_000, (1,)),
    ("truncated", [G1, G1, G1], [1.3, 0.9, 1.1], Threshold(1.0), 1e-9, 150,
     (1, 2)),
    # Bernoulli means of 1/2 sit on the level: boundary steps
    ("boundary_band", [bernoulli(), bernoulli()], [0.3, 0.45],
     Threshold(0.5), 0.05, 100_000, (1, 2)),
]


@pytest.mark.parametrize("name,models,mu,spec,delta,max_steps,seeds",
                         REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_run_matches_the_plain_reference_loop(name, models, mu, spec, delta,
                                              max_steps, seeds):
    # run's loop against a separately written one, with ==, on the same
    # prepared geometry class: drift in the loop itself shows here
    cfg = StoppingConfig(delta=delta, max_steps=max_steps)
    for seed in seeds:
        got = run(models, mu, spec, cfg, np.random.default_rng(seed))
        want, sides = _reference_run(models, mu, spec, cfg,
                                     np.random.default_rng(seed))
        assert _result_fields(got) == want, f"seed {seed}"
        if name == "truncated":
            assert got.truncated
        if name == "boundary_band":
            assert Side.BOUNDARY in sides


def test_gaussian_threshold_pinned_trajectory_crossing_the_level():
    # K = 5 unit-variance arms, as in the risk demo, whose empirical means
    # cross the level many times before the run stops; a change here is a
    # trajectory change
    models, mu, spec = [G1] * 5, [0.2, 0.9, 1.15, 0.5, 0.0], Threshold(1.0)
    cfg = StoppingConfig(delta=0.01)
    res = run(models, mu, spec, cfg, np.random.default_rng(2))
    assert (res.stop_time, res.declared, res.glr_at_stop,
            res.final_counts.tolist(), res.truncated) == \
        (2545, Side.A1, 13.455193193543366, [48, 115, 2286, 48, 48], False)
    _, sides = _reference_run(models, mu, spec, cfg, np.random.default_rng(2))
    assert sum(a is not b for a, b in zip(sides, sides[1:])) > 10

"""Run loop: stopping rule, tracking rule, and the prepared geometries.

The run loop takes each geometry from lb_solvers.prepare. Every prepared
geometry's step must give, bit for bit, the step of the reference in
support.PublicApiKernel, which calls the public classify, inner_inf and
solve and applies the loop's fallbacks; the parity suites here are what
license the closed forms and prepared rows for the nested-simulation
sweeps. The loop itself is checked against a plain loop written here,
which recomputes every mean each step. A geometry keeps nothing between
calls: its pickle does not change, and runs stepped in turn on one
geometry are the runs on their own. Pinned trajectories guard a run of
every prepared class, the half-space runs and the threshold runs with
many arms or with means that cross the level.
"""

import json
import math
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from partid import lb_solvers, partitions, track_stop
from partid.cli import main
from partid.config import parse_config
from partid.experiments import derive_seed_sequence
from partid.errors import (DegenerateInstance, DomainError,
                           InfeasibleAlternative, NumericalError,
                           PartidError, UnsupportedCase)
from partid.lb_solvers import PreparedHalfSpace, _Row, prepare, solve
from partid.partitions import (TOL_CLASS, HalfSpace, Side, Threshold,
                               UnionHalfSpaces, ball, classify, ellipsoid)
from partid.spef import (bernoulli, clamp_to_interior, gaussian, poisson,
                         sampler)
from partid.track_stop import (TIE_BAND, StoppingConfig, _track_and_stop,
                               beta_threshold, run, run_deltas)
from support import PublicApiKernel

G1 = gaussian(1.0)


def _run_public_api(models, mu, spec, cfg, rng):
    """The run loop driven by the public solvers, whatever the geometry."""
    return _track_and_stop(models, mu, classify(spec, mu),
                           PublicApiKernel(models, spec), (cfg,), rng)[0]


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
    """The D-tracking rule written out from t and the counts: a starved
    arm, one whose count is below sqrt(t) - K/2, goes first (lowest index
    first); else the arm whose fraction counts[i] / t lags w_hat[i] most,
    where an arm takes the pull from the lower-indexed leader only by a
    lag larger than the leader's by more than TIE_BAND (so the lowest
    index wins ties and near-ties). _reference_run pulls by it, so the run
    loop's own D-tracking is checked against it there and in
    test_loop_pulls_by_the_d_tracking_rule."""
    need = math.sqrt(t) - len(counts) / 2.0
    for i, c in enumerate(counts):
        if c < need:
            return i
    lags = [w - c / t for w, c in zip(w_hat, counts)]
    arm = 0
    for i in range(1, len(lags)):
        if lags[i] > lags[arm] + TIE_BAND:
            arm = i
    return arm


class _Scripted:
    """A geometry for the run loop that never stops: each step records the
    counts it is shown and returns script(t, counts) as the weights."""

    def __init__(self, script):
        self.script, self.seen = script, []

    def step(self, means, counts, beta):
        counts = list(counts)
        w_hat = self.script(sum(counts), counts)
        self.seen.append((sum(counts), counts, w_hat))
        return Side.A1, 0.0, w_hat


def _loop_pulls(k, script, steps):
    """(t, counts, w_hat, arm pulled) at every step of a run loop of
    `steps` pulls on k arms driven by _Scripted(script)."""
    geometry = _Scripted(script)
    res = _track_and_stop([G1] * k, np.zeros(k), Side.A1, geometry,
                          (StoppingConfig(delta=0.1, max_steps=steps),),
                          np.random.default_rng(0))[0]
    assert res.truncated and res.stop_time == steps
    seen = geometry.seen
    return [(t, counts, w_hat,
             [b - a for a, b in zip(counts, seen[j + 1][1])].index(1))
            for j, (t, counts, w_hat) in enumerate(seen[:-1])]


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
        # a lag within TIE_BAND of the leader's leaves it the pull
        (100, [30, 20], [0.3, 0.2 + 5e-10], 0),
        (100, [30, 20], [0.3, 0.2 + 2e-9], 1),
        # each lag is compared with the leader's so far
        (100, [30, 20, 20], [0.3, 0.2 + 6e-10, 0.2 + 1.2e-9], 2),
    ])
    def test_lists_and_arrays_pick_the_same_arm(self, t, counts, w_hat,
                                                want):
        as_array = np.array(counts, dtype=np.int64)
        assert _next_arm(t, list(counts), w_hat) == want
        assert _next_arm(t, as_array, np.array(w_hat)) == want
        assert _next_arm(t, as_array, w_hat) == want

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9])
    def test_loop_pulls_by_the_d_tracking_rule(self, k):
        # every pull of the loop, under weights from a coarse grid (so lags
        # tie), uniform, random, and one-hot on one arm for stretches of
        # steps (which starve the others), is _next_arm's; the run passes
        # through starved steps, ties and (from K = 5) sqrt(t) <= K/2
        rng = np.random.default_rng(40 + k)
        # one-hot on arm 0 for the first 60 pulls, which starves the others
        mode = [(3, 0)]

        def script(t, counts):
            if t > 60 and rng.random() < 0.05:
                mode[0] = (int(rng.integers(4)), int(rng.integers(k)))
            kind, arm = mode[0]
            if kind == 0:
                return [1.0 / k] * k
            if kind == 1:
                w = rng.integers(0, 4, k).astype(float) + 1e-300
                return (w / w.sum()).tolist()
            if kind == 2:
                return rng.dirichlet(np.ones(k)).tolist()
            w = [0.0] * k
            w[arm] = 1.0
            return w

        pulls = _loop_pulls(k, script, 600)
        kinds = set()
        for t, counts, w_hat, arm in pulls:
            assert arm == _next_arm(t, counts, w_hat), (t, counts, w_hat)
            need = math.sqrt(t) - k / 2.0
            if need <= 0:
                kinds.add("need <= 0")
            if min(counts) < need:
                kinds.add("starved")
            else:
                lags = [w - c / t for w, c in zip(w_hat, counts)]
                if lags.count(max(lags)) > 1:
                    kinds.add("tie")
        assert {"starved", "tie"} <= kinds or k == 1
        assert ("need <= 0" in kinds) == (k >= 5)


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
                              geometry, (cfg,), rng)[0]
    else:
        res = run(K4_GAUSSIAN, K4_TRUTH, HalfSpace(a, 0.2), cfg, rng)
    assert (res.stop_time, res.declared, res.glr_at_stop,
            res.final_counts.tolist()) == want
    assert not res.truncated


# (name, models, truth, spec, {seed: (stop_time, declared, glr_at_stop,
# final_counts)}) at delta 0.01: a pin for each prepared class whose run
# had none, recorded before the step lost its recorded state. The parity
# suites compare the step with solvers that share its code, so they
# cannot see a drift both make; these tuples can, and a change here is a
# trajectory change
CLASS_PINNED = [
    ("gaussian_ball", [G1, G1], [1.5, 0.0], ball((0.0, 0.0), 1.0),
     {1: (114, Side.A1, 10.779073864219447, [104, 10]),
      2: (89, Side.A1, 10.194479515890103, [80, 9])}),
    ("poisson_ellipsoid", [poisson(), poisson()], [3.0, 1.0],
     ellipsoid((1.0, 1.0), (1.0, 1.5)),
     {1: (43, Side.A1, 10.598734466449605, [37, 6]),
      2: (57, Side.A1, 10.17942576901201, [50, 7])}),
    ("bernoulli_ball", [bernoulli(), bernoulli()], [0.85, 0.5],
     ball((0.5, 0.5), 0.25),
     {1: (220, Side.A1, 11.113197530892807, [206, 14]),
      2: (353, Side.A1, 11.563958222599268, [335, 18])}),
    ("gaussian_union2", [G1, G1], [0.0, 0.0],
     UnionHalfSpaces((((1.0, 0.0), 0.6), ((0.0, 1.0), 0.8))),
     {1: (73, Side.A1, 10.07006635131677, [46, 27]),
      2: (96, Side.A1, 10.199620793926618, [71, 25])}),
    ("mixed_threshold", [bernoulli(), poisson(), gaussian(0.7)],
     [0.3, 1.2, 0.1], Threshold(0.6),
     {1: (37, Side.A1, 9.758546805017788, [5, 27, 5]),
      2: (39, Side.A1, 9.87656615645736, [5, 29, 5])}),
]


@pytest.mark.parametrize("name,models,mu,spec,seed,want", [
    (name, models, mu, spec, seed, want)
    for name, models, mu, spec, pins in CLASS_PINNED
    for seed, want in pins.items()],
    ids=[f"{p[0]}_seed{s}" for p in CLASS_PINNED for s in p[4]])
def test_prepared_class_pinned_trajectory(name, models, mu, spec, seed, want):
    # glr_at_stop to rel 1e-12, as the other solver pins: the Poisson and
    # Bernoulli divergences take numpy's log1p and log, whose last bit
    # depends on the host's CPU features
    res = run(models, mu, spec, StoppingConfig(delta=0.01),
              np.random.default_rng(seed))
    assert (res.stop_time, res.declared) == want[:2]
    assert res.glr_at_stop == pytest.approx(want[2], rel=1e-12, abs=0.0)
    assert res.final_counts.tolist() == want[3]
    assert not res.truncated


class _Nudged:
    """A prepared geometry whose step returns each weight w_hat[i] as
    nudge(i, w_hat[i])."""

    def __init__(self, geometry, nudge):
        self.geometry, self.nudge = geometry, nudge

    def step(self, mu, counts, beta):
        side, z, w_hat = self.geometry.step(mu, counts, beta)
        if w_hat is not None:
            w_hat = [self.nudge(i, w) for i, w in enumerate(w_hat)]
        return side, z, w_hat


# raising arm i's weight by 2i ulps, or by i 1e-12 relative, breaks every
# exact tie of lags toward the higher index, as a solver's rounding could
NUDGES = {"ulps": lambda i, w: w + 2 * i * math.ulp(w),
          "relative": lambda i, w: w * (1.0 + i * 1e-12)}


def _nudged_campaign(name, replications, nudge):
    """(stop time, side, Z, counts) of each delta's run on the first
    replications of configs/<name>.json's campaign, on its prepared
    geometry, nudged by nudge unless it is None."""
    cfg = parse_config(str(Path(__file__).parents[1] / "configs"
                           / f"{name}.json"))
    models, geometry = list(cfg.arms), prepare(list(cfg.arms), cfg.partition)
    if nudge is not None:
        geometry = _Nudged(geometry, nudge)
    stops = tuple(StoppingConfig(delta=d, c_const=cfg.c_const,
                                 max_steps=cfg.max_steps) for d in cfg.deltas)
    return [(r.stop_time, r.declared, r.glr_at_stop, r.final_counts.tolist())
            for ri in range(replications)
            for r in run_deltas(models, cfg.true_means, cfg.partition, stops,
                                np.random.default_rng(
                                    derive_seed_sequence(cfg.seed, ri)),
                                geometry)]


# (CI campaign config, replications run): without the tie band each
# nudge reroutes at least one of these runs in all but halfspace_mixed
# and threshold_gaussian; the Bernoulli configs, whose runs are the
# longest, run one replication
NUDGED_CAMPAIGNS = [("ball_gaussian", 2), ("ball_bernoulli", 1),
                    ("ellipsoid_poisson", 4), ("union_gaussian", 3),
                    ("best_arm_bernoulli", 1), ("halfspace_symmetric", 4),
                    ("halfspace_mixed", 2), ("threshold_gaussian", 20),
                    ("threshold_mixed", 4)]


@pytest.mark.parametrize("name,replications", NUDGED_CAMPAIGNS,
                         ids=[c[0] for c in NUDGED_CAMPAIGNS])
def test_weights_nudged_in_their_last_bits_reroute_no_run(name,
                                                          replications):
    want = _nudged_campaign(name, replications, None)
    for kind, nudge in NUDGES.items():
        assert _nudged_campaign(name, replications, nudge) == want, kind


def test_without_the_tie_band_a_nudge_reroutes(monkeypatch):
    # the check above has teeth: with a band of 0 the ulp nudge reroutes
    # the first replication of the symmetric half-space campaign
    monkeypatch.setattr(track_stop, "TIE_BAND", 0.0)
    want = _nudged_campaign("halfspace_symmetric", 1, None)
    assert _nudged_campaign("halfspace_symmetric", 1, NUDGES["ulps"]) != want


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


# (name, models, spec, (truth, seed) of run A, (truth, seed) of run B):
# where both sides are covered, A and B lie on opposite sides, and A's
# weights differ from B's, so weights kept from run A would show in run B
ISOLATION_CASES = [
    ("gaussian_threshold", [G1, gaussian(0.5), gaussian(2.0)],
     Threshold(1.0), ([0.9, 0.2, 0.5], 1), ([1.3, 0.2, 0.7], 2)),
    ("mixed_threshold", [G1, bernoulli(), poisson()], Threshold(0.6),
     ([0.2, 0.4, 0.3], 1), ([0.2, 0.9, 0.4], 2)),
    ("gaussian_halfspace", [G1, gaussian(0.5)], HalfSpace((1.0, 1.0), 0.5),
     ([0.6, 0.6], 1), ([0.0, 0.0], 2)),
    ("mixed_halfspace", [bernoulli(), poisson(), G1],
     HalfSpace((1.0, 1.0, 1.0), 2.2), ([0.6, 1.5, 0.5], 1),
     ([0.3, 1.0, 0.2], 2)),
    ("ball", [G1, G1], ball((0.0, 0.0), 1.0), ([0.0, 1.4], 1),
     ([1.3, 0.6], 2)),
    ("union2", [G1, gaussian(0.5)],
     UnionHalfSpaces((((1.0, 0.0), 1.0), ((0.0, 1.0), 1.2))),
     ([0.0, 0.0], 1), ([0.3, -0.2], 2)),
    ("mixed_ellipsoid", [poisson(), G1], ellipsoid((1.0, 0.0), (0.5, 1.0)),
     ([2.5, 0.5], 1), ([0.2, 1.4], 2)),
    ("mixed_union2", [bernoulli(), G1],
     UnionHalfSpaces((((1.0, 0.0), 0.8), ((0.0, 1.0), 1.0))),
     ([0.3, 0.0], 1), ([0.1, -0.5], 1)),
]


@pytest.mark.parametrize("name,models,spec,first,second", ISOLATION_CASES,
                         ids=[c[0] for c in ISOLATION_CASES])
def test_a_geometry_carries_nothing_from_one_run_into_the_next(
        name, models, spec, first, second):
    # a campaign prepares one geometry for all its runs (and a pool worker
    # gets a pickled copy of it): run B after run A on one geometry, and on
    # that geometry pickled after run A, gives run B on a fresh geometry,
    # bit for bit
    cfg = StoppingConfig(delta=0.05, max_steps=5000)

    def run_on(geometry, truth, seed):
        res = run(models, truth, spec, cfg, np.random.default_rng(seed),
                  geometry)
        return (res.stop_time, res.declared, res.glr_at_stop.hex(),
                res.final_counts.tolist(),
                [x.hex() for x in res.final_means.tolist()], res.truncated)

    shared = prepare(models, spec)
    a = run_on(shared, *first)
    b = run_on(shared, *second)
    assert b == run_on(prepare(models, spec), *second)
    assert b == run_on(pickle.loads(pickle.dumps(shared)), *second)
    assert a != b and not a[-1] and not b[-1]
    if isinstance(spec, (Threshold, HalfSpace)):
        assert {a[1], b[1]} == {Side.A1, Side.A2}


@pytest.mark.parametrize("name,models,spec,first,second", ISOLATION_CASES,
                         ids=[c[0] for c in ISOLATION_CASES])
def test_a_geometry_is_not_changed_by_its_calls(name, models, spec, first,
                                                second):
    # nothing is assigned on a prepared geometry after its constructor:
    # its pickle is the same bytes before and after a run, an inner and a
    # solution on it
    geometry = prepare(models, spec)
    before = pickle.dumps(geometry)
    truth, seed = first
    run(models, truth, spec, StoppingConfig(delta=0.05, max_steps=5000),
        np.random.default_rng(seed), geometry)
    assert pickle.dumps(geometry) == before
    x = np.array(truth, dtype=float)
    geometry.inner(x, np.arange(1.0, x.size + 1.0), classify(spec, x))
    assert pickle.dumps(geometry) == before
    geometry.solution(x)
    assert pickle.dumps(geometry) == before


class _Recorder:
    """A run's geometry that logs each step's arguments and outcome."""

    def __init__(self, geometry):
        self.geometry, self.log = geometry, []

    def step(self, means, counts, beta):
        side, z, w_hat = self.geometry.step(means, counts, beta)
        w_hat = None if w_hat is None else list(w_hat)
        self.log.append(((list(means), list(counts), beta), (side, z, w_hat)))
        return side, z, w_hat


class _InTurn(_Recorder):
    """Run A's geometry: after each of A's steps on the shared geometry,
    the next of run B's logged step arguments is stepped on it too, and
    its outcome logged in B's."""

    def __init__(self, geometry, other_args):
        super().__init__(geometry)
        self.other = _Recorder(geometry)
        self.pending = list(other_args)

    def step(self, means, counts, beta):
        out = super().step(means, counts, beta)
        self.other_step()
        return out

    def other_step(self):
        if self.pending:
            self.other.step(*self.pending.pop(0))


class _Replay:
    """A run's geometry that returns a logged outcome for each step,
    whose arguments must be the logged ones."""

    def __init__(self, log):
        self.log = list(log)

    def step(self, means, counts, beta):
        args, out = self.log.pop(0)
        assert (list(means), list(counts), beta) == args
        return out


@pytest.mark.parametrize("name,models,spec,first,second", ISOLATION_CASES,
                         ids=[c[0] for c in ISOLATION_CASES])
def test_two_runs_stepped_in_turn_on_one_geometry(name, models, spec, first,
                                                  second):
    # runs A and B take their steps in turn on one geometry and give the
    # results each gives on a geometry of its own. B's steps are made on
    # the shared geometry between A's, with the arguments B's own run
    # passed; B's result is then its run on the outcomes they gave there
    cfg = StoppingConfig(delta=0.05, max_steps=5000)

    def result(geometry, truth, seed):
        res = run(models, truth, spec, cfg, np.random.default_rng(seed),
                  geometry)
        return (res.stop_time, res.declared, res.glr_at_stop.hex(),
                res.final_counts.tolist(),
                [x.hex() for x in res.final_means.tolist()], res.truncated)

    alone_a = result(prepare(models, spec), *first)
    b_alone = _Recorder(prepare(models, spec))
    alone_b = result(b_alone, *second)
    in_turn = _InTurn(prepare(models, spec), [a for a, _ in b_alone.log])
    got_a = result(in_turn, *first)
    while in_turn.pending:
        in_turn.other_step()
    got_b = result(_Replay(in_turn.other.log), *second)
    assert (got_a, got_b) == (alone_a, alone_b)
    # the steps did alternate
    assert min(len(in_turn.log), len(b_alone.log)) > 3


# (name, models, truth, spec) for run_deltas against run at each delta
RUN_DELTAS_CASES = [
    ("gaussian_threshold", [G1, gaussian(0.5), gaussian(2.0)],
     [1.3, 0.2, 0.7], Threshold(1.0)),
    ("mixed_threshold", [G1, bernoulli(), poisson()], [0.2, 0.4, 0.3],
     Threshold(0.6)),
    ("gaussian_halfspace", [G1, gaussian(0.5)], [0.6, 0.6],
     HalfSpace((1.0, 1.0), 0.5)),
    ("mixed_halfspace", [bernoulli(), poisson(), G1], [0.6, 1.5, 0.5],
     HalfSpace((1.0, 1.0, 1.0), 2.2)),
    ("ball", [G1, G1], [1.5, 0.0], ball((0.0, 0.0), 1.0)),
    ("poisson_ellipsoid", [poisson(), poisson()], [3.0, 1.0],
     ellipsoid((1.0, 1.0), (1.0, 1.5))),
    ("union2", [G1, gaussian(0.5)], [0.0, 0.0],
     UnionHalfSpaces((((1.0, 0.0), 0.6), ((0.0, 1.0), 0.8)))),
]
# unsorted, with a duplicate
RUN_DELTAS = (0.01, 0.2, 0.05, 0.2)


def _record(res):
    return (res.stop_time, res.declared, res.correct, res.glr_at_stop.hex(),
            res.forced_exploration_violations, res.truncated,
            res.final_counts.tolist(),
            [x.hex() for x in res.final_means.tolist()])


@pytest.mark.parametrize("name,models,truth,spec", RUN_DELTAS_CASES,
                         ids=[c[0] for c in RUN_DELTAS_CASES])
@pytest.mark.parametrize("seed", [1, 2])
def test_run_deltas_gives_each_delta_its_run_alone(name, models, truth, spec,
                                                   seed):
    stops = [StoppingConfig(delta=d) for d in RUN_DELTAS]
    got = run_deltas(models, truth, spec, stops, np.random.default_rng(seed))
    assert len(got) == len(stops)
    for stop, res in zip(stops, got):
        alone = run(models, truth, spec, stop, np.random.default_rng(seed))
        assert _record(res) == _record(alone), stop.delta
    # one path: a larger delta stops no later than a smaller one
    times = sorted((stop.delta, res.stop_time) for stop, res in
                   zip(stops, got))
    assert all(a[1] >= b[1] for a, b in zip(times, times[1:]))
    assert not any(res.truncated for res in got)


def test_run_deltas_truncates_only_the_deltas_not_yet_crossed():
    # max_steps between the stop times at 0.2 and 1e-4: the larger deltas
    # cross, and the smallest truncates there with the step's side and Z,
    # as its run alone does
    models, truth, spec = [G1, G1], [0.0, 0.0], HalfSpace((1.0, 1.0), 1.0)
    free = run(models, truth, spec, StoppingConfig(delta=0.2),
               np.random.default_rng(4))
    deep = run(models, truth, spec, StoppingConfig(delta=1e-4),
               np.random.default_rng(4))
    assert deep.stop_time > free.stop_time + 1
    for max_steps in free.stop_time, deep.stop_time - 1:
        stops = [StoppingConfig(delta=d, max_steps=max_steps)
                 for d in (1e-4, 0.2, 1e-4)]
        got = run_deltas(models, truth, spec, stops,
                         np.random.default_rng(4))
        for stop, res in zip(stops, got):
            alone = run(models, truth, spec, stop, np.random.default_rng(4))
            assert _record(res) == _record(alone)
        assert [res.truncated for res in got] == [True, False, True]
        assert got[0].stop_time == max_steps
        assert got[1].stop_time == free.stop_time


@pytest.mark.parametrize("other", [
    StoppingConfig(delta=0.01, c_const=2.0),
    StoppingConfig(delta=0.01, max_steps=500),
], ids=["c_const", "max_steps"])
def test_run_deltas_rejects_stops_that_differ_beyond_delta(other):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="differ only in delta"):
        run_deltas([G1, G1], [2.0, 0.0], Threshold(1.0),
                   [StoppingConfig(delta=0.1), other], rng)
    # before the first draw
    assert rng.bit_generator.state == \
        np.random.default_rng(0).bit_generator.state


def _halfspace_geometry(models=(G1, G1), spec=HalfSpace((1.0, 1.0), 1.0)):
    geometry = prepare(list(models), spec)
    assert isinstance(geometry, PreparedHalfSpace)
    return geometry


class TestPreparedHalfSpaceChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_raises(self, bad):
        # on the closed-form path and, with a zero count, the general one
        geometry = _halfspace_geometry()
        for counts in [3, 3], [3, 0]:
            with pytest.raises(DomainError, match="mu\\[0\\]"):
                geometry.step([bad, 0.0], counts, math.inf)

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
    def test_boundary_band_gives_zero_and_uniform(self, monkeypatch, means):
        geometry = _halfspace_geometry()

        def unreached(*args):
            raise AssertionError("statistic or weights on a boundary step")

        # a boundary step evaluates neither the statistic nor the weights
        for name in "_gaussian_unit_inner", "_unit_halfspace_inner":
            monkeypatch.setattr(lb_solvers, name, unreached)
        monkeypatch.setattr(geometry, "_weights", unreached)
        for counts in [3, 3], [3, 0]:
            assert geometry.step(means, counts, -1.0) == \
                (Side.BOUNDARY, 0.0, [0.5, 0.5])

        class OnTheBand:
            # every step's means sit where the half-space puts them on the
            # band
            def step(self, mu, counts, beta):
                return geometry.step(means, counts, beta)

        res = _track_and_stop([G1, G1], np.zeros(2), Side.A1, OnTheBand(),
                              (StoppingConfig(delta=0.1, max_steps=40),),
                              np.random.default_rng(0))[0]
        assert (res.truncated, res.declared, res.glr_at_stop) == \
            (True, Side.A1, 0.0)
        # uniform weights: tracking alternates between the two arms
        assert res.final_counts.tolist() == [20, 20]


class _RowKernel(PublicApiKernel):
    """PublicApiKernel for a row with zero entries, which HalfSpace
    rejects: classify on the one-row union, and a freshly prepared row's
    inner and solution, the array entry points inner_inf and solve call
    (inner_inf on the union checks means that are not finite)."""

    def __init__(self, models, a, b):
        super().__init__(models, UnionHalfSpaces(((a, b),)))
        self.row = _Row(a, b)

    def value(self, means, counts):
        x = np.array(means)
        if not np.all(np.isfinite(x)):
            return super().value(means, counts)
        return PreparedHalfSpace(self.models, self.row).inner(
            x, np.array(counts, dtype=float), self.side(means))[0]

    def weights(self, means):
        return PreparedHalfSpace(self.models, self.row).solution(
            np.array(means)).w_star


def _reference(models, a, b):
    """The public reference step of the half-space row (a, b)."""
    if 0.0 in a:
        return _RowKernel(models, a, b)
    return PublicApiKernel(models, HalfSpace(a, b))


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
    # the run step's closed form on floats against the step of classify,
    # inner_inf and solve, with ==: both sides, means at the edge of the
    # boundary band (1e-3 relative of +-TOL_CLASS), counts with a zero
    # entry (the general path) and means that are not finite
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
                got = _step_bits(PreparedHalfSpace(models, _Row(a, b)).step,
                                 means, c, math.inf)
                want = _step_bits(_reference(models, a, b).step, means, c,
                                  math.inf)
                assert got == want, (models, a, b, means, c)
                seen.add((got[0], 0 in c, float.fromhex(got[1]) > 0.0))
        bad = means[:]
        bad[int(rng.integers(k))] = [math.nan, math.inf,
                                     -math.inf][int(rng.integers(3))]
        got = _step_bits(PreparedHalfSpace(models, _Row(a, b)).step, bad,
                         counts, math.inf)
        assert got is DomainError, (a, b, bad)
        assert _step_bits(_reference(models, a, b).step, bad, counts,
                          math.inf) is DomainError
    assert {(Side.A1, False, True), (Side.A2, False, True)} <= seen
    assert Side.BOUNDARY in {s for s, _, _ in seen}


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_side_and_classify_agree_at_the_band_edges(k):
    # walk one arm's mean a float at a time across +-TOL_CLASS and compare
    # the step's side (_dot_and_side) with classify at every float within a
    # few ulps of the crossing, with `is`: the band is decided by one
    # expression
    rng = np.random.default_rng(900 + k)
    seen = set()
    for _ in range(30):
        models, a, b = _gaussian_row(rng, k)
        spec = UnionHalfSpaces(((a, b),)) if 0.0 in a else HalfSpace(a, b)
        geometry = PreparedHalfSpace(models, _Row(a, b))
        i = next(j for j, aj in enumerate(a) if aj != 0.0)
        for edge in (TOL_CLASS, -TOL_CLASS):
            means = _means_near(rng, a, b, edge)
            start = geometry._dot_and_side(means)[1]
            # leaving the band needs |margin| to grow, entering it to shrink
            grow = (start is Side.BOUNDARY) == (edge > 0)
            toward = math.inf if grow == (a[i] > 0) else -math.inf
            for _ in range(10 ** 4):
                if geometry._dot_and_side(means)[1] is not start:
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
                got = geometry._dot_and_side(means)[1]
                assert got is classify(spec, np.array(means)), (a, b, means)
                seen.add(got)
    assert seen == {Side.A1, Side.A2, Side.BOUNDARY}


def _step_bits(step, means, counts, beta):
    """step(means, counts, beta) with each float as its bits (float.hex,
    which tells -0.0 from 0.0), or the type of the error it raised."""
    try:
        side, z, w_hat = step(means, counts, beta)
    except PartidError as exc:
        return type(exc)
    return side, float(z).hex(), \
        None if w_hat is None else [float(x).hex() for x in w_hat]


def _betas_and_tie(rng, step, means, counts):
    """_betas, and the Z that step gives at these means as a beta of its
    own, where Z >= beta holds with equality (PartidError: no tie)."""
    betas = _betas(rng)
    try:
        betas.append(step(means, counts, math.inf)[1])
    except PartidError:
        pass
    return betas


def _arms(rng, k, kind):
    """k arms: Gaussian of mixed variances, Bernoulli and Poisson, or all
    three families."""
    pick = {"gaussian": [0], "bernoulli_poisson": [1, 2],
            "mixed": [0, 1, 2]}[kind]
    out = []
    for _ in range(k):
        j = pick[int(rng.integers(len(pick)))]
        out.append(gaussian(float(10.0 ** rng.uniform(-2, 2))) if j == 0
                   else bernoulli() if j == 1 else poisson())
    return out


def _inside(model, x):
    """x moved into the arm's open mean domain, 1e-3 inside a finite
    edge."""
    lo, hi = lb_solvers.mean_domain(model)
    return min(max(x, lo + 1e-3), hi - 1e-3)


def _betas(rng):
    # below any statistic (every step off the boundary stops), at 0, a
    # level some steps clear, and one none does
    return [-1.0, 0.0, float(rng.uniform(0.0, 5.0)), 1e300]


def _step_counts(rng, k):
    counts = rng.integers(1, 60, k).tolist()
    if k == 1:
        return [counts]
    zero = counts[:]
    zero[int(rng.integers(k))] = 0
    return [counts, zero]


@pytest.mark.parametrize("k,kind", [
    (k, kind) for k in (1, 2, 3, 5)
    for kind in ("bernoulli_poisson", "gaussian", "mixed")] + [
    # t* is the pass's left-to-right sum, which np.add.reduce's pairwise
    # sum rounds otherwise from 8 arms on
    (7, "gaussian"), (8, "gaussian"), (9, "gaussian")])
def test_threshold_step_is_the_public_solvers_with_the_loop_fallbacks(k,
                                                                      kind):
    # a prepared threshold's step against the step of classify, inner_inf
    # and solve with the loop's fallbacks, bit for bit: means on both
    # sides, the top mean within a few ulps of TOL_CLASS of the level and
    # inside the band, and counts with a zero. inner_inf rejects means that are not finite,
    # which the prepared threshold takes unchecked, so every mean here is
    # finite (test_threshold_weights_at_a_nan_mean_are_degenerate takes
    # NaN means)
    rng = np.random.default_rng(1300 + 10 * k + len(kind))
    seen = set()
    for _ in range(40):
        models = _arms(rng, k, kind)
        u = float(rng.uniform(0.2, 0.8))
        spec = Threshold(u)
        base = [_inside(m, u + float(rng.normal(0.0, 0.3))) for m in models]
        top = int(rng.integers(k))
        offsets = [float(rng.normal(0.0, 0.3))] + [
            s * TOL_CLASS * (1.0 + float(rng.uniform(-1e-3, 1e-3)))
            for s in (1.0, -1.0)] + [0.5 * TOL_CLASS, 0.0]
        for off in offsets:
            means = [min(x, u - 0.05) for x in base]
            means[top] = _inside(models[top], u + off)
            for counts in _step_counts(rng, k):
                for beta in _betas_and_tie(rng, prepare(models, spec).step,
                                           means, counts):
                    got = _step_bits(prepare(models, spec).step, means,
                                     counts, beta)
                    want = _step_bits(PublicApiKernel(models, spec).step,
                                      means, counts, beta)
                    assert got == want, (models, u, means, counts, beta)
                    seen.add((got[0], got[2] is None))
    assert {(Side.A1, True), (Side.A1, False), (Side.A2, True),
            (Side.A2, False), (Side.BOUNDARY, False)} <= seen


_TINY = gaussian(1e-300)
_WIDE = gaussian(1e300)
_MIXED = [bernoulli(), poisson(), G1]


@pytest.mark.parametrize("models,u,means", [
    # variance 1e-300: a divergence 1e5 or more from the level overflows
    # to inf, so above it Z is inf (NaN at a zero count) and below it
    # that arm's inverse is 0, and t* is 0 when every arm's is
    ([_TINY] * 3, 0.0, [1e5, -0.5, 3e4]),
    ([_TINY] * 3, 0.0, [-1e5, -2e5, -3e4]),
    ([G1, _TINY, G1], 0.0, [-1.0, -1e5, -0.3]),
    ([G1, _TINY, G1], 0.0, [-1.0, 1e5, 0.7]),
    # a subnormal divergence, 1e-10 / 2e300, whose inverse overflows: t*
    # is inf
    ([G1, _WIDE], 0.0, [-1.0, -1e-5]),
    ([_WIDE, G1, G1], 0.0, [-1e-5, -1.0, -2.0]),
    # a mixed-family arm exactly at the level: skipped above it, and the
    # boundary when it is the largest mean
    (_MIXED, 0.5, [0.5, 0.9, 0.2]),
    (_MIXED, 0.5, [0.3, 0.5, 1.2]),
    (_MIXED, 0.5, [0.5, 0.3, 0.2]),
    (_MIXED, 0.5, [0.3, 0.5, -0.2]),
])
def test_threshold_step_where_its_arithmetic_is_fragile(models, u, means):
    # the prepared threshold's step where divergences overflow, an inverse
    # overflows or an arm sits at the level: at every beta it is its step
    # at beta inf, with the weights cut where the step stops; and it is the
    # public solvers' step where they are defined, every divergence finite
    # and no count 0, as in a run. Where a divergence overflows, above the
    # level the step tracks the top arm and below it the inverse
    # divergences, while solve_threshold raises NumericalError naming the
    # first such arm
    spec = Threshold(u)
    public = _TINY not in models
    rng = np.random.default_rng(1400 + len(models))
    for counts in _step_counts(rng, len(models)) + [[3] * len(models)]:
        full = _step_bits(prepare(models, spec).step, means, counts,
                          math.inf)
        for beta in _betas_and_tie(rng, prepare(models, spec).step, means,
                                   counts):
            got = _step_bits(prepare(models, spec).step, means, counts, beta)
            # a boundary step never stops
            stops = full[0] is not Side.BOUNDARY and \
                float.fromhex(full[1]) >= beta
            assert got == full[:2] + (None if stops else full[2],), \
                (models, u, means, counts, beta)
            if not public or 0 in counts:
                continue
            want = _step_bits(PublicApiKernel(models, spec).step, means,
                              counts, beta)
            assert got == want, (models, u, means, counts, beta)
    if not public:
        with pytest.raises(NumericalError,
                           match=f"arm {models.index(_TINY)} "):
            solve(models, means, spec)


@pytest.mark.parametrize("models,means", [
    (models, means) for models in ([G1] * 3, _MIXED) for means in (
        [0.5, 0.2, 0.1], [0.2, 0.5, 0.1], [0.2, 0.1, 0.5],
        [math.nan, 0.2, 0.5], [0.5, 0.2, math.nan], [0.2, math.nan, 0.1])] + [
    # every divergence overflows to inf, so every inverse is 0 and t* is 0
    ([_TINY] * 3, [-1e5, -2e5, -3e4]),
    # a subnormal divergence, whose inverse and so t* overflow to inf
    ([G1, _WIDE, G1], [0.2, 0.5 - 1e-5, 0.1]),
])
def test_threshold_inverse_gap_weights_raise_where_t_star_is_undefined(
        models, means):
    # below the level, the weights of a pass where a divergence is 0 (a
    # mean at the level) or NaN raise wherever it sits among the arms,
    # whatever comes before or after it, and so does a t* of 0 or inf
    geometry = prepare(models, Threshold(0.5))
    p = geometry._pass(means, [3, 4, 5], Side.A2)
    with pytest.raises(DegenerateInstance):
        geometry._weights(Side.A2, *p[1:])


@pytest.mark.parametrize("means,side", [
    ([0.9, 0.2, 0.7], Side.A1), ([0.1, 0.2, 0.3], Side.A2)])
def test_threshold_weights_are_a_fresh_list(means, side):
    # the step shares its one-hot weights above the level across steps; the
    # weights solution returns are fresh, so a caller that changes them
    # changes no later step or solution
    geometry = prepare([G1] * 3, Threshold(0.5))
    want = _step_bits(geometry.step, means, [3, 4, 5], 1e300)
    assert want[0] is side
    w = geometry.solution(np.array(means)).w_star
    w[:] = 7.0
    assert _step_bits(geometry.step, means, [3, 4, 5], 1e300) == want
    assert [x.hex() for x in geometry.solution(
        np.array(means)).w_star.tolist()] == want[2]


@pytest.mark.parametrize("means,side,z", [
    ([math.nan, 0.5], Side.A2, 0.0),
    ([0.5, math.nan], Side.BOUNDARY, 0.0),
    ([math.nan, -0.5], Side.A2, 2.0),
    ([-0.5, math.nan], Side.A2, 1.5),
])
def test_threshold_weights_at_a_nan_mean_are_degenerate(means, side, z):
    # a NaN divergence before a zero one makes min() NaN, which a <= 0.0
    # test let through to 1 / 0.0 (ZeroDivisionError); below the level the
    # weights raise DegenerateInstance at any NaN divergence, and the step
    # falls back to uniform weights
    geometry = prepare([G1, G1], Threshold(0.5))
    with pytest.raises(DegenerateInstance):
        geometry._weights(Side.A2, *geometry._pass(means, [3, 4],
                                                   Side.A2)[1:])
    assert prepare([G1, G1], Threshold(0.5)).step(means, [3, 4], 10.0) == \
        (side, z, [0.5, 0.5])


def test_threshold_step_where_every_divergence_underflows():
    # the one arm above the level has (mu - u)^2 / (2 v) = 4e-24 / 2e300,
    # which underflows to 0: no arm is on top, the weights raise
    # DegenerateInstance, and the step falls back to uniform weights, as
    # the public solvers' step does
    models, spec = [gaussian(1e300), G1], Threshold(0.0)
    got = _step_bits(prepare(models, spec).step, [2e-12, -1.0], [3, 4], 1.0)
    want = _step_bits(PublicApiKernel(models, spec).step, [2e-12, -1.0],
                      [3, 4], 1.0)
    assert got == want == (Side.A1, (0.0).hex(), [(0.5).hex()] * 2)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli_poisson", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_halfspace_step_is_the_parts_with_the_loop_fallbacks(kind, k):
    # PreparedHalfSpace.step against the public solvers' step with the
    # loop's fallbacks (_reference), bit for bit: rows with and without
    # zero entries, unit-row margins
    # on both sides, within a few ulps of 1e-12 (where classify and the
    # weights' hyperplane test part) and inside the band, counts with a
    # zero, and a mean that is not finite
    rng = np.random.default_rng(1500 + 10 * k + len(kind))
    seen = set()
    for _ in range(30):
        models = _arms(rng, k, kind)
        a = rng.uniform(0.1, 2.0, k) * rng.choice((-1.0, 1.0), k)
        if k > 1 and rng.random() < 0.4:
            a[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        a = tuple(a.tolist())
        base = [_inside(m, float(rng.uniform(0.0, 1.0))) for m in models]
        norm = math.sqrt(partitions.row_dot(a, a))
        margins = [float(rng.normal(0.0, 0.5)) for _ in range(2)] + [
            s * 1e-12 * (1.0 + float(rng.uniform(-1e-3, 1e-3)))
            for s in (1.0, -1.0)] + [0.3e-12, 0.0]
        for margin in margins:
            # the offset that puts the base means at about this margin
            spec = _Row(a, partitions.row_dot(a, base) - margin * norm)
            means = base[:]
            if rng.random() < 0.15:
                means[int(rng.integers(k))] = [math.nan, math.inf,
                                               -math.inf][int(rng.integers(3))]
            for counts in _step_counts(rng, k):
                for beta in _betas_and_tie(
                        rng, PreparedHalfSpace(models, spec).step, means,
                        counts):
                    got = _step_bits(PreparedHalfSpace(models, spec).step,
                                     means, counts, beta)
                    want = _step_bits(_reference(models, a, spec.b).step,
                                      means, counts, beta)
                    assert got == want, (models, a, means, counts, beta)
                    seen.add(got if isinstance(got, type)
                             else (got[0], got[2] is None))
    assert {(Side.A1, True), (Side.A1, False), (Side.A2, True),
            (Side.A2, False), (Side.BOUNDARY, False)} <= seen
    if kind != "bernoulli_poisson":
        assert DomainError in seen


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
    # after prepare, steps (zero counts included) and a whole run give the
    # same floats with numpy taken away from lb_solvers and partitions
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
            for beta in 5.0, math.inf:
                out.append(_step_bits(geometry.step, means, counts, beta))
        return out

    truth = np.array(truth)
    true_side = classify(UnionHalfSpaces(((a, b),)), truth)

    def one_run():
        res = _track_and_stop(models, truth, true_side, geometry,
                              (StoppingConfig(delta=0.01),),
                              np.random.default_rng(3))[0]
        return (res.stop_time, res.declared, res.glr_at_stop,
                res.final_counts.tolist())

    want = step_outcomes(), one_run()
    monkeypatch.setattr(lb_solvers, "np", _NoNumpy())
    monkeypatch.setattr(partitions, "np", _NoNumpy())
    got = step_outcomes(), one_run()
    assert got == want
    assert {Side.A1, Side.A2} <= {x[0] for x in want[0]
                                  if isinstance(x, tuple)}
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
    it with clamp_to_interior, takes the step of a geometry from prepare,
    calls beta_threshold, and pulls by
    _next_arm, the D-tracking rule taken from t and the counts. Its draws
    are per-arm samplers on rng. sides lists the side of every step."""
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
        side, z, w_hat = geometry.step(means, counts, beta_threshold(t, cfg))
        sides.append(side)
        if w_hat is None:
            declared = side
            break
        if t >= cfg.max_steps:
            truncated = True
            declared = Side.A1 if side is Side.BOUNDARY else side
            break
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


@pytest.mark.parametrize("seed", [1, 2])
def test_gaussian_threshold_run_truncated_near_the_level(seed):
    # K = 5 unit-variance arms with the top mean 0.003 above the level, as
    # risk-demo paths that reach max_steps: 20,000 steps of block draws and
    # the run loop against the plain loop on per-arm samplers, bit for
    # bit
    models, mu = [G1] * 5, [0.2, 0.9, 1.003, 0.5, 0.0]
    cfg = StoppingConfig(delta=0.05, max_steps=20_000)
    got = run(models, mu, Threshold(1.0), cfg, np.random.default_rng(seed))
    want, sides = _reference_run(models, mu, Threshold(1.0), cfg,
                                 np.random.default_rng(seed))
    assert _result_fields(got) == want
    assert got.truncated and got.stop_time == 20_000
    assert {Side.A1, Side.A2} <= set(sides)

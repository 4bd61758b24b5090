"""Saddle-point solvers: closed forms, KKT residuals, failure modes.

The pinned anchor instances and the big randomized batteries live in the
acceptance suite; these tests pin the solver semantics one case at a time.
"""

import dataclasses
import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partid import parse_config, partitions, spef
from partid.errors import (DegenerateInstance, DomainError,
                           InfeasibleAlternative, NumericalError,
                           UnsupportedCase)
from partid import lb_solvers
from partid.lb_solvers import (PreparedHalfSpace, PreparedThreshold, _Row,
                               inner_inf, solve,
                               solve_convex, solve_halfspace,
                               solve_threshold, solve_union_halfspaces)
from partid.partitions import (ConvexSublevel, HalfSpace, Side, Threshold,
                               UnionHalfSpaces, ball, ellipsoid)
from partid.reference_oracle import brute_force_lb, solve_two_arm_gaussian
from partid.spef import (bernoulli, gaussian, kl, kl_array, kl_dnu,
                         mean_domain, poisson)
from support import (best_arm_rows, random_ball_instance,
                     random_halfspace_instance, random_mixed_union_instance,
                     slsqp_union_lb)

G1 = gaussian(1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestSolveThreshold:
    def test_above_side_puts_everything_on_widest_gap(self):
        sol = solve_threshold([gaussian(2.0), gaussian(2.0)], [3.0, 0.0], 1.0)
        np.testing.assert_array_equal(sol.w_star, [1.0, 0.0])
        assert sol.c_star == pytest.approx(4.0 / 4.0)
        assert sol.t_star == pytest.approx(1.0)
        np.testing.assert_allclose(sol.nu_star, [1.0, 0.0])
        assert sol.active_set == (0,)

    def test_above_side_tie_takes_lowest_index(self):
        sol = solve_threshold([G1, G1, G1], [2.0, 2.0, 0.0], 1.0)
        np.testing.assert_array_equal(sol.w_star, [1.0, 0.0, 0.0])
        assert sol.active_set == (0, 1)

    def test_above_side_only_drags_arms_above_level(self):
        sol = solve_threshold([G1, G1], [2.0, 0.5], 1.0)
        np.testing.assert_allclose(sol.nu_star, [1.0, 0.5])

    def test_below_side_inverse_gap_weights(self):
        models = [G1, G1]
        mu = [0.0, -1.0]
        sol = solve_threshold(models, mu, 1.0)
        gaps = np.array([0.5, 2.0])
        inv = 1.0 / gaps
        np.testing.assert_allclose(sol.w_star, inv / inv.sum(), atol=1e-15)
        assert sol.t_star == pytest.approx(inv.sum())
        # reported minimizer raises the first arm to the level
        np.testing.assert_allclose(sol.nu_star, [1.0, -1.0])
        assert sol.active_set == (0, 1)
        # every product w_i * kl_i ties at c_star
        assert sol.kkt_residuals["product_spread"] <= 1e-15

    @pytest.mark.parametrize("k", [2, 5, 7, 8, 9, 12, 17, 40, 130, 300])
    def test_below_side_sums_t_star_in_numpy_order(self, k):
        # the weights are computed on Python floats; t* and w* must be the
        # left-to-right sum of the inverse divergences, bit for bit, which
        # below 8 terms is numpy's sum (from 8 on it sums pairwise)
        rng = np.random.default_rng(k)
        models = [gaussian(v) for v in rng.uniform(0.2, 3.0, k)]
        mu = rng.uniform(-2.0, 0.9, k)
        sol = solve_threshold(models, mu, 1.0)
        gaps = np.array([kl(m, x, 1.0) for m, x in zip(models, mu)])
        inv = 1.0 / gaps
        tstar = 0.0
        for x in inv.tolist():
            tstar += x
        if k < 8:
            assert tstar == np.add.reduce(inv)
        assert sol.c_star == 1.0 / tstar
        np.testing.assert_array_equal(sol.w_star, inv / tstar)

    def test_below_side_matches_inner_inf_at_w_star(self):
        models = [bernoulli(), poisson()]
        mu = [0.2, 0.7]
        sol = solve_threshold(models, mu, 0.9)
        inner = inner_inf(models, mu, sol.w_star, Threshold(0.9))
        assert inner.value == pytest.approx(sol.c_star, rel=1e-12)

    def test_boundary_mean_rejected(self):
        with pytest.raises(DegenerateInstance):
            solve_threshold([G1, G1], [1.0, 0.0], 1.0)

    @pytest.mark.parametrize("mu,arm", [([1e5, 0.0], 0), ([-1e5, -1.0], 0),
                                        ([0.5, 1e5], 1), ([-1.0, -1e5], 1)],
                             ids=["above", "below", "above_arm1",
                                  "below_arm1"])
    def test_overflowed_divergence_raises_numerical_error(self, mu, arm):
        # with variance 1e-300 a divergence 1e5 from the level overflows
        # to inf: above the level the saddle value, below it the product
        # residual 0 * inf would be taken on it
        models = [gaussian(1e-300)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"arm {arm} "):
                solve_threshold(models, mu, 0.0)

    def test_level_outside_arm_domain_rejected(self):
        with pytest.raises(DomainError, match="outside arm 1 domain"):
            solve_threshold([G1, bernoulli()], [3.0, 0.5], 2.0)

    def test_mean_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            solve_threshold([bernoulli(), bernoulli()], [0.5, 1.2], 0.6)


class TestSolveHalfspace:
    def test_two_arm_gaussian_closed_form(self):
        # equal variances, symmetric normal: the minimizer is the projection
        # onto the hyperplane and c* = margin^2 / (2 v sum a_i^2)
        sol = solve_halfspace([gaussian(0.5), gaussian(0.5)],
                              [1.0, 0.0], (1.0, 1.0), 2.0)
        np.testing.assert_allclose(sol.nu_star, [1.5, 0.5], atol=1e-9)
        assert sol.c_star == pytest.approx(0.25, abs=1e-10)
        np.testing.assert_allclose(sol.w_star, [0.5, 0.5], atol=1e-8)

    def test_scale_invariance(self):
        models = [G1, bernoulli()]
        mu = [0.0, 0.3]
        s1 = solve_halfspace(models, mu, (1.0, 2.0), 1.5)
        s2 = solve_halfspace(models, mu, (5.0, 10.0), 7.5)
        assert s1.c_star == pytest.approx(s2.c_star, rel=1e-10)
        np.testing.assert_allclose(s1.nu_star, s2.nu_star, atol=1e-9)

    def test_mu_in_a2_is_flagged_and_solved(self):
        models = [G1, G1]
        sol = solve_halfspace(models, [2.0, 2.0], (1.0, 1.0), 1.0)
        assert "mu_in_a2" in sol.flags
        # displacement now points down toward the hyperplane
        assert np.all(sol.nu_star < np.array([2.0, 2.0]))
        assert sol.kkt_residuals["hyperplane"] <= 1e-8

    def test_residuals_on_mixed_families(self, rng):
        for _ in range(10):
            models, mu, a, b = random_halfspace_instance(rng)
            sol = solve_halfspace(models, mu, a, b)
            r = sol.kkt_residuals
            assert r["equal_divergence"] <= 1e-8
            assert r["hyperplane"] <= 1e-8
            assert r["sign_violations"] == 0.0
            assert r["tangency_spread"] <= 1e-8
            assert inner_inf(models, mu, sol.w_star,
                             HalfSpace(tuple(a), b)).value == \
                pytest.approx(sol.c_star, rel=1e-6)

    def test_single_arm(self):
        sol = solve_halfspace([G1], [0.0], (1.0,), 1.0)
        assert sol.c_star == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(sol.w_star, [1.0])

    def test_on_hyperplane_rejected(self):
        with pytest.raises(DegenerateInstance):
            solve_halfspace([G1, G1], [0.5, 0.5], (1.0, 1.0), 1.0)

    def test_unreachable_halfspace_rejected(self):
        # sup of nu1 + nu2 over (0,1)^2 is 2, so b = 2.5 is out of reach
        with pytest.raises(InfeasibleAlternative):
            solve_halfspace([bernoulli(), bernoulli()], [0.5, 0.5],
                            (1.0, 1.0), 2.5)


    def test_tiny_level_solves_to_float_resolution_without_warnings(self):
        # a gap of 1e-6 puts c* near 2.2e-13; the Poisson arm's alternative
        # sits 6.7e-7 above mu = 1.0 and the last Bernoulli arm's 6.7e-10
        # above its mean, one ulp of which moves its divergence by 7e-20
        models = [bernoulli(), poisson(), bernoulli()]
        mu, a, b = np.array([0.5, 1.0, 0.999999]), np.ones(3), 2.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_halfspace(models, mu, a, b)
        gap = b - float(a @ mu)
        assert sol.flags == ()
        assert sol.c_star == pytest.approx(2.219e-13, rel=1e-3)
        assert sol.kkt_residuals["equal_divergence"] <= 1e-8 * sol.c_star
        assert sol.kkt_residuals["hyperplane"] <= 1e-6 * gap


def _sweep_certified(models, mu, spec):
    """solve() at mu, checked as the bound_sweep benchmark checks every
    solution: c* finite and positive, w* finite and summing to 1 within
    1e-9, sum_i w_i kl_i(mu_i, nu*_i) equal to c* within 1e-6 relative, and
    the inner infimum at the weights halfway to uniform at most
    c* (1 + 1e-6)."""
    sol = solve(models, mu, spec)
    c, w = sol.c_star, sol.w_star
    assert math.isfinite(c) and c > 0
    assert np.all(np.isfinite(w)) and abs(float(w.sum()) - 1.0) <= 1e-9
    saddle = sum(w[i] * kl(models[i], mu[i], sol.nu_star[i])
                 for i in range(len(models)))
    assert abs(saddle - c) <= 1e-6 * c
    mixed = 0.5 * (w + 1.0 / len(models))
    assert inner_inf(models, mu, mixed, spec).value <= c * (1.0 + 1e-6)
    return sol


# bound_sweep instances whose Bernoulli optimum lies closer to 1 than the
# last float below 1: (models, mu, half-space, saturated arm, its
# divergence at that float)
EDGE_SATURATED_CASES = [
    ("seed106_op15",
     [bernoulli(), gaussian(0.4942820169266995)],
     [0.7249538482348866, -1.7017388506333044],
     HalfSpace((1.365524805183654, 1.2304552960154291), 3.485924823573154),
     0, 9.52),
    ("seed186_op72",
     [gaussian(0.46038916224230786), bernoulli(), bernoulli()],
     [-1.5921906847992564, 0.829013330849308, 0.8070680946843902],
     HalfSpace((-0.545158553319188, -0.313972242222656, 0.47384676311720836),
               -0.9153655052528171),
     1, 5.82),
]


@pytest.mark.parametrize("name,models,mu,spec,arm,edge_level",
                         EDGE_SATURATED_CASES,
                         ids=[c[0] for c in EDGE_SATURATED_CASES])
def test_bernoulli_optimum_past_the_last_float(name, models, mu, spec, arm,
                                               edge_level):
    # the level c* exceeds what the arm reaches at the last float below 1:
    # it sits there, with a finite slope and a weight near 1e-15, and
    # equal_divergence reports its shortfall
    mu = np.array(mu)
    sol = _sweep_certified(models, mu, spec)
    last = math.nextafter(1.0, 0.0)
    level = kl(models[arm], mu[arm], last)
    assert level == pytest.approx(edge_level, abs=0.01) and level < sol.c_star
    assert "edge_saturated" in sol.flags
    assert sol.nu_star[arm] == last
    assert 0.0 < sol.w_star[arm] < 1e-12
    assert sol.kkt_residuals["equal_divergence"] == pytest.approx(
        sol.c_star - level, rel=1e-9)


def test_bernoulli_optimum_below_the_smallest_float():
    # from mu = 1e-6 the divergence reaches only 7.3e-4 at the smallest
    # positive float, far below c* = 2 set by the Gaussian arm; the slope
    # there overflows, so the saturated arm has weight 0
    models, mu = [bernoulli(), G1], np.array([1e-6, 0.0])
    spec = HalfSpace((-1.0, 1.0), 2.0)
    sol = _sweep_certified(models, mu, spec)
    assert sol.flags == ("edge_saturated",)
    assert sol.c_star == pytest.approx(2.0, rel=1e-12)
    assert sol.nu_star[0] == math.nextafter(0.0, 1.0)
    np.testing.assert_array_equal(sol.w_star, [0.0, 1.0])
    assert sol.kkt_residuals["equal_divergence"] == pytest.approx(
        2.0 - kl(bernoulli(), 1e-6, sol.nu_star[0]), rel=1e-9)
    assert sol.kkt_residuals["tangency_spread"] == 0.0


def test_a_saturated_first_trial_brackets_the_level_by_halving():
    # arm 0's variance at mu_0 = 1e-200 puts the Gaussian first trial at
    # t = 1.25e199, where both arms sit at their last floats below 1: no
    # face gives a slope, and bisecting r = sqrt(t) up from 0 would take
    # more than the 200 evaluations a Newton root allows. c* is
    # kl(1e-200, 0.5), which is log 2 in float64
    sol = solve([bernoulli()] * 2, [1e-200, 0.5],
                HalfSpace((1.0, 1e-300), 0.5))
    assert sol.c_star == pytest.approx(math.log(2.0), rel=1e-12, abs=0.0)


def _counted_inverses(monkeypatch):
    """A list that records each lb_solvers.kl_inverse_capped call."""
    calls = []
    capped = lb_solvers.kl_inverse_capped

    def counted(*args, **kwargs):
        calls.append(args)
        return capped(*args, **kwargs)

    monkeypatch.setattr(lb_solvers, "kl_inverse_capped", counted)
    return calls


def test_a_saturated_first_trial_takes_few_box_evaluations(monkeypatch):
    # t shrinks by a factor that squares at each feasible trial, then the
    # bracket halves in log t: halving t alone took 657 trials, 1,331
    # divergence inverses, on the way down from t = 1.25e199
    calls = _counted_inverses(monkeypatch)
    sol = solve([bernoulli()] * 2, [1e-200, 0.5],
                HalfSpace((1.0, 1e-300), 0.5))
    assert len(calls) <= 200
    assert sol.c_star == pytest.approx(math.log(2.0), rel=1e-12, abs=0.0)


def _spied_row_map(monkeypatch):
    """Record, for each _row_map evaluation, whether it was past the edge
    (None)."""
    trials = []
    row_map = lb_solvers._row_map

    def spy(row, mu, w, lam):
        alt = row_map(row, mu, w, lam)
        trials.append(alt is None)
        return alt

    monkeypatch.setattr(lb_solvers, "_row_map", spy)
    return trials


class TestHalfSpaceInnerRoot:
    """With non-Gaussian arms the inner infimum is one Newton root in the
    multiplier lam over the row's slope inverses (_row_root): exact near a
    domain edge, and a few evaluations of the row map per statistic."""

    # exact values to 50 digits: the alternatives sit 5e-10 above 0 and
    # 5e-14 below 1, where an absolute tolerance of 1e-12 on the
    # constraint would move the values by 2.5e-5 and 2.4e-3 relative
    @pytest.mark.parametrize("models,mu,w,spec,exact", [
        ([poisson(), poisson()], [1.0, 1.0], [1.0, 1.0],
         HalfSpace((-1.0, -1.0), -1e-9), 40.832826036012713),
        ([bernoulli(), bernoulli()], [0.5, 0.5], [1.0, 1.0],
         HalfSpace((1.0, 1.0), 1.9999999999999), 29.241258625792895),
    ], ids=["poisson_near_0", "bernoulli_near_1"])
    def test_near_an_edge_the_value_is_exact(self, models, mu, w, spec,
                                             exact):
        got = inner_inf(models, mu, w, spec)
        assert got.value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_a_trial_past_the_edge_is_the_brackets_positive_end(
            self, monkeypatch):
        # the Gaussian start lam puts each Poisson slope at 2, past
        # dnu_sup = 1; the root nu = (3, 3) is found all the same
        trials = _spied_row_map(monkeypatch)
        got = inner_inf([poisson(), poisson()], [1.0, 1.0], [1.0, 1.0],
                        HalfSpace((1.0, 1.0), 6.0))
        assert any(trials)
        assert got.value == pytest.approx(2.0 * (2.0 - math.log(3.0)),
                                          rel=1e-12, abs=0.0)
        np.testing.assert_allclose(got.minimizer, [3.0, 3.0], rtol=1e-12)

    def test_an_arm_may_sit_among_the_last_floats(self):
        # the near-free Bernoulli arm's exact alternative is 5e-17 below 1,
        # past the last float below 1; it sits among the last floats and
        # the Gaussian arm meets the constraint. The exact value is
        # 0.50000000000000185741 to 20 digits
        got = inner_inf([bernoulli(), G1], [0.5, 0.0], [1e-16, 1.0],
                        HalfSpace((1.0, 1.0), 2.0))
        assert 0.0 < 1.0 - got.minimizer[0] <= 2.0 * math.ulp(1.0)
        assert got.value == pytest.approx(0.50000000000000185741, rel=1e-12,
                                          abs=0.0)

    def test_a_root_past_the_last_float_raises_numerical_error(
            self, monkeypatch):
        # the optimal nu_0 is about 1 - 1e-18: Newton trials that round it
        # onto 1 are bracket ends, and the root, next to them, raises
        # NumericalError (a PartidError), never ZeroDivisionError from
        # kl_dnu2 at nu = 1
        trials = _spied_row_map(monkeypatch)
        with pytest.raises(NumericalError, match="past the last float"):
            inner_inf([bernoulli(), bernoulli()], [0.5, 0.5], [1e-12, 1.0],
                      HalfSpace((1.0, 1.0), 1.999999))
        assert any(trials)

    def test_a_slope_that_overflows_is_not_the_edge(self):
        # at the root nu_0 is about 1e305 from mu_0 = 1e300, so the Poisson
        # slope d_0 = nu_0^2 / mu_0 overflows: those steps bisect. The
        # reference is mpmath's at 400 digits
        got = inner_inf([poisson(), poisson()], [1e300, 1.0], [1.0, 1.0],
                        HalfSpace((1.0, 1.0), 1e305))
        assert got.value == pytest.approx(9.99874870745350e304, rel=1e-10,
                                          abs=0.0)

    def test_few_row_map_evaluations(self, monkeypatch):
        # mixed families, K = 2-6, weights Dirichlet times 10^U(-2, 4)
        trials = _spied_row_map(monkeypatch)
        rng = np.random.default_rng(27)
        counts = []
        while len(counts) < 500:
            models, mu, a, b = random_halfspace_instance(
                rng, k=int(rng.integers(2, 7)))
            if all(m.family is spef.Family.GAUSSIAN for m in models):
                continue
            w = rng.dirichlet(np.ones(len(models))) \
                * 10.0 ** rng.uniform(-2.0, 4.0)
            trials.clear()
            inner_inf(models, mu, w, HalfSpace(tuple(a), b))
            counts.append(len(trials))
        assert max(counts) <= 30
        assert float(np.median(counts)) <= 8


def _gaussian_halfspace(rng, k):
    models, mu, a, b = random_halfspace_instance(rng, k=k,
                                                 families=("gaussian",))
    variances = np.array([m.variance for m in models])
    return models, mu, a, b, variances


class TestGaussianHalfspaceClosedForms:
    """With Gaussian arms the inner value is g^2 / (2 sum a_i^2 v_i / w_i)
    and the saddle has sqrt(c*) = g / sum |a_i| sqrt(2 v_i), g = |b - <a, mu>|;
    both scale-free in (a, b)."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_inner_value_and_minimizer_on_the_hyperplane(self, k):
        rng = np.random.default_rng(400 + k)
        sides = set()
        for _ in range(25):
            models, mu, a, b, v = _gaussian_halfspace(rng, k)
            w = rng.uniform(0.05, 5.0, k)
            gap = abs(b - float(a @ mu))
            want = gap ** 2 / (2.0 * float(np.sum(a * a * v / w)))
            sides.add(float(a @ mu) > b)
            got = inner_inf(models, mu, w, HalfSpace(tuple(a), b))
            assert got.value == pytest.approx(want, rel=1e-12)
            assert float(a @ got.minimizer) == pytest.approx(b, rel=1e-12,
                                                             abs=1e-12)
            # the minimizer moves each arm along a_i v_i / w_i
            step = (got.minimizer - mu) * w / (a * v)
            np.testing.assert_allclose(step, step[0], rtol=1e-10)
        assert sides == {False, True}

    def test_inner_values_pinned_bit_for_bit(self):
        # a digest of 400 inner values and minimizers (K = 1-6, mixed
        # variances, integer weights as a run's counts): the run step and
        # inner_inf share one closed form, so parity between them cannot
        # see it drift by an ulp, and this can; a change here is a
        # trajectory change. The variances are exact powers of two, so no
        # vectorized power function decides their last bit
        rng = np.random.default_rng(2024)
        out = []
        for _ in range(400):
            k = int(rng.integers(1, 7))
            models = [gaussian(math.ldexp(1.0, int(e)))
                      for e in rng.integers(-7, 8, k)]
            a = rng.uniform(0.1, 2.0, k) * rng.choice((-1.0, 1.0), k)
            mu = rng.normal(0.0, 2.0, k)
            w = rng.integers(1, 500, k).astype(float)
            got = inner_inf(models, mu, w,
                            HalfSpace(tuple(a), float(rng.normal())))
            out.append(got.value)
            out.extend(got.minimizer.tolist())
        digest = hashlib.sha256(np.array(out).tobytes()).hexdigest()[:16]
        assert digest == "05bef9b05ccd84b8"

    def test_zero_weight_arm_absorbs_the_constraint(self):
        # S is infinite with a free Gaussian arm, so g^2 / (2 S) = 0
        models = [gaussian(0.5), gaussian(2.0), gaussian(1.0)]
        got = inner_inf(models, [0.0, 0.1, -0.2], [1.0, 0.0, 3.0],
                        HalfSpace((1.0, -2.0, 0.5), 2.0))
        assert got.value == 0.0 and got.minimizer is None

    def test_union_row_with_zero_entry(self):
        # an arm the row does not touch keeps its mean and costs nothing
        models = [gaussian(0.5), gaussian(2.0)]
        w = np.array([2.0, 0.0])
        got = inner_inf(models, [0.0, 0.3], w,
                        UnionHalfSpaces((((2.0, 0.0), 1.0),)))
        assert got.value == pytest.approx(0.5 ** 2 / (2 * 0.5 / 2.0),
                                          rel=1e-14)
        np.testing.assert_allclose(got.minimizer, [0.5, 0.3], rtol=1e-15)

    def test_free_arms_carrying_the_whole_row_meet_it_alone(self):
        # the free arm reaches toward 1 > 0.5 at no cost; the rest of the
        # row is zero, so nothing is left to pay for
        got = inner_inf([bernoulli(), bernoulli()], [0.2, 0.2], [0.0, 1.0],
                        UnionHalfSpaces((((1.0, 0.0), 0.5),)))
        assert got.value == 0.0 and got.minimizer is None

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_saddle_weights_and_certificate(self, k):
        rng = np.random.default_rng(500 + k)
        for _ in range(25):
            models, mu, a, b, v = _gaussian_halfspace(rng, k)
            sol = solve_halfspace(models, mu, a, b)
            ref = np.abs(a) * np.sqrt(v)
            np.testing.assert_allclose(sol.w_star, ref / ref.sum(),
                                       rtol=1e-15, atol=0.0)
            gap = abs(b - float(a @ mu))
            want = (gap / float(np.sum(np.abs(a) * np.sqrt(2.0 * v)))) ** 2
            assert sol.c_star == pytest.approx(want, rel=1e-14)
            assert set(sol.kkt_residuals) == {
                "equal_divergence", "hyperplane", "sign_violations",
                "tangency_spread", "saddle_gap"}
            assert max(sol.kkt_residuals.values()) <= 1e-12
            assert ("mu_in_a2" in sol.flags) == (float(a @ mu) > b)

    def test_symmetric_weights_tie_exactly(self):
        sol = solve_halfspace([G1, G1], [0.0, 0.0], (1.0, 1.0), 1.0)
        assert sol.w_star.tolist() == [0.5, 0.5]

    def test_matches_grid_oracle_for_two_arms(self):
        rng = np.random.default_rng(602)
        for _ in range(5):
            models, mu, a, b, _ = _gaussian_halfspace(rng, 2)
            spec = HalfSpace(tuple(a), b)
            c_grid, _ = brute_force_lb(models, mu, spec)
            assert abs(c_grid - solve(models, mu, spec).c_star) <= 2e-3


class TestSolveConvex:
    def test_off_axis_ball_single_active_arm(self):
        sol = solve_convex([G1, G1], [0.0, 0.0], ball((2.0, 0.0), 1.0))
        np.testing.assert_allclose(sol.nu_star, [1.0, 0.0], atol=1e-6)
        assert sol.c_star == pytest.approx(0.5, abs=1e-6)
        np.testing.assert_allclose(sol.w_star, [1.0, 0.0], atol=1e-6)
        assert sol.active_set == (0,)

    def test_ellipsoid_symmetric_contact(self):
        # centered on the diagonal, axes equal: contact splits evenly
        sol = solve_convex([G1, G1], [0.0, 0.0],
                           ellipsoid((2.0, 2.0), (1.0, 1.0)))
        np.testing.assert_allclose(sol.nu_star, sol.nu_star[::-1], atol=1e-6)
        np.testing.assert_allclose(sol.w_star, [0.5, 0.5], atol=1e-5)
        assert sol.kkt_residuals["boundary_gap"] <= 1e-6

    def test_mu_inside_sublevel_unsupported(self):
        with pytest.raises(UnsupportedCase):
            solve_convex([G1, G1], [2.0, 0.0], ball((2.0, 0.0), 1.0))

    @pytest.mark.parametrize("spec", [ball((0.0,), 1.0),
                                      ellipsoid((0.0,), (1.0,))],
                             ids=["ball", "ellipsoid"])
    def test_center_of_another_dimension_rejected(self, spec):
        # numpy would broadcast a one-entry center over both arms
        with pytest.raises(ValueError, match="center has 1 entries for 2"):
            solve([G1, G1], [2.0, 2.0], spec)
        with pytest.raises(ValueError, match="center has 1 entries for 2"):
            inner_inf([G1, G1], [2.0, 2.0], [1.0, 1.0], spec)

    def test_mu_on_sublevel_boundary_rejected(self):
        with pytest.raises(DegenerateInstance):
            solve_convex([G1, G1], [1.0, 0.0], ball((2.0, 0.0), 1.0))

    def test_unreachable_sublevel_for_bounded_family(self):
        # ball far outside (0,1)^2: the saturated box covers the whole
        # domain and f still never drops to the level
        with pytest.raises(InfeasibleAlternative):
            solve_convex([bernoulli(), bernoulli()], [0.5, 0.5],
                         ball((5.0, 5.0), 0.5))

    def test_bounded_family_ball_inside_domain(self):
        sol = solve_convex([bernoulli(), bernoulli()], [0.2, 0.2],
                           ball((0.8, 0.8), 0.3))
        assert sol.c_star > 0
        assert sol.kkt_residuals["boundary_gap"] <= 1e-6


def _boundary_reference(models, mu, w, spec):
    """min of sum_i w_i kl_i(mu_i, nu_i) over the boundary angle of a
    two-arm ball or ellipsoid: a dense grid inside the mean domain, then a
    bounded scalar refinement around the best grid point."""
    from scipy.optimize import minimize_scalar

    kind, center, extra = spec.shape
    c = np.asarray(center)
    s = np.full(2, extra[0]) if kind == "ball" else np.asarray(extra)

    def cost(th):
        nu = c[:, None] + s[:, None] * np.array([np.cos(th), np.sin(th)])
        inside = np.ones(nu.shape[1], dtype=bool)
        for m, row in zip(models, nu):
            lo, hi = mean_domain(m)
            inside &= (row > lo) & (row < hi)
        out = np.full(nu.shape[1], math.inf)
        out[inside] = sum(w[i] * kl_array(models[i], mu[i], nu[i, inside])
                          for i in range(2))
        return out

    grid = np.linspace(0.0, 2.0 * math.pi, 20001)
    vals = cost(grid)
    th0 = grid[int(np.argmin(vals))]
    step = grid[1] - grid[0]
    res = minimize_scalar(lambda th: float(cost(np.array([th]))[0]),
                          bounds=(th0 - step, th0 + step),
                          method="bounded", options={"xatol": 1e-13})
    return min(float(res.fun), float(vals.min()))


def _quad_instance(rng, family):
    """(models, mu, spec) with mu outside a two-arm ball or ellipsoid whose
    boundary lies inside the mean domain."""
    if family == "gaussian":
        return random_ball_instance(rng)
    while True:
        if family == "poisson":
            models = [poisson(), poisson()]
            mu = rng.uniform(0.4, 4.0, 2)
            spec = ellipsoid(tuple(rng.uniform(1.5, 3.0, 2)),
                             tuple(rng.uniform(0.4, 1.0, 2)))
        else:
            models = [bernoulli(), bernoulli()]
            mu = rng.uniform(0.15, 0.85, 2)
            spec = ball(tuple(rng.uniform(0.35, 0.65, 2)),
                        float(rng.uniform(0.1, 0.3)))
        if spec.value(mu) - spec.level > 0.05:
            return models, mu, spec


def _multipliers(models, mu, w, nu, spec):
    """Per-coordinate multiplier lam_i that makes w_i kl_i'(mu_i, nu_i)
    + 2 lam_i (nu_i - c_i) / s_i^2 vanish; stationarity means they tie."""
    kind, center, extra = spec.shape
    s = np.full(2, extra[0]) if kind == "ball" else np.asarray(extra)
    return np.array([-w[i] * kl_dnu(models[i], mu[i], nu[i]) * s[i] ** 2
                     / (2.0 * (nu[i] - center[i])) for i in range(2)])


class TestQuadraticSetInner:
    """Ball and ellipsoid inner infima: each coordinate solves its own
    stationarity equation at a common multiplier."""

    @pytest.mark.parametrize("family", ["gaussian", "poisson", "bernoulli"])
    def test_matches_boundary_angle_reference(self, family):
        rng = np.random.default_rng(700 + len(family))
        for _ in range(4):
            models, mu, spec = _quad_instance(rng, family)
            w = rng.uniform(0.2, 3.0, 2)
            got = inner_inf(models, mu, w, spec)
            want = _boundary_reference(models, mu, w, spec)
            assert got.value == pytest.approx(want, rel=1e-10, abs=0.0)
            # on the boundary, and stationary with one multiplier
            assert spec.value(got.minimizer) == pytest.approx(
                spec.level, rel=1e-11)
            lam = _multipliers(models, mu, w, got.minimizer, spec)
            assert np.all(lam > 0)
            assert lam[0] == pytest.approx(lam[1], rel=1e-8)

    @pytest.mark.parametrize("models,mu,spec", [
        ([poisson(), poisson()], [2.0, 0.5],
         ellipsoid((-0.5, 2.0), (1.0, 1.5))),
        ([bernoulli(), bernoulli()], [0.3, 0.4], ball((1.3, 0.5), 0.5)),
    ], ids=["poisson_center_below_zero", "bernoulli_center_beyond_one"])
    def test_center_outside_mean_domain(self, models, mu, spec):
        w = np.array([1.5, 0.5])
        got = inner_inf(models, mu, w, spec)
        nu = got.minimizer
        assert all(mean_domain(m)[0] < x < mean_domain(m)[1]
                   for m, x in zip(models, nu))
        assert spec.value(nu) == pytest.approx(spec.level, rel=1e-11)
        want = _boundary_reference(models, mu, w, spec)
        assert got.value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_set_out_of_reach_is_infeasible(self):
        # the multiplier walk finds no crossing: f stays above the level
        # at every nu inside (0, 1)^2
        with pytest.raises(InfeasibleAlternative, match="unreachable"):
            inner_inf([bernoulli(), bernoulli()], [0.5, 0.5], [0.3, 0.7],
                      ball((5.0, 5.0), 0.5))

    def test_zero_weight_unsupported(self):
        with pytest.raises(UnsupportedCase, match="strictly positive"):
            inner_inf([G1, G1], [0.0, 0.0], [1.0, 0.0],
                      ball((2.0, 1.0), 1.0))

    @pytest.mark.parametrize("models,mu,spec", [
        ([poisson(), poisson()], [0.8, 1.0],
         ellipsoid((2.5, 2.2), (0.7, 0.9))),
        ([bernoulli(), bernoulli()], [0.2, 0.3], ball((0.65, 0.6), 0.2)),
    ], ids=["poisson_ellipsoid", "bernoulli_ball"])
    def test_solve_matches_grid_oracle(self, models, mu, spec):
        sol = solve(models, mu, spec)
        c_grid, _ = brute_force_lb(models, mu, spec)
        assert abs(c_grid - sol.c_star) <= 2e-3
        assert sol.kkt_residuals["box_stationarity"] == 0.0


def _custom_copy(spec):
    """A ball or ellipsoid as a custom oracle: the same value, gradient and
    level without the shape, so solve and inner_inf take projected gradient
    on a box instead of the clip and kl_prox."""
    center = np.array(spec.shape[1])
    return ConvexSublevel(spec.value, spec.grad, spec.level,
                          probe_points=[center + 0.1, center - 0.2])


# (name, models, mu outside the set, ball or ellipsoid)
NEWTON_LEVEL_CASES = [
    ("gaussian_ball", [G1, gaussian(0.5)], [1.5, 0.3],
     ball((0.0, 0.0), 1.0)),
    ("gaussian_ellipsoid", [gaussian(0.7), G1], [-1.0, 1.2],
     ellipsoid((0.5, 0.0), (1.0, 0.6))),
    ("poisson_ball", [poisson(), poisson()], [0.5, 3.5],
     ball((2.0, 1.5), 0.8)),
    ("poisson_ellipsoid", [poisson(), poisson()], [3.0, 1.0],
     ellipsoid((1.0, 1.0), (1.0, 1.5))),
    ("bernoulli_ball", [bernoulli(), bernoulli()], [0.85, 0.5],
     ball((0.5, 0.5), 0.25)),
    ("bernoulli_ellipsoid", [bernoulli(), bernoulli()], [0.1, 0.3],
     ellipsoid((0.6, 0.5), (0.2, 0.35))),
    ("mixed_ellipsoid", [poisson(), G1], [2.5, 0.5],
     ellipsoid((1.0, 0.0), (0.5, 1.0))),
    ("mixed_ball_k3", [bernoulli(), poisson(), gaussian(0.5)],
     [0.2, 3.0, 1.0], ball((0.5, 1.5, 0.5), 0.6)),
    ("mixed_ellipsoid_k3", [bernoulli(), poisson(), gaussian(0.5)],
     [0.2, 3.0, 1.0], ellipsoid((0.6, 1.0, 0.0), (0.3, 1.0, 0.8))),
]


class TestConvexNewtonLevel:
    """The level t* at which the divergence box first meets the set is one
    Newton root in r = sqrt(t), after the doubling that brackets it, for
    balls, ellipsoids and custom oracles alike."""

    @pytest.mark.parametrize("custom", [False, True], ids=["shape", "custom"])
    @pytest.mark.parametrize("name,models,mu,spec", NEWTON_LEVEL_CASES,
                             ids=[c[0] for c in NEWTON_LEVEL_CASES])
    def test_matches_grid_oracle_on_the_boundary(self, name, models, mu, spec,
                                                 custom):
        sol = solve(models, mu, _custom_copy(spec) if custom else spec)
        c_grid, _ = brute_force_lb(models, mu, spec)
        assert abs(c_grid - sol.c_star) <= 2e-3
        assert sol.kkt_residuals["boundary_gap"] <= \
            1e-12 * max(1.0, spec.level)
        assert sol.kkt_residuals["level_bracket"] <= 1e-9 * sol.c_star

    @pytest.mark.parametrize("custom", [False, True], ids=["shape", "custom"])
    @pytest.mark.parametrize("name,models,mu,spec", NEWTON_LEVEL_CASES,
                             ids=[c[0] for c in NEWTON_LEVEL_CASES])
    def test_few_box_evaluations(self, monkeypatch, name, models, mu, spec,
                                 custom):
        # each box evaluation inverts the divergence twice per arm; the
        # level bisection took about 35 of them
        calls = []
        capped = lb_solvers.kl_inverse_capped

        def counted(*args, **kwargs):
            calls.append(args)
            return capped(*args, **kwargs)

        monkeypatch.setattr(lb_solvers, "kl_inverse_capped", counted)
        solve(models, mu, _custom_copy(spec) if custom else spec)
        assert len(calls) <= 15 * 2 * len(models)

    def test_custom_oracle_solves_as_its_shape(self):
        # projected gradient on each box ends on the faces the clip picks,
        # so the two levels agree to rounding
        models, mu, spec = NEWTON_LEVEL_CASES[7][1:]
        want = solve(models, mu, spec)
        got = solve(models, mu, _custom_copy(spec))
        assert got.c_star == pytest.approx(want.c_star, rel=1e-12)
        np.testing.assert_allclose(got.w_star, want.w_star, rtol=1e-9)
        np.testing.assert_allclose(got.nu_star, want.nu_star, rtol=1e-12)

    def test_custom_oracle_at_a_subnormal_weight(self):
        # arm 0's gradient is about 1e-310, and the value is the ball's to
        # the multiplier walk's tolerance of 1e-12 on the level, which
        # moves nu_1 by about 1e-12
        models, mu, w = [G1, G1], [2.0, 0.5], [1e-310, 1.0]
        spec = ball((0.0, 0.0), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inner_inf(models, mu, w, _custom_copy(spec))
        assert got.value == pytest.approx(inner_inf(models, mu, w,
                                                     spec).value, abs=1e-20)

    @pytest.mark.parametrize("w", [(1.0, 1.0), (0.3, 0.7)])
    def test_unreachable_custom_oracle_is_infeasible(self, w):
        # as for the ball itself: the descent stops at the last floats
        # before 0 and 1, and the multiplier walk finds no crossing
        spec = _custom_copy(ball((5.0, 5.0), 0.5))
        models = [bernoulli(), bernoulli()]
        with pytest.raises(InfeasibleAlternative, match="unreachable"):
            inner_inf(models, [0.5, 0.5], w, spec)
        with pytest.raises(InfeasibleAlternative, match="unreachable"):
            solve(models, [0.5, 0.5], spec)


class TestOneLevelRoot:
    """Half-spaces, balls, ellipsoids and custom oracles find their saddle
    level by one function, lb_solvers._level_root, each with its own box
    step."""

    @pytest.mark.parametrize("spec", [
        HalfSpace((1.0, -0.5), 0.9), ball((0.5, 0.5), 0.25),
        ellipsoid((0.6, 0.5), (0.2, 0.35)),
        _custom_copy(ball((0.5, 0.5), 0.25))],
        ids=["halfspace", "ball", "ellipsoid", "custom"])
    def test_every_shape_takes_the_one_root(self, monkeypatch, spec):
        calls = []
        root = lb_solvers._level_root

        def spied(*args, **kwargs):
            calls.append(args)
            return root(*args, **kwargs)

        monkeypatch.setattr(lb_solvers, "_level_root", spied)
        solve([bernoulli(), poisson()], [0.2, 0.1], spec)
        assert len(calls) == 1

    def test_gaussian_half_space_keeps_its_closed_form(self, monkeypatch):
        monkeypatch.setattr(lb_solvers, "_level_root", None)
        sol = solve([G1, gaussian(0.5)], [0.0, 0.0],
                    HalfSpace((1.0, 1.0), 1.0))
        assert sol.c_star > 0.0

    def test_off_face_weights_are_unsigned_zeros(self):
        # the arm whose mean is the ball's center is on no face of the box:
        # its weight is 0.0, which a CLI report writes as 0.0, not -0.0
        sol = solve([bernoulli(), bernoulli()], [0.85, 0.5],
                    ball((0.5, 0.5), 0.25))
        assert sol.w_star.tolist() == [1.0, 0.0]
        assert not np.any(np.signbit(sol.w_star))

    def test_half_space_as_a_custom_oracle_solves_as_the_row(self):
        # {<a, nu> >= b} as a linear custom oracle takes projected gradient
        # on each box from t = 1, where the row takes the box's corner from
        # the Gaussian level: the two meet to rounding
        rng = np.random.default_rng(11)
        for _ in range(20):
            models, mu, a, b = random_halfspace_instance(rng)
            if float(a @ mu) >= b:
                a, b = -a, -b
            row = solve(models, mu, HalfSpace(tuple(a), b))
            linear = ConvexSublevel(
                lambda x, a=a: -float(np.dot(a, x)), lambda x, a=a: -a, -b,
                probe_points=[np.zeros(len(a))])
            got = solve(models, mu, linear)
            assert got.c_star == pytest.approx(row.c_star, rel=1e-12)
            np.testing.assert_allclose(got.w_star, row.w_star, atol=1e-12)


def _counted_custom_copy(spec):
    """_custom_copy whose gradient counts its calls after construction."""
    calls = []

    def grad(x):
        calls.append(1)
        return spec.grad(x)
    custom = _custom_copy(dataclasses.replace(spec, grad=grad))
    calls.clear()
    return custom, calls


class TestCustomOracleDescent:
    """Projected gradient on a custom oracle's boxes: the level doubling's
    probes stop at their first point below the level, and each descent
    stops once f can no longer tell its steps from none."""

    @pytest.mark.parametrize("name,models,mu,spec", NEWTON_LEVEL_CASES,
                             ids=[c[0] for c in NEWTON_LEVEL_CASES])
    def test_solve_takes_few_gradients(self, name, models, mu, spec):
        # the full descent on the first doubling box, which holds the
        # oracle's own minimum for the ellipsoids, took 135-406 gradients
        # (376 for mixed_ellipsoid_k3); every case now takes at most 24
        custom, calls = _counted_custom_copy(spec)
        got = solve(models, mu, custom)
        assert len(calls) <= 37
        assert got.c_star == pytest.approx(solve(models, mu, spec).c_star,
                                           rel=1e-12)

    @pytest.mark.parametrize("name,models,mu,spec", NEWTON_LEVEL_CASES,
                             ids=[c[0] for c in NEWTON_LEVEL_CASES])
    def test_inner_inf_takes_few_gradients(self, name, models, mu, spec):
        # each descent used to orbit at the rounding floor until its stall
        # count ended it: 5,600-12,200 gradients per inner_inf here, now
        # 189-733
        custom, calls = _counted_custom_copy(spec)
        w = np.full(len(models), 1.0 / len(models))
        got = inner_inf(models, mu, w, custom)
        assert len(calls) <= 2000
        assert got.value == pytest.approx(inner_inf(models, mu, w, spec).value,
                                          rel=1e-6)

    def test_probe_stops_below_the_level_and_descent_at_the_floor(self):
        # f = 1 + 5 (x_0 - 0.3)^2 + (x_1 - 0.4)^2 on [0, 1]^2; from f = 3.7,
        # values about 1 resolve x to about 1e-8
        scale, center = np.array([5.0, 1.0]), np.array([0.3, 0.4])
        calls = []

        def f(x):
            return 1.0 + float(np.dot(scale, (x - center) ** 2))

        def grad(x):
            calls.append(1)
            return 2.0 * scale * (x - center)
        lo, hi, x0 = np.zeros(2), np.ones(2), np.array([1.0, 0.9])
        x, _ = lb_solvers._min_f_over_box(f, grad, lo, hi, x0, below=1.5)
        assert f(x) < 1.5 and f(x) > 1.0 + 1e-9
        probe_calls = len(calls)
        x, resid = lb_solvers._min_f_over_box(f, grad, lo, hi, x0)
        assert probe_calls < len(calls) - probe_calls <= 100
        assert np.max(np.abs(x - center)) <= 1e-7 and resid <= 1e-6


# (name, models, mu, w, ball or ellipsoid) whose inner optimum lies far
# from mu: inner infima of 3.7 to 100
FAR_OPTIMUM_CASES = [
    ("gaussian_ball", [G1, G1], [0.0, 0.0], [1.0, 1.0],
     ball((6.0, 6.0), 1.0)),
    ("gaussian_ellipsoid", [gaussian(0.5), gaussian(2.0)], [0.0, 0.0],
     [2.0, 1.0], ellipsoid((8.0, -3.0), (1.0, 0.5))),
    ("poisson_ball", [poisson(), poisson()], [0.5, 0.5], [1.0, 1.0],
     ball((30.0, 30.0), 2.0)),
    ("bernoulli_ball", [bernoulli(), bernoulli()], [0.02, 0.03], [1.0, 1.0],
     ball((0.9, 0.9), 0.05)),
]


class TestCustomOracleDomainBox:
    """A custom oracle's inner infimum descends at each multiplier on the
    mean domain's own box, each arm's last floats inside its domain, as a
    ball's or an ellipsoid's kl_prox solves on it."""

    @pytest.mark.parametrize("name,models,mu,spec", NEWTON_LEVEL_CASES,
                             ids=[c[0] for c in NEWTON_LEVEL_CASES])
    def test_inner_inf_inverts_no_divergence(self, monkeypatch, name, models,
                                             mu, spec):
        calls = _counted_inverses(monkeypatch)
        w = np.full(len(models), 1.0 / len(models))
        inner_inf(models, mu, w, _custom_copy(spec))
        assert calls == []

    @pytest.mark.parametrize("name,models,mu,w,spec", FAR_OPTIMUM_CASES,
                             ids=[c[0] for c in FAR_OPTIMUM_CASES])
    def test_far_optimum_matches_its_shape(self, name, models, mu, w, spec):
        w = np.array(w)
        got = inner_inf(models, mu, w, _custom_copy(spec))
        want = inner_inf(models, mu, w, spec)
        assert got.value == pytest.approx(want.value, rel=1e-7, abs=0.0)


class TestSolveUnionHalfspaces:
    ROWS = (((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0))

    def test_symmetric_two_constraint_instance(self):
        sol = solve_union_halfspaces([G1, G1], [0.0, 0.0], self.ROWS)
        # both constraints bind by symmetry; each alone costs 1/2 at its
        # vertex weight, the tie splits the budget
        np.testing.assert_allclose(sol.w_star, [0.5, 0.5], atol=1e-4)
        assert sol.c_star == pytest.approx(0.25, rel=1e-4)
        # no single row certifies a kink: the gap comes from the rows'
        # supergradients at the returned weights
        assert "single_constraint" not in sol.flags
        assert 0.0 <= sol.kkt_residuals["duality_gap"] <= \
            lb_solvers.TOL_KKT

    def test_matches_single_halfspace_when_one_constraint_dominates(self):
        rows = (((1.0, 0.5), 1.0), ((1.0, 1.0), 40.0))
        sol = solve_union_halfspaces([G1, G1], [0.0, 0.0], rows)
        ref = solve_halfspace([G1, G1], [0.0, 0.0], (1.0, 0.5), 1.0)
        assert sol.c_star == pytest.approx(ref.c_star, rel=1e-8)
        np.testing.assert_allclose(sol.w_star, ref.w_star, atol=1e-6)

    @pytest.mark.parametrize("models,rows,row", [
        ([G1, G1], (((1.0, 0.5), 1.0), ((1.0, 1.0), 40.0)), 0),
        ([G1, gaussian(0.5), gaussian(1.5)],
         (((0.0, 1.0, 0.0), 3.0), ((1.0, 0.5, 0.8), 1.0),
          ((1.0, 1.0, 1.0), 6.0)), 1),
    ], ids=["two_arms", "three_arms"])
    def test_certificate_comes_before_the_search(self, monkeypatch, models,
                                                 rows, row):
        # one all-nonzero row dominates: its exact saddle is certified
        # without the KKT solve
        def search(*args, **kwargs):
            raise AssertionError("the search ran before the certificate")

        monkeypatch.setattr(lb_solvers.PreparedUnion, "_settle", search)
        monkeypatch.setattr(lb_solvers.PreparedUnion, "_barrier", search)
        mu = [0.0] * len(models)
        sol = solve_union_halfspaces(models, mu, rows)
        ref = solve_halfspace(models, mu, *rows[row])
        assert sol.flags == ref.flags + ("single_constraint",)
        assert (sol.c_star, sol.t_star, sol.active_set) == \
            (ref.c_star, ref.t_star, ref.active_set)
        np.testing.assert_array_equal(sol.w_star, ref.w_star)
        np.testing.assert_array_equal(sol.nu_star, ref.nu_star)
        assert sol.kkt_residuals == dict(ref.kkt_residuals, duality_gap=0.0,
                                         active_rows=1.0)

    def test_row_with_zero_entry_is_certified(self):
        # the row's exact saddle leaves the arm it does not touch at weight
        # 0, and no other row is there to undercut it: the search used to
        # run, ending at (1 - 1e-9, 1e-9) and c* 0.24999999975
        sol = solve([gaussian(0.5), gaussian(2.0)], [0.0, 0.3],
                    UnionHalfSpaces((((2.0, 0.0), 1.0),)))
        np.testing.assert_array_equal(sol.w_star, [1.0, 0.0])
        assert sol.c_star == 0.25
        assert "single_constraint" in sol.flags

    def test_mu_inside_union_unsupported(self):
        with pytest.raises(UnsupportedCase):
            solve_union_halfspaces([G1, G1], [2.0, 0.0], self.ROWS)

    def test_infeasible_row_rejected(self):
        rows = (((1.0, 1.0), 2.5), ((1.0, -1.0), 0.5))
        with pytest.raises(InfeasibleAlternative):
            solve_union_halfspaces([bernoulli(), bernoulli()], [0.3, 0.3],
                                   rows)


# (models, mu) with arm 1 best, solved against the union of the rows
# nu_j - nu_1 >= 0: T*(mu) of best-arm identification. The K = 4 Gaussian
# and Bernoulli and K = 3 Poisson cases are the instances where the
# supergradient ascent and cutting planes stopped at their iteration cap
# (MaxIters), 6e-7 to 1.4e-6 short of c*
BEST_ARM_CASES = [
    ([gaussian(1.0)] * 2, [1.0, 0.4]),
    ([gaussian(0.5), gaussian(1.0), gaussian(2.0)], [0.6, 0.1, -0.3]),
    ([gaussian(1.0)] * 4, [1.0, 0.8, 0.7, 0.5]),
    ([gaussian(1.0)] * 5, [0.9, 0.6, 0.5, 0.5, 0.1]),
    ([gaussian(0.7)] * 6, [1.2, 1.0, 0.9, 0.6, 0.4, 0.0]),
    ([bernoulli()] * 2, [0.6, 0.3]),
    ([bernoulli()] * 3, [0.8, 0.7, 0.4]),
    ([bernoulli()] * 4, [0.7, 0.6, 0.55, 0.4]),
    ([bernoulli()] * 5, [0.5, 0.45, 0.4, 0.3, 0.2]),
    ([bernoulli()] * 6, [0.9, 0.8, 0.75, 0.6, 0.5, 0.3]),
    ([poisson()] * 2, [3.0, 1.5]),
    ([poisson()] * 3, [2.0, 1.5, 1.2]),
    ([poisson()] * 4, [4.0, 3.0, 2.5, 1.0]),
    ([poisson()] * 5, [1.5, 1.2, 1.0, 0.8, 0.5]),
    ([poisson()] * 6, [5.0, 4.2, 4.0, 3.0, 2.0, 1.0]),
]


def _mixed_union_case(s):
    """Random union s: K = 2-6 arms of every family and 2-5 rows, some
    of them with zero entries."""
    return random_mixed_union_instance(np.random.default_rng(1000 + s),
                                       2 + s % 5, 2 + s % 4)


class TestUnionCrossCheck:
    """The union solver against slsqp_union_lb, which maximizes c over
    (w, c) subject to each row's public inner_inf >= c with scipy's SLSQP
    and shares no code with it: c* to 1e-9 relative, w* to 1e-6, no
    iteration cap and a certified duality gap."""

    @staticmethod
    def check(models, mu, rows):
        sol = solve_union_halfspaces(models, mu, rows)
        c, w = slsqp_union_lb(models, mu, rows, starts=2)
        assert "MaxIters" not in sol.flags
        assert sol.c_star == pytest.approx(c, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(sol.w_star, w, rtol=0.0, atol=1e-6)
        assert 0.0 <= sol.kkt_residuals["duality_gap"] <= lb_solvers.TOL_KKT

    @pytest.mark.parametrize("s", range(10))
    def test_random_unions(self, s):
        self.check(*_mixed_union_case(s))

    @pytest.mark.parametrize("models,mu", BEST_ARM_CASES, ids=[
        f"{m[0].family.value}{len(m)}" for m, _ in BEST_ARM_CASES])
    def test_best_arm(self, models, mu):
        self.check(models, np.array(mu), best_arm_rows(len(models)))

    def test_best_arm_bernoulli_config(self):
        # the CI campaign whose union rows run the half-space Newton root
        cfg = parse_config(str(CONFIGS / "best_arm_bernoulli.json"))
        rows = list(cfg.partition.halfspaces)
        assert rows == best_arm_rows(3)
        self.check(cfg.arms, np.array(cfg.true_means), rows)


class TestTwoArmGaussianClosedForm:
    def test_tangency_case_agrees_with_iterative_solver(self):
        hs1 = ((1.0, 0.4), 1.0)
        hs2 = ((0.4, 1.0), 1.0)
        sol = solve_two_arm_gaussian([0.0, 0.0], hs1, hs2, 1.0)
        assert "case3" in sol.flags
        it = solve_union_halfspaces([G1, G1], [0.0, 0.0], (hs1, hs2))
        assert sol.c_star == pytest.approx(it.c_star, rel=1e-6)
        np.testing.assert_allclose(sol.w_star, it.w_star, atol=1e-4)

    def test_collapses_to_single_constraint_when_other_is_far(self):
        hs1 = ((1.0, 0.5), 1.0)
        hs2 = ((0.5, 1.0), 30.0)
        sol = solve_two_arm_gaussian([0.0, 0.0], hs1, hs2, 1.0)
        assert "case1" in sol.flags
        # closed form is exact; the iterative cross-check carries its own
        # bisection tolerance
        ref = solve_halfspace([G1, G1], [0.0, 0.0], hs1[0], hs1[1])
        assert sol.c_star == pytest.approx(ref.c_star, rel=1e-9)
        np.testing.assert_allclose(sol.w_star, ref.w_star, atol=1e-8)

    def test_case2_mirror(self):
        hs1 = ((1.0, 0.5), 30.0)
        hs2 = ((0.5, 1.0), 1.0)
        sol = solve_two_arm_gaussian([0.0, 0.0], hs1, hs2, 1.0)
        assert "case2" in sol.flags
        ref = solve_halfspace([G1, G1], [0.0, 0.0], hs2[0], hs2[1])
        assert sol.c_star == pytest.approx(ref.c_star, rel=1e-9)

    @pytest.mark.parametrize("label,mu,hs1,hs2,variance", [
        ("case1", [0.2, -0.1], ((1.0, 0.5), 1.0), ((0.5, 1.0), 30.0), 0.7),
        ("case2", [0.0, 0.3], ((1.0, 0.5), 30.0), ((0.5, 1.0), 1.0), 1.6),
        ("case3", [-0.2, 0.1], ((1.0, 0.4), 1.0), ((0.4, 1.0), 1.0), 0.5),
        ("case3", [0.0, 0.0], ((2.0, -1.0), 1.5), ((-0.5, 1.0), 0.8), 1.0),
    ])
    def test_union_solver_matches_each_case(self, label, mu, hs1, hs2,
                                            variance):
        closed = solve_two_arm_gaussian(mu, hs1, hs2, variance)
        assert label in closed.flags
        g = gaussian(variance)
        it = solve_union_halfspaces([g, g], mu, (hs1, hs2))
        assert it.c_star == pytest.approx(closed.c_star, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(it.w_star, closed.w_star, rtol=0.0,
                                   atol=1e-9)
        # certified by one row (gap 0) or by the rows' supergradients
        assert 0.0 <= it.kkt_residuals["duality_gap"] <= \
            lb_solvers.TOL_KKT

    def test_rejects_bad_geometry(self):
        with pytest.raises(DegenerateInstance, match="parallel"):
            solve_two_arm_gaussian([0.0, 0.0], ((1.0, 1.0), 1.0),
                                   ((2.0, 2.0), 3.0), 1.0)
        with pytest.raises(DegenerateInstance, match="nonzero"):
            solve_two_arm_gaussian([0.0, 0.0], ((1.0, 0.0), 1.0),
                                   ((0.5, 1.0), 1.0), 1.0)
        with pytest.raises(DegenerateInstance, match="inside"):
            solve_two_arm_gaussian([3.0, 3.0], ((1.0, 1.0), 1.0),
                                   ((1.0, -1.0), 9.0), 1.0)


class TestInnerInf:
    def test_threshold_above_value(self):
        models = [G1, G1]
        v = inner_inf(models, [2.0, 1.5], [3.0, 1.0], Threshold(1.0))
        # both arms sit above: counts-weighted drag of each to the level
        assert v.value == pytest.approx(3.0 * 0.5 + 1.0 * 0.125)
        np.testing.assert_allclose(v.minimizer, [1.0, 1.0])

    def test_threshold_below_picks_cheapest_single_move(self):
        models = [G1, G1]
        v = inner_inf(models, [0.5, -1.0], [1.0, 1.0], Threshold(1.0))
        assert v.value == pytest.approx(0.125)
        np.testing.assert_allclose(v.minimizer, [1.0, -1.0])

    def test_weights_scale_linearly(self):
        models = [G1, bernoulli()]
        spec = HalfSpace((1.0, 1.0), 1.0)
        v1 = inner_inf(models, [0.0, 0.3], [1.0, 2.0], spec).value
        v7 = inner_inf(models, [0.0, 0.3], [7.0, 14.0], spec).value
        assert v7 == pytest.approx(7.0 * v1, rel=1e-9)

    def test_zero_weights_give_zero(self):
        v = inner_inf([G1, G1], [0.0, 0.0], [0.0, 0.0], Threshold(1.0))
        assert v.value == 0.0 and v.minimizer is None

    def test_subnormal_mean_half_space_value(self):
        # the divergence from mu = 5e-324 to nu = 0.5 is log 2, although
        # x = (nu - mu) / mu overflows, and the Gaussian multiplier that
        # would start the row's root overflows too
        models, mu = [bernoulli()] * 2, [5e-324, 0.5]
        v = inner_inf(models, mu, [1.0, 1.0], HalfSpace((1.0, 1e-300), 0.5))
        at_minimizer = kl(models[0], mu[0], v.minimizer[0]) \
            + kl(models[1], mu[1], v.minimizer[1])
        assert v.value == at_minimizer
        assert v.value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_subnormal_mean_half_space_saddle(self):
        # the Gaussian first trial of the level, sqrt(c) about 1e161, has
        # a square past float64: the level root starts at 1 instead
        models, mu = [bernoulli()] * 2, np.array([5e-324, 0.5])
        sol = solve(models, mu, HalfSpace((1.0, 1e-300), 0.5))
        assert sol.c_star == pytest.approx(math.log(2.0), rel=1e-12)
        assert sol.w_star[0] == pytest.approx(1.0, rel=1e-12)

    def test_free_arm_escapes_to_edge(self):
        # unweighted gaussian arm absorbs the constraint at no cost
        v = inner_inf([G1, G1], [0.0, 0.0], [1.0, 0.0],
                      HalfSpace((1.0, 1.0), 1.0))
        assert v.value == 0.0 and v.minimizer is None

    def test_free_bounded_arm_shrinks_the_level(self):
        # bernoulli arm caps its help at nu < 1, the rest is real work
        v = inner_inf([G1, bernoulli()], [0.0, 0.5], [1.0, 0.0],
                      HalfSpace((1.0, 1.0), 1.5))
        assert v.value == pytest.approx(0.125, rel=1e-6)
        assert v.minimizer is None

    def test_union_takes_cheapest_constraint(self):
        rows = (((1.0, 0.0), 1.0), ((0.0, 1.0), 3.0))
        v = inner_inf([G1, G1], [0.0, 0.0], [1.0, 1.0],
                      UnionHalfSpaces(rows))
        assert v.value == pytest.approx(0.5, abs=1e-9)

    def test_convex_inner_matches_halfspace_for_linear_f(self):
        lin = ConvexSublevel(
            lambda x: float(np.dot([1.0, 1.0], x)),
            lambda x: np.array([1.0, 1.0]),
            -1.0, probe_points=[np.zeros(2), np.array([0.4, -0.2])])
        w = [1.0, 2.0]
        va = inner_inf([G1, G1], [0.5, 0.5], w, lin).value
        vb = inner_inf([G1, G1], [0.5, 0.5], w,
                       HalfSpace((-1.0, -1.0), 1.0)).value
        assert va == pytest.approx(vb, rel=1e-6)

    def test_boundary_mu_rejected(self):
        with pytest.raises(DegenerateInstance):
            inner_inf([G1, G1], [1.0, 0.0], [1.0, 1.0], Threshold(1.0))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            inner_inf([G1, G1], [2.0, 0.0], [1.0, -1.0], Threshold(1.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner_inf([G1, G1], [2.0, 0.0], [1.0], Threshold(1.0))


class TestDispatch:
    def test_solve_routes_each_spec(self):
        models = [G1, G1]
        mu = [0.0, 0.0]
        cases = [
            (Threshold(1.0), solve_threshold(models, mu, 1.0)),
            (HalfSpace((1.0, 1.0), 1.0),
             solve_halfspace(models, mu, (1.0, 1.0), 1.0)),
            (ball((2.0, 2.0), 1.0),
             solve_convex(models, mu, ball((2.0, 2.0), 1.0))),
            (UnionHalfSpaces((((1.0, 0.5), 1.0),)),
             solve_union_halfspaces(models, mu, (((1.0, 0.5), 1.0),))),
        ]
        for spec, direct in cases:
            via = solve(models, mu, spec)
            assert via.c_star == pytest.approx(direct.c_star, rel=1e-9)

    def test_solve_rejects_non_spec(self):
        with pytest.raises(TypeError):
            solve([G1], [0.0], object())


# (models, means, spec, weights): three arms, so a compensated sum of the
# three weighted divergences can round differently from the left-to-right
# one; at each weight vector it does for these means
WEIGHTED_SUM_CASES = [
    ("mixed_halfspace", [bernoulli(), poisson(), gaussian(0.7)],
     [0.3, 1.2, 0.1], HalfSpace((1.0, -0.5, 0.8), 1.0),
     [[1.0, 1.0, 5.0], [1.0, 2.0, 3.0]]),
    ("gaussian_ball", [G1, gaussian(0.5), gaussian(2.0)], [1.5, 1.0, -0.7],
     ball((0.0, 0.0, 0.0), 1.0), [[1.0, 1.0, 2.0], [1.0, 2.0, 3.0]]),
]


@pytest.mark.parametrize("name,models,mu,spec,weights", WEIGHTED_SUM_CASES,
                         ids=[c[0] for c in WEIGHTED_SUM_CASES])
def test_inner_values_do_not_use_builtin_sum(monkeypatch, name, models, mu,
                                             spec, weights):
    # built-in sum() of floats is compensated from Python 3.12 on; the
    # inner values are left-to-right sums, the same on every version, so a
    # compensated sum swapped in for sum() must not move them
    want = [inner_inf(models, mu, w, spec).value for w in weights]
    monkeypatch.setattr(lb_solvers, "sum", math.fsum, raising=False)
    assert [inner_inf(models, mu, w, spec).value for w in weights] == want


@given(st.integers(1, 7).flatmap(lambda k: st.tuples(
    st.lists(st.floats(1e-6, 1e6), min_size=k, max_size=k),
    st.lists(st.floats(1e-6, 1e6), min_size=k, max_size=k))))
@settings(max_examples=400, deadline=None)
def test_threshold_t_star_below_eight_arms_is_numpys_sum(case):
    # t* is summed by a Python loop below 8 arms; it must be the float
    # np.add.reduce gives, as solve_threshold summed on arrays, in the
    # step's weights and in the solution
    variances, below = case
    k = len(variances)
    models = [gaussian(v) for v in variances]
    geometry = PreparedThreshold(models, Threshold(0.0))
    mu = [-x for x in below]
    side, _, w = geometry.step(mu, [1] * k, math.inf)
    assert side is Side.A2
    inv = [1.0 / kl(m, x, 0.0) for m, x in zip(models, mu)]
    tstar = float(np.add.reduce(inv))
    assert w == [x / tstar for x in inv]
    sol = solve_threshold(models, mu, 0.0)
    assert sol.c_star == 1.0 / tstar
    assert sol.w_star.tolist() == w


class _NoNumpy:
    """Stands in for a module's numpy: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used")


@pytest.mark.parametrize("k", range(1, 13))
def test_gaussian_halfspace_prepare_is_todays_numpy_floats(monkeypatch, k):
    # reach, reach_sum and gaussian_w are taken on Python floats; they must
    # be the floats of the numpy expressions they replace, bit for bit,
    # over variances from 1e-6 to 1e6 and rows with zero entries. The
    # weights' normalizer is the left-to-right loop, which equals
    # np.add.reduce's sum below 8 arms, and prepare makes no numpy call at
    # all
    rng = np.random.default_rng(4100 + k)
    for _ in range(300):
        variances = 10.0 ** rng.uniform(-6, 6, k)
        a = rng.uniform(0.01, 100.0, k) * rng.choice((-1.0, 1.0), k)
        if k > 1 and rng.random() < 0.3:
            a[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        models = [gaussian(float(v)) for v in variances]
        spec = _Row(tuple(a.tolist()), float(rng.normal()))
        geometry = PreparedHalfSpace(models, spec)
        v = np.array([m.variance for m in models])
        reach = np.sqrt(2.0 * v)
        raw = np.abs(geometry.unit) * np.sqrt(v)
        assert geometry.reach == reach.tolist()
        assert geometry.reach_sum == \
            partitions.row_dot([abs(x) for x in geometry.unit],
                               reach.tolist())
        total = 0.0
        for x in raw.tolist():
            total += x
        if k < 8:
            assert total == raw.sum()
        assert geometry.gaussian_w == (raw / total).tolist()
    monkeypatch.setattr(lb_solvers, "np", _NoNumpy())
    monkeypatch.setattr(partitions, "np", _NoNumpy())
    assert PreparedHalfSpace(models, spec).gaussian_w == geometry.gaussian_w


@st.composite
def _gaussian_threshold_step(draw):
    """(models, means, level, counts): K = 1-8 Gaussian arms with variances
    from 1e-6 to 1e6, any finite means and level, positive counts."""
    k = draw(st.integers(1, 8))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    models = [gaussian(v) for v in
              draw(st.lists(st.floats(1e-6, 1e6), min_size=k, max_size=k))]
    mu = draw(st.lists(floats, min_size=k, max_size=k))
    counts = draw(st.lists(st.integers(1, 10 ** 6), min_size=k, max_size=k))
    return models, mu, draw(floats), counts


@given(_gaussian_threshold_step())
@settings(max_examples=400, deadline=None)
def test_gaussian_threshold_statistic_is_the_checked_divergence(step):
    # the prepared Gaussian step's statistic and, above the level, its
    # weights against spef.kl, with ==; a step at beta inf returns the
    # weights unless Z is inf
    models, mu, u, counts = step
    geometry = PreparedThreshold(models, Threshold(u))
    side, z, w = geometry.step(mu, counts, math.inf)
    if side is Side.BOUNDARY:
        return
    products = [n * spef.kl(m, x, u) for m, x, n in zip(models, mu, counts)]
    if side is Side.A2:
        assert z == min(products)
        return
    want = 0.0
    for x, p in zip(mu, products):
        if x > u:
            want += p
    assert z == want
    if z == math.inf:
        assert w is None
        return
    gaps = [spef.kl(m, x, u) if x > u else -1.0 for m, x in zip(models, mu)]
    best = max(gaps)
    # no positive divergence: the weights raise DegenerateInstance, and
    # the step falls back to uniform weights
    assert w == ([1.0 / len(mu)] * len(mu) if best == 0.0 else
                 [1.0 if i == gaps.index(best) else 0.0
                  for i in range(len(mu))])


class TestHalfSpaceCertificate:
    @pytest.mark.parametrize("models,mu,a", [
        ([gaussian(0.5), G1, gaussian(2.0)], [0.2, -0.4, 0.1],
         (1.0, 0.0, 0.5)),
        ([G1, gaussian(0.3), gaussian(1.7), gaussian(0.6)],
         [0.1, 0.2, -0.3, 0.0], (0.0, -1.2, 0.0, 1.1)),
    ], ids=["k3", "k4_two_zeros"])
    def test_zero_entry_row_residuals_skip_the_untouched_arms(self, models,
                                                               mu, a):
        # an arm with a_i = 0 keeps its mean: its divergence 0 is not the
        # common level and its tangency ratio would be 0/0
        mu = np.array(mu)
        untouched = [i for i, ai in enumerate(a) if ai == 0.0]
        for b in (1.0, -0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = PreparedHalfSpace(models, _Row(a, b)).solution(mu)
            r = sol.kkt_residuals
            assert all(math.isfinite(v) for v in r.values()), r
            assert r["equal_divergence"] <= 1e-12 * sol.c_star, r
            assert r["tangency_spread"] <= 1e-12, r
            for i in untouched:
                assert sol.nu_star[i] == mu[i] and sol.w_star[i] == 0.0

    @pytest.mark.parametrize("b", [1.0, -0.5])
    def test_zero_entry_row_saddle_is_the_saddle_without_that_arm(self, b):
        # non-Gaussian arms: the untouched arm keeps its mean at weight 0,
        # and the rest is the saddle of the instance without it
        models = [bernoulli(), poisson(), gaussian(0.7)]
        mu = np.array([0.3, 1.2, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = PreparedHalfSpace(models, _Row((1.0, 0.0, 0.5), b)) \
                .solution(mu)
        reduced = solve_halfspace([models[0], models[2]], mu[[0, 2]],
                                  (1.0, 0.5), b)
        assert sol.c_star == reduced.c_star
        assert sol.nu_star[1] == mu[1] and sol.w_star[1] == 0.0
        np.testing.assert_array_equal(sol.w_star[[0, 2]], reduced.w_star)
        assert all(math.isfinite(v) for v in sol.kkt_residuals.values())

    def test_all_nonzero_row_residuals_pinned_bit_for_bit(self):
        # a digest of the five residuals of 60 random half-space solves
        # (K = 2-5, mixed families), recorded before the residuals skipped
        # zero entries: on rows without one they must not move. The
        # divergences take the math module's logarithms, so the digest is
        # the same under any numpy CPU dispatch (CI runs both). Recorded
        # again when the half-space level became the shared level root
        # (_level_root), which moved the residuals in their last bits
        rng = np.random.default_rng(31)
        out = []
        for _ in range(60):
            models, mu, a, b = random_halfspace_instance(rng)
            r = solve(models, mu, HalfSpace(tuple(a), b)).kkt_residuals
            out.extend(r[k] for k in sorted(r))
        digest = hashlib.sha256(np.array(out).tobytes()).hexdigest()[:16]
        assert digest == "936fc8b80a2e5ba0"


def _primal_dual_gap(models, mu, spec):
    """(max_i kl_i(mu_i, nu*_i) - inner_inf at w*) / c* of solve's saddle
    point, or None where a w*_i is 0 (inner_inf of a convex set raises
    at zero weights). nu* lies in the alternative, so the first term
    bounds c* from above, and the inner infimum at any weights bounds it
    from below: the gap certifies both c* and w*."""
    mu = np.asarray(mu, dtype=float)
    sol = solve(models, mu, spec)
    if not np.all(sol.w_star > 0.0):
        return None
    primal = max(kl(m, x, y) for m, x, y in zip(models, mu, sol.nu_star))
    return (primal - inner_inf(models, mu, sol.w_star, spec).value) \
        / sol.c_star


def _certificate_cases():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(60):
        models, mu, a, b = random_halfspace_instance(rng)
        cases.append((models, mu, HalfSpace(tuple(a), b)))
    rng = np.random.default_rng(12)
    cases.extend(random_ball_instance(rng) for _ in range(30))
    # not the custom copies: their inner infimum is a projected-gradient
    # descent, whose value sits up to 6e-8 relative above the least
    cases.extend(case[1:] for case in NEWTON_LEVEL_CASES)
    return cases


class TestPrimalDualCertificate:
    def test_gap_closes_on_half_spaces_balls_and_ellipsoids(self):
        gaps = [_primal_dual_gap(*case) for case in _certificate_cases()]
        checked = [g for g in gaps if g is not None]
        assert max(abs(g) for g in checked) <= 1e-9
        # the skipped saddles: balls and ellipsoids touched on one face,
        # whose other arms have weight 0 (20 of the 30 random balls and 5 of
        # NEWTON_LEVEL_CASES)
        assert len(gaps) - len(checked) == 25

    @pytest.mark.parametrize("name,c_star", [
        ("ball_bernoulli", 0.029764827946006506),
        ("ball_gaussian", 0.17320271529231543),
        ("best_arm_bernoulli", 0.018382967115598923),
        ("ellipsoid_poisson", 0.2163953243244932),
        ("halfspace_mixed", 0.011200950058741173),
        ("halfspace_symmetric", 0.12499999999999997),
        ("threshold_gaussian", 1.0),
        ("threshold_mixed", 0.029205029689914994),
        ("union_gaussian", 0.37113402061855666),
    ])
    def test_shipped_configs_saddle_value_pinned(self, name, c_star):
        cfg = parse_config(str(CONFIGS / f"{name}.json"))
        got = solve(list(cfg.arms), cfg.true_means, cfg.partition).c_star
        assert got == pytest.approx(c_star, rel=1e-12, abs=0.0)

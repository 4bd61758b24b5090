"""Saddle-point solvers: closed forms, KKT residuals, failure modes.

The pinned anchor instances and the big randomized batteries live in the
acceptance suite; these tests pin the solver semantics one case at a time.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partid import partitions, spef
from partid.errors import (DegenerateInstance, DomainError,
                           InfeasibleAlternative, NumericalError,
                           UnsupportedCase)
from partid import lb_solvers
from partid.lb_solvers import (PreparedHalfSpace, PreparedThreshold, _Row,
                               inner_inf, solve,
                               solve_convex, solve_halfspace,
                               solve_threshold, solve_two_arm_gaussian,
                               solve_union_halfspaces)
from partid.partitions import (ConvexSublevel, HalfSpace, Side, Threshold,
                               UnionHalfSpaces, ball, ellipsoid)
from partid.reference_oracle import brute_force_lb
from partid.spef import (bernoulli, gaussian, kl, kl_array, kl_dnu,
                         mean_domain, poisson)
from support import random_ball_instance, random_halfspace_instance

G1 = gaussian(1.0)


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
        # the weights are computed on Python floats; t* and w* must still
        # be numpy's sum of the inverse divergences, bit for bit
        rng = np.random.default_rng(k)
        models = [gaussian(v) for v in rng.uniform(0.2, 3.0, k)]
        mu = rng.uniform(-2.0, 0.9, k)
        sol = solve_threshold(models, mu, 1.0)
        gaps = np.array([kl(m, x, 1.0) for m, x in zip(models, mu)])
        inv = 1.0 / gaps
        tstar = np.add.reduce(inv)
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
        # without golden section (two arms) or the ascent (three)
        def search(*args, **kwargs):
            raise AssertionError("the search ran before the certificate")

        monkeypatch.setattr(lb_solvers, "_refine_two_arm", search)
        monkeypatch.setattr(lb_solvers, "_project_simplex_floor", search)
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

    def test_mu_inside_union_unsupported(self):
        with pytest.raises(UnsupportedCase):
            solve_union_halfspaces([G1, G1], [2.0, 0.0], self.ROWS)

    def test_infeasible_row_rejected(self):
        rows = (((1.0, 1.0), 2.5), ((1.0, -1.0), 0.5))
        with pytest.raises(InfeasibleAlternative):
            solve_union_halfspaces([bernoulli(), bernoulli()], [0.3, 0.3],
                                   rows)


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
    # over variances from 1e-6 to 1e6 and rows with zero entries. Below 8
    # arms the weights' normalizer is the left-to-right loop, which equals
    # np.add.reduce's sum there, and prepare makes no numpy call at all
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
        assert geometry.gaussian_w == (raw / raw.sum()).tolist()
    if k < 8:
        monkeypatch.setattr(lb_solvers, "np", _NoNumpy())
        monkeypatch.setattr(partitions, "np", _NoNumpy())
        assert PreparedHalfSpace(models, spec).gaussian_w == \
            geometry.gaussian_w


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
        # the same under any numpy CPU dispatch (CI runs both)
        rng = np.random.default_rng(31)
        out = []
        for _ in range(60):
            models, mu, a, b = random_halfspace_instance(rng)
            r = solve(models, mu, HalfSpace(tuple(a), b)).kkt_residuals
            out.extend(r[k] for k in sorted(r))
        digest = hashlib.sha256(np.array(out).tobytes()).hexdigest()[:16]
        assert digest == "3b7fa29dac251154"

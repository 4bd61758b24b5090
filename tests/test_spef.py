"""Divergence-calculus invariants for the three families.

The timed bulk battery lives in the acceptance suite; here hypothesis
drives the same properties into awkward corners, plus the deterministic
edge cases.
"""

import dataclasses
import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partid import spef
from partid.errors import DomainError, NumericalError
from partid.partitions import Side
from partid.rootfind import bisect_monotone, newton_root
from partid.spef import (CLAMP_EPSILON, Direction, Family, bernoulli,
                         clamp_to_interior, gaussian, kl, kl_array, kl_dnu,
                         kl_dnu_inverse, kl_dnu_range, kl_inverse,
                         kl_inverse_capped, mean_domain, poisson, sample)

MODELS = {
    "gaussian": gaussian(0.7),
    "bernoulli": bernoulli(),
    "poisson": poisson(),
}

MEAN_STRATEGY = {
    "gaussian": st.floats(-30.0, 30.0),
    "bernoulli": st.floats(1e-4, 1.0 - 1e-4),
    "poisson": st.floats(1e-3, 50.0),
}

FAMILY_CASES = [(name, MODELS[name]) for name in sorted(MODELS)]


def pair_strategy(name):
    return st.tuples(MEAN_STRATEGY[name], MEAN_STRATEGY[name])


@pytest.mark.parametrize("name,model", FAMILY_CASES)
def test_kl_zero_at_equal(name, model, rng):
    for _ in range(50):
        mu = draw_mean(model, rng)
        assert kl(model, mu, mu) == 0.0


def draw_mean(model, rng):
    if model.family is Family.GAUSSIAN:
        return float(rng.uniform(-10, 10))
    if model.family is Family.BERNOULLI:
        return float(rng.uniform(0.01, 0.99))
    return float(rng.uniform(0.05, 20.0))


@given(st.sampled_from(sorted(MODELS)), st.data())
@settings(max_examples=300, deadline=None)
def test_kl_nonnegative_and_positive_off_diagonal(name, data):
    model = MODELS[name]
    mu, nu = data.draw(pair_strategy(name))
    v = kl(model, mu, nu)
    assert v >= 0.0
    if abs(mu - nu) > 1e-7 * max(1.0, abs(mu), abs(nu)):
        assert v > 0.0


@given(st.sampled_from(sorted(MODELS)), st.data())
@settings(max_examples=300, deadline=None)
def test_kl_dnu_sign_pattern(name, data):
    model = MODELS[name]
    mu, nu = data.draw(pair_strategy(name))
    s = kl_dnu(model, mu, nu)
    if nu > mu:
        assert s > 0.0
    elif nu < mu:
        assert s < 0.0
    assert kl_dnu(model, mu, mu) == pytest.approx(0.0, abs=1e-15)


@given(st.sampled_from(sorted(MODELS)), st.data())
@settings(max_examples=300, deadline=None)
def test_kl_midpoint_convexity_in_nu(name, data):
    model = MODELS[name]
    mu = data.draw(MEAN_STRATEGY[name])
    n1 = data.draw(MEAN_STRATEGY[name])
    n2 = data.draw(MEAN_STRATEGY[name])
    mid = 0.5 * (n1 + n2)
    lhs = kl(model, mu, mid)
    rhs = 0.5 * (kl(model, mu, n1) + kl(model, mu, n2))
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def representable_target(model, mu, direction, requested):
    """Cap a divergence target so the inverse stays where float spacing
    still allows 1e-9 round trips: 1e-6 inside any finite edge, where the
    slope is ~1e6 at worst. Beyond that no float64 point achieves the
    target to this accuracy (see kl_inverse docstring)."""
    lo, hi = mean_domain(model)
    edge = hi if direction is Direction.ABOVE else lo
    if not math.isfinite(edge):
        return requested
    nu_cap = edge - 1e-6 if direction is Direction.ABOVE else edge + 1e-6
    if (nu_cap <= mu) == (direction is Direction.ABOVE):
        return 0.0  # mu itself within the buffer; nothing to test
    return min(requested, 0.99 * kl(model, mu, nu_cap))


@given(st.sampled_from(sorted(MODELS)), st.data(),
       st.floats(1e-9, 20.0), st.sampled_from(list(Direction)))
@settings(max_examples=150, deadline=None)
def test_kl_inverse_round_trip(name, data, target, direction):
    model = MODELS[name]
    mu = data.draw(MEAN_STRATEGY[name])
    target = representable_target(model, mu, direction, target)
    if target <= 0.0:
        return
    nu = kl_inverse(model, mu, target, direction)
    lo, hi = mean_domain(model)
    assert lo < nu < hi
    if direction is Direction.ABOVE:
        assert nu >= mu
    else:
        assert nu <= mu
    assert kl(model, mu, nu) == pytest.approx(target, abs=1e-9)


def test_kl_inverse_unattainable_target_raises():
    # kl(0.9, nu) tops out near 3.6 at the last float below 1.0, so a target
    # of 50 has no representable preimage and must fail loudly
    with pytest.raises(NumericalError):
        kl_inverse(bernoulli(), 0.9, 50.0, Direction.ABOVE)


@pytest.mark.parametrize("inverse", [kl_inverse, kl_inverse_capped])
@pytest.mark.parametrize("model,mu,target", [(gaussian(), 0.0, 1.0),
                                             (bernoulli(), 0.3, 0.1),
                                             (poisson(), 2.0, 0.0)])
@pytest.mark.parametrize("direction", ["above", "ABOVE"])
def test_kl_inverse_rejects_a_direction_that_is_not_one(inverse, model, mu,
                                                        target, direction):
    # a string or a typo is not a Direction: no side may be guessed for it
    with pytest.raises(TypeError, match="Direction"):
        inverse(model, mu, target, direction)


def test_kl_inverse_capped_saturates_finite_edges():
    nu = kl_inverse_capped(bernoulli(), 0.9, 50.0, Direction.ABOVE)
    assert nu == np.nextafter(1.0, 0.0)
    nu = kl_inverse_capped(poisson(), 1.0, 800.0, Direction.BELOW)
    assert nu == np.nextafter(0.0, 1.0)
    # past the divergence at the last float before 0, which stays finite
    # where nu / mu underflows, the cap holds
    assert kl_inverse_capped(poisson(), 3.0, 3000.0, Direction.BELOW) == \
        np.nextafter(0.0, 1.0)
    # attainable targets pass straight through
    assert kl_inverse_capped(bernoulli(), 0.5, 1.0, Direction.ABOVE) == \
        kl_inverse(bernoulli(), 0.5, 1.0, Direction.ABOVE)
    # no cap exists toward an infinite edge, so nothing is swallowed there
    assert math.isfinite(kl_inverse_capped(poisson(), 1.0, 800.0,
                                           Direction.ABOVE))


@pytest.mark.parametrize("inverse", [kl_inverse, kl_inverse_capped])
@pytest.mark.parametrize("direction", list(Direction))
def test_gaussian_kl_inverse_past_the_last_float_raises(inverse, direction):
    # 2 v t overflows, so mu +- sqrt(2 v t) is infinite: no float reaches
    # the target, as at a Bernoulli or Poisson arm's last float, and the
    # capped inverse has no finite edge to stop at
    with pytest.raises(NumericalError, match="beyond every float"):
        inverse(gaussian(), 2.0, 1e308, direction)


def test_bernoulli_kl_inverse_where_the_far_start_rounds_away():
    # 1 - (1 - mu) e^(-x) rounds to 0 at mu = 1e-200 and a target of 1e-20;
    # the near start mu + sqrt(2 mu (1 - mu) t) still finds the root,
    # about 1e-20
    nu = kl_inverse(bernoulli(), 1e-200, 1e-20, Direction.ABOVE)
    assert kl(bernoulli(), 1e-200, nu) == pytest.approx(1e-20, rel=1e-12)


def test_poisson_divergence_where_the_ratio_underflows():
    # nu / mu underflows to 0 at the smallest float: the log of the ratio
    # is log(nu) - log(mu), so the divergence, about 3 (log(3 / 5e-324) - 1),
    # is finite, and a target past it is out of reach in float64
    assert kl(poisson(), 3.0, 5e-324) == pytest.approx(2233.616, rel=1e-6)
    with pytest.raises(NumericalError, match="beyond every float before "
                                             "the poisson domain edge"):
        kl_inverse(poisson(), 3.0, 3000.0, Direction.BELOW)


@pytest.mark.parametrize("model,mu,nu,want", [
    (bernoulli(), 1e-310, 0.5, math.log(2.0)),
    (bernoulli(), 5e-324, 0.5, math.log(2.0)),
    (poisson(), 1e-310, 0.5, 0.5),
    # nu / mu overflows at a normal mu as well
    (poisson(), 1e-300, 1e10, 1e10),
])
def test_divergence_where_the_ratio_overflows(model, mu, nu, want):
    # x = (nu - mu) / mu overflows to inf at a subnormal mu, where
    # mu (x - log1p(x)) would be NaN and max(0, NaN) is 0; mu x is
    # nu - mu, and mu log(nu / mu) is below 1e-290 here
    assert kl(model, mu, nu) == pytest.approx(want, rel=1e-12)


def test_kl_inverse_extreme_but_attainable_target():
    # near the edge the divergence slope makes value_tol unreachable; the
    # returned point is still interior and its divergence is close on the
    # scale the floats allow
    nu = kl_inverse(bernoulli(), 0.5, 9.0, Direction.ABOVE)
    assert 0.5 < nu < 1.0
    assert kl(bernoulli(), 0.5, nu) == pytest.approx(9.0, abs=1e-6)


def _exact_poisson_kl_from_one(nu):
    """Poisson kl(1, nu) in rational arithmetic near nu = 1: with x = nu - 1
    (exact in float64 by Sterbenz's lemma), kl(1, 1 + x) = x - log(1 + x) =
    sum_{k>=2} (-1)^k x^k / k, truncated at k = 8, whose next term is below
    1e-55 for |x| < 1e-6."""
    x = Fraction(nu) - 1
    return sum(Fraction((-1) ** k, k) * x ** k for k in range(2, 9))


def test_kl_inverse_tiny_target_within_two_ulps():
    # at 2.2e-13 the divergence changes by 1.5e-22 per ulp of nu; the
    # exact values two ulps either side of the result bracket the target
    target = 2.2e-13
    nu = kl_inverse(poisson(), 1.0, target, Direction.ABOVE)
    assert nu == pytest.approx(1.0 + 6.6e-7, rel=1e-8)
    below = _ulp_steps(nu, 2, -math.inf)
    above = _ulp_steps(nu, 2, math.inf)
    assert _exact_poisson_kl_from_one(below) <= Fraction(target) \
        <= _exact_poisson_kl_from_one(above)


@pytest.fixture
def kl_evaluations(monkeypatch):
    """A one-element list counting evaluations of the Bernoulli and Poisson
    divergence formulas in FAMILIES."""
    count = [0]
    for family in (Family.BERNOULLI, Family.POISSON):
        ops = spef.FAMILIES[family]

        def counted(m, mu, nu, _kl=ops.kl):
            count[0] += 1
            return _kl(m, mu, nu)
        monkeypatch.setitem(spef.FAMILIES, family,
                            dataclasses.replace(ops, kl=counted))
    return count


@pytest.mark.parametrize("name,mus", [
    ("bernoulli", np.linspace(0.01, 0.99, 25)),
    ("poisson", np.geomspace(0.01, 50.0, 25)),
])
def test_kl_inverse_evaluation_budget(name, mus, kl_evaluations):
    # root walking with bisection took a median of 23 evaluations and a
    # 90th percentile of 34 on this grid; Newton steps need far fewer
    per_call = []
    for mu in mus:
        for target in np.geomspace(1e-12, 12.0, 27):
            for direction in Direction:
                kl_evaluations[0] = 0
                try:
                    kl_inverse(MODELS[name], float(mu), float(target),
                               direction)
                except NumericalError:
                    pass  # beyond the last float before the domain edge
                per_call.append(kl_evaluations[0])
    assert np.median(per_call) <= 13
    assert np.percentile(per_call, 90) <= 21


def test_bernoulli_kl_prox_takes_half_the_bisection_steps(monkeypatch):
    # bisection to float resolution on the same bracket, which solved the
    # stationarity equation before, is the yardstick for every call; both
    # root finders spef can call are counted
    steps = [0]

    def counting(root_finder):
        def counted(f, *args, **kwargs):
            def g(x):
                steps[0] += 1
                return f(x)
            return root_finder(g, *args, **kwargs)
        return counted
    monkeypatch.setattr(spef, "newton_root", counting(newton_root))
    monkeypatch.setattr(spef, "bisect_monotone", counting(bisect_monotone))
    prox = spef.FAMILIES[Family.BERNOULLI].kl_prox
    model = bernoulli()
    for mu in (0.05, 0.3, 0.5, 0.8, 0.97):
        for w in (0.1, 1.0, 5.0):
            for alpha in (1e-3, 0.1, 1.0, 10.0, 1e3):
                for c in (-0.5, 0.02, 0.4, 0.9, 1.7):
                    halvings = [0]

                    def stationarity(nu):
                        halvings[0] += 1
                        return (w * (nu - mu) / (nu * (1.0 - nu))
                                + alpha * (nu - c))
                    lo, hi = sorted((mu, min(max(c, 0.0), 1.0)))
                    want = bisect_monotone(stationarity, lo, hi, 0.0,
                                           value_tol=0.0)
                    steps[0] = 0
                    got = prox(model, mu, w, alpha, c)
                    assert steps[0] <= halvings[0] / 2, (mu, w, alpha, c)
                    assert abs(got - want) <= 2 * math.ulp(want)


@given(st.sampled_from(sorted(MODELS)), st.data(), st.floats(-20.0, 20.0))
@settings(max_examples=150, deadline=None)
def test_kl_dnu_inverse_round_trip(name, data, slope):
    model = MODELS[name]
    mu = data.draw(MEAN_STRATEGY[name])
    lo, hi = kl_dnu_range(model, mu)
    if not lo < slope < hi:
        with pytest.raises(DomainError):
            kl_dnu_inverse(model, mu, slope)
        return
    nu = kl_dnu_inverse(model, mu, slope)
    assert kl_dnu(model, mu, nu) == pytest.approx(slope, abs=1e-9)


@pytest.mark.parametrize("name,model", FAMILY_CASES)
def test_boundary_divergence(name, model):
    lo, hi = mean_domain(model)
    mu = {"gaussian": 0.0, "bernoulli": 0.5, "poisson": 1.0}[name]
    # walk nu toward each boundary; divergence must blow up monotonically
    # bounded families blow up only logarithmically, so the floor is modest
    if math.isfinite(lo):
        seq = [lo + 10.0 ** (-e) for e in range(2, 13)]
    else:
        seq = [-(10.0 ** e) for e in range(1, 7)]
    vals = [kl(model, mu, nu) for nu in seq]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 10.0
    if math.isfinite(hi):
        seq = [hi - 10.0 ** (-e) for e in range(2, 13)]
    else:
        seq = [10.0 ** e for e in range(1, 7)]
    vals = [kl(model, mu, nu) for nu in seq]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 10.0


@pytest.mark.parametrize("name,model", FAMILY_CASES)
def test_derivative_matches_finite_difference(name, model, rng):
    for _ in range(200):
        mu = draw_mean(model, rng)
        nu = draw_mean(model, rng)
        h = 1e-6 * max(abs(nu), 1.0)
        lo, hi = mean_domain(model)
        if not (lo < nu - h and nu + h < hi):
            continue
        fd = (kl(model, mu, nu + h) - kl(model, mu, nu - h)) / (2 * h)
        an = kl_dnu(model, mu, nu)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("name,model", FAMILY_CASES)
def test_second_derivative_matches_finite_difference(name, model, rng):
    # kl_dnu2 is the derivative of kl_dnu in nu, positive everywhere: the
    # union KKT solve's Jacobian moves each alternative by 1 / kl_dnu2
    # per unit of slope
    ops = spef.FAMILIES[model.family]
    for _ in range(200):
        mu = draw_mean(model, rng)
        nu = draw_mean(model, rng)
        h = 1e-6 * max(abs(nu), 1.0)
        lo, hi = mean_domain(model)
        if not (lo < nu - h and nu + h < hi):
            continue
        fd = (kl_dnu(model, mu, nu + h) - kl_dnu(model, mu, nu - h)) / (2 * h)
        an = ops.kl_dnu2(model, mu, nu)
        assert an > 0.0
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("name,model", FAMILY_CASES)
def test_kl_array_matches_scalar(name, model, rng):
    mu = draw_mean(model, rng)
    nus = np.array([draw_mean(model, rng) for _ in range(64)])
    each = np.array([kl(model, mu, float(nu)) for nu in nus])
    for shape in [(64,), (8, 8)]:
        bulk = kl_array(model, mu, nus.reshape(shape))
        assert bulk.shape == shape
        np.testing.assert_allclose(bulk.ravel(), each, rtol=0.0, atol=0.0)


def _edge_and_random_means(rng, lo, hi, edges):
    # uniform draws are pure arithmetic on the generator's bits, so the
    # inputs do not depend on the host; edges are exact Python floats
    return list(edges) + rng.uniform(lo, hi, 55).tolist()


@pytest.mark.parametrize("name,edges,lo,hi,pinned", [
    ("bernoulli", [1e-12, 1e-9, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6,
                   1.0 - 1e-9, 1.0 - 1e-12], 0.0, 1.0, "f3f0b79cca8dff92"),
    ("poisson", [1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12],
     0.0, 30.0, "5409475ad240e7bd"),
])
def test_scalar_divergences_pinned_bit_for_bit(name, edges, lo, hi, pinned):
    # kl over every pair of 63 means (edges of the domain and uniform
    # draws): its floats are the math module's logarithms, the same on
    # every host and under any numpy CPU dispatch
    model = MODELS[name]
    means = _edge_and_random_means(np.random.default_rng(77), lo, hi, edges)
    out, ratio_branch = [], 0
    for mu in means:
        for nu in means:
            out.append(kl(model, mu, nu))
            # 1 + x < 1/2 for x = (nu - mu)/mu, or for Bernoulli's
            # y = (mu - nu)/(1 - mu): the log of the ratio is taken
            ratio_branch += nu < 0.5 * mu or (
                name == "bernoulli" and 1.0 - nu < 0.5 * (1.0 - mu))
    assert 0.2 * len(out) < ratio_branch < 0.8 * len(out)
    digest = hashlib.sha256(np.array(out).tobytes()).hexdigest()[:16]
    assert digest == pinned


@pytest.mark.parametrize("bad_nu", [0.0, 1.0, -0.2, 1.4, math.inf, math.nan])
def test_kl_rejects_out_of_domain(bad_nu):
    with pytest.raises(DomainError):
        kl(bernoulli(), 0.5, bad_nu)


@pytest.mark.parametrize("itype", [np.int8, np.int64, np.uint16])
def test_numpy_integer_means_are_accepted(itype):
    g, p = gaussian(), poisson()
    assert kl(g, itype(1), 0.5) == kl(g, 1.0, 0.5)
    assert kl_dnu(g, 0.5, itype(1)) == kl_dnu(g, 0.5, 1.0)
    assert kl_inverse(p, itype(1), 0.3, Direction.ABOVE) == \
        kl_inverse(p, 1.0, 0.3, Direction.ABOVE)
    assert kl_dnu_inverse(p, itype(2), 0.5) == kl_dnu_inverse(p, 2.0, 0.5)
    assert sample(p, itype(3), np.random.default_rng(5)) == \
        sample(p, 3.0, np.random.default_rng(5))
    with pytest.raises(DomainError):
        kl(bernoulli(), itype(1), 0.5)


def test_domain_error_names_arm():
    with pytest.raises(DomainError, match=r"arm 3"):
        kl(poisson(), 1.0, -1.0, arm=3)


def test_poisson_slope_saturates():
    assert kl_dnu_range(poisson(), 2.0) == (-math.inf, 1.0)
    with pytest.raises(DomainError):
        kl_dnu_inverse(poisson(), 2.0, 1.0)
    nu = kl_dnu_inverse(poisson(), 2.0, 0.9)
    assert nu == pytest.approx(20.0, rel=1e-9)  # 1 - mu/nu = 0.9


def _exact_slope(model, mu, nu):
    """kl_dnu(mu, nu) in rational arithmetic, free of rounding."""
    mu, nu = Fraction(mu), Fraction(nu)
    if model.family is Family.BERNOULLI:
        return (nu - mu) / (nu * (1 - nu))
    return (nu - mu) / nu


def _ulp_steps(x, n, toward):
    for _ in range(n):
        x = math.nextafter(x, toward)
    return x


EXTREME_SLOPES = [-1e8, -1e4, -37.5, -1.0, -1e-9, 1e-9, 0.3, 0.999]


@pytest.mark.parametrize("name,mus,slopes", [
    ("bernoulli", [1e-6, 0.02, 0.5, 0.97],
     EXTREME_SLOPES + [1.0, 1.5, 1e4, 1e8]),
    ("poisson", [1e-4, 1.0, 40.0], EXTREME_SLOPES + [1.0 - 1e-12]),
])
def test_kl_dnu_inverse_closed_form_at_extreme_slopes(name, mus, slopes):
    # the exact root of kl_dnu(mu, .) = slope lies within two float steps
    # of the returned nu, and the float round trip is as close as the
    # spacing of nu allows
    model = MODELS[name]
    lo, hi = mean_domain(model)
    for mu in mus:
        for slope in slopes:
            nu = kl_dnu_inverse(model, mu, slope)
            assert lo < nu < hi
            below = _ulp_steps(nu, 2, -math.inf)
            above = _ulp_steps(nu, 2, math.inf)
            assert _exact_slope(model, mu, below) <= Fraction(slope) \
                <= _exact_slope(model, mu, above), (mu, slope, nu)
            resolution = abs(float(_exact_slope(model, mu, above)
                                   - _exact_slope(model, mu, below)))
            assert abs(kl_dnu(model, mu, nu) - slope) <= \
                resolution + 1e-14 * abs(slope)


def test_kl_dnu_inverse_unrepresentable_root_raises():
    # the root sits within 1e-20 of 1, which float64 cannot separate from 1
    with pytest.raises(NumericalError):
        kl_dnu_inverse(bernoulli(), 0.5, 1e20)


def test_clamp_to_interior():
    b = bernoulli()
    assert clamp_to_interior(b, -0.3) == CLAMP_EPSILON
    assert clamp_to_interior(b, 1.7) == 1.0 - CLAMP_EPSILON
    assert clamp_to_interior(b, 0.42) == 0.42
    assert clamp_to_interior(poisson(), 0.0) == CLAMP_EPSILON
    assert clamp_to_interior(gaussian(), -1e9) == -1e9


def test_sample_reproducible_and_in_support(rng):
    for name, model in FAMILY_CASES:
        mu = draw_mean(model, rng)
        a = [sample(model, mu, np.random.default_rng(42)) for _ in range(5)]
        b = [sample(model, mu, np.random.default_rng(42)) for _ in range(5)]
        assert a[0] == b[0]
        draws = [sample(model, mu, rng) for _ in range(200)]
        if model.family is Family.BERNOULLI:
            assert set(draws) <= {0.0, 1.0}
        if model.family is Family.POISSON:
            assert all(d >= 0 and d == int(d) for d in draws)


def test_sample_rejects_bad_mean():
    with pytest.raises(DomainError, match=r"arm 0"):
        sample(bernoulli(), 1.5, np.random.default_rng(0), arm=0)


def test_gaussian_variance_validation():
    with pytest.raises(ValueError):
        gaussian(0.0)
    with pytest.raises(ValueError):
        gaussian(-1.0)


def test_gaussian_sampler_draws_the_floats_of_generator_normal():
    # twin generators: the sampler's draws must equal rng.normal's bit for
    # bit, over means in [-1e6, 1e6] and variances from 1e-12 to 1e12
    cases = np.random.default_rng(3)
    means = np.concatenate([[0.0, -1e6, 1e6, 1e-300],
                            cases.uniform(-1e6, 1e6, 46)])
    variances = np.concatenate([[1e-12, 1e12, 1.0, 0.5],
                                10.0 ** cases.uniform(-12.0, 12.0, 46)])
    for seed, (mean, variance) in enumerate(zip(means, variances)):
        mean, sd = float(mean), math.sqrt(float(variance))
        draw = spef.sampler(gaussian(variance), mean,
                            np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        got = [draw() for _ in range(2000)]
        want = [float(twin.normal(mean, sd)) for _ in range(2000)]
        assert np.array(got).tobytes() == np.array(want).tobytes(), \
            (mean, variance)
        assert all(type(x) is float for x in got)


def _pull_order(rng, k, n):
    """n arm indices in an arbitrary order: runs of one arm of random
    length, as a tracking rule pulls them."""
    order = []
    while len(order) < n:
        order += [int(rng.integers(k))] * int(rng.integers(1, 40))
    return order[:n]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gaussian_samplers_share_one_stream_of_scalar_floats(seed):
    # K = 5 Gaussian arms drawn in an arbitrary order over 6,000 pulls, so
    # over many blocks of every size up to the cap: the floats of per-arm
    # sampler calls on a twin generator, bit for bit, as Python floats
    cases = np.random.default_rng(seed)
    k = 5
    models = [gaussian(float(v)) for v in 10.0 ** cases.uniform(-3, 3, k)]
    means = cases.uniform(-1e3, 1e3, k)
    draws = spef.samplers(models, means, np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    scalar = [spef.sampler(m, float(x), twin, arm=i)
              for i, (m, x) in enumerate(zip(models, means))]
    order = _pull_order(cases, k, 6000)
    assert sum(2 ** j for j in range(4, 11)) < len(order)
    got = [draws[i]() for i in order]
    want = [scalar[i]() for i in order]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert all(type(x) is float for x in got)


@pytest.mark.parametrize("models", [
    [gaussian(1.0), bernoulli(), poisson(), gaussian(0.5), bernoulli()],
    [bernoulli()] * 5,
    [poisson(), poisson(), gaussian(2.0), poisson(), poisson()],
], ids=["all_three", "bernoulli", "poisson_gaussian"])
def test_other_families_keep_scalar_draws(models):
    # without every arm Gaussian each draw is one scalar call, so the
    # generator is where per-arm samplers on a twin leave it after every
    # draw
    means = [0.3 if m.family is Family.BERNOULLI else 1.5 for m in models]
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    draws = spef.samplers(models, means, rng)
    scalar = [spef.sampler(m, x, twin) for m, x in zip(models, means)]
    for i in _pull_order(np.random.default_rng(4), len(models), 600):
        assert draws[i]() == scalar[i]()
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("models", [[gaussian(1.0)] * 3,
                                    [gaussian(1.0), bernoulli(), poisson()]],
                         ids=["gaussian", "mixed"])
def test_samplers_check_every_mean_before_any_draw(models):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(DomainError, match="arm 2"):
        spef.samplers(models, [0.5, 0.5, math.nan], rng)
    with pytest.raises(ValueError, match="3 models for 2 means"):
        spef.samplers(models, [0.5, 0.5], rng)
    spef.samplers(models, [0.5, 0.5, 0.5], rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("enum_cls,names", [
    (Family, ["GAUSSIAN", "BERNOULLI", "POISSON"]),
    (Direction, ["ABOVE", "BELOW"]),
    (Side, ["A1", "A2", "BOUNDARY"]),
])
def test_enum_members_hash_by_identity(enum_cls, names):
    # the identity hash keys a member as Enum's hash of its name did: the
    # members, their order and equality are unchanged, and a pickled
    # member comes back as the same object, found by a dict lookup
    assert [m.name for m in enum_cls] == names
    assert enum_cls.__hash__ is object.__hash__
    table = {m: m.value for m in enum_cls}
    for m in enum_cls:
        back = pickle.loads(pickle.dumps(m))
        assert back is m and back == m
        assert table[back] == m.value
    assert spef.FAMILIES[pickle.loads(pickle.dumps(Family.POISSON))] is \
        spef.FAMILIES[Family.POISSON]

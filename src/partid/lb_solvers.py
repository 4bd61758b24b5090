"""Solvers for the optimal-allocation lower bound over two-component partitions.

The object computed everywhere is the saddle point of

    max_{w in simplex}  inf_{nu in closure(other component)}  sum_i w_i kl_i(mu_i, nu_i)

whose value c* bounds the rate at which any sound procedure can separate the
two components, with characteristic time t* = 1/c*. Each partition family
has one prepared class, which holds what does not depend on the means and
gives the sharpest solver its structure allows:

  * Threshold (PreparedThreshold): fully closed form on both sides.
  * HalfSpace (PreparedHalfSpace): the minimizer equalizes divergences
    across arms and sits on the hyperplane. With Gaussian arms both the
    saddle and the weighted inner infimum are closed forms; otherwise the
    saddle is one Newton root in the common divergence level, each arm's
    coordinate its divergence inverse at that level, and the inner
    infimum one bisection on a multiplier. The class holds the unit rows
    for both sides, their reach into the domain and the Gaussian saddle
    weights.
  * ConvexSublevel (PreparedConvex): the value is the smallest level t at
    which the coordinate box {max_i kl_i <= t} touches {f <= c}; bisection
    on t. For a ball or ellipsoid the box step is the center clipped into
    the box, and the weighted inner infimum is a bisection on one
    multiplier with each coordinate solved per family (kl_prox); custom
    oracles minimize by projected gradient on a box instead.
  * UnionHalfSpaces (PreparedUnion, one PreparedHalfSpace per row):
    concave max-min over the simplex. The row whose exact saddle is
    cheapest is tried first: when no other row undercuts it at its
    weights, that saddle is the union's (each half-space relaxes the
    union, so this is a true optimality certificate). Otherwise golden
    section and kink bisection on the segment for two arms, or
    supergradient ascent and cutting planes with an LP upper bound for
    more, pin the optimum, and the duality gap is reported.
  * Two-arm Gaussian with two constraints: closed-form casework on whether
    one constraint can be ignored or the optimal level set is tangent to
    both lines.

Hyperplane rows are normalized internally to unit Euclidean norm, which
changes nothing about the sets or the saddle point but keeps every reported
residual on a common scale.

prepare() is the only dispatch on the partition type: inner_inf and solve
evaluate the prepared geometry's inner and solution, and a track-and-stop
run asks it for one step at a time.

Every solver uses one numerical policy, the module constants below.
Weighted divergence sums are taken left to right (_weighted_kl), as
hyperplane products are (partitions.row_dot).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateInstance, DomainError, InfeasibleAlternative,
                     NumericalError, PartidError, UnsupportedCase)
from .partitions import (_A1, _A2, _BOUNDARY, ConvexSublevel, HalfSpace,
                         PartitionSpec, Side, Threshold, UnionHalfSpaces,
                         classify, row_dot, side_of_margin)
from .rootfind import NoBracket, newton_root, walk_to_root
# unused here: perfbench/test_tracer.py counts this module's binding site
from .rootfind import bisect_monotone  # noqa: F401
from .spef import (FAMILIES, Direction, Family, SpefModel, gaussian, kl,
                   kl_dnu, kl_dnu_inverse, kl_dnu_range, kl_inverse_capped,
                   mean_domain)


# The solvers' numerical policy. The cutting planes stop at a duality gap of
# TOL_KKT; TOL_BISECT is the tolerance of the solvers' scalar roots, on the
# value or relative to the level for the convex-set bracket and the half-space
# Newton step; SIMPLEX_FLOOR keeps union ascent iterates strictly inside the
# simplex; ACTIVE_SET_TOL is relative to c* when detecting binding arms. A
# union of more than two arms takes ASCENT_STEPS supergradient steps, then at
# most MAX_CUTS cutting-plane rounds.
TOL_KKT = 1e-8
TOL_BISECT = 1e-10
SIMPLEX_FLOOR = 1e-9
ACTIVE_SET_TOL = 1e-6
ASCENT_STEPS = 250
MAX_CUTS = 500


@dataclass(frozen=True)
class LowerBoundSolution:
    """Saddle point of the allocation game.

    w_star sums to one; nu_star is the critical alternative achieving the
    inner infimum at w_star; c_star is the saddle value and t_star = 1/c_star
    the characteristic time. active_set lists the arms essential to the
    optimum. kkt_residuals carries solver-specific diagnostics; flags marks
    qualitative events ("case1", "case_boundary", "NonUniqueHyperplane",
    "MaxIters", "mu_in_a2", "edge_saturated"). When NonUniqueHyperplane is
    flagged w_star is NaN: nu_star and c_star remain valid but no supporting
    hyperplane determines the weights.
    """
    w_star: np.ndarray
    nu_star: np.ndarray
    c_star: float
    t_star: float
    active_set: tuple[int, ...]
    kkt_residuals: dict[str, float]
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class InnerSolution:
    """Value of a weighted inner infimum and its minimizer when attained."""
    value: float
    minimizer: Optional[np.ndarray]


def _validate_instance(models: Sequence[SpefModel], mu) -> np.ndarray:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.ndim != 1 or len(models) != mu.size:
        raise ValueError(
            f"got {len(models)} models for mean vector of shape {mu.shape}")
    _check_domains(models, [mean_domain(m) for m in models], mu)
    return mu


def _check_domains(models, domains, mu):
    """DomainError unless each mu[i] is finite and inside domains[i]."""
    for i, ((lo, hi), x) in enumerate(zip(domains, mu)):
        if not (math.isfinite(x) and lo < x < hi):
            raise DomainError(f"mu[{i}]={x} outside open "
                              f"{models[i].family.value} domain ({lo}, {hi})")


def covers(spec: PartitionSpec, side: Side) -> bool:
    """Whether inner_inf and solve handle means on this side of spec: both
    sides of a threshold or half-space, only A1 (outside the set) of a
    convex sublevel set or a union of half-spaces."""
    return side is not Side.A2 or isinstance(spec, (Threshold, HalfSpace))


def require_covered(spec: PartitionSpec, side: Side):
    """Raise UnsupportedCase unless covers(spec, side)."""
    if not covers(spec, side):
        raise UnsupportedCase(f"means on side {side.value} of a "
                              f"{type(spec).__name__} are not covered")


def _check_saddle_value(cstar: float):
    if not (cstar > 0 and math.isfinite(cstar)):
        raise DegenerateInstance(
            f"saddle value {cstar} is not positive; the instance is on or "
            f"across the partition boundary")


def _solution(w, nu, cstar, active, residuals, flags=()):
    cstar = float(cstar)
    _check_saddle_value(cstar)
    return LowerBoundSolution(
        w_star=np.asarray(w, dtype=float), nu_star=np.asarray(nu, dtype=float),
        c_star=cstar, t_star=1.0 / cstar, active_set=tuple(int(i) for i in active),
        kkt_residuals={k: float(v) for k, v in residuals.items()},
        flags=tuple(flags))


# ---------------------------------------------------------------------------
# weighted inner problems


def _edge_toward(model: SpefModel, sign: float) -> float:
    lo, hi = mean_domain(model)
    return hi if sign > 0 else lo


def _linear_sup(models, a) -> float:
    """sup of <a, nu> over the open product domain (+inf allowed)."""
    s = 0.0
    for m, ai in zip(models, a):
        if ai == 0.0:
            continue
        edge = _edge_toward(m, ai)
        term = ai * edge
        if math.isinf(term):
            return math.inf
        s += term
    return s


def _slope_inverse_capped(model: SpefModel, mu_i: float, slope: float) -> float:
    """kl_dnu inverse extended by its boundary limits past saturation."""
    if slope == 0.0:
        return mu_i
    lo_s, hi_s = kl_dnu_range(model, mu_i)
    if slope >= hi_s:
        return math.inf
    if slope <= lo_s:
        return -math.inf
    return kl_dnu_inverse(model, mu_i, slope)


def _unit_halfspace_inner(models, mu, w, a, b, sup=None, lin=None, *,
                          tol=1e-12, max_iter=300):
    """inf of sum_i w_i kl_i(mu_i, nu_i) over {<a, nu> >= b} for a unit row
    a, with a, mu and w sequences of Python numbers; sup is
    _linear_sup(models, a) and lin is row_dot(a, mu) when the caller has
    them. The minimizer is a list. Products and norms are row_dot's.

    Stationarity makes every coordinate nu_i the slope inverse of
    lam * a_i / w_i for a common multiplier lam >= 0, and <a, nu(lam)>
    increases in lam, so the constraint level is one monotone scalar root,
    which walk_to_root brackets by doubling lam from 1 and then bisects.
    Arms with zero weight are free: they absorb as much of the constraint as
    their domain edge allows at no cost, shrinking the effective level for
    the rest, whose row is normalized again (by row_dot, as
    PreparedHalfSpace normalizes a row); the infimum is then not
    attained and the minimizer is None. When the free arms carry every
    nonzero entry of the row, their reach is sup > b, so they meet the
    constraint alone and the value is 0.
    When every arm the constraint touches is Gaussian the slope inverses are
    linear and _gaussian_unit_inner gives the value with no root to find;
    a run step with Gaussian arms and no zero count goes there directly
    (PreparedHalfSpace.step).
    """
    K = len(models)
    if lin is None:
        lin = row_dot(a, mu)
    if lin >= b:
        return 0.0, list(mu)
    if sup is None:
        sup = _linear_sup(models, a)
    if not sup > b:
        raise InfeasibleAlternative(
            "half-space does not intersect the mean domain")

    free = [i for i in range(K) if w[i] == 0.0 and a[i] != 0.0]
    if free:
        cap = 0.0
        for i in free:
            term = a[i] * _edge_toward(models[i], a[i])
            if math.isinf(term):
                return 0.0, None
            cap += term
        keep = [i for i in range(K) if i not in free]
        rest = [a[i] for i in keep]
        norm = math.sqrt(row_dot(rest, rest))
        if norm == 0.0:
            return 0.0, None
        rest, mu_rest = [x / norm for x in rest], [mu[i] for i in keep]
        val, _ = _unit_halfspace_inner(
            [models[i] for i in keep], mu_rest, [w[i] for i in keep], rest,
            (b - cap) / norm, lin=row_dot(rest, mu_rest), tol=tol,
            max_iter=max_iter)
        return val, None

    busy = [i for i in range(K) if a[i] != 0.0]
    if all(models[i].family is Family.GAUSSIAN for i in busy):
        nu = list(mu)
        return _gaussian_unit_inner(mu, w, b, lin, _gaussian_terms(models, a),
                                    nu), nu

    def constraint_at(lam):
        s = 0.0
        for i in busy:
            nu_i = _slope_inverse_capped(models[i], mu[i], lam * a[i] / w[i])
            term = a[i] * nu_i
            if math.isinf(term):
                return math.inf
            s += term
        return s

    lam = walk_to_root(constraint_at, 0.0, math.inf, b, rising=True,
                       value_tol=tol * max(1.0, abs(b)), max_iter=max_iter)
    nu = list(mu)
    for i in busy:
        nu[i] = _slope_inverse_capped(models[i], mu[i], lam * a[i] / w[i])
    _check_minimizer(nu)
    return _weighted_kl(models, mu, w, nu, busy), nu


def _weighted_kl(models, mu, w, nu, arms) -> float:
    """sum of w_i kl_i(mu_i, nu_i) over arms, left to right: built-in sum()
    of floats is compensated from Python 3.12 on, so its rounding would
    depend on the interpreter."""
    s = 0.0
    for i in arms:
        s += w[i] * kl(models[i], mu[i], nu[i])
    return float(s)


def _check_minimizer(nu):
    if not all(map(math.isfinite, nu)):
        raise NumericalError("inner minimizer escaped to the domain boundary")


def _gaussian_terms(models, a):
    """(i, a_i, v_i, a_i^2 v_i, 2 v_i) for each arm i the row a (a list)
    touches, every one of them Gaussian."""
    return [(i, ai, m.variance, ai * ai * m.variance, 2.0 * m.variance)
            for i, (m, ai) in enumerate(zip(models, a)) if ai != 0.0]


def _gaussian_unit_inner(mu, w, b, lin, terms, nu=None):
    """_unit_halfspace_inner's closed form, for a row whose arms (terms, by
    _gaussian_terms) are all Gaussian with nonzero weight and lin < b: the
    slope inverses are linear, so lam = (b - lin) / S with
    S = sum_i a_i^2 v_i / w_i, nu_i = mu_i + v_i lam a_i / w_i, and the
    value is sum_i w_i (mu_i - nu_i)^2 / (2 v_i), summed left to right.
    Returns the value, and writes each nu_i the row touches into the list
    nu when one is given (a copy of mu gives the minimizer);
    NumericalError when an nu_i is not finite."""
    s = 0.0
    for i, _, _, a2v, _ in terms:
        s += a2v / w[i]
    lam = (b - lin) / s
    value = 0.0
    for i, ai, v, _, two_v in terms:
        wi, mi = w[i], mu[i]
        x = mi + v * lam * ai / wi
        if nu is not None:
            nu[i] = x
        d = mi - x
        value += wi * (d * d / two_v)
    # each w_i > 0, so a coordinate that is not finite leaves the value
    # not finite
    if not math.isfinite(value):
        _check_minimizer([mu[i] + v * lam * ai / w[i]
                          for i, ai, v, _, _ in terms])
    return value


def _min_f_over_box(f, grad, lo, hi, x0, *, gtol=1e-12, max_iter=20000):
    """Minimize smooth convex f over a coordinate box by projected gradient
    with backtracking. Returns (x, projected-gradient residual). Serves
    custom sublevel oracles only; ball and ellipsoid sets have exact steps."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = float(f(x))
    eta = 1.0
    resid = math.inf
    best = math.inf
    stall = 0
    for _ in range(max_iter):
        g = np.asarray(grad(x), dtype=float)
        resid = float(np.max(np.abs(x - np.clip(x - g, lo, hi))))
        if resid <= gtol * max(1.0, float(np.max(np.abs(x)))):
            break
        # the acceptance slack below floors what f-comparisons can resolve
        # at about sqrt(eps); past that the iterate orbits without progress
        if resid < 0.9 * best:
            best, stall = resid, 0
        else:
            stall += 1
            if stall >= 100:
                break
        moved = False
        for _bt in range(60):
            xn = np.clip(x - eta * g, lo, hi)
            dx = xn - x
            if not np.any(dx):
                break
            fn = float(f(xn))
            if fn <= fx + float(np.dot(g, dx)) + float(np.dot(dx, dx)) / (2 * eta) \
                    + 1e-15 * (1.0 + abs(fx)):
                x, fx = xn, fn
                eta = min(eta * 1.5, 1e8)
                moved = True
                break
            eta *= 0.5
        if not moved:
            break
    return x, resid


def _box_minimizer(models, mu, w, sub: ConvexSublevel):
    """nu(lam) for a custom oracle: projected gradient on an adaptively
    grown coordinate box, regrown whenever the optimum presses an edge,
    which also keeps iterates inside bounded mean domains."""
    f, gradf = sub.value, sub.grad
    K = len(models)
    state = {"x": np.array(mu), "level": 8.0}

    def nu_of(lam):
        while True:
            lv = state["level"]
            lo = np.array([kl_inverse_capped(models[i], mu[i], lv / w[i],
                                             Direction.BELOW)
                           for i in range(K)])
            hi = np.array([kl_inverse_capped(models[i], mu[i], lv / w[i],
                                             Direction.ABOVE)
                           for i in range(K)])

            def psi(x):
                return _weighted_kl(models, mu, w, x, range(K)) \
                    + lam * float(f(x))

            def psi_grad(x):
                g = np.array([w[i] * kl_dnu(models[i], mu[i], x[i])
                              for i in range(K)])
                return g + lam * np.asarray(gradf(x), dtype=float)

            x, _ = _min_f_over_box(psi, psi_grad, lo, hi,
                                   np.clip(state["x"], lo, hi), gtol=1e-12)
            margin = np.minimum(x - lo, hi - x)
            span = np.maximum(hi - lo, 1e-12)
            if np.all(margin > 1e-9 * span):
                state["x"] = x
                return x
            state["level"] = lv * 2.0
            if state["level"] > 2.0 ** 60:
                raise NumericalError("convex inner box grew without bound")

    return nu_of


# ---------------------------------------------------------------------------
# prepared geometries


def _uniform(k: int) -> list:
    """The run loop's fallback weights on k arms: on a boundary step, and
    where the allocation raises a PartidError."""
    return [1.0 / k] * k


# np.add.reduce sums fewer floats than this left to right, and from this
# many on in pairwise blocks, which round otherwise
_PAIRWISE_FROM = 8


def _sum(xs) -> float:
    """The sum np.add.reduce gives of a list of floats: below
    _PAIRWISE_FROM terms the left-to-right loop, taken without numpy, and
    from there on np.add.reduce's pairwise blocks."""
    if len(xs) < _PAIRWISE_FROM:
        s = 0.0
        for x in xs:
            s += x
        return s
    return float(np.add.reduce(xs))


class PreparedThreshold:
    """The level, checked against every arm's domain, and each arm's
    unchecked divergence to it; with all-Gaussian arms, 2 v_i per arm, so
    the divergence (mu_i - u)^2 / (2 v_i) is taken inline by _gaussian_kl's
    operations. Means, weights and counts are sequences of Python numbers.

    step, inner and solution each make one pass over the arms (_pass) and
    share one allocation rule (_weights): above the level every weight
    goes to the arm with the largest divergence, below it the weights are
    the inverse divergences over their sum t*. A step makes no numpy call.
    """

    def __init__(self, models: Sequence[SpefModel], spec: Threshold):
        u = spec.u
        for i, m in enumerate(models):
            lo, hi = mean_domain(m)
            if not lo < u < hi:
                raise DomainError(
                    f"threshold level {u} outside arm {i} domain ({lo}, {hi})")
        self.models = models
        self.u = u
        self.k = k = len(models)
        # gap[i](x, u): kl of arm i from mean x to the level, unchecked
        self.gap = [functools.partial(FAMILIES[m.family].kl, m)
                    for m in models]
        self.two_v = [2.0 * m.variance for m in models] \
            if all(m.family is Family.GAUSSIAN for m in models) else None
        # w* above the level with arm i on top; the run loop only reads
        # the weights a step returns, so its steps share these lists
        self.one_hot = [[0.0] * i + [1.0] + [0.0] * (k - 1 - i)
                        for i in range(k)]

    def _pass(self, mu, w, side: Side):
        """(z, arm, gaps, t*, positive) at means mu on side with weights w.
        Above the level z is the sum of w_i kl_i(mu_i, u) over the arms
        above it and arm the one with the largest divergence (lowest index
        on ties, -1 when none is positive); gaps and t* are None. Below it
        z is the least w_i kl_i(mu_i, u) and arm its arm (lowest index on
        ties), gaps lists every divergence and positive tells whether each
        is positive; then t*, the sum of their inverses, is the one
        np.add.reduce gives (_sum), as solve_threshold summed on arrays:
        the left-to-right sum below _PAIRWISE_FROM arms."""
        u, gap, two_v = self.u, self.gap, self.two_v
        if side is _A1:
            z, top, best = 0.0, -1, 0.0
            for i, x in enumerate(mu):
                if x > u:
                    if two_v is None:
                        g = gap[i](x, u)
                    else:
                        d = x - u
                        g = d * d / two_v[i]
                    z += w[i] * g
                    if g > best:
                        top, best = i, g
            return z, top, None, None, True
        gaps = [0.0] * self.k
        z, lowest, tstar, positive = math.inf, 0, 0.0, True
        for i, x in enumerate(mu):
            if two_v is None:
                g = gap[i](x, u)
            else:
                d = x - u
                g = d * d / two_v[i]
            gaps[i] = g
            c = w[i] * g
            if c < z:
                z, lowest = c, i
            # a NaN divergence fails this test too
            if g > 0.0:
                tstar += 1.0 / g
            else:
                positive = False
        if self.k >= _PAIRWISE_FROM and positive:
            tstar = _sum([1.0 / g for g in gaps])
        return z, lowest, gaps, tstar, positive

    def _weights(self, side: Side, arm, gaps, tstar, positive):
        """w* from what a pass on side returned after z: above the level
        the one-hot list of its arm, below it the inverse divergences over
        t*. DegenerateInstance when no divergence above the level is
        positive, or below it when one is not (a mean at the level, or
        NaN) or t* is not finite and positive."""
        if side is _A1:
            if arm < 0:
                _check_saddle_value(0.0)
            return self.one_hot[arm]
        if not positive:
            raise DegenerateInstance(
                "an arm mean coincides with the threshold level; the "
                "characteristic time is unbounded")
        # 0 when every divergence overflowed, inf when one is too small
        if not 0.0 < tstar < math.inf:
            raise DegenerateInstance(f"characteristic time {tstar} is not "
                                     f"finite and positive")
        return [1.0 / g / tstar for g in gaps]

    def step(self, mu, counts, beta):
        """The side by classify's expression, then the pass and, unless
        z >= beta, the weights, with the run loop's fallbacks."""
        side = side_of_margin(max(mu) - self.u, _A1)
        if side is _BOUNDARY:
            return side, 0.0, _uniform(self.k)
        z, arm, gaps, tstar, positive = self._pass(mu, counts, side)
        if z >= beta:
            return side, z, None
        try:
            return side, z, self._weights(side, arm, gaps, tstar, positive)
        except PartidError:
            return side, z, _uniform(self.k)

    def inner(self, mu, w, side: Side):
        """(value, minimizer) of the weighted inner infimum from checked
        means mu on side (mu and w arrays): the pass's z, with every arm
        above the level dragged to it, or below it the lowest arm raised
        to it."""
        z, lowest = self._pass(mu.tolist(), w.tolist(), side)[:2]
        nu = np.array(mu)
        nu[mu > self.u if side is Side.A1 else lowest] = self.u
        return z, nu

    def solution(self, mu) -> LowerBoundSolution:
        """solve_threshold's saddle point at checked means mu (an array);
        NumericalError naming the first arm whose divergence to the level
        overflows float64."""
        models, u = self.models, self.u
        side = side_of_margin(max(mu) - u, _A1)
        if side is Side.BOUNDARY:
            raise DegenerateInstance(f"max(mu) sits on the threshold level {u}")

        K, mul = mu.size, mu.tolist()
        # every divergence, from the pass below the level
        below = self._pass(mul, [1.0] * K, _A2)
        p = below if side is _A2 else self._pass(mul, [1.0] * K, side)
        gaps = below[2]
        for i, g in enumerate(gaps):
            if math.isinf(g) and (side is _A2 or mul[i] > u):
                raise NumericalError(f"divergence of arm {i} to the level "
                                     f"{u} is not finite in float64")
        w = self._weights(side, *p[1:])
        if side is Side.A1:
            w = np.array(w)
            cstar = float(gaps[p[1]])
            nu = np.where(mu > u, u, mu)
            active = [i for i in range(K)
                      if mu[i] > u and gaps[i] >= cstar * (1 - 1e-12)]
            residuals = {
                "saddle_gap": abs(_weighted_kl(models, mu, w, nu, range(K))
                                  - cstar),
                "weight_sum": abs(w.sum() - 1.0),
            }
            return _solution(w, nu, cstar, active, residuals)

        gaps, w = np.array(gaps), np.array(w)
        cstar = 1.0 / p[3]
        nu = np.array(mu)
        nu[0] = u
        residuals = {
            "product_spread": float(np.max(np.abs(w * gaps - cstar))),
            "weight_sum": abs(w.sum() - 1.0),
        }
        return _solution(w, nu, cstar, range(K), residuals)


class PreparedHalfSpace:
    """What a half-space instance keeps fixed while the means move, computed
    once: the raw row and its norm for classify's side test; for each side,
    the unit row and offset of the closed half-space {<a, nu> >= b} opposite
    it, with its _linear_sup; the arms' domains; and, when every arm is
    Gaussian, the saddle weights |a_i| sqrt(v_i) normalized, with the scale
    sum_i |a_i| sqrt(2 v_i), and for each side the row's variances and
    a_i^2 v_i on the arms it touches (_gaussian_terms). Rows are lists of
    Python floats, and every product and norm is row_dot's, so they round
    the same on every host. inner_inf and solve_halfspace prepare one per
    call, a Monte Carlo campaign one for all its runs, and a union one per
    row (a row may have zero entries).

    A step takes the side and the unit-row product in one pass over the
    means; the opposite side's row is the negated unit row, whose product
    is the negated one, bit for bit. With Gaussian arms and no zero count
    the statistic is _gaussian_unit_inner on the prepared terms and the
    weights are fixed once the margin and c* > 0 checks pass, so such a
    step makes no numpy call; other families solve the saddle on the means
    as an array. Either way the step gives the floats inner_inf and solve
    give at the same means.
    """

    def __init__(self, models: Sequence[SpefModel], spec: HalfSpace):
        self.models = list(models)
        self.a = [float(x) for x in spec.a]
        if len(self.a) != len(models):
            raise ValueError(f"normal has {len(self.a)} entries for "
                             f"{len(models)} arms")
        self.b = float(spec.b)
        self.norm = math.sqrt(row_dot(self.a, self.a))
        if self.norm == 0.0:
            raise ValueError("half-space normal is the zero vector")
        unit = [x / self.norm for x in self.a]
        b_unit = self.b / self.norm
        self.unit, self.b_unit = unit, b_unit
        # indexed by whether the means lie on A2 (a Side would be hashed)
        self.targets = tuple((row, off, _linear_sup(models, row))
                             for row, off in ((unit, b_unit),
                                              ([-x for x in unit], -b_unit)))
        self.domains = [mean_domain(m) for m in models]
        self.gaussian_w = None
        if all(m.family is Family.GAUSSIAN for m in models):
            variances = [m.variance for m in models]
            self.reach = [math.sqrt(2.0 * v) for v in variances]
            self.reach_sum = row_dot([abs(x) for x in unit], self.reach)
            # not a / slopes: their rounding would break exact weight ties
            raw = [abs(x) * math.sqrt(v) for x, v in zip(unit, variances)]
            total = _sum(raw)
            self.gaussian_w = [x / total for x in raw]
            # the step's closed form, per side as targets: the row's
            # _gaussian_terms, offset and _linear_sup; the negated row's
            # terms negate a_i alone
            terms = _gaussian_terms(models, unit)
            (_, b1, sup1), (_, b2, sup2) = self.targets
            self.gaussian_targets = (
                (terms, b1, sup1),
                ([(i, -ai, v, a2v, tv) for i, ai, v, a2v, tv in terms],
                 b2, sup2))

    def target(self, side: Side):
        """(unit row, offset, _linear_sup of the row) of the closed
        half-space {<a, nu> >= b} opposite means on side."""
        return self.targets[side is Side.A2]

    def _dot_and_side(self, mu):
        """(unit-row product of mu, classify(HalfSpace(a, b), mu)) in one
        pass over the arms: the side by classify's expression
        (<a, mu> - b) / ||a||, and each product the left-to-right sum
        row_dot takes."""
        dot = raw = 0.0
        for ui, ai, x in zip(self.unit, self.a, mu):
            dot += ui * x
            raw += ai * x
        return dot, side_of_margin((raw - self.b) / self.norm, _A2)

    def step(self, mu, counts, beta):
        """The side and the unit-row product in one pass (_dot_and_side),
        then the count-weighted inner infimum after the domain check and,
        unless it reaches beta, the weights, with the run loop's
        fallbacks. With Gaussian arms and no zero count the inner infimum
        is _gaussian_unit_inner on the prepared terms and the domain check
        a finiteness test of the product."""
        dot, side = self._dot_and_side(mu)
        if side is _BOUNDARY:
            return side, 0.0, _uniform(len(mu))
        lin = dot if side is _A1 else -dot
        if self.gaussian_w is None or 0 in counts:
            _check_domains(self.models, self.domains, mu)
            a, b, sup = self.targets[side is _A2]
            z = _unit_halfspace_inner(self.models, mu, counts, a, b, sup,
                                      lin)[0]
        else:
            # a mean that is not finite makes the unit-row product NaN or
            # infinite, and the Gaussian domain is the whole line
            if not math.isfinite(dot):
                _check_domains(self.models, self.domains, mu)
            terms, b, sup = self.gaussian_targets[side is _A2]
            z = 0.0
            if lin < b:
                if not sup > b:
                    raise InfeasibleAlternative(
                        "half-space does not intersect the mean domain")
                z = _gaussian_unit_inner(mu, counts, b, lin, terms)
        if z >= beta:
            return side, z, None
        try:
            return side, z, self._weights(mu, dot)
        except PartidError:
            return side, z, _uniform(len(mu))

    def inner(self, mu, w, side: Side, tol: float = 1e-12):
        """(value, minimizer) of the weighted inner infimum from means mu on
        side to the closure of the other side (mu and w arrays), with the
        multiplier bisected to tol when arms are not all Gaussian."""
        a, b, sup = self.target(side)
        value, nu = _unit_halfspace_inner(self.models, mu.tolist(),
                                          w.tolist(), a, b, sup, tol=tol)
        return value, None if nu is None else np.array(nu)

    def _orient(self, dot: float):
        """(side, unit row, offset, <row, mu>) for means whose unit-row
        product is dot: the side by the unit-row margin, which must clear
        1e-12, and that side's target, which must meet the domain."""
        margin = dot - self.b_unit
        if abs(margin) <= 1e-12:
            raise DegenerateInstance("mu lies on the separating hyperplane")
        side = Side.A2 if margin > 0 else Side.A1
        a, b, sup = self.target(side)
        if not sup > b:
            raise InfeasibleAlternative(
                "the open half-space does not intersect the mean domain")
        return side, a, b, dot if side is Side.A1 else -dot

    def saddle(self, mu):
        """(side of mu, c*, nu*, w*, divergence slopes at nu* or None,
        whether an arm sits at the last float before its domain edge) at
        checked means mu, as solve_halfspace reports them: the closed form
        with Gaussian arms, otherwise one root in the common divergence
        level. An arm the row does not touch keeps its mean, at weight 0.
        Raises DegenerateInstance within 1e-12 of the hyperplane and
        InfeasibleAlternative when the opposite half-space misses the
        domain."""
        mul = mu.tolist()
        side, a, b, lin = self._orient(row_dot(self.unit, mul))
        if self.gaussian_w is not None:
            # sqrt(c*) = (b - <a, mu>) / sum_i |a_i| sqrt(2 v_i)
            r = (b - lin) / self.reach_sum
            nu = mu + np.sign(a) * self.reach * r
            return side, r * r, nu, np.array(self.gaussian_w), None, False

        models, K, al = self.models, mu.size, a
        busy = [i for i in range(K) if al[i] != 0.0]
        ops = [FAMILIES[m.family] for m in models]
        toward = [Direction.ABOVE if ai > 0 else Direction.BELOW for ai in al]
        # |a_i| d nu_i / dr at r = 0, with r = sqrt(c): the Gaussian reach
        reach = [abs(al[i]) * math.sqrt(2.0 * ops[i].variance(models[i],
                                                              mul[i]))
                 for i in range(K)]
        reach_sum = 0.0
        for i in busy:
            reach_sum += reach[i]
        tried = {}

        def constraint_at(r):
            # <a, nu> - b with each nu_i the capped inverse at level r^2,
            # and its slope in r: a_i 2 r / kl_dnu_i summed, or the reach of
            # an arm whose nu_i rounds onto mu_i
            nu = list(mul)
            for i in busy:
                nu[i] = kl_inverse_capped(models[i], mul[i], r * r, toward[i])
            value = slope = 0.0
            for i in busy:
                value += al[i] * nu[i]
                d = ops[i].kl_dnu(models[i], mul[i], nu[i])
                slope += 2.0 * r * al[i] / d if d != 0.0 else reach[i]
            tried["nu"] = nu
            return value - b, slope

        # the constraint rises with the level from -gap at c = 0; the
        # Gaussian sqrt(c*) = gap / sum_i |a_i| sqrt(2 v_i), each variance
        # taken at the mean, starts the Newton steps in r
        gap = b - lin
        r = newton_root(constraint_at, gap / reach_sum, 0.0, math.inf,
                        f_neg=-gap, rtol=0.5 * TOL_BISECT)
        # the last float before each arm's edge, where a capped inverse
        # saturates
        last = [math.nextafter(_edge_toward(models[i], al[i]), mul[i])
                for i in range(K)]
        # one ulp of nu_i moves arm i's divergence by about |kl_dnu_i| ulp:
        # the coarsest arm unsaturated at the last level tried is inverted
        # at r^2, the level is taken exactly at its nu and the others are
        # inverted at that, so each arm meets it to within its own
        # resolution
        nu = tried["nu"]
        j = max((i for i in busy if nu[i] != last[i]), default=busy[0],
                key=lambda i: abs(ops[i].kl_dnu(models[i], mul[i], nu[i]))
                * math.ulp(nu[i]))
        nu_j = kl_inverse_capped(models[j], mul[j], r * r, toward[j])
        cstar = r * r if nu_j == last[j] \
            else ops[j].kl(models[j], mul[j], nu_j)
        nu = list(mul)
        for i in busy:
            nu[i] = nu_j if i == j else \
                kl_inverse_capped(models[i], mul[i], cstar, toward[i])
        saturated = any(nu[i] == last[i] for i in busy)

        # an arm saturated at the smallest positive float may have a slope
        # that overflows, and then has weight 0; an untouched arm's slope
        # at its own mean is 0, and so is its weight
        slopes = [kl_dnu(models[i], mul[i], nu[i]) for i in range(K)]
        raw = [0.0] * K
        for i in busy:
            s = slopes[i]
            if s == 0.0:
                raise NumericalError(
                    f"divergence slope 0 at arm {i}: the level {cstar} does "
                    f"not move nu off mu={mu[i]} in float64")
            if not math.isfinite(s) and nu[i] != last[i]:
                raise NumericalError(f"divergence slope {s} at arm {i}")
            raw[i] = al[i] / s
            if raw[i] <= 0 and nu[i] != last[i]:
                raise NumericalError(
                    "weight signs violate the displacement pattern")
        raw = np.array(raw)
        return side, cstar, np.array(nu), raw / raw.sum(), np.array(slopes), \
            saturated

    def _weights(self, mu, dot: float) -> list:
        """w* of solve_halfspace as a list at checked means mu (a list)
        whose unit-row product is dot, after its checks, c* > 0 included.
        With Gaussian arms the weights do not depend on the means, and the
        checks are _orient's and saddle's c* = r^2 > 0 on the margin, where
        b - <a, mu> on the means' side is -margin or margin, bit for bit.
        Other families' weights can overflow, which raises NumericalError."""
        if self.gaussian_w is None:
            _, cstar, _, w, _, _ = self.saddle(np.array(mu, dtype=float))
            _check_saddle_value(cstar)
            if not np.all(np.isfinite(w)):
                raise NumericalError(f"saddle weights {w} are not finite")
            return w.tolist()
        margin = dot - self.b_unit
        if abs(margin) <= 1e-12:
            raise DegenerateInstance("mu lies on the separating hyperplane")
        _, b, sup = self.gaussian_targets[margin > 0]
        if not sup > b:
            raise InfeasibleAlternative(
                "the open half-space does not intersect the mean domain")
        r = margin / self.reach_sum
        _check_saddle_value(r * r)
        return self.gaussian_w

    def solution(self, mu, saddle=None) -> LowerBoundSolution:
        """solve_halfspace's saddle point at checked means mu (an array),
        with its certificate; saddle is what self.saddle(mu) returned, when
        the caller has it."""
        models = self.models
        side, cstar, nu, w, slopes, saturated = \
            self.saddle(mu) if saddle is None else saddle
        al, b, _ = self.target(side)
        a = np.array(al)
        if slopes is None:
            slopes = np.array([kl_dnu(models[i], mu[i], nu[i])
                               for i in range(mu.size)])

        levels = np.array([kl(models[i], mu[i], nu[i]) for i in range(mu.size)])
        # an arm the row does not touch keeps its mean, at divergence 0
        touched = a != 0.0
        finite = touched & np.isfinite(slopes)
        ratios = w[finite] * slopes[finite] / a[finite]
        residuals = {
            "equal_divergence": float(np.max(np.abs(levels[touched]
                                                    - cstar))),
            "hyperplane": abs(row_dot(al, nu.tolist()) - b),
            "sign_violations": float(np.sum(np.sign(nu - mu) != np.sign(a))),
            "tangency_spread": float(np.max(ratios) - np.min(ratios)),
            "saddle_gap": abs(row_dot(w.tolist(), levels.tolist()) - cstar),
        }
        flags = (("mu_in_a2",) if side is Side.A2 else ()) \
            + (("edge_saturated",) if saturated else ())
        return _solution(w, nu, cstar, range(mu.size), residuals, flags)


class _SolvedGeometry:
    """A geometry whose means must lie outside its set (A1). A subclass
    gives inner(mu, w, side) and solution(mu); a run step evaluates both
    at the step's means as an array."""

    def __init__(self, models: Sequence[SpefModel], spec: PartitionSpec):
        self.models = list(models)
        self.spec = spec
        self.domains = [mean_domain(m) for m in models]

    def _check_side(self, mu, where: str):
        """DegenerateInstance when checked means mu lie on the boundary
        ('mu lies on the ' + where), UnsupportedCase on side A2."""
        side = classify(self.spec, mu)
        if side is Side.BOUNDARY:
            raise DegenerateInstance(f"mu lies on the {where}")
        require_covered(self.spec, side)

    def step(self, mu, counts, beta):
        """classify, then off the boundary the domain check, coverage and
        inner at the counts, and unless that reaches beta the solution's
        w*, with the run loop's fallbacks."""
        x = np.array(mu, dtype=float)
        side = classify(self.spec, x)
        if side is _BOUNDARY:
            return side, 0.0, _uniform(len(mu))
        _check_domains(self.models, self.domains, mu)
        try:
            require_covered(self.spec, side)
            z = self.inner(x, np.array(counts, dtype=float), side)[0]
        except (DegenerateInstance, UnsupportedCase):
            z = 0.0
        if z >= beta:
            return side, z, None
        try:
            w = self.solution(x).w_star
        except PartidError:
            w = None
        # w* is NaN where no supporting hyperplane fixes it
        # (NonUniqueHyperplane), which falls back as a failed solution does
        if w is None or not np.all(np.isfinite(w)):
            return side, z, _uniform(len(mu))
        return side, z, w.tolist()


class PreparedConvex(_SolvedGeometry):
    """A convex sublevel set {f <= level} with the means outside it: the
    set and, when ball() or ellipsoid() built it as
    {sum_i ((x_i - c_i) / s_i)^2 <= level}, its center, the curvatures
    2 / s_i^2 and each arm's kl_prox (center is None for a custom oracle).
    inner_inf and solve_convex prepare one per call, a Monte Carlo
    campaign one for all its runs."""

    def __init__(self, models: Sequence[SpefModel], spec: ConvexSublevel):
        super().__init__(models, spec)
        self.center = None
        if spec.shape is not None:
            kind, center, extra = spec.shape
            if len(center) != len(models):
                raise ValueError(f"center has {len(center)} entries for "
                                 f"{len(models)} arms")
            self.center = np.asarray(center, dtype=float)
            axes = np.ones(self.center.size) if kind == "ball" else \
                np.asarray(extra, dtype=float)
            self.curvature = 2.0 / (axes * axes)
            self.prox = [FAMILIES[m.family].kl_prox for m in models]

    def inner(self, mu, w, side: Side):
        """(value, minimizer) of inf sum_i w_i kl_i(mu_i, nu_i) over
        {f <= level} from means mu outside it (mu and w arrays, every w_i
        > 0; UnsupportedCase otherwise).

        Lagrangian dual in the single multiplier lam: the unconstrained
        minimum nu(lam) of sum w_i kl_i + lam f moves continuously with
        f(nu(lam)) decreasing, so the binding level is again a monotone
        scalar root (walk_to_root; no crossing is InfeasibleAlternative).
        For a ball or ellipsoid, stationarity at fixed lam is one scalar
        equation per coordinate, w_i kl_i'(mu_i, nu_i) +
        alpha_i (nu_i - c_i) = 0 with alpha_i = 2 lam / s_i^2, which each
        family's kl_prox solves (linear for Gaussian, a quadratic for
        Poisson, a monotone root between mu_i and c_i for Bernoulli).
        Custom oracles minimize on a coordinate box instead.
        """
        models, f, c = self.models, self.spec.value, self.spec.level
        if float(f(mu)) <= c:
            return 0.0, np.array(mu)
        if np.any(w <= 0):
            raise UnsupportedCase(
                "convex-set inner problem requires strictly positive weights")
        K = len(models)

        if self.center is None:
            nu_of = _box_minimizer(models, mu, w, self.spec)
        else:
            center, curvature, prox = self.center, self.curvature, self.prox

            def nu_of(lam):
                return np.array([prox[i](models[i], mu[i], w[i],
                                         lam * curvature[i], center[i])
                                 for i in range(K)])

        def level_at(lam):
            return float(f(nu_of(lam)))

        try:
            lam = walk_to_root(level_at, 0.0, math.inf, c, rising=False,
                               value_tol=1e-12 * max(1.0, abs(c)),
                               max_iter=300)
        except NoBracket as exc:
            raise InfeasibleAlternative(
                "sublevel set unreachable: f never drops to the requested "
                "level") from exc
        nu = nu_of(lam)
        return _weighted_kl(models, mu, w, nu, range(K)), nu

    def solution(self, mu) -> LowerBoundSolution:
        """solve_convex's saddle point at checked means mu (an array)."""
        models = self.models
        f, gradf, c = self.spec.value, self.spec.grad, self.spec.level
        self._check_side(mu, "sublevel boundary")

        K, center = mu.size, self.center
        state = {"x": np.array(mu)}

        def box_min(t):
            lo = np.array([kl_inverse_capped(models[i], mu[i], t,
                                             Direction.BELOW)
                           for i in range(K)])
            hi = np.array([kl_inverse_capped(models[i], mu[i], t,
                                             Direction.ABOVE)
                           for i in range(K)])
            if center is not None:
                x, resid = np.clip(center, lo, hi), 0.0
            else:
                x, resid = _min_f_over_box(f, gradf, lo, hi,
                                           np.clip(state["x"], lo, hi))
                state["x"] = x
            return float(f(x)), x, resid

        t_hi = 1.0
        t_lo = 0.0
        for _ in range(300):
            val, x, _ = box_min(t_hi)
            if val <= c:
                break
            t_lo = t_hi
            t_hi *= 2.0
        else:
            raise InfeasibleAlternative(
                "sublevel set unreachable from mu inside the mean domain")

        x_feas, resid = x, math.inf
        for _ in range(300):
            if t_hi - t_lo <= TOL_BISECT * max(1.0, t_hi):
                break
            mid = 0.5 * (t_lo + t_hi)
            val, x, resid = box_min(mid)
            if val <= c:
                t_hi, x_feas = mid, x
            else:
                t_lo = mid

        nu = x_feas
        levels = np.array([kl(models[i], mu[i], nu[i]) for i in range(K)])
        cstar = float(np.max(levels))
        active = [i for i in range(K)
                  if levels[i] >= cstar * (1.0 - ACTIVE_SET_TOL)]

        grads = np.asarray(gradf(nu), dtype=float)
        raw = np.zeros(K)
        for i in active:
            raw[i] = grads[i] / kl_dnu(models[i], mu[i], nu[i])
        total = raw.sum()
        flags = []
        if total == 0.0 or np.any(raw[active] * np.sign(total) < 0):
            flags.append("NonUniqueHyperplane")
            w = np.full(K, math.nan)
        else:
            w = np.maximum(raw / total, 0.0)
            w = w / w.sum()

        residuals = {
            "boundary_gap": abs(float(f(nu)) - c),
            "active_spread": float(cstar - np.min(levels[active])),
            "box_stationarity": float(resid if math.isfinite(resid) else 0.0),
            "level_bracket": float(t_hi - t_lo),
        }
        return _solution(w, nu, cstar, active, residuals, flags)


# a union's row: HalfSpace's fields, where the normal may have zero entries
_Row = collections.namedtuple("_Row", "a b")


class PreparedUnion(_SolvedGeometry):
    """A union of half-spaces with the means in the polytope outside it:
    one PreparedHalfSpace per row, built from the raw row, so each row is
    normalized once. inner_inf and solve_union_halfspaces prepare one per
    call, a Monte Carlo campaign one for all its runs."""

    def __init__(self, models: Sequence[SpefModel], spec: UnionHalfSpaces):
        if len(spec.halfspaces[0][0]) != len(models):
            raise ValueError(
                "constraint dimension does not match the arm count")
        super().__init__(models, spec)
        self.rows = [PreparedHalfSpace(models, _Row(a, b))
                     for a, b in spec.halfspaces]

    def _row_inners(self, mu, w, tol: float):
        """(values as an array, minimizers) of every row's inner infimum
        from means mu in the polytope, each multiplier bisected to tol."""
        pairs = [row.inner(mu, w, Side.A1, tol=tol) for row in self.rows]
        return np.array([v for v, _ in pairs]), [nu for _, nu in pairs]

    def inner(self, mu, w, side: Side):
        """(value, minimizer) of the least row inner infimum (the first row
        on ties), each multiplier bisected to 1e-12."""
        vals, nus = self._row_inners(mu, w, 1e-12)
        j = int(np.argmin(vals))
        return float(vals[j]), nus[j]

    def solution(self, mu) -> LowerBoundSolution:
        """solve_union_halfspaces's saddle point at checked means mu (an
        array): the single-row certificate, else the searches."""
        self._check_side(mu, "polytope boundary")
        for j, row in enumerate(self.rows):
            _, b, sup = row.target(Side.A1)
            if not sup > b:
                raise InfeasibleAlternative(
                    f"half-space {j} does not intersect the mean domain")
        return self._single_row(mu) or self._search(mu)

    def _single_row(self, mu):
        """The exact saddle of the row whose saddle is cheapest among the
        rows with every entry nonzero, when no other row undercuts it at its
        weights; None otherwise. c* is at most every row's c_k, so a row
        that passes attains c*, even where another row's saddle raised."""
        best = None
        for row in self.rows:
            if 0.0 in row.a:
                continue
            try:
                saddle = row.saddle(mu)
            except PartidError:
                continue
            if best is None or saddle[1] < best[1][1]:
                best = (row, saddle)
        if best is None:
            return None
        row, saddle = best
        sol = row.solution(mu, saddle)
        for other in self.rows:
            if other is row:
                continue
            v, _ = other.inner(mu, sol.w_star, Side.A1, tol=TOL_BISECT)
            if v < sol.c_star * (1.0 - 1e-9) - 1e-12:
                return None  # another constraint undercuts: not optimal
        residuals = dict(sol.kkt_residuals, duality_gap=0.0, active_rows=1.0)
        return replace(sol, kkt_residuals=residuals,
                       flags=sol.flags + ("single_constraint",))

    def _search(self, mu) -> LowerBoundSolution:
        """Golden section and kink bisection for two arms, supergradient
        ascent and cutting planes otherwise; the duality gap is the LP's,
        or for two arms _segment_gap's at the returned weights."""
        models, K = self.models, mu.size
        g_and_nu = functools.partial(self._row_inners, mu, tol=TOL_BISECT)

        def g_of(w):
            return float(np.min(g_and_nu(w)[0]))

        # phase 1: projected supergradient ascent; with two arms the golden
        # section below searches the whole segment, so it starts from uniform
        w = np.full(K, 1.0 / K)
        best_w, best_g = w.copy(), g_of(w)
        n_ascent = ASCENT_STEPS if K > 2 else 0
        for k in range(1, n_ascent + 1):
            vals, nus = g_and_nu(w)
            gmin = float(np.min(vals))
            if gmin > best_g:
                best_g, best_w = gmin, w.copy()
            ties = [j for j in range(len(vals))
                    if vals[j] <= gmin + 1e-12 * max(1.0, gmin)]
            grad = np.zeros(K)
            for j in ties:
                grad += np.array([kl(models[i], mu[i], nus[j][i])
                                  for i in range(K)])
            grad /= len(ties)
            w = _project_simplex_floor(w + 1.0 / math.sqrt(k) * grad)

        # phase 2: certified refinement
        flags = []
        if K == 2:
            best_w, best_g = _refine_two_arm(mu, self.rows, best_w, best_g,
                                             g_of)
        else:
            best_w, best_g, gap, exhausted = _kelley_refine(
                models, mu, self.rows, best_w, best_g, g_and_nu)
            if exhausted:
                flags.append("MaxIters")

        w = np.maximum(best_w, SIMPLEX_FLOOR)
        w = w / w.sum()
        vals, nus = g_and_nu(w)
        cstar = float(np.min(vals))
        if K == 2:
            gap = _segment_gap(models, mu, w, vals, nus)
        active_rows = [j for j in range(len(vals))
                       if vals[j] <= cstar + 1e-9 * max(1.0, cstar)]
        nu = nus[min(active_rows)]
        active = [i for i in range(K) if w[i] > SIMPLEX_FLOOR * 10]
        residuals = {
            "duality_gap": gap,
            "weight_sum": abs(float(w.sum()) - 1.0),
            "active_rows": float(len(active_rows)),
        }
        return _solution(w, nu, cstar, active, residuals, flags)


# ---------------------------------------------------------------------------
# union of half-spaces


def _project_simplex(v, total=1.0):
    """Euclidean projection onto {x >= 0, sum x = total} (sort based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > (css - total))[0][-1]
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_simplex_floor(v):
    """Projection onto the simplex with every entry at least SIMPLEX_FLOOR."""
    total = 1.0 - len(v) * SIMPLEX_FLOOR
    return _project_simplex(np.asarray(v, dtype=float) - SIMPLEX_FLOOR,
                            total) + SIMPLEX_FLOOR


def _refine_two_arm(mu, rows, w0, g0, g_of):
    """Golden-section maximization of the concave one-dimensional
    restriction, then kink bisection between the two lowest constraints
    (rows are the union's PreparedHalfSpace rows)."""
    lo, hi = SIMPLEX_FLOOR, 1.0 - SIMPLEX_FLOOR

    def phi(w1):
        return g_of(np.array([w1, 1.0 - w1]))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = phi(c1), phi(c2)
    for _ in range(200):
        if b - a <= 1e-12:
            break
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = phi(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = phi(c2)
    w1 = 0.5 * (a + b)
    cand_w = np.array([w1, 1.0 - w1])
    cand_g = phi(w1)
    if cand_g < g0:
        cand_w, cand_g = w0, g0

    if len(rows) >= 2:
        def row_value(row, w):
            return row.inner(mu, w, Side.A1, tol=TOL_BISECT)[0]

        at_cand = [row_value(row, cand_w) for row in rows]
        j1, j2 = (int(j) for j in np.argsort(at_cand)[:2])

        def diff(w1):
            w = np.array([w1, 1.0 - w1])
            return row_value(rows[j1], w) - row_value(rows[j2], w)

        # bracket a sign change of g_j1 - g_j2 around the iterate
        w1c = float(cand_w[0])
        eps = 1e-9
        bracket = None
        for _ in range(40):
            lo_p, hi_p = max(lo, w1c - eps), min(hi, w1c + eps)
            dlo, dhi = diff(lo_p), diff(hi_p)
            if dlo == 0.0 or dhi == 0.0 or (dlo < 0) != (dhi < 0):
                bracket = (lo_p, hi_p, dlo)
                break
            if eps > 0.5:
                break
            eps *= 4.0
        if bracket is not None:
            blo, bhi, dlo = bracket
            for _ in range(200):
                if bhi - blo <= 1e-14:
                    break
                mid = 0.5 * (blo + bhi)
                dm = diff(mid)
                if dm == 0.0:
                    blo = bhi = mid
                    break
                if (dm < 0) == (dlo < 0):
                    blo, dlo = mid, dm
                else:
                    bhi = mid
            w1k = 0.5 * (blo + bhi)
            gk = phi(w1k)
            if gk >= cand_g - 1e-12 * max(1.0, abs(cand_g)):
                cand_w = np.array([w1k, 1.0 - w1k])
                cand_g = gk
    return cand_w, cand_g


def _kelley_refine(models, mu, rows, w0, g0, g_and_nu):
    """Cutting-plane refinement: concavity makes every linearization an
    overestimate, so the LP value is a true upper bound and the best
    evaluated point a lower bound; stop when the gap closes."""
    from scipy.optimize import linprog

    K = len(mu)
    m = len(rows)
    cuts = []  # rows of the LP: -grad . w + t <= g - grad . w_pt, per (j, point)

    def add_cuts(w_pt):
        vals, nus = g_and_nu(w_pt)
        for j in range(m):
            grad = np.array([kl(models[i], mu[i], nus[j][i]) for i in range(K)])
            cuts.append((np.concatenate([-grad, [1.0]]),
                         vals[j] - float(np.dot(grad, w_pt))))
        return float(np.min(vals))

    best_w, best_g = np.asarray(w0, dtype=float), g0
    seeds = [best_w, np.full(K, 1.0 / K)]
    for i in range(K):
        v = np.full(K, SIMPLEX_FLOOR)
        v[i] = 1.0 - (K - 1) * SIMPLEX_FLOOR
        seeds.append(v)
    for s in seeds:
        g = add_cuts(s)
        if g > best_g:
            best_g, best_w = g, s.copy()

    gap = math.inf
    exhausted = True
    cost = np.concatenate([np.zeros(K), [-1.0]])
    a_eq = np.concatenate([np.ones(K), [0.0]]).reshape(1, -1)
    bounds = [(0.0, 1.0)] * K + [(None, None)]
    for _ in range(MAX_CUTS):
        a_ub = np.array([c[0] for c in cuts])
        b_ub = np.array([c[1] for c in cuts])
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                      bounds=bounds, method="highs")
        if not res.success:
            raise NumericalError(f"cutting-plane LP failed: {res.message}")
        t_ub = float(res.x[-1])
        w_new = np.maximum(res.x[:K], SIMPLEX_FLOOR)
        w_new = w_new / w_new.sum()
        g = add_cuts(w_new)
        if g > best_g:
            best_g, best_w = g, w_new
        gap = t_ub - best_g
        if gap <= TOL_KKT:
            exhausted = False
            break
    return best_w, best_g, gap, exhausted


def _segment_gap(models, mu, w, vals, nus) -> float:
    """Duality gap of two-arm weights w from the rows' Danskin
    supergradients. Row j's inner value at w + t (1, -1) is at most
    vals[j] + s_j t, with s_j = kl_1(mu_1, nu_j1) - kl_2(mu_2, nu_j2) at its
    minimizer nus[j], so the largest least line over the segment
    -w_1 <= t <= 1 - w_1 bounds c* from above; it sits at an end of the
    segment or where two lines cross. The gap is that bound less the least
    vals[j]."""
    vals = vals.tolist()
    lines = [(v, kl(models[0], mu[0], nu[0]) - kl(models[1], mu[1], nu[1]))
             for v, nu in zip(vals, nus)]
    ts = [-w[0], 1.0 - w[0]]
    for (vj, sj), (vk, sk) in itertools.combinations(lines, 2):
        if sj != sk and ts[0] < (vk - vj) / (sj - sk) < ts[1]:
            ts.append((vk - vj) / (sj - sk))
    upper = max(min(v + s * t for v, s in lines) for t in ts)
    return float(upper - min(vals))


# ---------------------------------------------------------------------------
# dispatch and the public solvers


_PREPARED = {Threshold: PreparedThreshold, HalfSpace: PreparedHalfSpace,
             ConvexSublevel: PreparedConvex, UnionHalfSpaces: PreparedUnion}


def prepare(models: Sequence[SpefModel], spec: PartitionSpec):
    """spec's geometry prepared once, and the only dispatch on its type:
    PreparedThreshold, PreparedHalfSpace, PreparedConvex or PreparedUnion.

    Each class answers three calls, computed from their arguments and
    the constants its constructor prepared, so one geometry serves any
    number of runs: a Monte Carlo campaign prepares one for all its runs,
    and a process pool gets a pickled copy with each chunk of runs.
      * inner(mu, w, side): inner_inf's (value, minimizer) at checked
        means mu on side, mu and w arrays.
      * solution(mu): solve's LowerBoundSolution at checked means mu, an
        array.
      * step(mu, counts, beta): one run step at means and counts given as
        lists of Python numbers: (side, Z, w_hat), with Z the
        count-weighted inner infimum and w_hat w* as a list, or None when
        Z >= beta. The run loop's fallbacks are the step's: on a boundary
        step Z is 0 and w_hat uniform (_uniform); Z is 0 where the
        statistic raises DegenerateInstance or UnsupportedCase; and w_hat
        is uniform where the allocation raises any PartidError. The loop
        only reads the w_hat a step returns, which steps may share.
    """
    if type(spec) not in _PREPARED:
        raise TypeError(f"not a partition spec: {spec!r}")
    return _PREPARED[type(spec)](models, spec)


def inner_inf(models: Sequence[SpefModel], mu, weights,
              spec: PartitionSpec) -> InnerSolution:
    """Weighted transportation cost from mu to the closure of the opposite
    component.

    Weights are any nonnegative vector (counts work as-is: the value is
    positively homogeneous in them), except that a convex sublevel set
    raises UnsupportedCase when some but not all weights are zero. The
    minimizer is returned when the infimum is attained; free arms pushing
    toward an open domain edge leave it None. mu on the partition boundary
    is rejected, and sides that covers() rejects raise UnsupportedCase.
    """
    mu = _validate_instance(models, mu)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != mu.shape:
        raise ValueError(f"weights shape {w.shape} != mean shape {mu.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    side = classify(spec, mu)
    if side is Side.BOUNDARY:
        raise DegenerateInstance("mu lies on the partition boundary")
    if not np.any(w > 0):
        return InnerSolution(0.0, None)
    require_covered(spec, side)
    value, nu = prepare(models, spec).inner(mu, w, side)
    return InnerSolution(float(value), nu)


def solve(models: Sequence[SpefModel], mu,
          spec: PartitionSpec) -> LowerBoundSolution:
    """The saddle point of spec's geometry at mu; see the solve_* wrappers
    for each one's method and certificate."""
    mu = _validate_instance(models, mu)
    return prepare(models, spec).solution(mu)


def solve_threshold(models: Sequence[SpefModel], mu, u: float) -> LowerBoundSolution:
    """Closed-form saddle point for the threshold partition.

    Above side: the entire budget goes to the arm whose divergence down to
    the level is largest (lowest index on ties); the critical alternative
    drags every above-level arm to the level. Below side: weights are
    inversely proportional to each arm's divergence up to the level,
    t* = sum_i 1/kl_i(mu_i, u), and every arm's product w_i kl_i ties at the
    optimum; the reported minimizer raises the lowest-indexed arm.
    """
    return solve(models, mu, Threshold(u))


def solve_halfspace(models: Sequence[SpefModel], mu, a,
                    b) -> LowerBoundSolution:
    """Saddle point when the opposite component is an open half-space.

    At the optimum all arms share one divergence level, the minimizer sits
    on the hyperplane with each coordinate displaced toward its side of the
    constraint, and the weights are proportional to a_i over the divergence
    slope at the minimizer. With Gaussian arms the level is r^2 for
    r = (b - <a, mu>) / sum_i |a_i| sqrt(2 v_i), each nu_i is
    mu_i + sign(a_i) sqrt(2 v_i) r and w_i is proportional to |a_i| sqrt(v_i).
    Otherwise the constraint <a, nu(c)> - b, with each nu_i(c) the capped
    divergence inverse at the common level c, rises with c, and Newton steps
    in sqrt(c) from the Gaussian guess find its root. The level is then
    taken exactly at the arm whose divergence is coarsest in float64 and
    the others are inverted at it. An arm whose alternative lies past the
    last float before its domain edge sits at that float, with weight a_i
    over its slope there (0 where that slope overflows), and the solution
    is flagged "edge_saturated"; equal_divergence reports the arm's gap to
    c*, and tangency_spread leaves out an overflowed slope.
    """
    return solve(models, mu, HalfSpace(tuple(np.asarray(a, dtype=float)),
                                       float(b)))


def solve_convex(models: Sequence[SpefModel], mu,
                 sublevel: ConvexSublevel) -> LowerBoundSolution:
    """Saddle point when the opposite component is a smooth convex sublevel
    set {f <= level} and mu lies outside it.

    c* is the smallest t for which the coordinate box
    {nu : max_i kl_i(mu_i, nu_i) <= t} meets the set; the touching point is
    the critical alternative. For a ball or ellipsoid, f is a separable
    quadratic whose minimum over a box is the center clipped into it, so
    each box step is exact and box_stationarity is 0; custom oracles run
    projected gradient on the box. Arms whose divergence at the touching
    point ties the maximum form the active set; weights on it follow the
    smooth supporting-hyperplane rule w_i proportional to (df/dnu_i) over
    the divergence slope, and are zero elsewhere. A sign-inconsistent
    hyperplane (non-smooth contact) is flagged NonUniqueHyperplane with
    w_star NaN.
    """
    return solve(models, mu, sublevel)


def solve_union_halfspaces(models: Sequence[SpefModel], mu,
                           halfspaces) -> LowerBoundSolution:
    """Saddle point when the opposite component is a union of half-spaces
    and mu lies strictly inside the complementary polytope.

    Each half-space relaxes the union, so c* is at most every row's own
    saddle value c_j. First, among the rows with every entry nonzero, the
    one with the least exact half-space c_j is taken: if no other row's
    inner infimum at its weights undercuts c_j, that half-space solution is
    optimal and is returned flagged single_constraint with duality_gap 0.
    Otherwise the outer objective g(w) = min_j g_j(w), concave as a minimum
    of inner infima, is searched. With two arms it is a function of w_1 on
    a segment: golden section from uniform weights finds its maximum, a
    two-constraint kink there is pinned by bisection on g_1 - g_2, and
    duality_gap comes from the rows' supergradients at the returned weights
    (_segment_gap). With more arms, projected supergradient ascent with
    step 1/sqrt(k) and the per-constraint transport costs as the Danskin
    supergradient localizes the optimum (ties among active constraints
    average their supergradients), then cutting planes with an LP upper
    bound shrink the duality gap below TOL_KKT; MaxIters is flagged when the
    budget ends first.
    """
    return solve(models, mu, UnionHalfSpaces(
        tuple((tuple(np.asarray(a, dtype=float)), float(b))
              for a, b in halfspaces)))


def solve_two_arm_gaussian(mu, hs1, hs2,
                           variance: float) -> LowerBoundSolution:
    """Closed-form saddle point for two Gaussian arms of common variance and
    an alternative that is the union of two half-spaces with all-nonzero
    normals.

    In the canonical frame (means shifted to zero, coordinates scaled so the
    divergence is nu^2) the weighted level set is an ellipse. If one
    constraint is far enough that the level ellipse meets only the other,
    the problem collapses to that single half-space; in between, the optimal
    ellipse is tangent to both lines and the tangency ratios give the
    weights directly. A ratio exactly at a regime border is flagged
    "case_boundary" and resolved with the tangency formulas, which agree
    with the one-constraint ones there.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2,):
        raise ValueError(f"two arms required, got mean shape {mu.shape}")
    if not (variance > 0 and math.isfinite(variance)):
        raise ValueError(f"variance must be positive, got {variance}")
    (a1, b1), (a2, b2) = (np.asarray(hs1[0], dtype=float), float(hs1[1])), \
                         (np.asarray(hs2[0], dtype=float), float(hs2[1]))
    for a in (a1, a2):
        if a.shape != (2,) or np.any(a == 0.0) or not np.all(np.isfinite(a)):
            raise DegenerateInstance(
                "both constraint normals need two finite nonzero entries")
    if a1[0] * a2[1] - a1[1] * a2[0] == 0.0:
        raise DegenerateInstance("parallel constraint normals")

    scale = math.sqrt(2.0 * variance)  # nu = mu + scale * x makes kl = x^2
    ac1, ac2 = a1 * scale, a2 * scale
    bc1 = b1 - float(np.dot(a1, mu))
    bc2 = b2 - float(np.dot(a2, mu))
    if bc1 <= 0 or bc2 <= 0:
        raise DegenerateInstance(
            "mu must lie strictly inside the polytope component")

    models = [gaussian(variance), gaussian(variance)]

    r = (bc2 / bc1) ** 2
    rhs1 = (ac2[0] ** 2 / abs(ac1[0]) + ac2[1] ** 2 / abs(ac1[1])) \
        / (abs(ac1[0]) + abs(ac1[1]))
    lhs2 = (abs(ac2[0]) + abs(ac2[1])) \
        / (ac1[0] ** 2 / abs(ac2[0]) + ac1[1] ** 2 / abs(ac2[1]))
    near1 = abs(r - rhs1) <= 1e-12 * max(1.0, r, rhs1)
    near2 = abs(r - lhs2) <= 1e-12 * max(1.0, r, lhs2)
    flags = []
    if near1 or near2:
        flags.append("case_boundary")

    def one_constraint(ac, bc, label):
        denom = abs(ac[0]) + abs(ac[1])
        cstar = (bc / denom) ** 2
        w = np.array([abs(ac[0]), abs(ac[1])]) / denom
        x = np.array([math.copysign(bc / denom, ac[0]),
                      math.copysign(bc / denom, ac[1])])
        return w, x, cstar, label

    if r >= rhs1 and not (near1 or near2):
        w, x, cstar, label = one_constraint(ac1, bc1, "case1")
    elif r <= lhs2 and not (near1 or near2):
        w, x, cstar, label = one_constraint(ac2, bc2, "case2")
    else:
        d_num = (ac1[1] * ac2[0]) ** 2 - (ac1[0] * ac2[1]) ** 2
        d1 = (bc2 * ac1[1]) ** 2 - (bc1 * ac2[1]) ** 2
        d2 = (bc1 * ac2[0]) ** 2 - (bc2 * ac1[0]) ** 2
        if d1 == 0.0 or d2 == 0.0:
            raise NumericalError("tangency ratios degenerate at this geometry")
        w1_over_c = d_num / d1
        w2_over_c = d_num / d2
        total = w1_over_c + w2_over_c
        if w1_over_c <= 0 or w2_over_c <= 0 or total <= 0:
            raise NumericalError("tangency weights left the simplex")
        cstar = 1.0 / total
        w = np.array([w1_over_c, w2_over_c]) * cstar
        x = np.array([cstar * ac1[0] / (w[0] * bc1),
                      cstar * ac1[1] / (w[1] * bc1)])
        label = "case3"
    flags.append(label)

    nu = mu + scale * x
    levels = np.array([kl(models[i], mu[i], nu[i]) for i in range(2)])
    line1 = abs(float(np.dot(ac1, x)) - bc1)
    residuals = {
        "ellipse_gap": abs(float(np.dot(w, x * x)) - cstar),
        "active_line": line1 if label != "case2"
        else abs(float(np.dot(ac2, x)) - bc2),
        "weight_sum": abs(float(w.sum()) - 1.0),
        "level_consistency": abs(float(np.dot(w, levels)) - cstar),
    }
    active = [0, 1]
    return _solution(w, nu, cstar, active, residuals, flags)


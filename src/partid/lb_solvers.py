"""Solvers for the optimal-allocation lower bound over two-component partitions.

The object computed everywhere is the saddle point of

    max_{w in simplex}  inf_{nu in closure(other component)}  sum_i w_i kl_i(mu_i, nu_i)

whose value c* bounds the rate at which any sound procedure can separate the
two components, with characteristic time t* = 1/c*. Each partition family
has one prepared class, which holds what does not depend on the means and
gives the sharpest solver its structure allows:

  * Threshold (PreparedThreshold): fully closed form on both sides.
  * HalfSpace (PreparedHalfSpace) and ConvexSublevel (PreparedConvex):
    the saddle value is the least level t at which the coordinate box
    {max_i kl_i <= t} touches the other side, found for both by one
    level root (_level_root): doubling t brackets it, then one Newton
    root in r = sqrt(t). Its box step is the box's corner toward a
    half-space, the center of a ball or ellipsoid clipped into the box,
    or projected gradient on the box for a custom oracle. With Gaussian
    arms a half-space's saddle and weighted inner infimum are closed
    forms; otherwise its inner infimum is one Newton root in a multiplier
    (_row_root, which a union's rows share). Each side of a half-space
    is one record (_Target) of the closed half-space opposite it, which
    the run step, the inner infimum, the saddle and every union row
    read, and one test decides the side: classify's margin
    (<a, mu> - b) / ||a||, for a run step and solve alike. A ball's or
    ellipsoid's inner infimum is a walk on one multiplier with each
    coordinate solved per family (kl_prox); a custom oracle's walks the
    same multiplier with projected gradient on the mean domain's box,
    each arm's last floats inside its domain, where kl_prox solves too.
  * UnionHalfSpaces (PreparedUnion, one PreparedHalfSpace per row):
    concave max-min over the simplex. The row whose exact saddle is
    cheapest is tried first: when no other row undercuts it at its
    weights, that saddle is the union's (each half-space relaxes the
    union, so this is a true optimality certificate). Otherwise, for any
    arm count and family, Newton steps on the saddle's KKT system over the
    active rows, with each alternative a closed-form slope inverse, start
    there or from barrier steps; the rows' mixture of alternatives
    certifies the answer by its duality gap.

Hyperplane rows are normalized internally to unit Euclidean norm, which
changes nothing about the sets or the saddle point but keeps every reported
residual on a common scale.

prepare() is the only dispatch on the partition type: inner_inf and solve
evaluate the prepared geometry's inner and solution, and a track-and-stop
run asks it for one step at a time.

Every solver uses one numerical policy, the module constants below.
Every sum is taken left to right: weighted divergences (_weighted_kl),
hyperplane products (partitions.row_dot), a threshold's t* and the
Gaussian half-space weights' normalizer. The union's KKT sums alone take
math.fsum: the rows' weighted divergences, the mixture's and the weights'
sums, and the start weights spread over the active arms (_spread).
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateInstance, DomainError, InfeasibleAlternative,
                     NumericalError, PartidError, UnsupportedCase)
from .partitions import (_A1, _A2, _BOUNDARY, ConvexSublevel, HalfSpace,
                         PartitionSpec, Side, Threshold, UnionHalfSpaces,
                         classify, row_dot, side_of_margin)
from .rootfind import MAX_ITER, NoBracket, newton_root, walk_to_root
# unused here: perfbench/test_tracer.py counts this module's binding site
from .rootfind import bisect_monotone  # noqa: F401
from .spef import (FAMILIES, Direction, Family, SpefModel, kl,
                   kl_dnu, kl_inverse_capped, mean_domain)


# The solvers' numerical policy. A union's KKT solve must close its duality
# gap to TOL_KKT; the half-space and convex-set saddle levels' Newton roots
# stop at a relative step TOL_NEWTON_STEP; ACTIVE_SET_TOL is relative to c*
# when detecting binding arms. Every Newton solve stops after MAX_ITER.
TOL_KKT = 1e-8
TOL_NEWTON_STEP = 5e-11
ACTIVE_SET_TOL = 1e-6


@dataclass(frozen=True)
class LowerBoundSolution:
    """Saddle point of the allocation game.

    w_star sums to one; nu_star is the critical alternative achieving the
    inner infimum at w_star; c_star is the saddle value and t_star = 1/c_star
    the characteristic time. active_set lists the arms essential to the
    optimum. kkt_residuals carries solver-specific diagnostics; flags marks
    qualitative events ("single_constraint", "mu_in_a2", "edge_saturated",
    or reference_oracle's case labels).
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


def _linear_sup(arms) -> float:
    """sup of <a, nu> over the open product domain (+inf allowed), for the
    arms (i, a_i, model) a row touches."""
    s = 0.0
    for _, ai, m in arms:
        lo, hi = mean_domain(m)
        term = ai * (hi if ai > 0 else lo)
        if math.isinf(term):
            return math.inf
        s += term
    return s


# The closed half-space {<a, nu> >= b} for a unit row a, a list: its
# _linear_sup, the arms it touches as (i, a_i, model) and, when every one
# of them is Gaussian, their terms (i, a_i, v_i, a_i^2 v_i, 2 v_i) for
# _gaussian_unit_inner (None otherwise)
_Target = collections.namedtuple("_Target", "a b sup arms gaussian")


def _target(models, a, b) -> _Target:
    """The _Target of {<a, nu> >= b} for the unit row a over models."""
    arms = [(i, ai, m) for i, (m, ai) in enumerate(zip(models, a)) if ai]
    gaussian = None
    if all(m.family is Family.GAUSSIAN for _, _, m in arms):
        gaussian = [(i, ai, m.variance, ai * ai * m.variance,
                     2.0 * m.variance) for i, ai, m in arms]
    return _Target(a, b, _linear_sup(arms), arms, gaussian)


def _row_map(row, mu, w, lam):
    """(s_i, nu_i, d_i) on each arm (i, a_i, model) of row at multiplier
    lam and weights w: s_i = lam a_i / w_i, nu_i = kl_dnu_inverse(mu_i, s_i)
    and d_i = d nu_i / d s_i = 1 / kl_dnu2(mu_i, nu_i), by the unchecked
    family formulas. None past the edge, as is every larger lam: an s_i at
    dnu_sup or a nu_i rounded onto a domain edge. A d_i may overflow to
    inf, as a Poisson nu_i^2 / mu_i does far above mu_i."""
    out = []
    for i, ai, m in row:
        op, s = FAMILIES[m.family], lam * ai / w[i]
        nu = op.kl_dnu_inverse(m, mu[i], s) if s < op.dnu_sup else math.nan
        lo, hi = op.domain
        k2 = op.kl_dnu2(m, mu[i], nu) if lo < nu < hi else 0.0
        if not k2 > 0.0:
            return None
        out.append((s, nu, 1.0 / k2))
    return out


def _row_root(target, mu, w):
    """(lam, its _row_map, kl_i(mu_i, nu_i) by arm, their w-weighted sum
    left to right) of the inner infimum over target's {<a, nu> >= b} from
    means mu with <a, mu> < b at weights w positive on the arms it
    touches: one Newton root in lam, at the slope
    sum_i a_i^2 d_i / w_i to 2 ulp from the Gaussian lam
    (b - <a, mu>) / sum_i a_i^2 V_i(mu_i) / w_i (1 where the sum
    underflows or the quotient overflows). Where the slope overflows the
    step is the bracket's midpoint. A lam past the edge is the bracket's
    positive end; a root next to one raises NumericalError."""
    row, b = target.arms, target.b
    lin = scale = 0.0
    for i, ai, m in row:
        lin += ai * mu[i]
        scale += ai * ai * FAMILIES[m.family].variance(m, mu[i]) / w[i]
    seen = {}  # the _row_map at each lam tried

    def constraint_at(lam):
        alt = seen[lam] = _row_map(row, mu, w, lam)
        if alt is None:
            return math.inf, math.nan
        value = slope = 0.0
        for (i, ai, _), (_, nu, d) in zip(row, alt):
            value += ai * nu
            slope += ai * ai * d / w[i]
        return value - b, slope if slope < math.inf else 0.0

    lam = (b - lin) / scale if scale else math.inf
    lam = newton_root(constraint_at, lam if lam < math.inf else 1.0, 0.0,
                      math.inf, f_neg=lin - b)
    alt = seen[lam] if lam in seen else _row_map(row, mu, w, lam)
    if alt is None or seen.get(math.nextafter(lam, math.inf), ()) is None:
        raise NumericalError(
            "inner minimizer needs an alternative past the last float")
    kls, value = [0.0] * len(mu), 0.0
    for (i, _, m), (_, nu, _) in zip(row, alt):
        kls[i] = FAMILIES[m.family].kl(m, mu[i], nu)
        value += w[i] * kls[i]
    return lam, alt, kls, value


def _unit_halfspace_inner(models, mu, w, target, lin=None):
    """inf of sum_i w_i kl_i(mu_i, nu_i) over target's {<a, nu> >= b},
    with mu and w sequences of Python numbers, and its minimizer, a list;
    lin is row_dot(a, mu) when the caller has it. Stationarity puts the
    minimizer on the slope inverses of one multiplier (_row_root), linear
    when every arm the row touches is Gaussian: then _gaussian_unit_inner
    gives the value in closed form on target's terms, as a run step with
    Gaussian arms and no zero count does directly. Touched arms with zero
    weight are free: they absorb as much of the constraint as their
    domain edge allows at no cost, and the rest, the row without them
    normalized again by row_dot into a target of its own, meet what
    remains; the infimum is then not attained and the minimizer is None
    (the value is 0 when the free arms carry the whole row, whose reach
    is sup > b)."""
    b = target.b
    if lin is None:
        lin = row_dot(target.a, mu)
    if lin >= b:
        return 0.0, list(mu)
    if not target.sup > b:
        raise InfeasibleAlternative(
            "half-space does not intersect the mean domain")

    free = [arm for arm in target.arms if w[arm[0]] == 0.0]
    if free:
        cap = _linear_sup(free)
        if math.isinf(cap):
            return 0.0, None
        rest = [0.0 if w[i] == 0.0 else ai for i, ai in enumerate(target.a)]
        norm = math.sqrt(row_dot(rest, rest))
        if norm == 0.0:
            return 0.0, None
        return _unit_halfspace_inner(models, mu, w, _target(
            models, [x / norm for x in rest], (b - cap) / norm))[0], None

    nu = list(mu)
    if target.gaussian is not None:
        return _gaussian_unit_inner(mu, w, b, lin, target.gaussian, nu), nu
    _, alt, _, value = _row_root(target, mu, w)
    for (i, _, _), (_, x, _) in zip(target.arms, alt):
        nu[i] = x
    return value, nu


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


def _gaussian_unit_inner(mu, w, b, lin, terms, nu=None):
    """_unit_halfspace_inner's closed form, for a row whose arms (terms, a
    _Target's) are all Gaussian with nonzero weight and lin < b: the
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


def _min_f_over_box(f, grad, lo, hi, x0, *, below=-math.inf):
    """Minimize smooth convex f over a coordinate box by projected gradient
    with backtracking. Returns (x, projected-gradient residual). Serves
    custom sublevel oracles only; ball and ellipsoid sets have exact steps.
    Stops at a residual of 1e-12 relative to max(1, |x|), at the first step
    whose decrease the acceptance slack cannot tell from none, or after
    20,000 steps. With a finite below it also stops at the first iterate
    where f < below, which proves that the least f is below it and nothing
    more."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = float(f(x))
    eta = 1.0
    resid = math.inf
    best = math.inf
    stall = 0
    for _ in range(20000):
        if fx < below:
            break
        g = np.asarray(grad(x), dtype=float)
        resid = float(np.max(np.abs(x - np.clip(x - g, lo, hi))))
        if resid <= 1e-12 * max(1.0, float(np.max(np.abs(x)))):
            break
        # the acceptance slack below floors what f-comparisons can resolve
        # at about sqrt(eps); a step that f cannot tell from no step ends the
        # descent there, and an iterate orbiting above it ends on this count
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
            slack = 1e-15 * (1.0 + abs(fx))
            if fn <= fx + float(np.dot(g, dx)) + float(np.dot(dx, dx)) / (2 * eta) \
                    + slack:
                moved = fx - fn > slack
                x, fx = xn, fn
                eta = min(eta * 1.5, 1e8)
                break
            eta *= 0.5
        if not moved:
            break
    return x, resid


def _last_floats(models):
    """(floor, ceil): each arm's last floats inside its mean domain."""
    return tuple(zip(*[(math.nextafter(lo, hi), math.nextafter(hi, lo))
                       for lo, hi in map(mean_domain, models)]))


def _level_root(models, mu, f, grad, c, box, t, exact=True):
    """(t*, x, w*, whether a face arm is saturated, the box residual, the
    last Newton step in t): the least level t* at which the divergence box
    {nu : max_i kl_i(mu_i, nu_i) <= t} meets a convex set {f <= c} that mu
    lies outside, the point x where it does and the weights.

    box(t, probe) gives x, the least f over the box at level t, the arms
    on its faces and its stationarity residual; with exact False it is a
    descent, whose probe stops at its first point with f < c. A face
    saturates at the last float inside an arm's domain. c - f(x) rises
    with r = sqrt(t): doubling t from the first trial t (1 unless that is
    a positive float) brackets its root, or, when the first trial meets
    the set with every face saturated and so gives no slope, shrinking it
    by a squaring factor and then halving the bracket in log t does, and
    one Newton root in r finds it
    at the envelope slope -sum_i df/dnu_i 2 r / kl_dnu_i over the arms on
    unsaturated faces. One ulp of x_i moves arm i's divergence by about
    |kl_dnu_i| ulp: the coarsest such arm is inverted at the root's level,
    t* is its divergence there and the box is taken again at t*, so each
    face arm meets t* to within its own resolution. w_i is proportional to
    df/dnu_i / kl_dnu_i on the face arms (0 where a saturated arm's slope
    overflows), 0 elsewhere. InfeasibleAlternative when no box within 300
    doublings meets the set, NumericalError where the weights are not a
    supporting hyperplane's.
    """
    last, t = {}, t if 0.0 < t < math.inf else 1.0
    floor, ceil = _last_floats(models)

    def gap_at(r, probe=False):
        x, faces, _ = last["box"] = box(r * r, probe)
        last["r"], last["probe"] = r, probe and not exact
        g, slope = grad(x), 0.0
        for i in faces:
            if floor[i] < x[i] < ceil[i]:
                d = kl_dnu(models[i], mu[i], x[i])
                if d != 0.0:  # 0 where a tiny level rounds onto mu
                    slope -= g[i] * 2.0 * r / d
        return c - float(f(x)), slope

    r_neg, gap_neg = 0.0, c - float(f(mu))
    for _ in range(300):
        r = math.sqrt(t)
        gap, slope = gap_at(r, probe=True)
        if gap >= 0.0:
            break
        r_neg, gap_neg, t = r, gap, 2.0 * t
    else:
        raise InfeasibleAlternative(
            "the set is unreachable from mu inside the mean domain")
    # a feasible first trial whose faces are all saturated has no slope: t
    # shrinks by a factor that squares at each feasible trial (1/2, 1/8,
    # 1/128, ...), then the bracket halves in log t, until a feasible trial
    # has a slope or t is within a factor 4 of an infeasible one
    shrink = 0.5
    while gap > 0.0 and not slope and last["box"][1] \
            and t > 4.0 * r_neg * r_neg:
        t_low = t * shrink if r_neg == 0.0 else r_neg * r
        if not 0.0 < t_low < t:
            break
        r_low = math.sqrt(t_low)
        gap_low, slope_low = gap_at(r_low, probe=True)
        if gap_low < 0.0:
            r_neg, gap_neg = r_low, gap_low
        else:
            r, gap, slope, t = r_low, gap_low, slope_low, t_low
            shrink *= shrink
    step = 0.0
    if gap > 0.0:
        # the first Newton step from the feasible end; without a slope, or
        # from a stopped probe, newton_root starts at the bracket's midpoint
        start = r - gap / slope if slope and not last["probe"] else math.nan
        r = newton_root(gap_at, start, r_neg, r, f_neg=gap_neg, f_pos=gap,
                        rtol=TOL_NEWTON_STEP)
        step = abs(r * r - last["r"] ** 2)
    if last["probe"]:
        gap_at(r)

    x, faces, _ = last["box"]
    if not faces:
        raise NumericalError("the divergence box meets the set on no face")
    j = max((i for i in faces if floor[i] < x[i] < ceil[i]), default=faces[0],
            key=lambda i: abs(kl_dnu(models[i], mu[i], x[i])) * math.ulp(x[i]))
    x_j = kl_inverse_capped(models[j], mu[j], r * r, Direction.ABOVE
                            if x[j] > mu[j] else Direction.BELOW)
    cstar = kl(models[j], mu[j], x_j) if floor[j] < x_j < ceil[j] else r * r
    x, faces, resid = box(cstar, False)
    if j in faces:
        x[j] = x_j

    g, raw, saturated = grad(x), np.zeros(len(models)), False
    for i in faces:
        s, free = kl_dnu(models[i], mu[i], x[i]), floor[i] < x[i] < ceil[i]
        saturated |= not free
        # df/dnu_i and kl_dnu_i have opposite signs on a face (0.0 - keeps
        # a zero unsigned); a slope 0 means the level t* does not move x_i
        # off mu_i in float64
        raw[i] = 0.0 - g[i] / s if s else math.nan
        if not raw[i] >= 0.0 or free and math.isinf(s):
            raise NumericalError(f"no supporting hyperplane at level {cstar}:"
                                 f" divergence slope {s} at arm {i}")
    total = raw.sum()
    if not 0.0 < total < math.inf:
        raise NumericalError(f"saddle weights {raw} do not sum to a finite "
                             f"nonzero value")
    return cstar, np.array(x, dtype=float), raw / total, saturated, resid, \
        step


def _divergence_box(models, mu, levels):
    """(lo, hi), the arrays of each arm's capped divergence inverses below
    and above mu_i at levels[i]: the box {kl_i(mu_i, nu_i) <= levels[i]}."""
    return tuple(np.array([kl_inverse_capped(m, x, t, d)
                           for m, x, t in zip(models, mu, levels)])
                 for d in (Direction.BELOW, Direction.ABOVE))


# ---------------------------------------------------------------------------
# prepared geometries


def _uniform(k: int) -> list:
    """The run loop's fallback weights on k arms: on a boundary step, and
    where the allocation raises a PartidError."""
    return [1.0 / k] * k


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
        ties), gaps lists every divergence, positive tells whether each
        is positive and t* is the sum of their inverses, left to right."""
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
    once: the raw row and its norm for the side test (_dot_and_side); for
    each side one record (_Target) of the closed half-space
    {<a, nu> >= b} opposite it, with the unit row and offset, their
    _linear_sup, the arms the row touches and, when all of those are
    Gaussian, their closed-form terms; the arms' domains; and, when every
    arm is Gaussian, the saddle weights |a_i| sqrt(v_i) normalized, with
    the scale sum_i |a_i| sqrt(2 v_i). Rows are lists of Python floats,
    and every product, norm and sum is taken left to right, so they round
    the same on every host. inner_inf and solve_halfspace prepare one per
    call, a Monte Carlo campaign one for all its runs, and a union one per
    row (a row may have zero entries).

    One test decides the side, classify's expression in _dot_and_side:
    a run step and the saddle (_orient) reject the same boundary band, bit
    for bit. A step takes the side and the unit-row product in one pass
    over the means; the opposite side's row is the negated unit row, whose
    product is the negated one, bit for bit. With Gaussian arms and no
    zero count the statistic is _gaussian_unit_inner on the record's terms
    and the weights are fixed once c* > 0, so such a step makes no numpy
    call; other families solve the saddle on the means as an array. Either
    way the step gives the floats inner_inf and solve give at the same
    means.
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
        self.unit = unit = [x / self.norm for x in self.a]
        b_unit = self.b / self.norm
        # indexed by whether the means lie on A2 (a Side would be hashed)
        self.targets = (_target(models, unit, b_unit),
                        _target(models, [-x for x in unit], -b_unit))
        self.domains = [mean_domain(m) for m in models]
        self.gaussian_w = None
        if all(m.family is Family.GAUSSIAN for m in models):
            variances = [m.variance for m in models]
            self.reach = [math.sqrt(2.0 * v) for v in variances]
            self.reach_sum = row_dot([abs(x) for x in unit], self.reach)
            # not a / slopes: their rounding would break exact weight ties
            raw = [abs(x) * math.sqrt(v) for x, v in zip(unit, variances)]
            total = 0.0
            for x in raw:
                total += x
            self.gaussian_w = [x / total for x in raw]

    def target(self, side: Side) -> _Target:
        """The _Target of the closed half-space opposite means on side."""
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
        is _gaussian_unit_inner on the target's terms and the domain check
        a finiteness test of the product."""
        dot, side = self._dot_and_side(mu)
        if side is _BOUNDARY:
            return side, 0.0, _uniform(len(mu))
        lin = dot if side is _A1 else -dot
        target = self.targets[side is _A2]
        if self.gaussian_w is None or 0 in counts:
            _check_domains(self.models, self.domains, mu)
            z = _unit_halfspace_inner(self.models, mu, counts, target, lin)[0]
        else:
            # a mean that is not finite makes the unit-row product NaN or
            # infinite, and the Gaussian domain is the whole line
            if not math.isfinite(dot):
                _check_domains(self.models, self.domains, mu)
            b = target.b
            z = 0.0
            if lin < b:
                z = _gaussian_unit_inner(mu, counts, b, lin, target.gaussian)
        if z >= beta:
            return side, z, None
        try:
            return side, z, self._weights(mu, target, lin)
        except PartidError:
            return side, z, _uniform(len(mu))

    def inner(self, mu, w, side: Side):
        """(value, minimizer) of the weighted inner infimum from means mu on
        side to the closure of the other side (mu and w arrays)."""
        value, nu = _unit_halfspace_inner(self.models, mu.tolist(),
                                          w.tolist(), self.target(side))
        return value, None if nu is None else np.array(nu)

    def _orient(self, mul):
        """(side, target, <row, mu>) for means mul, a list: the side by
        _dot_and_side, which must be off the boundary band, and that
        side's target, which must meet the domain."""
        dot, side = self._dot_and_side(mul)
        if side is _BOUNDARY:
            raise DegenerateInstance("mu lies on the separating hyperplane")
        target = self.targets[side is _A2]
        if not target.sup > target.b:
            raise InfeasibleAlternative(
                "the open half-space does not intersect the mean domain")
        return side, target, dot if side is _A1 else -dot

    def saddle(self, mu):
        """(side of mu, c*, nu*, w*, whether an arm sits at the last float
        before its domain edge) at checked means mu, as solve_halfspace
        reports them: the closed form with Gaussian arms, otherwise the
        level root (_level_root). An arm the row does not touch keeps its
        mean, at weight 0. Raises DegenerateInstance on the boundary band
        and InfeasibleAlternative when the opposite half-space misses the
        domain."""
        mul = mu.tolist()
        side, target, lin = self._orient(mul)
        a, b = target.a, target.b
        if self.gaussian_w is not None:
            # sqrt(c*) = (b - <a, mu>) / sum_i |a_i| sqrt(2 v_i)
            r = (b - lin) / self.reach_sum
            nu = mu + np.sign(a) * self.reach * r
            return side, r * r, nu, np.array(self.gaussian_w), False

        # the corner of each box toward the row, each arm the row touches
        # inverted once, from the Gaussian sqrt(c*) (b - <a, mu>) /
        # sum_i |a_i| sqrt(2 v_i), each variance taken at the mean
        arms, reach, minus_a = target.arms, 0.0, [-ai for ai in a]
        busy = [i for i, _, _ in arms]
        toward = [Direction.ABOVE if ai > 0 else Direction.BELOW
                  for _, ai, _ in arms]
        for i, ai, m in arms:
            reach += abs(ai) * math.sqrt(
                2.0 * FAMILIES[m.family].variance(m, mul[i]))

        def corner(t, probe):
            x = list(mul)
            for (i, _, m), d in zip(arms, toward):
                x[i] = kl_inverse_capped(m, mul[i], t, d)
            return x, busy, 0.0

        r = (b - lin) / reach
        cstar, nu, w, saturated, _, _ = _level_root(
            self.models, mul, lambda x: -row_dot(a, x), lambda x: minus_a,
            -b, corner, r * r)
        return side, cstar, nu, w, saturated

    def _weights(self, mu, target, lin: float) -> list:
        """w* of solve_halfspace as a list at checked means mu (a list) off
        the boundary band, whose side has this target and unit-row product
        lin, after its checks, c* > 0 included. With Gaussian arms the
        weights do not depend on the means, and the check is saddle's
        c* = r^2 > 0 on the same r, bit for bit."""
        if self.gaussian_w is None:
            _, cstar, _, w, _ = self.saddle(np.array(mu, dtype=float))
            _check_saddle_value(cstar)
            return w.tolist()
        r = (target.b - lin) / self.reach_sum
        _check_saddle_value(r * r)
        return self.gaussian_w

    def solution(self, mu, saddle=None) -> LowerBoundSolution:
        """solve_halfspace's saddle point at checked means mu (an array),
        with its certificate; saddle is what self.saddle(mu) returned, when
        the caller has it."""
        models = self.models
        side, cstar, nu, w, saturated = \
            self.saddle(mu) if saddle is None else saddle
        target = self.target(side)
        a = np.array(target.a)
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
            "hyperplane": abs(row_dot(target.a, nu.tolist()) - target.b),
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
            return side, z, self.solution(x).w_star.tolist()
        except PartidError:
            return side, z, _uniform(len(mu))


class PreparedConvex(_SolvedGeometry):
    """A convex sublevel set {f <= level} with the means outside it: the
    set and, when ball() or ellipsoid() built it as
    {sum_i ((x_i - c_i) / s_i)^2 <= level}, its center, the curvatures
    2 / s_i^2 and each arm's kl_prox (center is None for a custom
    oracle). inner_inf and solve_convex prepare one per call, a Monte
    Carlo campaign one for all its runs."""

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
        A custom oracle takes projected gradient instead, on the mean
        domain's box (each arm's last floats inside its domain), each
        multiplier from the last one's point.
        """
        models, f, c = self.models, self.spec.value, self.spec.level
        if float(f(mu)) <= c:
            return 0.0, np.array(mu)
        if np.any(w <= 0):
            raise UnsupportedCase(
                "convex-set inner problem requires strictly positive weights")
        K = len(models)

        if self.center is None:
            floor, ceil = map(np.array, _last_floats(models))
            gradf, last = self.spec.grad, [np.array(mu)]

            def nu_of(lam):
                def psi(x):
                    return _weighted_kl(models, mu, w, x, range(K)) \
                        + lam * float(f(x))

                def psi_grad(x):
                    g = np.array([w[i] * kl_dnu(models[i], mu[i], x[i])
                                  for i in range(K)])
                    return g + lam * np.asarray(gradf(x), dtype=float)

                last[0] = _min_f_over_box(psi, psi_grad, floor, ceil,
                                          last[0])[0]
                return last[0]
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
        """solve_convex's saddle point at checked means mu (an array): the
        level root (_level_root) from t = 1, each box step the center
        clipped into the box for a ball or ellipsoid, projected gradient
        on the box for a custom oracle."""
        models = self.models
        f, gradf, c = self.spec.value, self.spec.grad, self.spec.level
        self._check_side(mu, "sublevel boundary")

        K, center = mu.size, self.center
        # no box yet: the first projected gradient starts from mu
        state = {"x": np.array(mu), "lo": np.full(K, math.nan),
                 "hi": np.full(K, math.nan)}

        def box(t, probe):
            lo, hi = _divergence_box(models, mu, [t] * K)
            if center is not None:
                x, resid = np.clip(center, lo, hi), 0.0
            else:
                # a coordinate on a face of the last box starts on the
                # same face of this one
                x0, was_lo, was_hi = state["x"], state["lo"], state["hi"]
                x0 = np.where(x0 == was_lo, lo, np.where(x0 == was_hi, hi, x0))
                x, resid = _min_f_over_box(f, gradf, lo, hi,
                                           np.clip(x0, lo, hi),
                                           below=c if probe else -math.inf)
                state.update(x=x, lo=lo, hi=hi)
            faces = [i for i in range(K) if x[i] == lo[i] or x[i] == hi[i]]
            return x, faces, resid

        cstar, nu, w, _, resid, step = _level_root(
            models, mu, f, gradf, c, box, 1.0, exact=center is not None)
        levels = np.array([kl(models[i], mu[i], nu[i]) for i in range(K)])
        active = [i for i in range(K)
                  if levels[i] >= cstar * (1.0 - ACTIVE_SET_TOL)]
        residuals = {
            "boundary_gap": abs(float(f(nu)) - c),
            "active_spread": float(cstar - np.min(levels[active])),
            "box_stationarity": float(resid),
            "level_bracket": step,
        }
        return _solution(w, nu, cstar, active, residuals)


# a union's row: HalfSpace's fields, where the normal may have zero entries
_Row = collections.namedtuple("_Row", "a b")


class PreparedUnion(_SolvedGeometry):
    """A union of half-spaces with the means in the polytope outside it:
    one PreparedHalfSpace per row, built from the raw row, so each row is
    normalized once, and each row's A1 target (_Target), which the
    single-row certificate, the KKT steps and the barrier read.
    inner_inf and solve_union_halfspaces prepare one per call, a Monte
    Carlo campaign one for all its runs."""

    def __init__(self, models: Sequence[SpefModel], spec: UnionHalfSpaces):
        if len(spec.halfspaces[0][0]) != len(models):
            raise ValueError(
                "constraint dimension does not match the arm count")
        super().__init__(models, spec)
        self.rows = [PreparedHalfSpace(models, _Row(a, b))
                     for a, b in spec.halfspaces]
        self.targets = [row.target(Side.A1) for row in self.rows]

    def inner(self, mu, w, side: Side):
        """(value, minimizer) of the least row inner infimum (the first row
        on ties)."""
        pairs = [row.inner(mu, w, Side.A1) for row in self.rows]
        return min(pairs, key=lambda pair: pair[0])

    def solution(self, mu) -> LowerBoundSolution:
        """solve_union_halfspaces's saddle point at checked means mu (an
        array): the single-row certificate, else _settle from where it
        failed, else _barrier."""
        self._check_side(mu, "polytope boundary")
        for j, target in enumerate(self.targets):
            if not target.sup > target.b:
                raise InfeasibleAlternative(
                    f"half-space {j} does not intersect the mean domain")
        sol, w, rows = self._single_row(mu)
        evals = [0]
        if sol is None and rows:
            sol = self._settle(mu, w, rows, [1.0] * len(self.rows), evals)[0]
        return sol or self._barrier(mu, w, evals)

    def _undercut(self, mu, w, rows, cstar):
        """The row outside rows whose inner infimum at weights w undercuts
        cstar the most, by more than the certificate's slack, or None."""
        worst, low = None, cstar * (1.0 - 1e-9) - 1e-12
        for k, row in enumerate(self.rows):
            if k not in rows:
                v = row.inner(mu, np.asarray(w), Side.A1)[0]
                if v < low:
                    worst, low = k, v
        return worst

    def _single_row(self, mu):
        """(solution, None, None) when the row whose exact saddle is
        cheapest holds: no other row undercuts it at its weights. c* is at
        most every row's c_k, so a row that passes attains c*, even where
        another row's saddle raised. Otherwise (None, w, rows): its weights
        with it and the row that undercuts it the most (uniform weights
        and no rows when every row's saddle raised)."""
        best = None
        for j, row in enumerate(self.rows):
            try:
                saddle = row.saddle(mu)
            except PartidError:
                continue
            if best is None or saddle[1] < best[2][1]:
                best = (j, row, saddle)
        if best is None:
            return None, np.full(mu.size, 1.0 / mu.size), []
        j, row, saddle = best
        sol = row.solution(mu, saddle)
        k = self._undercut(mu, sol.w_star, [j], sol.c_star)
        if k is not None:
            return None, sol.w_star, [j, k]
        residuals = dict(sol.kkt_residuals, duality_gap=0.0, active_rows=1.0)
        return replace(sol, kkt_residuals=residuals,
                       flags=sol.flags + ("single_constraint",)), None, None

    def _settle(self, mu, w, J, theta, evals):
        """(saddle point, None) by damped Newton steps on the KKT system
        (_kkt) over the rows J and the arms S they touch, from w spread
        over S, each lam_j row j's root there, theta (by row) over its sum
        on J and c the least row value, until a step is below 1e-12 of
        each variable's scale. (None, None) when they stall (singular
        Jacobian, step halved to 1e-6, 20 evaluations); (None, rows to try
        next) when a theta_j < -1e-9 (its row leaves) or another row
        undercuts the root (it joins). c* = min_j sum_i w_i kl_ij over J
        and max_i sum_j theta_j kl_ij bound the saddle value at any w and
        mixture, so duality_gap, their difference, certifies the answer;
        NumericalError when it exceeds TOL_KKT."""
        S = sorted({i for j in J for i, _, _ in self.targets[j].arms})
        w, mul = _spread(w.tolist(), S), mu.tolist()
        try:
            roots = [_row_root(self.targets[j], mul, w) for j in J]
        except NumericalError:  # nu^j past the last float: no start
            return None, None
        nS, nJ, stop = len(S), len(J), evals[0] + 20
        total = math.fsum(theta[j] for j in J)
        x = np.array([w[i] for i in S] + [lam for lam, _, _, _ in roots]
                     + [theta[j] / total for j in J]
                     + [min(g for _, _, _, g in roots)])
        _count(evals)
        here, done, scale = self._kkt(mul, J, S, x), False, np.ones(x.size)
        while not done:
            if here is None:
                return None, None
            w, alts, f, jac = here
            try:
                dx = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                return None, None
            scale[nS:nS + nJ], scale[-1] = x[nS:nS + nJ], x[-1]
            done, t = float(np.max(np.abs(dx) / scale)) <= 1e-12, 1.0
            while True:
                _count(evals)
                there = self._kkt(mul, J, S, x + t * dx)
                if there is not None and (done or np.linalg.norm(there[2])
                                          <= (1.0 - 1e-4 * t)
                                          * np.linalg.norm(f)):
                    break
                t *= 0.5
                if t < 1e-6 or evals[0] > stop:
                    return None, None
            x, here = x + t * dx, there
        w, alts = here[:2]
        theta = x[nS + nJ:-1]
        if float(np.min(theta)) < -1e-9:
            return None, [j for p, j in enumerate(J)
                          if p != int(np.argmin(theta))]
        gs = [math.fsum(w[i] * kls[i] for i in S) for _, kls in alts]
        top = min(range(nJ), key=gs.__getitem__)
        k = self._undercut(mu, w, J, gs[top])
        if k is not None:
            return None, J + [k]
        theta = np.maximum(theta, 0.0) / np.maximum(theta, 0.0).sum()
        # weak duality makes the difference nonnegative; below 0 it is
        # rounding
        gap = max(0.0, max(float(theta @ [kls[i] for _, kls in alts])
                           for i in S) - gs[top])
        if not gap <= TOL_KKT:
            raise NumericalError(f"union duality gap {gap} above {TOL_KKT}")
        residuals = {"duality_gap": gap, "active_rows": float(nJ),
                     "weight_sum": abs(math.fsum(w) - 1.0)}
        return _solution(w, alts[top][0], gs[top], S, residuals), None

    def _kkt(self, mul, J, S, x):
        """(w, per row of J its alternative and divergences, residual,
        Jacobian) of the KKT system at x = (w_S, lam_J, theta_J, c):

            <a_j, nu^j> = b_j  and  sum_i w_i kl_ij = c   for j in J,
            sum_j theta_j kl_ij = c                       for i in S,
            sum_i w_i = 1,

        with kl_ij = kl_i(mu_i, nu^j_i) and (s, nu^j_i, d) row j's _row_map
        at lam_j (nu^j_i = mu_i where a_ji = 0): nu^j_i moves by
        d a_ji / w_i in lam_j and -d s / w_i in w_i, and kl_ij by s times
        that. None off the domain (w, lam or a _row_map past the edge) and
        where a d overflows."""
        nS, nJ = len(S), len(J)
        if not float(np.min(x[:nS + nJ])) > 0.0:
            return None
        w = [0.0] * len(mul)
        for i, wi in zip(S, x[:nS].tolist()):
            w[i] = wi
        lam, theta = x[nS:nS + nJ].tolist(), x[nS + nJ:-1].tolist()
        col, n = {i: q for q, i in enumerate(S)}, nS + 2 * nJ + 1
        f, jac, alts = np.zeros(n), np.zeros((n, n)), []
        for p, j in enumerate(J):
            target = self.targets[j]
            alt = _row_map(target.arms, mul, w, lam[p])
            if alt is None:
                return None
            nu, kls = list(mul), [0.0] * len(mul)
            for (i, ai, m), (s, nu_i, d) in zip(target.arms, alt):
                if d == math.inf:
                    return None
                q, wi = col[i], w[i]
                nu[i], kls[i] = nu_i, FAMILIES[m.family].kl(m, mul[i], nu_i)
                jac[p, q] = -ai * d * s / wi
                jac[p, nS + p] += ai * ai * d / wi
                jac[nJ + p, q] = kls[i] - d * s * s
                jac[nJ + p, nS + p] += s * d * ai
                jac[2 * nJ + q, q] -= theta[p] * d * s * s / wi
                jac[2 * nJ + q, nS + p] = theta[p] * s * d * ai / wi
                jac[2 * nJ + q, nS + nJ + p] = kls[i]
            f[p] = row_dot(target.a, nu) - target.b
            f[nJ + p] = math.fsum(w[i] * kls[i] for i in S) - x[-1]
            alts.append((nu, kls))
        for q, i in enumerate(S):
            f[2 * nJ + q] = math.fsum(th * kls[i] for th, (_, kls)
                                      in zip(theta, alts)) - x[-1]
        f[-1] = math.fsum(w) - 1.0
        jac[nJ:-1, -1] = -1.0
        jac[-1, :nS] = 1.0
        return w, alts, f, jac

    def _barrier(self, mu, w, evals) -> LowerBoundSolution:
        """The saddle point by barrier steps from weights w on max c over
        the simplex of the arms S the rows touch subject to g_j(w) >= c:
        Newton steps maximize the concave B = c + tau (sum_j log(g_j - c)
        + sum_i log w_i), halved until they keep w > 0 and g_j > c and
        raise B, and tau falls tenfold once the decrement is below tau / 4.
        Each g_j and its derivatives come from row j's _row_root. Where
        (rows + arms) tau is 1e-2 of c, then 1e-4 and so on, _settle starts
        from the rows with g_j - c below sqrt(tau c), theta_j =
        tau / (g_j - c), and tries the rows it names next, once per row."""
        m, mul = len(self.rows), mu.tolist()
        S = sorted({i for target in self.targets for i, _, _ in target.arms})
        nS, w = len(S), np.array(_spread(w.tolist(), S))

        def roots_at(w):
            # NumericalError where a d overflows: the Hessian needs them all
            roots = [_row_root(target, mul, w.tolist())
                     for target in self.targets]
            if any(d == math.inf for _, alt, _, _ in roots for _, _, d in alt):
                raise NumericalError("union barrier slope overflows")
            return roots

        # halfway to uniform: a start well inside the simplex
        w[S] = 0.5 * (w[S] + 1.0 / nS)
        roots = roots_at(w)
        g = np.array([g for _, _, _, g in roots])
        c = 0.5 * float(np.min(g))
        tau, goal = c / (m + nS), 1e-2
        while True:
            r = g - c
            grad, hess = np.zeros(nS + 1), np.zeros((nS + 1, nS + 1))
            for (_, alt, kls, _), target, rj in zip(roots, self.targets, r):
                q = np.array([kls[i] for i in S] + [-1.0])
                grad += q / rj
                hess -= np.outer(q, q) / (rj * rj)
                # g_j's Hessian in w: u u^T / D - diag(s^2 d / w), with
                # (s, nu, d) the root's _row_map, u = s d a / w, D its slope
                u, diag, big_d = np.zeros(nS), np.zeros(nS), 0.0
                for (i, ai, _), (s, _, d) in zip(target.arms, alt):
                    k = S.index(i)
                    u[k], diag[k] = s * d * ai / w[i], s * s * d / w[i]
                    big_d += ai * ai * d / w[i]
                hess[:nS, :nS] += (np.outer(u, u) / big_d - np.diag(diag)) / rj
            ws = w[S]
            grad *= tau
            grad[:nS] += tau / ws
            grad[-1] += 1.0
            hess *= tau
            hess[range(nS), range(nS)] -= tau / (ws * ws)
            # the step keeps sum w = 1: one multiplier row and column; B
            # is strictly concave (the log w_i terms), so this is regular
            kkt = np.zeros((nS + 2, nS + 2))
            kkt[:-1, :-1] = hess
            kkt[:nS, -1] = kkt[-1, :nS] = 1.0
            dz = np.linalg.solve(kkt, np.append(-grad, 0.0))[:-1]
            dec = float(grad @ dz)
            if dec <= 0.25 * tau:
                if (m + nS) * tau <= goal * c:
                    J = [j for j in range(m) if r[j] <= math.sqrt(tau * c)]
                    for _ in range(m):
                        sol, J = self._settle(mu, w, J, tau / r, evals)
                        if J is None:
                            break
                    if sol is not None:
                        return sol
                    goal *= 1e-2
                tau *= 0.1
                continue
            t, base = 1.0, c + tau * float(np.sum(np.log(r))
                                           + np.sum(np.log(ws)))
            while True:
                _count(evals)
                wn = w.copy()
                wn[S] = ws + t * dz[:nS]
                cn = c + t * dz[-1]
                gn = None
                if np.all(wn[S] > 0.0):
                    # an alternative past the last float, or a d overflows
                    try:
                        rootsn = roots_at(wn)
                        gn = np.array([g for _, _, _, g in rootsn])
                    except NumericalError:
                        pass
                if gn is not None:
                    rn = gn - cn
                    if np.all(rn > 0.0) and cn + tau * float(
                            np.sum(np.log(rn)) + np.sum(np.log(wn[S]))) \
                            >= base + 0.25 * t * dec:
                        break
                t *= 0.5
            w, c, g, roots = wn, cn, gn, rootsn


def _count(evals):
    """Count one evaluation in evals[0]; NumericalError past MAX_ITER."""
    evals[0] += 1
    if evals[0] > MAX_ITER:
        raise NumericalError(
            f"union saddle not solved within {MAX_ITER} evaluations")


def _spread(w, arms) -> list:
    """w (a list) on arms only, an arm without weight given 1 / len(arms),
    over the sum."""
    out = [0.0] * len(w)
    for i in arms:
        out[i] = w[i] if w[i] > 0.0 else 1.0 / len(arms)
    total = math.fsum(out)
    return [x / total for x in out]


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
    Otherwise it is the level root solve_convex takes, for the set
    {<a, nu> >= b}, whose least point over a divergence box is the box's
    corner toward the row, and from that Gaussian r. An arm whose
    alternative lies past the last float before its domain edge sits at
    that float, and the solution is flagged "edge_saturated";
    equal_divergence reports the arm's gap to c*, and tangency_spread
    leaves out a slope that overflows there.
    """
    return solve(models, mu, HalfSpace(tuple(np.asarray(a, dtype=float)),
                                       float(b)))


def solve_convex(models: Sequence[SpefModel], mu,
                 sublevel: ConvexSublevel) -> LowerBoundSolution:
    """Saddle point when the opposite component is a smooth convex sublevel
    set {f <= level} and mu lies outside it.

    c* is the smallest t for which the coordinate box
    {nu : max_i kl_i(mu_i, nu_i) <= t} meets the set, the touching point
    is the critical alternative, and w_i is proportional to df/dnu_i over
    the divergence slope on the box's faces: one level root, shared with
    solve_halfspace, from t = 1 (InfeasibleAlternative when no box within
    300 doublings meets the set). For a ball or ellipsoid the least f
    over a box is the center clipped into it, so box_stationarity is 0;
    custom oracles run projected gradient on the box, and
    box_stationarity is its residual at the root. level_bracket is the
    last Newton step in t and boundary_gap is |f(nu*) - c|. The active
    set holds the arms whose divergence at nu* is within ACTIVE_SET_TOL of
    c*. NumericalError where the weights' signs contradict a supporting
    hyperplane.
    """
    return solve(models, mu, sublevel)


def solve_union_halfspaces(models: Sequence[SpefModel], mu,
                           halfspaces) -> LowerBoundSolution:
    """Saddle point when the opposite component is a union of half-spaces
    and mu lies strictly inside the complementary polytope.

    Each half-space relaxes the union, so c* is at most every row's own
    saddle value c_j. When no other row's inner infimum undercuts the
    cheapest row's exact half-space saddle at its weights, that solution is
    optimal and is returned flagged single_constraint with duality_gap 0.
    Otherwise damped Newton steps solve the saddle's KKT system over the
    active rows J, <a_j, nu^j> = b_j and sum_i w_i kl_ij = c for j in J,
    sum_j theta_j kl_ij = c over the arms they touch and sum w = 1, with
    nu^j_i = kl_dnu_inverse(mu_i, lam_j a_ji / w_i), from that row and
    the row that undercuts it the most, or from barrier steps on max c
    subject to every row's inner infimum >= c. duality_gap =
    max_i sum_j theta_j kl_ij - c* certifies the answer (NumericalError
    above TOL_KKT, or without an answer in rootfind.MAX_ITER evaluations).
    """
    return solve(models, mu, UnionHalfSpaces(
        tuple((tuple(np.asarray(a, dtype=float)), float(b))
              for a, b in halfspaces)))

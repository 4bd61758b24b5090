"""Mean-parametrized divergence calculus for one-parameter exponential families.

Everything is expressed directly through the two means, so no natural
parameter appears anywhere. The supported families share the properties the
solvers rely on: kl(mu, .) is strictly convex with minimum 0 at mu and
diverges at every boundary of the open mean domain.

Closed forms, with v the Gaussian variance:

    Gaussian   kl = (mu - nu)^2 / (2 v)         domain (-inf, inf)
    Bernoulli  kl = mu log(mu/nu)
                    + (1-mu) log((1-mu)/(1-nu))  domain (0, 1)
    Poisson    kl = nu - mu + mu log(mu/nu)      domain (0, inf)

Bernoulli and Poisson divergences are evaluated without cancellation: with
x = (nu - mu)/mu, mu log(mu/nu) = -mu log1p(x), and the divergence is
mu (x - log1p(x)), plus (1-mu) (y - log1p(y)) with y = (mu - nu)/(1 - mu)
for Bernoulli; each term is nonnegative and close to mu x^2 / 2 near mu.
Where 1 + x (or 1 + y) is below 1/2 the log of the ratio itself is taken.
Each formula is written once, on Python floats with the math module's
logarithms, so a divergence does not depend on numpy's CPU dispatch;
kl_array maps the same scalar kl over an array. Their inverses in the
divergence have no closed form and are found by Newton steps on the
convex kl(mu, .) inside the bracket between mu and the domain edge.

The public functions check their arguments, then look the formulas up in
FAMILIES, which holds one FamilyOps record per supported family.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .rootfind import newton_root
# unused here: perfbench/test_tracer.py counts this module's binding site
from .rootfind import bisect_monotone  # noqa: F401


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"

    # members compare by identity, and unpickle to the same member, so the
    # identity hash keys them as Enum's hash of the name does, in a
    # fraction of the time: FAMILIES[family] is on every checked call
    __hash__ = object.__hash__


class Direction(enum.Enum):
    """Side of the reference mean on which an inverse is taken."""
    ABOVE = "above"
    BELOW = "below"

    __hash__ = object.__hash__  # as Family's


@dataclass(frozen=True)
class FamilyOps:
    """One family's formulas, each taking the SpefModel first and trusting
    its means to lie in the open domain. kl_dnu(mu, .) sweeps (-inf, dnu_sup)
    and kl_dnu_inverse inverts it in closed form, kl_dnu2(mu, nu) > 0 is
    its derivative in nu, kl_inverse(mu, target,
    direction) is the nu on that side of mu with kl(mu, nu) = target for
    target > 0 (NumericalError when no float before the domain edge reaches
    it), kl_prox(mu, w, alpha, c) is the nu in the open domain solving
    w kl_dnu(mu, nu) + alpha (nu - c) = 0 for w > 0, alpha >= 0 and any
    real c, variance(mu) is the variance of the arm at mean mu, and draw
    returns a zero-argument sampler."""
    domain: tuple[float, float]
    kl: Callable[..., float]
    kl_dnu: Callable[..., float]
    kl_dnu2: Callable[..., float]
    kl_dnu_inverse: Callable[..., float]
    kl_inverse: Callable[..., float]
    kl_prox: Callable[..., float]
    variance: Callable[..., float]
    draw: Callable[..., Callable[[], float]]
    dnu_sup: float = math.inf
    has_variance: bool = False


def _gaussian_kl(m, mu, nu):
    d = mu - nu
    return d * d / (2.0 * m.variance)


# a named function, not a lambda, so that a prepared geometry holding it
# pickles to pool workers
def _gaussian_kl_prox(m, mu, w, alpha, c):
    return (w * mu / m.variance + alpha * c) / (w / m.variance + alpha)


def _gaussian_kl_inverse(m, mu, target, direction):
    step = math.sqrt(2.0 * m.variance * target)
    nu = mu + step if direction is Direction.ABOVE else mu - step
    if math.isinf(nu):
        raise NumericalError(
            f"divergence {target} from mu={mu} is beyond every float")
    return nu


def _gaussian_draw(m, mean, standard_normal):
    # the floats of float(rng.normal(mean, sd)), which computes
    # mean + sd * z from one standard normal z, without its argument
    # parsing; standard_normal() gives z, from rng.standard_normal or from
    # the blocks of samplers
    sd = math.sqrt(m.variance)
    return lambda: mean + sd * standard_normal()


def _log1p_of(x, num, den):
    """log(num / den) for 1 + x = num / den: log1p(x) unless 1 + x < 1/2,
    where x has lost the digits of the ratio; log(num) - log(den) where
    the ratio underflows to 0 (-inf at num = 0)."""
    if x >= -0.5:
        return math.log1p(x)
    ratio = num / den
    if ratio:
        return math.log(ratio)
    return math.log(num) - math.log(den) if num > 0.0 else -math.inf


def _ratio_term(mu, x, nu):
    """mu (x - log(nu / mu)) for x = (nu - mu) / mu; where x overflows, as
    at a subnormal mu, nu - mu - mu (log(nu) - log(mu))."""
    if x == math.inf:
        return (nu - mu) - mu * (math.log(nu) - math.log(mu))
    return mu * (x - _log1p_of(x, nu, mu))


def _bernoulli_kl(m, mu, nu):
    x = (nu - mu) / mu
    y = (mu - nu) / (1.0 - mu)
    return max(0.0, _ratio_term(mu, x, nu)
               + (1.0 - mu) * (y - _log1p_of(y, 1.0 - nu, 1.0 - mu)))


def _poisson_kl(m, mu, nu):
    return max(0.0, _ratio_term(mu, (nu - mu) / mu, nu))


def _kl_root(m, mu, target, start, edge):
    """The nu between mu and edge with kl(mu, nu) = target: Newton steps on
    the convex kl(mu, .) - target from start, kept inside that bracket, to
    within two ulps. NumericalError when the target lies beyond the
    divergence at the last float before the edge."""
    ops = FAMILIES[m.family]
    last = math.nextafter(edge, mu)
    if not min(mu, edge) < start < max(mu, edge):
        start = last if abs(start - mu) >= abs(edge - mu) \
            else math.nextafter(mu, edge)
    nu = newton_root(lambda x: (ops.kl(m, mu, x) - target,
                                ops.kl_dnu(m, mu, x)),
                     start, mu, edge, f_neg=-target)
    if nu == last and ops.kl(m, mu, nu) < target:
        raise NumericalError(
            f"divergence {target} from mu={mu} is beyond every float before "
            f"the {m.family.value} domain edge {edge}")
    return nu


def _bernoulli_kl_inverse(m, mu, target, direction):
    # two starts: the Gaussian guess mu +- sqrt(2 v target), and the point
    # where kl less one of its nonnegative terms reaches the target, which
    # lies past the root by about that term; the second is taken when the
    # first overshoots it or the dropped term is under half the target
    step = math.sqrt(2.0 * mu * (1.0 - mu) * target)
    if direction is Direction.ABOVE:
        far = 1.0 - (1.0 - mu) * math.exp(
            -(target - mu * math.log(mu)) / (1.0 - mu))
        if far <= mu:
            # 1 - (1 - mu) e^(-x) rounds onto mu or below it, as for a tiny
            # target from a tiny mu: the far start is lost, the near is kept
            return _kl_root(m, mu, target, mu + step, 1.0)
        near, dropped, edge = mu + step, -mu * math.log(far), 1.0
    else:
        far = mu * math.exp(-(target - (1.0 - mu) * math.log1p(-mu)) / mu)
        near, dropped, edge = mu - step, -(1.0 - mu) * math.log1p(-far), 0.0
    if (near - far) * (edge - mu) >= 0.0 or 2.0 * dropped <= target:
        return _kl_root(m, mu, target, far, edge)
    return _kl_root(m, mu, target, near, edge)


def _poisson_kl_inverse(m, mu, target, direction):
    if direction is Direction.ABOVE:
        # kl(mu, mu + d) <= min(d, d^2 / (2 mu)): both guesses are below
        # the root, the nearer one is taken
        return _kl_root(m, mu, target,
                        mu + max(target, math.sqrt(2.0 * mu * target)),
                        math.inf)
    # kl(mu, mu - d) >= d^2 / (2 mu) and kl(mu, nu) >= mu log(mu/nu) - mu:
    # both guesses are past the root, the nearer one is taken
    return _kl_root(m, mu, target,
                    max(mu - math.sqrt(2.0 * mu * target),
                        mu * math.exp(-1.0 - target / mu)), 0.0)


def _bernoulli_kl_dnu_inverse(m, mu, slope):
    # positive root of slope nu^2 + (1 - slope) nu - mu = 0, each branch
    # written so that no two terms of opposite sign are added
    c = 1.0 - slope
    root = math.sqrt(c * c + 4.0 * slope * mu)
    if c > 0.0:
        return 2.0 * mu / (c + root)
    return (root - c) / (2.0 * slope)


def _bernoulli_kl_prox(m, mu, w, alpha, c):
    # times nu (1 - nu) > 0 the equation is the cubic
    # p(nu) = w (nu - mu) + alpha (nu - c) nu (1 - nu), which increases
    # from -w mu at 0 to w (1 - mu) at 1 and at mu has the sign of mu - c,
    # so its root lies between mu and c clipped into [0, 1]; Newton steps
    # start from the root with the divergence replaced by its quadratic at mu
    end = min(max(c, 0.0), 1.0)
    if alpha == 0.0 or end == mu:
        return mu
    v = mu * (1.0 - mu)

    def cubic(nu):
        q = nu * (1.0 - nu)
        return (w * (nu - mu) + alpha * (nu - c) * q,
                w + alpha * (q + (nu - c) * (1.0 - 2.0 * nu)))

    # a clipped end is a domain edge, which is never returned
    at_mu = alpha * (mu - c) * v
    at_end = cubic(end)[0] if end == c else math.copysign(math.inf, end - mu)
    start = (w * mu / v + alpha * c) / (w / v + alpha)
    if end > mu:
        return newton_root(cubic, start, mu, end, f_neg=at_mu, f_pos=at_end)
    return newton_root(cubic, start, end, mu, f_neg=at_end, f_pos=at_mu)


def _poisson_kl_prox(m, mu, w, alpha, c):
    # positive root of alpha nu^2 + (w - alpha c) nu - w mu = 0, each branch
    # written so that no two terms of opposite sign are added
    q = w - alpha * c
    root = math.sqrt(q * q + 4.0 * alpha * w * mu)
    if q > 0.0:
        return 2.0 * w * mu / (q + root)
    return (root - q) / (2.0 * alpha)


FAMILIES: dict[Family, FamilyOps] = {
    Family.GAUSSIAN: FamilyOps(
        domain=(-math.inf, math.inf),
        kl=_gaussian_kl,
        kl_dnu=lambda m, mu, nu: (nu - mu) / m.variance,
        kl_dnu2=lambda m, mu, nu: 1.0 / m.variance,
        kl_dnu_inverse=lambda m, mu, slope: mu + m.variance * slope,
        kl_inverse=_gaussian_kl_inverse,
        kl_prox=_gaussian_kl_prox,
        variance=lambda m, mu: m.variance,
        draw=lambda m, mean, rng: _gaussian_draw(m, mean, rng.standard_normal),
        has_variance=True),
    Family.BERNOULLI: FamilyOps(
        domain=(0.0, 1.0),
        kl=_bernoulli_kl,
        kl_dnu=lambda m, mu, nu: (nu - mu) / (nu * (1.0 - nu)),
        # (nu^2 - 2 mu nu + mu) / (nu (1 - nu))^2, without cancellation
        kl_dnu2=lambda m, mu, nu: ((nu - mu) * (nu - mu) + mu * (1.0 - mu))
        / (nu * (1.0 - nu)) / (nu * (1.0 - nu)),
        kl_dnu_inverse=_bernoulli_kl_dnu_inverse,
        kl_inverse=_bernoulli_kl_inverse,
        kl_prox=_bernoulli_kl_prox,
        variance=lambda m, mu: mu * (1.0 - mu),
        draw=lambda m, mean, rng: lambda: 1.0 if rng.random() < mean else 0.0),
    # the one slope that saturates: (nu - mu)/nu < 1 on an unbounded domain
    Family.POISSON: FamilyOps(
        domain=(0.0, math.inf),
        kl=_poisson_kl,
        kl_dnu=lambda m, mu, nu: (nu - mu) / nu,
        kl_dnu2=lambda m, mu, nu: mu / nu / nu,
        kl_dnu_inverse=lambda m, mu, slope: mu / (1.0 - slope),
        kl_inverse=_poisson_kl_inverse,
        kl_prox=_poisson_kl_prox,
        variance=lambda m, mu: mu,
        draw=lambda m, mean, rng: lambda: float(rng.poisson(mean)),
        dnu_sup=1.0),
}


@dataclass(frozen=True)
class SpefModel:
    """One arm's distribution family. ``variance`` is meaningful only for
    the Gaussian family and ignored elsewhere."""
    family: Family
    variance: float = 1.0

    def __post_init__(self):
        if FAMILIES[self.family].has_variance:
            if not (math.isfinite(self.variance) and self.variance > 0):
                raise ValueError(
                    f"Gaussian variance must be positive and finite, got "
                    f"{self.variance}")


def gaussian(variance: float = 1.0) -> SpefModel:
    return SpefModel(Family.GAUSSIAN, float(variance))


def bernoulli() -> SpefModel:
    return SpefModel(Family.BERNOULLI)


def poisson() -> SpefModel:
    return SpefModel(Family.POISSON)


def mean_domain(model: SpefModel) -> tuple[float, float]:
    """Open interval of valid means."""
    return FAMILIES[model.family].domain


def _check_mean(model, x, name, arm=None):
    lo, hi = mean_domain(model)
    ok = isinstance(x, (int, float, np.integer, np.floating)) \
        and math.isfinite(x) and lo < x < hi
    if not ok:
        where = f" (arm {arm})" if arm is not None else ""
        raise DomainError(
            f"{name}={x!r} outside open {model.family.value} mean domain "
            f"({lo}, {hi}){where}")
    return float(x)


def kl(model: SpefModel, mu: float, nu: float, *, arm=None) -> float:
    """Divergence from the arm's distribution at mean mu to the one at nu."""
    mu = _check_mean(model, mu, "mu", arm)
    nu = _check_mean(model, nu, "nu", arm)
    return FAMILIES[model.family].kl(model, mu, nu)


def kl_array(model: SpefModel, mu: float, nu: np.ndarray) -> np.ndarray:
    """kl over an array of alternative means, in nu's shape: the family's
    scalar kl on each entry as a Python float.

    Entries must already lie in the open mean domain; this is the grid
    oracle's bulk path and skips per-element checking.
    """
    nu = np.asarray(nu, dtype=float)
    f, mu = FAMILIES[model.family].kl, float(mu)
    return np.fromiter((f(model, mu, x) for x in nu.ravel().tolist()),
                       float, nu.size).reshape(nu.shape)


def kl_dnu(model: SpefModel, mu: float, nu: float, *, arm=None) -> float:
    """Partial derivative of kl(mu, nu) in its second argument.

    Strictly increasing in nu with a zero at mu, by convexity.
    """
    mu = _check_mean(model, mu, "mu", arm)
    nu = _check_mean(model, nu, "nu", arm)
    return FAMILIES[model.family].kl_dnu(model, mu, nu)


def kl_dnu_range(model: SpefModel, mu: float) -> tuple[float, float]:
    """Open range swept by kl_dnu(mu, .) as nu crosses the mean domain."""
    return (-math.inf, FAMILIES[model.family].dnu_sup)


def kl_inverse(model: SpefModel, mu: float, target: float,
               direction: Direction, *, arm=None) -> float:
    """The unique nu on the requested side of mu with kl(mu, nu) = target.

    A closed form for Gaussian arms; for the others Newton steps on the
    convex kl(mu, .), kept inside the bracket between mu and the domain
    edge, stop once a step is within two ulps of nu, so nu is the float
    root up to the rounding of kl itself. Every target is attainable over
    the reals (boundary divergence), but in float64 the extreme tail near a
    finite edge saturates: a target above the divergence at the last float
    before the edge raises NumericalError. A direction must be a Direction.
    """
    if not isinstance(direction, Direction):
        raise TypeError(f"direction must be a Direction, got {direction!r}")
    mu = _check_mean(model, mu, "mu", arm)
    if not (math.isfinite(target) and target >= 0.0):
        raise ValueError(f"divergence target must be finite and >= 0, got {target}")
    if target == 0.0:
        return mu
    return FAMILIES[model.family].kl_inverse(model, mu, target, direction)


def kl_inverse_capped(model: SpefModel, mu: float, target: float,
                      direction: Direction, *, arm=None) -> float:
    """kl_inverse, saturating at the last interior float of a finite edge.

    For divergence-box constructions the box is the sublevel set intersected
    with the mean domain: a target beyond the divergence at the last float
    before a finite edge means the box side is that float. An infinite edge
    has no such cap, so there the error propagates.
    """
    try:
        return kl_inverse(model, mu, target, direction, arm=arm)
    except NumericalError:
        lo, hi = mean_domain(model)
        edge = hi if direction is Direction.ABOVE else lo
        if math.isinf(edge):
            raise
        return math.nextafter(edge, mu)


def kl_dnu_inverse(model: SpefModel, mu: float, slope: float, *, arm=None) -> float:
    """The unique nu with kl_dnu(mu, nu) = slope.

    Closed form for every family: mu + v slope (Gaussian), mu / (1 - slope)
    (Poisson) and the positive root of slope nu^2 + (1 - slope) nu = mu
    (Bernoulli). Slopes outside kl_dnu_range raise DomainError; that can
    only happen for families whose slope saturates (Poisson above). A root
    that rounds onto or past a domain edge raises NumericalError.
    """
    mu = _check_mean(model, mu, "mu", arm)
    if not math.isfinite(slope):
        raise ValueError(f"slope must be finite, got {slope}")
    ran = kl_dnu_range(model, mu)
    if not ran[0] < slope < ran[1]:
        where = f" (arm {arm})" if arm is not None else ""
        raise DomainError(
            f"slope {slope} outside attainable range {ran} for "
            f"{model.family.value} at mu={mu}{where}")
    if slope == 0.0:
        return mu
    ops = FAMILIES[model.family]
    nu = ops.kl_dnu_inverse(model, mu, slope)
    lo, hi = ops.domain
    if not lo < nu < hi:
        raise NumericalError(
            f"slope {slope} puts nu={nu} outside the open {model.family.value} "
            f"domain ({lo}, {hi}) in float64 at mu={mu}")
    return nu


# how far inside a finite domain edge empirical means are pushed
CLAMP_EPSILON = 1e-6


def clamp_bounds(model: SpefModel) -> tuple[float, float]:
    """The interval clamp_to_interior snaps into: CLAMP_EPSILON inside every
    finite boundary of the mean domain, unbounded on infinite sides."""
    lo, hi = mean_domain(model)
    return lo + CLAMP_EPSILON, hi - CLAMP_EPSILON


def clamp_to_interior(model: SpefModel, x: float) -> float:
    """Snap x to at least CLAMP_EPSILON inside every finite boundary of the
    mean domain. Infinite sides are left untouched."""
    lo, hi = clamp_bounds(model)
    return min(max(float(x), lo), hi)


def sampler(model: SpefModel, mean: float, rng: np.random.Generator, *,
            arm=None) -> Callable[[], float]:
    """Zero-argument sample(); the mean is checked once, not per draw."""
    mean = _check_mean(model, mean, "mean", arm)
    return FAMILIES[model.family].draw(model, mean, rng)


# the largest block of standard normals samplers draws at once
_NORMAL_BLOCK_CAP = 1024


def _normal_blocks(rng: np.random.Generator):
    """Blocks of rng's standard normals as lists of floats, of 16, 32, ...
    entries up to _NORMAL_BLOCK_CAP: numpy fills a block with the floats
    that successive rng.standard_normal() calls return."""
    n = 16
    while True:
        yield rng.standard_normal(n).tolist()
        n = min(2 * n, _NORMAL_BLOCK_CAP)


def samplers(models, means, rng: np.random.Generator) -> list:
    """One zero-argument sampler per arm, after every mean is checked (so a
    bad mean leaves rng untouched). When every arm is Gaussian the arms
    share one stream of standard normals, drawn in blocks (_normal_blocks)
    and taken in the order of the draws, each draw mean + sd * z: the
    floats of per-arm sampler calls on the same generator in the same
    order, at a fraction of a scalar draw's cost, with rng left at the end
    of the last block drawn. Other families draw one value per call, since
    their draws of different kinds interleave on rng."""
    models = list(models)
    if len(means) != len(models):
        raise ValueError(f"{len(models)} models for {len(means)} means")
    means = [_check_mean(m, x, "mean", i)
             for i, (m, x) in enumerate(zip(models, means))]
    if all(m.family is Family.GAUSSIAN for m in models):
        standard_normal = functools.partial(
            next, itertools.chain.from_iterable(_normal_blocks(rng)))
        return [_gaussian_draw(m, x, standard_normal)
                for m, x in zip(models, means)]
    return [FAMILIES[m.family].draw(m, x, rng) for m, x in zip(models, means)]


def sample(model: SpefModel, mean: float, rng: np.random.Generator, *,
           arm=None) -> float:
    """One observation from the arm at the given mean. Deterministic given
    the generator state."""
    return sampler(model, mean, rng, arm=arm)()

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

The public functions check their arguments, then look the formulas up in
FAMILIES, which holds one FamilyOps record per supported family.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .rootfind import bisect_monotone, walk_to_root

#: Absolute tolerance on the achieved divergence in kl_inverse.
TOL_INV = 1e-10
MAX_ITER = 200


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"


class Direction(enum.Enum):
    """Side of the reference mean on which an inverse is taken."""
    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class FamilyOps:
    """One family's formulas, each taking the SpefModel first and trusting
    its means to lie in the open domain. kl_dnu(mu, .) sweeps (-inf, dnu_sup)
    and kl_dnu_inverse inverts it in closed form, kl_prox(mu, w, alpha, c)
    is the nu in the open domain solving w kl_dnu(mu, nu) + alpha (nu - c) = 0
    for w > 0, alpha >= 0 and any real c, draw returns a zero-argument
    sampler, a None kl_inverse means root finding."""
    domain: tuple[float, float]
    kl: Callable[..., float]
    kl_array: Callable[..., np.ndarray]
    kl_dnu: Callable[..., float]
    kl_dnu_inverse: Callable[..., float]
    kl_prox: Callable[..., float]
    draw: Callable[..., Callable[[], float]]
    dnu_sup: float = math.inf
    kl_inverse: Optional[Callable[..., float]] = None
    has_variance: bool = False


def _gaussian_kl(m, mu, nu):
    d = mu - nu
    return d * d / (2.0 * m.variance)


def _gaussian_kl_inverse(m, mu, target, direction):
    step = math.sqrt(2.0 * m.variance * target)
    return mu + step if direction is Direction.ABOVE else mu - step


def _gaussian_draw(m, mean, rng):
    sd = math.sqrt(m.variance)
    return lambda: float(rng.normal(mean, sd))


def _bernoulli_kl(m, mu, nu):
    v = mu * math.log(mu / nu) + (1.0 - mu) * math.log((1.0 - mu) / (1.0 - nu))
    return max(0.0, v)  # cancellation at nu within a few ulps of mu


def _bernoulli_kl_dnu_inverse(m, mu, slope):
    # positive root of slope nu^2 + (1 - slope) nu - mu = 0, each branch
    # written so that no two terms of opposite sign are added
    c = 1.0 - slope
    root = math.sqrt(c * c + 4.0 * slope * mu)
    if c > 0.0:
        return 2.0 * mu / (c + root)
    return (root - c) / (2.0 * slope)


def _bernoulli_kl_prox(m, mu, w, alpha, c):
    # the left side increases in nu from -inf at 0 to +inf at 1 and its sign
    # at mu is that of mu - c, so the root lies between mu and c clipped
    # into [0, 1]; bisection never evaluates the bracket's ends
    end = min(max(c, 0.0), 1.0)
    if alpha == 0.0 or end == mu:
        return mu
    lo, hi = (mu, end) if end > mu else (end, mu)
    return bisect_monotone(
        lambda nu: w * (nu - mu) / (nu * (1.0 - nu)) + alpha * (nu - c),
        lo, hi, 0.0, value_tol=0.0)


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
        kl_array=lambda m, mu, nu: (mu - nu) ** 2 / (2.0 * m.variance),
        kl_dnu=lambda m, mu, nu: (nu - mu) / m.variance,
        kl_dnu_inverse=lambda m, mu, slope: mu + m.variance * slope,
        kl_prox=lambda m, mu, w, alpha, c:
            (w * mu / m.variance + alpha * c) / (w / m.variance + alpha),
        draw=_gaussian_draw,
        kl_inverse=_gaussian_kl_inverse,
        has_variance=True),
    Family.BERNOULLI: FamilyOps(
        domain=(0.0, 1.0),
        kl=_bernoulli_kl,
        kl_array=lambda m, mu, nu: np.maximum(
            0.0, mu * np.log(mu / nu)
            + (1.0 - mu) * np.log((1.0 - mu) / (1.0 - nu))),
        kl_dnu=lambda m, mu, nu: (nu - mu) / (nu * (1.0 - nu)),
        kl_dnu_inverse=_bernoulli_kl_dnu_inverse,
        kl_prox=_bernoulli_kl_prox,
        draw=lambda m, mean, rng: lambda: 1.0 if rng.random() < mean else 0.0),
    # the one slope that saturates: (nu - mu)/nu < 1 on an unbounded domain
    Family.POISSON: FamilyOps(
        domain=(0.0, math.inf),
        kl=lambda m, mu, nu: max(0.0, nu - mu + mu * math.log(mu / nu)),
        kl_array=lambda m, mu, nu: np.maximum(
            0.0, nu - mu + mu * np.log(mu / nu)),
        kl_dnu=lambda m, mu, nu: (nu - mu) / nu,
        kl_dnu_inverse=lambda m, mu, slope: mu / (1.0 - slope),
        kl_prox=_poisson_kl_prox,
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
    """Vectorized kl over an array of alternative means.

    Entries must already lie in the open mean domain; this is the grid
    oracle's bulk path and skips per-element checking.
    """
    return FAMILIES[model.family].kl_array(
        model, float(mu), np.asarray(nu, dtype=float))


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

    Achieved divergence is within TOL_INV of the target, except where float
    spacing forbids it: approaching a finite domain edge the slope grows
    without bound, and once slope * ulp(nu) exceeds TOL_INV the bracket
    collapses to adjacent floats and the closest representable point is
    returned. Every target is attainable over the reals (boundary
    divergence); in float64 the extreme tail near finite edges saturates.
    """
    mu = _check_mean(model, mu, "mu", arm)
    if not (math.isfinite(target) and target >= 0.0):
        raise ValueError(f"divergence target must be finite and >= 0, got {target}")
    if target == 0.0:
        return mu
    ops = FAMILIES[model.family]
    if ops.kl_inverse is not None:
        return ops.kl_inverse(model, mu, target, direction)
    lo, hi = ops.domain
    boundary = hi if direction is Direction.ABOVE else lo
    return walk_to_root(lambda x: kl(model, mu, x), mu, boundary, target,
                        rising=True, value_tol=TOL_INV, max_iter=MAX_ITER)


def kl_inverse_capped(model: SpefModel, mu: float, target: float,
                      direction: Direction, *, arm=None) -> float:
    """kl_inverse, saturating at the last interior float of a finite edge.

    For divergence-box constructions the box is the sublevel set intersected
    with the mean domain: a target beyond what float64 can express toward a
    finite edge means the box side is the edge itself. An infinite edge has
    no such cap, so there the error propagates.
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


@dataclass(frozen=True)
class ClampPolicy:
    """How far inside a finite domain edge empirical means are pushed."""
    epsilon: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.epsilon and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


DEFAULT_CLAMP = ClampPolicy()


def clamp_bounds(model: SpefModel,
                 policy: ClampPolicy = DEFAULT_CLAMP) -> tuple[float, float]:
    """The interval clamp_to_interior snaps into: epsilon inside every
    finite boundary of the mean domain, unbounded on infinite sides."""
    lo, hi = mean_domain(model)
    eps = policy.epsilon
    if math.isfinite(lo) and math.isfinite(hi) and hi - lo <= 2 * eps:
        raise ValueError(
            f"epsilon {eps} too large for domain ({lo}, {hi})")
    return lo + eps, hi - eps


def clamp_to_interior(model: SpefModel, x: float,
                      policy: ClampPolicy = DEFAULT_CLAMP) -> float:
    """Snap x to at least epsilon inside every finite boundary of the mean
    domain. Infinite sides are left untouched."""
    lo, hi = clamp_bounds(model, policy)
    return min(max(float(x), lo), hi)


def sampler(model: SpefModel, mean: float, rng: np.random.Generator, *,
            arm=None) -> Callable[[], float]:
    """Zero-argument sample(); the mean is checked once, not per draw."""
    mean = _check_mean(model, mean, "mean", arm)
    return FAMILIES[model.family].draw(model, mean, rng)


def sample(model: SpefModel, mean: float, rng: np.random.Generator, *,
           arm=None) -> float:
    """One observation from the arm at the given mean. Deterministic given
    the generator state."""
    return sampler(model, mean, rng, arm=arm)()

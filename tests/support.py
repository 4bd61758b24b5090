"""Randomized instance generators shared across the test modules.

Everything takes an explicit numpy Generator so a failing case is
reproducible from the test's seed alone. Ranges keep means comfortably
interior and hyperplanes non-degenerate; the point is broad coverage of
well-posed instances, not stress at the domain edges (those get dedicated
tests).
"""

import numpy as np

from partid.errors import DegenerateInstance, PartidError, UnsupportedCase
from partid.lb_solvers import inner_inf, solve
from partid.partitions import (Side, ball, classify, distance_to_halfspace,
                               row_dot)
from partid.spef import Family, bernoulli, gaussian, poisson

FAMILY_NAMES = ("gaussian", "bernoulli", "poisson")


def random_model(rng, families=FAMILY_NAMES):
    name = families[int(rng.integers(len(families)))]
    if name == "gaussian":
        return gaussian(float(rng.uniform(0.3, 2.0)))
    if name == "bernoulli":
        return bernoulli()
    return poisson()


def random_mean_for(model, rng):
    if model.family is Family.GAUSSIAN:
        return float(rng.uniform(-2.0, 2.0))
    if model.family is Family.BERNOULLI:
        return float(rng.uniform(0.15, 0.85))
    return float(rng.uniform(0.4, 4.0))


def random_halfspace_instance(rng, k=None, families=FAMILY_NAMES):
    """(models, mu, a, b) with mu off the hyperplane and the hyperplane
    anchored at an interior point, so both sides meet the mean domain."""
    while True:
        kk = int(rng.integers(2, 6)) if k is None else k
        models = [random_model(rng, families) for _ in range(kk)]
        mu = np.array([random_mean_for(m, rng) for m in models])
        a = rng.uniform(0.25, 1.5, kk) * rng.choice((-1.0, 1.0), kk)
        anchor = [random_mean_for(m, rng) for m in models]
        # row_dot, not a @ anchor: the BLAS dot rounds differently on hosts
        # with and without fused multiply-adds, and b would follow it
        b = row_dot(a.tolist(), anchor)
        if abs(distance_to_halfspace(a.tolist(), b, mu.tolist())) > 0.05:
            return models, mu, a, b


def random_threshold_instance(rng, k=2, families=FAMILY_NAMES):
    """(models, mu, u) with u interior to every arm's domain and max(mu)
    clear of it."""
    while True:
        models = [random_model(rng, families) for _ in range(k)]
        mu = np.array([random_mean_for(m, rng) for m in models])
        bern = any(m.family is Family.BERNOULLI for m in models)
        pois = any(m.family is not Family.GAUSSIAN for m in models)
        if bern:
            u = float(rng.uniform(0.1, 0.9))
        elif pois:
            u = float(rng.uniform(0.3, 3.5))
        else:
            u = float(rng.uniform(-1.5, 1.5))
        if abs(float(np.max(mu)) - u) > 0.05:
            return models, mu, u


def random_ball_instance(rng):
    """Gaussian pair with mu outside a random disk by a clear margin."""
    while True:
        models = [gaussian(float(rng.uniform(0.3, 2.0))) for _ in range(2)]
        mu = np.array([float(rng.uniform(-2.0, 2.0)) for _ in range(2)])
        center = rng.uniform(-1.5, 1.5, 2)
        radius = float(rng.uniform(0.3, 1.2))
        spec = ball(tuple(center), radius)
        if spec.value(mu) - spec.level > 0.05:
            return models, mu, spec


def random_union_instance(rng, rows=None):
    """Gaussian pair strictly inside the polytope cut out by 2-3 rows."""
    kk = 2
    models = [gaussian(float(rng.uniform(0.3, 2.0))) for _ in range(kk)]
    mu = np.array([float(rng.uniform(-1.5, 1.5)) for _ in range(kk)])
    j = int(rng.integers(2, 4)) if rows is None else rows
    halfspaces = []
    for _ in range(j):
        a = rng.uniform(0.25, 1.5, kk) * rng.choice((-1.0, 1.0), kk)
        b = float(a @ mu) + float(rng.uniform(0.3, 1.0))
        halfspaces.append((tuple(a), b))
    return models, mu, halfspaces


class PublicApiKernel:
    """Reference geometry for the run loop: its step is written from the
    public classify, inner_inf and solve, which validate the means and
    prepare a fresh geometry per call, and from the loop's fallback rules.
    On a boundary step Z is 0 and the weights uniform; Z is 0 where the
    statistic raises DegenerateInstance or UnsupportedCase; the weights are
    uniform where the solution raises any PartidError or its w* is not
    finite. side, value and weights are the three public calls, which a
    subclass may replace (a row with zero entries has no HalfSpace)."""

    def __init__(self, models, spec):
        self.models, self.spec = models, spec

    def side(self, means):
        return classify(self.spec, means)

    def value(self, means, counts):
        return inner_inf(self.models, means, np.asarray(counts, dtype=float),
                         self.spec).value

    def weights(self, means):
        return solve(self.models, means, self.spec).w_star

    def step(self, means, counts, beta):
        uniform = [1.0 / len(means)] * len(means)
        side = self.side(means)
        if side is Side.BOUNDARY:
            return side, 0.0, uniform
        try:
            z = self.value(means, counts)
        except (DegenerateInstance, UnsupportedCase):
            z = 0.0
        if z >= beta:
            return side, z, None
        try:
            w_hat = self.weights(means)
        except PartidError:
            return side, z, uniform
        if not np.all(np.isfinite(w_hat)):
            return side, z, uniform
        return side, z, w_hat.tolist()

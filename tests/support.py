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
from partid.partitions import (Side, UnionHalfSpaces, ball, classify,
                               distance_to_halfspace, row_dot)
from partid.spef import Family, bernoulli, gaussian, kl, poisson

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


def random_mixed_union_instance(rng, k, rows, families=FAMILY_NAMES,
                                zero_share=0.25):
    """(models, mu, rows) with mu strictly inside the polytope of `rows`
    random rows over k arms of the given families; each entry of a row is
    zero with probability zero_share (a row is never all zero), and each
    row's half-space meets the mean domain."""
    models = [random_model(rng, families) for _ in range(k)]
    mu = [random_mean_for(m, rng) for m in models]
    out = []
    while len(out) < rows:
        a = rng.uniform(0.25, 1.5, k) * rng.choice((-1.0, 1.0), k)
        a[rng.random(k) < zero_share] = 0.0
        if not a.any():
            continue
        # a point of the mean domain strictly beyond the row's level
        beyond = [random_mean_for(m, rng) for m in models]
        lin, far = row_dot(a.tolist(), mu), row_dot(a.tolist(), beyond)
        if far - lin > 0.1:
            out.append((tuple(a.tolist()),
                        lin + float(rng.uniform(0.3, 0.9)) * (far - lin)))
    return models, np.array(mu), out


def best_arm_rows(k):
    """The rows nu_j - nu_1 >= 0, j = 2..k: their union is "arm 1 is not the
    best", with the truth in the polytope when arm 1 is."""
    rows = []
    for j in range(1, k):
        a = [0.0] * k
        a[0], a[j] = -1.0, 1.0
        rows.append((tuple(a), 0.0))
    return rows


def slsqp_union_lb(models, mu, rows, starts=4, seed=0):
    """Reference (c*, w*) of a union of half-spaces with mu in the
    polytope, independent of the union solver: scipy's SLSQP maximizes c
    over (w, c) subject to g_j(w) >= c and sum w = 1, where g_j is the
    public one-row inner_inf and its gradient in w the Danskin one,
    kl_i(mu_i, nu_i) at the row's minimizer; the best of a start at uniform
    weights and starts - 1 halfway between them and random ones. Weights
    stay at least 1e-12, where every row's minimizer exists."""
    from scipy.optimize import minimize

    k = len(models)
    specs = [UnionHalfSpaces((row,)) for row in rows]
    seen = {}

    def row(j, x):
        # SLSQP asks for each constraint's value and gradient at a point
        # in separate calls: one inner_inf serves both
        key = (j, x[:k].tobytes())
        if key not in seen:
            sol = inner_inf(models, mu, x[:k], specs[j])
            seen[key] = (sol.value, np.array(
                [kl(models[i], mu[i], sol.minimizer[i]) for i in range(k)]
                + [-1.0]))
        value, grad = seen[key]
        return value - x[k], grad

    cons = [{"type": "ineq", "fun": lambda x, j=j: row(j, x)[0],
             "jac": lambda x, j=j: row(j, x)[1]} for j in range(len(rows))]
    cons.append({"type": "eq", "fun": lambda x: float(np.sum(x[:k])) - 1.0,
                 "jac": lambda x: np.array([1.0] * k + [0.0])})
    rng = np.random.default_rng(seed)
    best = None
    for n in range(starts):
        w = np.full(k, 1.0 / k)
        if n:
            w = 0.5 * (w + rng.dirichlet(np.ones(k)))
        c0 = min(inner_inf(models, mu, w, spec).value for spec in specs)
        res = minimize(lambda x: -x[k], np.append(w, c0),
                       jac=lambda x: np.array([0.0] * k + [-1.0]),
                       method="SLSQP", constraints=cons,
                       bounds=[(1e-12, 1.0)] * k + [(0.0, None)],
                       options={"ftol": 1e-15, "maxiter": 100})
        w = np.clip(res.x[:k], 1e-12, None)
        w /= w.sum()
        c = min(inner_inf(models, mu, w, spec).value for spec in specs)
        if best is None or c > best[0]:
            best = (c, w)
    return best


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

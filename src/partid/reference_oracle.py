"""Brute-force oracle for the allocation lower bound.

Deliberately independent of the analytic solvers: the weighted
transportation cost is evaluated on explicit discretizations of the
boundary of the alternative component (where the inner infimum is attained,
the cost being convex with its minimum at mu outside that component) and
maximized over a uniform simplex grid. Everything is plain grid search plus
a short zoom-in around the best boundary point, so agreement with the fast
solvers is evidence, not circularity.

Covers one to three arms and the partition families with a parametrizable
boundary: threshold sections, hyperplanes, unions of hyperplanes, and the
sphere/ellipse shapes built by ball() and ellipsoid(). Anything else raises
UnsupportedCase.

solve_two_arm_gaussian is the closed-form check of two Gaussian arms
against a union of two half-spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DegenerateInstance, InfeasibleAlternative,
                     NumericalError, UnsupportedCase)
from .lb_solvers import LowerBoundSolution, _solution
from .partitions import (ConvexSublevel, HalfSpace, PartitionSpec, Side,
                         Threshold, UnionHalfSpaces, classify)
from .spef import (Direction, SpefModel, gaussian, kl, kl_array,
                   kl_inverse_capped, mean_domain)

_CHUNK = 2048


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the brute-force search.

    simplex_step is the weight-grid spacing (None picks 1e-3 for up to two
    arms, 1e-2 for three). box_halfwidth bounds the search box by per-arm
    divergence level: every point whose divergence from mu is below it lies
    inside. boundary_step is the relative parameter spacing along boundary
    curves; surfaces use a tenth of that resolution per axis.
    """
    simplex_step: Optional[float] = None
    box_halfwidth: float = 6.0
    boundary_step: float = 1e-3

    def resolved_step(self, n_arms: int) -> float:
        if self.simplex_step is not None:
            return self.simplex_step
        return 1e-3 if n_arms <= 2 else 1e-2

    def curve_points(self) -> int:
        return max(2, int(round(1.0 / self.boundary_step)) + 1)

    def surface_points(self) -> int:
        return max(2, int(round(1.0 / self.boundary_step)) // 10 + 1)


def _simplex_grid(k: int, step: float) -> np.ndarray:
    if k == 1:
        return np.ones((1, 1))
    n = max(1, int(round(1.0 / step)))
    if k == 2:
        w1 = np.linspace(0.0, 1.0, n + 1)
        return np.column_stack([w1, 1.0 - w1])
    if k == 3:
        rows = []
        for i in range(n + 1):
            for j in range(n + 1 - i):
                rows.append((i / n, j / n, (n - i - j) / n))
        return np.array(rows)
    raise UnsupportedCase(f"brute force covers at most three arms, got {k}")


def _search_box(models, mu, level):
    lo = np.array([kl_inverse_capped(m, x, level, Direction.BELOW)
                   for m, x in zip(models, mu)])
    hi = np.array([kl_inverse_capped(m, x, level, Direction.ABOVE)
                   for m, x in zip(models, mu)])
    return lo, hi


def _domain_mask(models, pts):
    mask = np.ones(pts.shape[0], dtype=bool)
    for i, m in enumerate(models):
        lo, hi = mean_domain(m)
        mask &= (pts[:, i] > lo) & (pts[:, i] < hi)
    return mask


class _Generator:
    """Parametrized patch of the alternative boundary."""

    def __init__(self, lo, hi, mapper: Callable[[np.ndarray], np.ndarray]):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        self.mapper = mapper

    def params(self, lo, hi, n: int) -> np.ndarray:
        d = lo.size
        if d == 0:
            return np.zeros((1, 0))
        axes = [np.linspace(lo[i], hi[i], n) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def _threshold_generators(models, mu, u, box):
    lo, hi = box
    k = mu.size
    gens = []
    for j in range(k):
        others = [i for i in range(k) if i != j]
        plo = np.minimum(lo[others], u)
        phi = np.minimum(hi[others], u)

        def mapper(P, j=j, others=others):
            pts = np.empty((P.shape[0], k))
            pts[:, j] = u
            for col, i in enumerate(others):
                pts[:, i] = P[:, col]
            return pts

        gens.append(_Generator(plo, phi, mapper))
    return gens


def _hyperplane_generator(mu, a, b, box):
    lo, hi = box
    k = mu.size
    a = np.asarray(a, dtype=float)
    p = int(np.argmax(np.abs(a)))
    others = [i for i in range(k) if i != p]

    def mapper(P, p=p, others=others):
        pts = np.empty((P.shape[0], k))
        for col, i in enumerate(others):
            pts[:, i] = P[:, col]
        rest = P @ a[others] if others else np.zeros(P.shape[0])
        pts[:, p] = (b - rest) / a[p]
        return pts

    return _Generator(lo[others], hi[others], mapper)


def _shape_generators(center, semi_axes, k):
    c = np.asarray(center, dtype=float)
    s = np.asarray(semi_axes, dtype=float)
    if s.size == 1:
        s = np.full(k, float(s[0]))
    if k == 1:
        return [_Generator([], [], lambda P, sgn=sgn: np.array([[c[0] + sgn * s[0]]]))
                for sgn in (-1.0, 1.0)]
    if k == 2:
        def mapper(P):
            th = P[:, 0]
            return np.column_stack([c[0] + s[0] * np.cos(th),
                                    c[1] + s[1] * np.sin(th)])
        return [_Generator([0.0], [2.0 * math.pi], mapper)]
    def mapper3(P):
        th, ph = P[:, 0], P[:, 1]
        return np.column_stack([c[0] + s[0] * np.sin(th) * np.cos(ph),
                                c[1] + s[1] * np.sin(th) * np.sin(ph),
                                c[2] + s[2] * np.cos(th)])
    return [_Generator([0.0, 0.0], [math.pi, 2.0 * math.pi], mapper3)]


def _generators_and_filter(models, mu, spec, grid):
    """Boundary patches plus a feasibility filter for the alternative side."""
    k = mu.size
    side = classify(spec, mu)
    if side is Side.BOUNDARY:
        raise DegenerateInstance("mu lies on the partition boundary")
    box = _search_box(models, mu, grid.box_halfwidth)
    extra = None

    if isinstance(spec, Threshold):
        for i, m in enumerate(models):
            dlo, dhi = mean_domain(m)
            if not dlo < spec.u < dhi:
                raise UnsupportedCase(
                    f"threshold level outside arm {i} domain")
        return _threshold_generators(models, mu, spec.u, box), extra

    if isinstance(spec, HalfSpace):
        return [_hyperplane_generator(mu, spec.a, spec.b, box)], extra

    if isinstance(spec, UnionHalfSpaces):
        gens = [_hyperplane_generator(mu, a, b, box)
                for a, b in spec.halfspaces]
        if side is Side.A2:
            rows = [(np.asarray(a, dtype=float), float(b))
                    for a, b in spec.halfspaces]

            def polytope(pts):
                mask = np.ones(pts.shape[0], dtype=bool)
                for a, b in rows:
                    mask &= pts @ a <= b + 1e-12 * max(1.0, abs(b))
                return mask
            extra = polytope
        return gens, extra

    if isinstance(spec, ConvexSublevel):
        if spec.shape is None or spec.shape[0] not in ("ball", "ellipsoid"):
            raise UnsupportedCase(
                "brute force needs a parametrizable boundary; use ball() or "
                "ellipsoid() or check the instance analytically")
        _, center, semi = spec.shape
        return _shape_generators(center, semi, k), extra

    raise TypeError(f"not a partition spec: {spec!r}")


def _candidate_points(models, gen, lo, hi, n, extra):
    P = gen.params(lo, hi, n)
    pts = gen.mapper(P)
    mask = _domain_mask(models, pts)
    if extra is not None:
        mask &= extra(pts)
    return P[mask], pts[mask]


def _divergence_matrix(models, mu, pts):
    cols = [kl_array(m, x, pts[:, i]) for i, (m, x) in enumerate(zip(models, mu))]
    return np.column_stack(cols)


def _min_for_weights(models, mu, w, gens, grid, extra, zoom_rounds=3):
    """Zoomed inner minimum of sum_i w_i kl_i over the boundary patches."""
    w = np.asarray(w, dtype=float)
    best = math.inf
    for gen in gens:
        d = gen.lo.size
        n = grid.curve_points() if d <= 1 else grid.surface_points()
        lo, hi = gen.lo.copy(), gen.hi.copy()
        rounds = zoom_rounds if d > 0 else 1
        for _ in range(rounds):
            P, pts = _candidate_points(models, gen, lo, hi, n, extra)
            if pts.shape[0] == 0:
                break
            vals = _divergence_matrix(models, mu, pts) @ w
            i = int(np.argmin(vals))
            if vals[i] < best:
                best = float(vals[i])
            if d == 0:
                break
            step = (hi - lo) / max(n - 1, 1)
            lo = np.maximum(gen.lo, P[i] - 2.0 * step)
            hi = np.minimum(gen.hi, P[i] + 2.0 * step)
    if not math.isfinite(best):
        raise InfeasibleAlternative(
            "no boundary point of the alternative lies in the mean domain")
    return best


def brute_force_inner(models: Sequence[SpefModel], mu, weights,
                      spec: PartitionSpec, grid: GridSpec = GridSpec()) -> float:
    """Grid value of the weighted inner infimum."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    gens, extra = _generators_and_filter(models, mu, spec, grid)
    return _min_for_weights(models, mu, weights, gens, grid, extra)


def brute_force_lb(models: Sequence[SpefModel], mu, spec: PartitionSpec,
                   grid: GridSpec = GridSpec()) -> tuple[float, np.ndarray]:
    """Grid saddle point: returns (c, w) with c from a zoomed evaluation at
    the best simplex grid row."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    k = mu.size
    gens, extra = _generators_and_filter(models, mu, spec, grid)
    W = _simplex_grid(k, grid.resolved_step(k))

    pts_all = []
    for gen in gens:
        d = gen.lo.size
        n = grid.curve_points() if d <= 1 else grid.surface_points()
        _, pts = _candidate_points(models, gen, gen.lo, gen.hi, n, extra)
        if pts.shape[0]:
            pts_all.append(pts)
    if not pts_all:
        raise InfeasibleAlternative(
            "no boundary point of the alternative lies in the mean domain")
    pts = np.vstack(pts_all)

    mins = np.full(W.shape[0], math.inf)
    for start in range(0, pts.shape[0], _CHUNK):
        kmat = _divergence_matrix(models, mu, pts[start:start + _CHUNK])
        np.minimum(mins, (W @ kmat.T).min(axis=1), out=mins)

    best = int(np.argmax(mins))
    w = W[best]
    c = _min_for_weights(models, mu, w, gens, grid, extra)
    return float(c), w


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

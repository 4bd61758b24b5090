"""Scalar root finding used throughout the solvers.

All solvers in this package reduce to one-dimensional monotone root finding:
Newton's method safeguarded by a bracket where the slope is known, and
bisection after a walk that finds the bracket, which the multiplier of a
ball's, an ellipsoid's and a custom oracle's inner infimum uses. Functions may return +-inf; an infinite value
is treated purely through its sign.
"""

from __future__ import annotations

import math

from .errors import NumericalError

MAX_ITER = 200


class NoBracket(NumericalError):
    """walk_to_root found no crossing, unlike any error of the f walked."""


def bisect_monotone(f, lo, hi, target, *, increasing=True, value_tol=1e-12,
                    max_iter=MAX_ITER):
    """Root of the monotone function f on [lo, hi] with f(root) = target.

    The caller guarantees the target is bracketed: f(lo) <= target <= f(hi)
    when increasing, the reverse otherwise. Stops when the achieved value is
    within value_tol of the target, when the bracket collapses to float
    resolution, or after max_iter halvings, whichever comes first. Returns
    the abscissa with the best achieved value seen.
    """
    if not lo < hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    best_x = 0.5 * (lo + hi)
    best_gap = math.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution exhausted
        val = f(mid)
        if math.isfinite(val):
            gap = abs(val - target)
            if gap < best_gap:
                best_x, best_gap = mid, gap
            if gap <= value_tol:
                return mid
        below = (val < target) if increasing else (val > target)
        if below:
            lo = mid
        else:
            hi = mid
    return best_x


def walk_to_root(f, start, boundary, target, *, rising=True, value_tol=1e-12,
                 max_iter=MAX_ITER):
    """Root of f between start and an open boundary which f never attains.

    The walk moves from start toward boundary (either side, finite or
    infinite); ``rising`` states whether f increases along that walk. The
    bracket expansion halves the remaining gap for a finite boundary and
    doubles a unit step for an infinite one, then bisection finishes the job.
    Raises NoBracket, a NumericalError, when no crossing appears within
    max_iter expansions, which under the boundary-divergence assumptions
    means the target is not representable in double precision.
    """
    def reached(v):
        return (v >= target) if rising else (v <= target)

    prev = start
    for k in range(1, max_iter + 1):
        if math.isinf(boundary):
            cand = start + math.copysign(2.0 ** (k - 1), boundary)
        else:
            cand = boundary - (boundary - start) * 0.5 ** k
            if cand == boundary:  # rounding may land on the open endpoint
                cand = math.nextafter(boundary, start)
        if cand == prev:
            break
        if reached(f(cand)):
            lo, hi = (prev, cand) if cand > prev else (cand, prev)
            walking_up = boundary > start
            return bisect_monotone(f, lo, hi, target,
                                   increasing=(rising == walking_up),
                                   value_tol=value_tol, max_iter=max_iter)
        prev = cand
    raise NoBracket(
        f"no bracket for target {target} between {start} and {boundary} "
        f"after {max_iter} expansions")


def newton_root(f, x, neg, pos, *, f_neg=-math.inf, f_pos=math.inf, rtol=0.0,
                max_iter=MAX_ITER):
    """Root of f by Newton steps from x, kept inside the bracket (neg, pos).

    f returns (value, slope). The root lies strictly between neg and pos
    (in either order), where f is negative at neg and positive at pos; f_neg
    and f_pos are those values where known, and an infinite one marks an
    open end, such as a domain edge, that is never returned. A step that
    leaves the open bracket, a start outside it, and a zero slope are
    replaced by the bracket's midpoint; every evaluation moves one end. Stops when a Newton
    step is at most max(rtol |x|, 2 ulp(x)) and returns the stepped point
    (x itself if the step does not land strictly inside the bracket), or
    when the bracket has collapsed to adjacent floats and returns the end
    with the smaller |f|. Raises NumericalError when f is NaN, when the
    midpoint of a bracket with an infinite end is needed, or after max_iter
    evaluations.
    """
    for _ in range(max_iter):
        if not (neg < x < pos or pos < x < neg):  # outside, an end or NaN
            x = 0.5 * (neg + pos)
            if math.isinf(x):
                raise NumericalError(
                    f"Newton step left the unbounded bracket ({neg}, {pos})")
            if not (neg < x < pos or pos < x < neg):  # adjacent floats
                return neg if abs(f_neg) <= abs(f_pos) else pos
        fx, slope = f(x)
        if fx < 0.0:
            neg, f_neg = x, fx
        elif fx > 0.0:
            pos, f_pos = x, fx
        elif fx == 0.0:
            return x
        else:
            raise NumericalError(f"root function is NaN at {x}")
        step = fx / slope if slope != 0.0 else math.nan
        nxt = x - step
        if abs(step) <= max(rtol * abs(x), 2.0 * math.ulp(x)):
            # a step that rounds onto x or an end of the bracket stays at x
            return nxt if neg < nxt < pos or pos < nxt < neg else x
        x = nxt
    raise NumericalError(f"Newton root not within {max_iter} evaluations")

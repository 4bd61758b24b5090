"""Two-component partitions of the arm-mean space and membership tests.

A partition splits the product of mean domains into A1 and A2. Conventions:

    Threshold u          A1 = {max_i nu_i > u},     A2 = {max_i nu_i < u}
    HalfSpace (a, b)     A1 = {<a, nu> < b},        A2 = {<a, nu> > b}
    ConvexSublevel f, c  A2 = {f(nu) <= c},         A1 = complement
    UnionHalfSpaces      A2 = union of {<a_j, nu> >= b_j}, A1 = complement

classify returns Boundary inside a tol_class-wide band around the separating
surface; solvers reject such points rather than guess.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional, Union

import numpy as np

#: Width of the boundary band in classify. Hyperplane margins are measured
#: after normalizing by the row norm, so classification is invariant under
#: positive rescaling of (a, b).
TOL_CLASS = 1e-12


class Side(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    BOUNDARY = "boundary"

    __hash__ = object.__hash__  # as spef.Family's


# Side's members as module names, for code that runs at every step of a
# run: an Enum class's metaclass defines __getattr__, which puts every
# Side.X lookup on CPython's slow attribute path (about 0.1 us, several
# times a global name's cost)
_A1, _A2, _BOUNDARY = Side.A1, Side.A2, Side.BOUNDARY


@dataclass(frozen=True)
class Threshold:
    """Partition by whether any coordinate exceeds the level u."""
    u: float

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise ValueError(f"threshold level must be finite, got {self.u}")


@dataclass(frozen=True)
class HalfSpace:
    """Partition by the sign of <a, nu> - b. Every entry of a must be
    nonzero: an arm with a zero coefficient cannot move the means across
    the hyperplane, so its saddle weight is 0 and a run would sample it
    only to explore; the same partition over the other arms is the
    problem to pose. (The solvers take zero entries: a union's rows may
    have them, and each is solved as a half-space.)"""
    a: tuple[float, ...]
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", float(self.b))
        if len(self.a) == 0:
            raise ValueError("half-space normal must have at least one entry")
        if not all(math.isfinite(x) and x != 0.0 for x in self.a):
            raise ValueError(f"half-space normal entries must be finite and nonzero, got {self.a}")
        if not math.isfinite(self.b):
            raise ValueError(f"half-space offset must be finite, got {self.b}")


def _fd_gradient_check(value, grad, points, *, step=1e-6, rel_tol=1e-4):
    # relative beyond |p_i| = 1, so the step stays many ulps wide there
    for p in points:
        p = np.asarray(p, dtype=float)
        g = np.asarray(grad(p), dtype=float)
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = step * max(1.0, abs(p[i]))
            fd = (value(p + e) - value(p - e)) / (2.0 * e[i])
            scale = max(1.0, abs(g[i]), abs(fd))
            if abs(fd - g[i]) > rel_tol * scale:
                raise ValueError(
                    f"gradient oracle disagrees with finite differences at "
                    f"{p.tolist()} coordinate {i}: grad={g[i]}, fd={fd}")


@dataclass(frozen=True, eq=False)
class ConvexSublevel:
    """A2 given as the sublevel set {f <= level} of a smooth convex f.

    value and grad are oracles on the full coordinate space. The gradient is
    validated against central finite differences at construction: builders
    supply probe points near their own geometry, custom oracles must pass
    probe_points explicitly.
    """
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    level: float
    shape: Optional[tuple] = None
    probe_points: InitVar[Optional[list]] = None

    def __post_init__(self, probe_points):
        if not math.isfinite(self.level):
            raise ValueError(f"sublevel height must be finite, got {self.level}")
        if probe_points is None:
            if self.shape is None:
                raise ValueError(
                    "custom sublevel oracles must supply probe_points for "
                    "the construction-time gradient check")
            center = np.asarray(self.shape[1], dtype=float)
            scale = float(np.max(np.abs(self.shape[2]))) if len(self.shape) > 2 else 1.0
            offs = [np.zeros_like(center)]
            for i in range(center.size):
                e = np.zeros_like(center)
                e[i] = 0.37 * scale
                offs.extend([e, -e])
            probe_points = [center + o for o in offs]
        _fd_gradient_check(self.value, self.grad, probe_points)


@dataclass(frozen=True)
class _QuadShape:
    """Axis-aligned quadratic sum((x - center)^2 / s^2); picklable oracle
    backing the ball and ellipsoid builders."""
    center: tuple[float, ...]
    semi_axes: tuple[float, ...]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - np.asarray(self.center)) / np.asarray(self.semi_axes)
        return float(np.dot(z, z))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        s2 = np.asarray(self.semi_axes) ** 2
        return 2.0 * (x - np.asarray(self.center)) / s2


def ball(center, radius: float) -> ConvexSublevel:
    """A2 = Euclidean ball. Encoded as sum((x-c)^2) <= radius^2."""
    center = tuple(float(c) for c in center)
    radius = float(radius)
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    shape = _QuadShape(center, tuple(1.0 for _ in center))
    return ConvexSublevel(shape.value, shape.grad, radius * radius,
                          shape=("ball", center, (radius,)))


def ellipsoid(center, semi_axes) -> ConvexSublevel:
    """A2 = axis-aligned ellipsoid sum(((x-c)/s)^2) <= 1."""
    center = tuple(float(c) for c in center)
    semi_axes = tuple(float(s) for s in semi_axes)
    if len(center) != len(semi_axes):
        raise ValueError("center and semi_axes must have equal length")
    if not all(s > 0 and math.isfinite(s) for s in semi_axes):
        raise ValueError(f"semi-axes must be positive and finite, got {semi_axes}")
    shape = _QuadShape(center, semi_axes)
    return ConvexSublevel(shape.value, shape.grad, 1.0,
                          shape=("ellipsoid", center, semi_axes))


@dataclass(frozen=True)
class UnionHalfSpaces:
    """A2 = union of closed half-spaces {<a_j, nu> >= b_j}. Rows may contain
    zero entries but never vanish entirely."""
    halfspaces: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        rows = tuple((tuple(float(x) for x in a), float(b))
                     for a, b in self.halfspaces)
        object.__setattr__(self, "halfspaces", rows)
        if len(rows) == 0:
            raise ValueError("union needs at least one half-space")
        dim = len(rows[0][0])
        for j, (a, b) in enumerate(rows):
            if len(a) != dim:
                raise ValueError(f"row {j} has dimension {len(a)}, expected {dim}")
            if not all(math.isfinite(x) for x in a) or not math.isfinite(b):
                raise ValueError(f"row {j} has non-finite entries")
            if all(x == 0.0 for x in a):
                raise ValueError(f"row {j} normal is the zero vector")


PartitionSpec = Union[Threshold, HalfSpace, ConvexSublevel, UnionHalfSpaces]


def row_dot(a, x) -> float:
    """<a, x> as a left-to-right sum of products, one rounding per
    operation. Every hyperplane product and row norm is taken this way, so
    it is the same float on every host: np.dot rounds as the BLAS kernel
    the CPU selects does, with fused multiply-adds or without, and sum()
    of floats is compensated from Python 3.12 on. a and x are sequences of
    numbers (numpy scalars among them give the same value)."""
    s = 0.0
    for ai, xi in zip(a, x):
        s += ai * xi
    return s


def distance_to_halfspace(a, b: float, point) -> float:
    """Signed Euclidean margin (<a, x> - b) / ||a||; positive on the
    {>= b} side."""
    norm = math.sqrt(row_dot(a, a))
    if norm == 0.0:
        raise ValueError("half-space normal is the zero vector")
    return float(row_dot(a, point) - b) / norm


def classify(spec: PartitionSpec, point) -> Side:
    """Which component the point lies in, with a Boundary band of width
    TOL_CLASS around the separating surface."""
    x = np.asarray(point, dtype=float)
    if isinstance(spec, Threshold):
        return side_of_margin(float(np.max(x)) - spec.u, Side.A1)
    if isinstance(spec, HalfSpace):
        return side_of_margin(distance_to_halfspace(spec.a, spec.b,
                                                    x.tolist()), Side.A2)
    if isinstance(spec, UnionHalfSpaces):
        x = x.tolist()
        return side_of_margin(
            max(distance_to_halfspace(a, b, x) for a, b in spec.halfspaces),
            Side.A2)
    if isinstance(spec, ConvexSublevel):
        return side_of_margin(spec.value(x) - spec.level, Side.A1)
    raise TypeError(f"not a partition spec: {spec!r}")


def side_of_margin(m: float, positive: Side) -> Side:
    """Boundary when |m| <= TOL_CLASS, else positive for m > 0 and the
    other side otherwise (a NaN margin included)."""
    if abs(m) <= TOL_CLASS:
        return _BOUNDARY
    if m > 0:
        return positive
    return _A2 if positive is _A1 else _A1


def dimension(spec: PartitionSpec) -> Optional[int]:
    """Arm count this partition pins down, or None when any count fits."""
    if isinstance(spec, HalfSpace):
        return len(spec.a)
    if isinstance(spec, UnionHalfSpaces):
        return len(spec.halfspaces[0][0])
    if isinstance(spec, ConvexSublevel) and spec.shape is not None:
        return len(spec.shape[1])
    return None


def to_dict(spec: PartitionSpec) -> dict:
    """JSON-ready form; custom sublevel oracles are not serializable."""
    if isinstance(spec, Threshold):
        return {"type": "threshold", "u": spec.u}
    if isinstance(spec, HalfSpace):
        return {"type": "halfspace", "a": list(spec.a), "b": spec.b}
    if isinstance(spec, UnionHalfSpaces):
        return {"type": "union_halfspaces",
                "halfspaces": [{"a": list(a), "b": b}
                               for a, b in spec.halfspaces]}
    if isinstance(spec, ConvexSublevel):
        if spec.shape is None:
            raise ValueError("custom sublevel oracles are not serializable")
        kind, center, extra = spec.shape
        if kind == "ball":
            return {"type": "ball", "center": list(center), "radius": extra[0]}
        return {"type": "ellipsoid", "center": list(center),
                "semi_axes": list(extra)}
    raise TypeError(f"not a partition spec: {spec!r}")


_DICT_FIELDS = {
    "threshold": {"u"},
    "halfspace": {"a", "b"},
    "union_halfspaces": {"halfspaces"},
    "ball": {"center", "radius"},
    "ellipsoid": {"center", "semi_axes"},
}


def from_dict(d: dict) -> PartitionSpec:
    kind = d.get("type")
    if kind not in _DICT_FIELDS:
        raise ValueError(f"unknown partition type {kind!r}")
    expected = _DICT_FIELDS[kind] | {"type"}
    stray = sorted(set(d) - expected)
    missing = sorted(expected - set(d))
    if stray:
        raise ValueError(f"unknown field {stray[0]!r} for {kind} partition")
    if missing:
        raise ValueError(f"{kind} partition is missing {missing[0]!r}")
    if kind == "threshold":
        return Threshold(u=float(d["u"]))
    if kind == "halfspace":
        return HalfSpace(a=tuple(d["a"]), b=float(d["b"]))
    if kind == "union_halfspaces":
        return UnionHalfSpaces(tuple((tuple(h["a"]), float(h["b"]))
                                     for h in d["halfspaces"]))
    if kind == "ball":
        return ball(d["center"], float(d["radius"]))
    return ellipsoid(d["center"], d["semi_axes"])

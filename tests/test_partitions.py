"""Membership, orientation and serialization of the partition specs."""

import math

import numpy as np
import pytest

from partid.partitions import (TOL_CLASS, ConvexSublevel, HalfSpace, Side,
                               Threshold, UnionHalfSpaces, ball, classify,
                               dimension, distance_to_halfspace, ellipsoid,
                               from_dict, to_dict)


class TestThreshold:
    def test_orientation(self):
        spec = Threshold(1.0)
        assert classify(spec, [2.0, 0.0]) is Side.A1
        assert classify(spec, [0.5, 0.9]) is Side.A2
        # only the max matters
        assert classify(spec, [-5.0, 1.5]) is Side.A1

    def test_boundary_band(self):
        spec = Threshold(1.0)
        assert classify(spec, [1.0, 0.0]) is Side.BOUNDARY
        assert classify(spec, [1.0 + 0.4 * TOL_CLASS, 0.0]) is Side.BOUNDARY
        assert classify(spec, [1.0 + 1e-11, 0.0]) is Side.A1
        assert classify(spec, [1.0 - 1e-11, 0.0]) is Side.A2

    def test_rejects_non_finite_level(self):
        with pytest.raises(ValueError):
            Threshold(math.inf)
        with pytest.raises(ValueError):
            Threshold(math.nan)


class TestHalfSpace:
    def test_orientation(self):
        spec = HalfSpace(a=(1.0, 1.0), b=1.0)
        assert classify(spec, [0.0, 0.0]) is Side.A1
        assert classify(spec, [1.0, 1.0]) is Side.A2

    def test_boundary_band_is_scale_invariant(self):
        # margins are normalized by ||a||, so scaling (a, b) together must
        # not move the band
        x = [0.5, 0.5 + 0.5e-12]
        for s in (1.0, 1e6, 1e-6):
            spec = HalfSpace(a=(s, s), b=s)
            assert classify(spec, x) is Side.BOUNDARY

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            HalfSpace(a=(1.0, 0.0), b=0.5)
        with pytest.raises(ValueError):
            HalfSpace(a=(), b=0.0)
        with pytest.raises(ValueError):
            HalfSpace(a=(1.0, math.inf), b=0.5)
        with pytest.raises(ValueError):
            HalfSpace(a=(1.0, 1.0), b=math.nan)

    def test_coerces_to_floats(self):
        spec = HalfSpace(a=(1, 2), b=3)
        assert spec.a == (1.0, 2.0)
        assert isinstance(spec.b, float)

    def test_signed_distance(self):
        assert distance_to_halfspace((3.0, 4.0), 5.0, (3.0, 4.0)) == \
            pytest.approx(4.0)
        assert distance_to_halfspace((3.0, 4.0), 5.0, (0.0, 0.0)) == \
            pytest.approx(-1.0)
        with pytest.raises(ValueError):
            distance_to_halfspace((0.0, 0.0), 1.0, (0.0, 0.0))


class TestConvexSublevel:
    def test_ball_orientation(self):
        spec = ball((1.0, 1.0), 0.5)
        assert classify(spec, [1.0, 1.0]) is Side.A2
        assert classify(spec, [0.0, 0.0]) is Side.A1
        on_sphere = [1.0, 1.5]
        assert classify(spec, on_sphere) is Side.BOUNDARY

    def test_ellipsoid_value_and_grad(self):
        spec = ellipsoid((0.0, 0.0), (2.0, 1.0))
        assert spec.value(np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert spec.value(np.array([0.0, 1.0])) == pytest.approx(1.0)
        g = spec.grad(np.array([2.0, 1.0]))
        np.testing.assert_allclose(g, [1.0, 2.0])

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            ball((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            ball((0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            ellipsoid((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            ellipsoid((0.0,), (-2.0,))

    def test_custom_oracle_needs_probes(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        g = lambda x: 2.0 * np.asarray(x, dtype=float)
        with pytest.raises(ValueError, match="probe_points"):
            ConvexSublevel(f, g, 1.0)
        spec = ConvexSublevel(f, g, 1.0,
                              probe_points=[np.zeros(2), np.ones(2)])
        assert classify(spec, [2.0, 0.0]) is Side.A1

    def test_gradient_check_catches_wrong_oracle(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        bad_g = lambda x: 3.0 * np.asarray(x, dtype=float)
        with pytest.raises(ValueError, match="finite differences"):
            ConvexSublevel(f, bad_g, 1.0, probe_points=[np.ones(2)])


    @pytest.mark.parametrize("spec", [
        {"type": "ball", "center": [1e8, 0.0], "radius": 1.0},
        {"type": "ellipsoid", "center": [1e8, -3e9], "semi_axes": [2.0, 0.5]},
    ], ids=["ball", "ellipsoid"])
    def test_shapes_far_from_the_origin_pass_their_gradient_check(self,
                                                                  spec):
        # an absolute finite-difference step of 1e-6 is 66 ulps at 1e8,
        # where the rounding of f put the difference quotient outside
        # rel_tol: the library rejected its own ball
        built = from_dict(spec)
        center = np.array(spec["center"])
        assert classify(built, center) is Side.A2
        assert to_dict(built) == spec

    def test_gradient_check_far_from_the_origin_catches_wrong_oracle(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        bad_g = lambda x: 3.0 * np.asarray(x, dtype=float)
        with pytest.raises(ValueError, match="finite differences"):
            ConvexSublevel(f, bad_g, 1.0,
                           probe_points=[np.array([1e8, -3e9])])
        ConvexSublevel(f, lambda x: 2.0 * np.asarray(x, dtype=float), 1.0,
                       probe_points=[np.array([1e8, -3e9])])

class TestUnionHalfSpaces:
    SPEC = UnionHalfSpaces((((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0)))

    def test_orientation(self):
        # A2 once any row's closed half-space contains the point
        assert classify(self.SPEC, [1.5, 0.0]) is Side.A2
        assert classify(self.SPEC, [0.0, 2.5]) is Side.A2
        assert classify(self.SPEC, [0.0, 0.0]) is Side.A1
        assert classify(self.SPEC, [1.0, 0.0]) is Side.BOUNDARY

    def test_rows_allow_zero_entries_but_not_zero_rows(self):
        with pytest.raises(ValueError):
            UnionHalfSpaces((((0.0, 0.0), 1.0),))
        with pytest.raises(ValueError):
            UnionHalfSpaces(())
        with pytest.raises(ValueError):
            UnionHalfSpaces((((1.0, 0.0), 1.0), ((1.0,), 0.0)))
        with pytest.raises(ValueError):
            UnionHalfSpaces((((1.0, math.nan), 1.0),))


def test_dimension():
    assert dimension(Threshold(0.0)) is None
    assert dimension(HalfSpace((1.0, 2.0, 3.0), 0.0)) == 3
    assert dimension(TestUnionHalfSpaces.SPEC) == 2
    assert dimension(ball((0.0, 0.0), 1.0)) == 2
    custom = ConvexSublevel(lambda x: float(np.sum(np.asarray(x) ** 2)),
                            lambda x: 2.0 * np.asarray(x, dtype=float),
                            1.0, probe_points=[np.zeros(3)])
    assert dimension(custom) is None


ROUND_TRIP_SPECS = [
    Threshold(0.75),
    HalfSpace((1.0, -2.0), 0.5),
    UnionHalfSpaces((((1.0, 0.0), 1.0), ((0.5, -0.5), 0.0))),
    ball((0.5, -0.5), 1.25),
    ellipsoid((0.0, 1.0), (2.0, 0.5)),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS,
                         ids=lambda s: type(s).__name__)
def test_dict_round_trip(spec):
    back = from_dict(to_dict(spec))
    assert to_dict(back) == to_dict(spec)
    # classification must survive the round trip at a couple of points
    pts = [np.array([0.3, 0.2]), np.array([1.7, -0.4])]
    for p in pts:
        assert classify(back, p) is classify(spec, p)


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError, match="unknown partition type"):
        from_dict({"type": "wedge"})
    with pytest.raises(ValueError, match="unknown field"):
        from_dict({"type": "threshold", "u": 1.0, "extra": 2})
    with pytest.raises(ValueError, match="missing"):
        from_dict({"type": "halfspace", "a": [1.0, 1.0]})


def test_custom_sublevel_not_serializable():
    custom = ConvexSublevel(lambda x: float(np.sum(np.asarray(x) ** 2)),
                            lambda x: 2.0 * np.asarray(x, dtype=float),
                            1.0, probe_points=[np.zeros(2)])
    with pytest.raises(ValueError, match="not serializable"):
        to_dict(custom)


def test_classify_rejects_non_spec():
    with pytest.raises(TypeError):
        classify("not a spec", [0.0])

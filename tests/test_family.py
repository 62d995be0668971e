import random
from fractions import Fraction

import pytest

from superfiber import (
    AffinePoint,
    BasePointVanishing,
    Curve,
    CurveWithPoints,
    FamilyParams,
    PointNotOnCurve,
    PointNotOnTwist,
    contains_point,
    curve_genus,
    twist_curve,
    twist_points,
    untwist_point,
)
from helpers_roundtrip import random_cwp


def test_contains_point_examples():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    assert contains_point(curve, AffinePoint(2, 3))
    assert contains_point(curve, AffinePoint(0, 1))
    assert not contains_point(curve, AffinePoint(1, 1))


def test_params_validated():
    with pytest.raises(ValueError):
        FamilyParams(1, 2)
    with pytest.raises(ValueError):
        FamilyParams(3, 0)


def newton_triangle_interior(r: int, s: int) -> int:
    # independent genus oracle: interior lattice points of the triangle
    # (0,0), (r,0), (0,s), counted by brute enumeration
    count = 0
    for x in range(1, r):
        for y in range(1, s):
            if Fraction(x, r) + Fraction(y, s) < 1:
                count += 1
    return count


def test_curve_genus_examples():
    assert curve_genus(FamilyParams(3, 2)) == 1
    assert curve_genus(FamilyParams(3, 3)) == 1
    assert curve_genus(FamilyParams(5, 2)) == 2
    assert curve_genus(FamilyParams(2, 2)) == 0


def test_curve_genus_against_lattice_oracle():
    for r in range(2, 9):
        for s in range(2, 9):
            assert curve_genus(FamilyParams(r, s)) == newton_triangle_interior(r, s)


def test_curve_genus_monotone_nondecreasing():
    # non-strict: the gcd term can absorb one increment, e.g. g(3,2) = g(4,2)
    for r in range(2, 8):
        for s in range(2, 8):
            g = curve_genus(FamilyParams(r, s))
            assert curve_genus(FamilyParams(r + 1, s)) >= g
            assert curve_genus(FamilyParams(r, s + 1)) >= g
    assert curve_genus(FamilyParams(4, 2)) == curve_genus(FamilyParams(3, 2)) == 1


def test_curve_with_points_validation():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    with pytest.raises(PointNotOnCurve):
        CurveWithPoints(curve, (AffinePoint(1, 1),))
    with pytest.raises(ValueError):
        CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(0, -1)))  # duplicate x
    with pytest.raises(ValueError):
        CurveWithPoints(curve, (AffinePoint(0, 1),), base_index=3)


def test_twist_curve_examples():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    tc = twist_curve(CurveWithPoints(curve, (AffinePoint(2, 3), AffinePoint(0, 1))))
    assert tc.c0 == 9
    assert tc.c0 == curve.rhs(Fraction(2))
    identity = twist_curve(CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3))))
    assert identity.c0 == 1
    with pytest.raises(BasePointVanishing):
        twist_curve(CurveWithPoints(curve, (AffinePoint(-1, 0), AffinePoint(0, 1))))


def test_twist_points_examples():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3)))
    assert twist_points(cwp) == [AffinePoint(0, 1), AffinePoint(2, 3)]
    flipped = CurveWithPoints(curve, (AffinePoint(2, 3), AffinePoint(0, 1)))
    assert twist_points(flipped) == [AffinePoint(2, 1), AffinePoint(0, Fraction(1, 3))]
    with pytest.raises(BasePointVanishing):
        twist_points(CurveWithPoints(curve, (AffinePoint(-1, 0), AffinePoint(0, 1))))


def test_twist_outputs_satisfy_twisted_equation():
    rng = random.Random(31)
    for _ in range(40):
        cwp = random_cwp(rng)
        tc = twist_curve(cwp)
        images = twist_points(cwp)
        assert images[cwp.base_index].y == 1
        for p in images:
            assert tc.contains_point(p)


def test_twist_with_nonzero_base_index():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3)), base_index=1)
    tc = twist_curve(cwp)
    assert tc.c0 == 9
    assert tc.base == AffinePoint(2, 3)
    images = twist_points(cwp)
    assert images == [AffinePoint(0, Fraction(1, 3)), AffinePoint(2, 1)]
    assert [untwist_point(tc, q) for q in images] == list(cwp.points)


def test_untwist_examples():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(2, 3), AffinePoint(0, 1)))
    tc = twist_curve(cwp)
    assert untwist_point(tc, AffinePoint(0, Fraction(1, 3))) == AffinePoint(0, 1)
    assert untwist_point(tc, AffinePoint(2, 1)) == cwp.base
    with pytest.raises(PointNotOnTwist):
        untwist_point(tc, AffinePoint(0, 1))


def test_twist_round_trip_on_random_data():
    rng = random.Random(77)
    for _ in range(40):
        cwp = random_cwp(rng)
        tc = twist_curve(cwp)
        back = [untwist_point(tc, q) for q in twist_points(cwp)]
        assert back == list(cwp.points)


def test_json_round_trip():
    curve = Curve(FamilyParams(3, 2), Fraction(1, 4), Fraction(-2, 9))
    obj = curve.to_obj()
    assert obj == {"r": 3, "s": 2, "a": "1/4", "b": "-2/9"}
    assert Curve.from_obj(obj) == curve

    p = AffinePoint(Fraction(2, 3), Fraction(-1, 2))
    assert AffinePoint.from_obj(p.to_obj()) == p

    cwp = CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), (AffinePoint(2, 3), AffinePoint(0, 1)), 1)
    assert CurveWithPoints.from_obj(cwp.to_obj()) == cwp
    assert cwp.to_obj()["base_index"] == 1


def test_records_parse_their_fields():
    # each record runs its fields through rational(), so a direct call and
    # from_obj build the same value and every field is a Fraction
    assert Curve(FamilyParams(3, 2), "1/4", -2) == Curve.from_obj({"r": 3, "s": 2, "a": "1/4", "b": "-2"})
    assert type(AffinePoint(1, "2/3").y) is Fraction
    assert type(Curve(FamilyParams(3, 2), 1, "5").b) is Fraction
    with pytest.raises(ValueError):
        AffinePoint(0.5, 1)
    with pytest.raises(ValueError):
        Curve(FamilyParams(3, 2), True, 1)


def test_smoothness_predicate():
    assert Curve(FamilyParams(3, 2), 1, 1).is_smooth
    assert not Curve(FamilyParams(3, 2), 0, 1).is_smooth
    assert not Curve(FamilyParams(3, 2), 1, 0).is_smooth

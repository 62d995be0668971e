import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from superfiber.errors import DomainError
from superfiber.exact import digit_limit
from superfiber.family import (
    AffinePoint,
    Curve,
    CurveWithPoints,
    FamilyParams,
    contains_point,
    curve_genus,
    rescale,
    twist,
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
    with pytest.raises(DomainError, match=r"point 0 \(1, 1\) is not on the curve"):
        CurveWithPoints(curve, (AffinePoint(1, 1),))
    with pytest.raises(ValueError):
        CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(0, -1)))  # duplicate x
    with pytest.raises(ValueError):
        CurveWithPoints(curve, (AffinePoint(0, 1),), base_index=3)


def test_twist_curve_examples():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    tc = twist(CurveWithPoints(curve, (AffinePoint(2, 3), AffinePoint(0, 1))))["twist"]
    assert tc["c0"] == "9" == str(curve.rhs(Fraction(2)))
    assert (tc["a"], tc["b"], tc["base"]) == ("1", "1", {"x": "2", "y": "3"})
    identity = twist(CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3))))
    assert identity["twist"]["c0"] == "1"
    with pytest.raises(DomainError, match=r"base point \(-1, 0\) cannot define a twist"):
        twist(CurveWithPoints(curve, (AffinePoint(-1, 0), AffinePoint(0, 1))))


def test_twist_points_examples():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3)))
    assert twist(cwp)["points"] == [{"x": "0", "y": "1"}, {"x": "2", "y": "3"}]
    flipped = CurveWithPoints(curve, (AffinePoint(2, 3), AffinePoint(0, 1)))
    assert twist(flipped)["points"] == [{"x": "2", "y": "1"}, {"x": "0", "y": "1/3"}]
    twisted = rescale(flipped, Fraction(1, 3))
    assert twisted.curve == Curve(FamilyParams(3, 2), Fraction(1, 9), Fraction(1, 9))
    assert twisted.points == (AffinePoint(2, 1), AffinePoint(0, Fraction(1, 3)))


def test_twist_outputs_satisfy_twisted_equation():
    rng = random.Random(31)
    for _ in range(40):
        cwp = random_cwp(rng)
        payload = twist(cwp)
        c0, a, b = (Fraction(payload["twist"][k]) for k in ("c0", "a", "b"))
        r, s = cwp.curve.params.r, cwp.curve.params.s
        images = [AffinePoint.from_obj(p) for p in payload["points"]]
        assert images == list(rescale(cwp, 1 / cwp.base.y).points)
        assert images[cwp.base_index].y == 1
        for p in images:
            assert c0 * p.y ** s == a * p.x ** r + b


def test_twist_with_nonzero_base_index():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3)), base_index=1)
    payload = twist(cwp)
    assert payload["twist"]["c0"] == "9"
    assert payload["twist"]["base"] == AffinePoint(2, 3).to_obj()
    twisted = rescale(cwp, Fraction(1, 3))
    assert list(twisted.points) == [AffinePoint(0, Fraction(1, 3)), AffinePoint(2, 1)]
    assert payload["points"] == [p.to_obj() for p in twisted.points]
    assert rescale(twisted, 3) == cwp


def test_twist_prints_points_past_the_digit_rule():
    # r = s = 2 through (0, 1/A) and (p, B), A = 5^k and p^2 + 1 = A*B, each
    # about 1.2*L bits: the twisted (p, A*B) is past the rule y^2 <= 4*L bits,
    # which rescale does not apply again, and prints in about 0.72*L digits
    k = digit_limit() * 12 // 23  # 5^k has about 1.2*L bits
    A = 5 ** k
    p = pow(2, 5 ** (k - 1), A)  # 2 generates (Z/5^k)^*, so p^2 = -1 mod A
    B = (p * p + 1) // A
    cwp = CurveWithPoints(Curve(FamilyParams(2, 2), Fraction(p * p + 2, A * A), Fraction(1, A * A)),
                          (AffinePoint(0, Fraction(1, A)), AffinePoint(p, B)))
    with pytest.raises(ValueError, match="exceeds"):
        CurveWithPoints(Curve(FamilyParams(2, 2), p * p + 2, 1), (AffinePoint(0, 1), AffinePoint(p, A * B)))
    payload = twist(cwp)
    assert payload["points"] == [{"x": "0", "y": "1"}, {"x": str(p), "y": str(p * p + 1)}]
    assert payload["twist"]["c0"] == f"1/{A * A}"
    twisted = rescale(cwp, A)
    assert [q.y for q in twisted.points] == [1, A * B]
    assert rescale(twisted, Fraction(1, A)) == cwp


@given(seed=st.integers(0, 2 ** 32), t=st.fractions(min_value=-50, max_value=50, max_denominator=50))
def test_rescale_inverts_by_its_reciprocal(seed, t):
    assume(t != 0)
    cwp = random_cwp(random.Random(seed))
    s = cwp.curve.params.s
    scaled = rescale(cwp, t)
    assert scaled.curve.a == t ** s * cwp.curve.a and scaled.curve.b == t ** s * cwp.curve.b
    assert [q.y for q in scaled.points] == [t * p.y for p in cwp.points]
    assert rescale(scaled, 1 / t) == cwp


def test_rescale_refuses_zero_and_oversized_powers():
    cwp = CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), (AffinePoint(0, 1), AffinePoint(2, 3)))
    for t in (0, "0", Fraction(0)):
        with pytest.raises(ValueError, match="rescale needs t != 0"):
            rescale(cwp, t)
    huge = 3 ** (2 * digit_limit())  # t^2 would pass 4*L bits
    for t in (huge, Fraction(1, huge)):
        with pytest.raises(ValueError, match=r"t\^s exceeds \d+ digits"):
            rescale(cwp, t)
    assert rescale(cwp, 1) == cwp


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

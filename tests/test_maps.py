import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from superfiber.elkies import ELKIES
from superfiber.errors import DomainError
from superfiber.exact import digit_limit, normalize_projective, sth_root_exact
from superfiber.family import AffinePoint, Curve, CurveWithPoints, FamilyParams, rescale
from superfiber.fiber import Fiber, XCoordinates, canonical_fiber_point, fiber_contains
from superfiber.maps import (
    ConicSpec,
    CubicSpec,
    DiagonalCubicPoint,
    conic_param,
    cubic_to_diagonal,
    cwp_equivalent,
    diagonal_to_weierstrass,
    fermat_to_weierstrass,
    lift_quartic_parameter,
    phi_forward,
    phi_inverse,
)
from superfiber.search import SearchConfig, pair_height, search_fiber_points
from helpers_roundtrip import (chord_tangent_points, cubic_third_point, random_admissible_alphas,
                              random_cwp, random_rational)

# ---------------------------------------------------------------------------
# forward map


def test_phi_forward_example():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3), AffinePoint(-1, 0)))
    a_n, Y = phi_forward(cwp)
    assert a_n.alphas == (0, 2, -1)
    assert Y.coords == (1, 3, 0)
    assert fiber_contains(a_n, 2, Y.coords)
    # spec spot check: (-9)*1 + 1*9 + 8*0 = 0 on the single fiber equation


def test_phi_forward_constant_y_gives_unit_point():
    curve = Curve(FamilyParams(2, 2), 0, 9)  # non-smooth member, still mappable
    cwp = CurveWithPoints(curve, (AffinePoint(1, 3), AffinePoint(2, 3), AffinePoint(3, 3)))
    _, Y = phi_forward(cwp)
    assert Y.coords == (1, 1, 1)


def test_phi_forward_base_vanishing():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(-1, 0), AffinePoint(0, 1), AffinePoint(2, 3)))
    with pytest.raises(DomainError, match="forward map needs a first point with y != 0"):
        phi_forward(cwp)


def test_phi_forward_guard_reads_first_point_not_base_index():
    # the image [y_0 : ... : y_n] is in point order, so base_index plays no part
    curve = Curve(FamilyParams(3, 2), 1, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(-1, 0), AffinePoint(0, 1), AffinePoint(2, 3)), base_index=1)
    with pytest.raises(DomainError, match="forward map needs a first point with y != 0"):
        phi_forward(cwp)
    cwp = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(-1, 0), AffinePoint(2, 3)), base_index=1)
    a_n, Y = phi_forward(cwp)
    assert a_n.alphas == (0, -1, 2)
    assert Y.coords == (1, 0, 3)


def test_phi_forward_not_admissible():
    curve = Curve(FamilyParams(2, 2), 0, 1)
    cwp = CurveWithPoints(curve, (AffinePoint(1, 1), AffinePoint(-1, 1), AffinePoint(2, 1)))
    with pytest.raises(DomainError, match="x-coordinates must have pairwise distinct r-th powers"):
        phi_forward(cwp)


# ---------------------------------------------------------------------------
# inverse map


def test_phi_inverse_example():
    a_2 = XCoordinates([0, 2, -1], 3)
    cwp = phi_inverse(Fiber(a_2, 2), [1, 3, 0])
    assert cwp.curve == Curve(FamilyParams(3, 2), 1, 1)
    assert cwp.points == (AffinePoint(0, 1), AffinePoint(2, 3), AffinePoint(-1, 0))


def test_phi_inverse_trivial_point():
    a_2 = XCoordinates([0, 2, -1], 3)
    cwp = phi_inverse(Fiber(a_2, 2), [1, 1, 1])
    assert cwp.curve == Curve(FamilyParams(3, 2), 0, 1) and not cwp.curve.is_smooth
    assert cwp.points == (AffinePoint(0, 1), AffinePoint(2, 1), AffinePoint(-1, 1))


def test_phi_inverse_rejects_off_fiber_and_bad_dimension():
    a_2 = Fiber(XCoordinates([0, 1, 2], 2), 2)
    with pytest.raises(DomainError, match="point does not satisfy the fiber equations"):
        phi_inverse(a_2, [1, 1, 2])
    with pytest.raises(DomainError, match="expected 3 coordinates, got 4"):
        phi_inverse(a_2, [1, 1, 1, 1])


def test_phi_inverse_elkies_point_recovers_curve():
    a_16 = ELKIES.x_coordinates()
    cwp = phi_inverse(Fiber(a_16, 2), ELKIES.y_vector())
    assert cwp.curve == Curve(FamilyParams(3, 2), 1, ELKIES.b0)
    assert tuple((p.x, p.y) for p in cwp.points) == ELKIES.points


def test_phi_inverse_scaling_covariance():
    rng = random.Random(313)
    for _ in range(40):
        cwp = random_cwp(rng)
        s = cwp.curve.params.s
        a_n, Y = phi_forward(cwp)
        fiber = Fiber(a_n, s)
        base = phi_inverse(fiber, Y.coords)
        lam = random_rational(rng, 5, nonzero=True)
        scaled = phi_inverse(fiber, [lam * c for c in Y.coords])
        assert scaled.curve.a == lam ** s * base.curve.a
        assert scaled.curve.b == lam ** s * base.curve.b
        assert all(q.y == lam * p.y for p, q in zip(base.points, scaled.points))
        assert cwp_equivalent(base, scaled)


def test_phi_round_trip_raw_representative_scale():
    # on the unnormalized image the recovered data is exactly the
    # y_0^(s-1) rescaling of the input
    rng = random.Random(616)
    for _ in range(40):
        cwp = random_cwp(rng)
        r, s = cwp.curve.params.r, cwp.curve.params.s
        y0 = cwp.base.y
        raw = [p.y * y0 ** (s - 1) for p in cwp.points]
        a_n = XCoordinates([p.x for p in cwp.points], r)
        back = phi_inverse(Fiber(a_n, s), raw)
        lam = y0 ** (s * (s - 1))
        mu = y0 ** (s - 1)
        assert back.curve.a == lam * cwp.curve.a
        assert back.curve.b == lam * cwp.curve.b
        assert all(q.y == mu * p.y for p, q in zip(cwp.points, back.points))


# ---------------------------------------------------------------------------
# conic parameterization


def test_conic_param_examples():
    spec = ConicSpec(3, -1)
    assert conic_param(spec, 2).coords == (9, -1, 11)
    assert 3 * 81 - 1 - 2 * 121 == 0  # the identity the point satisfies
    assert conic_param(spec, 1) == normalize_projective([1, 1, 1])
    assert conic_param(spec, 0) == normalize_projective([-spec.beta, spec.beta, spec.beta])


def test_conic_param_degenerate_parameter():
    with pytest.raises(DomainError, match="parameter u=1 collapses to the zero vector"):
        conic_param(ConicSpec(1, -1), 1)


def test_conic_spec_validated():
    for alpha, beta in ((0, 1), (1, 0)):
        with pytest.raises(DomainError, match="conic coefficients alpha, beta must be nonzero"):
            ConicSpec(alpha, beta)


# ---------------------------------------------------------------------------
# cubic chains


def test_cubic_to_diagonal_symmetric_example():
    spec = CubicSpec(1, 1)
    dp = cubic_to_diagonal(spec, [1, 1, 1])
    assert (dp.U, dp.V, dp.W) == (9, 9, -9)
    assert dp.U ** 3 + dp.V ** 3 == spec.alpha * spec.beta * spec.gamma * dp.W ** 3
    assert dp.U - dp.V == 0  # alpha = beta forces a vanishing factor


def test_cubic_input_validation():
    spec = CubicSpec(8, -7)  # gamma = -1; [1 : 0 : 2] lies on the cubic
    with pytest.raises(DomainError, match=r"the map is defined only where X\*Y\*Z != 0"):
        cubic_to_diagonal(spec, [1, 0, 2])
    with pytest.raises(DomainError, match=r"\[1 : 1 : 2\] is not on the cubic"):
        cubic_to_diagonal(CubicSpec(1, 1), [1, 1, 2])
    with pytest.raises(DomainError, match=r"cubic points live in P\^2"):
        cubic_to_diagonal(spec, [1, 1])
    for alpha, beta, message in ((0, 1, "cubic coefficients alpha, beta must be nonzero"),
                                 (1, 0, "cubic coefficients alpha, beta must be nonzero"),
                                 (1, -1, r"alpha \+ beta must be nonzero \(gamma != 0\)")):
        with pytest.raises(DomainError, match=message):
            CubicSpec(alpha, beta)


def test_diagonal_to_weierstrass_refuses_u_plus_v_zero():
    with pytest.raises(DomainError, match=r"U \+ V must be nonzero"):
        diagonal_to_weierstrass(CubicSpec(1, 1), DiagonalCubicPoint(1, -1, 0))


def test_fermat_to_weierstrass_examples():
    wp = fermat_to_weierstrass(CubicSpec(1, 1), [1, 1, 1])
    assert (wp.T, wp.S, wp.discriminant_term) == (12, 0, 1728)
    assert wp.to_obj() == {"T": "12", "S": "0", "rhs_constant": "1728"}
    assert wp.on_curve()
    wp = fermat_to_weierstrass(CubicSpec(1, 2), [1, 1, 1])
    assert (wp.T, wp.S) == (28, -80)
    assert wp.discriminant_term == 432 * 4 * 9
    assert wp.on_curve()
    assert wp.to_obj() == {"T": "28", "S": "-80", "rhs_constant": "15552"}


# ---------------------------------------------------------------------------
# quartic model


def test_quartic_golden_coefficients():
    # golden values frozen from a symbolic expansion of
    # 9*Y_1(u)^2 - 8*Y_0(u)^2 for alphas (0, 1, 2, 3), r = 2
    q = (16, 80, -164, 60, 9)
    a_3 = XCoordinates([0, 1, 2, 3], 2)
    lifted = {}
    for u in {Fraction(num, den) for num in range(-30, 31) for den in range(1, 8)}:
        P = lift_quartic_parameter(Fiber(a_3, 2), u)
        square = sth_root_exact(sum(c * u ** k for k, c in enumerate(q)), 2) is not None
        assert (P is not None) == square, u
        if square:
            lifted[u] = P.coords
    # the signs are those of X(u), Y(u), Z(u) and v >= 0 before normalization
    assert lifted == {0: (1, -1, -1, 1), Fraction(2, 3): (0, 1, 2, -3), 1: (1, 1, 1, -1),
                      Fraction(4, 3): (1, 1, -1, -1), 2: (0, 1, -2, -3)}


def test_quartic_trivial_point_consistency():
    rng = random.Random(424)
    for _ in range(25):
        a_3 = random_admissible_alphas(rng, rng.randint(2, 4), 4)
        # u = 1 is the conic's distinguished point, which lifts to the trivial point
        P = lift_quartic_parameter(Fiber(a_3, 2), 1)
        assert canonical_fiber_point(P.coords, 2).coords == (1, 1, 1, 1)


def test_quartic_wrong_shape():
    with pytest.raises(DomainError, match="quartic model needs n = 3 and s = 2"):
        lift_quartic_parameter(Fiber(XCoordinates([0, 1, 2], 2), 2), 0)
    with pytest.raises(DomainError, match="quartic model needs n = 3 and s = 2"):
        lift_quartic_parameter(Fiber(XCoordinates([0, 1, 2, 3], 2), 3), 0)


def test_quartic_lift_round_trip():
    a_3 = XCoordinates([0, 1, 2, 3], 2)
    lifted = 0
    for num in range(-12, 13):
        for den in (1, 2, 3):
            P = lift_quartic_parameter(Fiber(a_3, 2), Fraction(num, den))
            if P is not None:
                assert fiber_contains(a_3, 2, P.coords)
                lifted += 1
    assert lifted >= 2  # u = 0 and u = 1 always lift here


def test_quartic_lift_none_when_not_square():
    a_3 = XCoordinates([0, 1, 2, 3], 2)
    assert lift_quartic_parameter(Fiber(a_3, 2), 3) is None  # q(3) = 1129 is not a square


# ---------------------------------------------------------------------------
# equivalence helper


def test_cwp_equivalent_detects_rescaling_only():
    curve = Curve(FamilyParams(3, 2), 1, 1)
    first = CurveWithPoints(curve, (AffinePoint(0, 1), AffinePoint(2, 3)))
    second = CurveWithPoints(Curve(FamilyParams(3, 2), 4, 4), (AffinePoint(0, 2), AffinePoint(2, 6)))
    third = CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), (AffinePoint(0, -1), AffinePoint(2, -3)))
    assert cwp_equivalent(first, second)  # t = 2
    assert cwp_equivalent(first, third)  # t = -1
    fourth = CurveWithPoints(Curve(FamilyParams(3, 2), 9, 9), (AffinePoint(0, 3), AffinePoint(2, -9)))
    assert not cwp_equivalent(first, fourth)  # mixed signs break one scale


def test_cwp_equivalent_rejects_each_difference():
    # y^2 = x^3 + 1 through (0, 1) and (2, 3); each pair differs in one respect
    first = CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), (AffinePoint(0, 1), AffinePoint(2, 3)))
    ends = (AffinePoint(0, 1), AffinePoint(-1, 0))  # on y^s = x^3 + 1 for every s
    cases = {
        "params": (CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), ends),
                   CurveWithPoints(Curve(FamilyParams(3, 3), 1, 1), ends)),
        "base index": (first, CurveWithPoints(first.curve, first.points, base_index=1)),
        "x-coordinates": (first, CurveWithPoints(first.curve, first.points[::-1])),
        # y^2 = 3x^3 + 4 is nonzero at x = -1, where y^2 = x^3 + 1 vanishes
        "zero pattern of y": (CurveWithPoints(Curve(FamilyParams(3, 2), 1, 1), ends),
                              CurveWithPoints(Curve(FamilyParams(3, 2), 3, 4),
                                              (AffinePoint(0, 2), AffinePoint(-1, 1)))),
        # t = 2 from the points, but a scales by 12, not t^2 = 4
        "coefficient scale": (first, CurveWithPoints(Curve(FamilyParams(3, 2), 12, 4),
                                                     (AffinePoint(0, 2), AffinePoint(2, 10)))),
        # t = 2 scales a and b by 4, but y_1 by -2
        "point scale": (first, CurveWithPoints(Curve(FamilyParams(3, 2), 4, 4),
                                               (AffinePoint(0, 2), AffinePoint(2, -6)))),
        # y^2 = x^3 - 125 through (5, 0), y^2 = x^3 - 121 through (5, 2): no t maps 0 to 2
        "every y of the first is 0": (
            CurveWithPoints(Curve(FamilyParams(3, 2), 1, -125), (AffinePoint(5, 0),)),
            CurveWithPoints(Curve(FamilyParams(3, 2), 1, -121), (AffinePoint(5, 2),))),
    }
    for name, (one, other) in cases.items():
        assert cwp_equivalent(one, one), name
        assert not cwp_equivalent(one, other), name


def test_cwp_equivalent_without_nonzero_y():
    # every y is 0, so only the coefficients carry the scale
    def at_five(a, b):
        return CurveWithPoints(Curve(FamilyParams(3, 2), a, b), (AffinePoint(5, 0),))

    assert cwp_equivalent(at_five(0, 0), at_five(0, 0))
    assert not cwp_equivalent(at_five(0, 0), at_five(1, -125))
    assert not cwp_equivalent(at_five(1, -125), at_five(0, 0))
    assert cwp_equivalent(at_five(1, -125), at_five(4, -500))  # 4 is a square
    assert not cwp_equivalent(at_five(1, -125), at_five(2, -250))


@given(seed=st.integers(0, 2 ** 32), t=st.fractions(min_value=-50, max_value=50, max_denominator=50))
def test_rescale_keeps_the_fiber_point_and_the_class(seed, t):
    assume(t != 0)
    cwp = random_cwp(random.Random(seed))
    scaled = rescale(cwp, t)
    assert phi_forward(scaled) == phi_forward(cwp)
    assert cwp_equivalent(cwp, scaled) and cwp_equivalent(scaled, cwp)


def test_cwp_equivalent_near_the_power_limit():
    # y^2 = a*x^2 + b through (0, 1), (1, 3^5000) against (0, 5^3500), (1, 1): the
    # y alone rule it out, where rescale would refuse the y^s of 3^5000 * 5^3500
    def r2s2(points):
        (_, y0), (_, y1) = points
        return CurveWithPoints(Curve(FamilyParams(2, 2), y1 ** 2 - y0 ** 2, y0 ** 2),
                               tuple(AffinePoint(x, y) for x, y in points))

    assert not cwp_equivalent(r2s2(((0, 1), (1, 3 ** 5000))), r2s2(((0, 5 ** 3500), (1, 1))))
    # one point each, scale t = A*B with t^2 past 4*L bits, which rescale refuses:
    # cwp_equivalent answers from the ratio [a : b] without forming t^2
    A, B = 2 ** (2 * digit_limit()), 3 ** (digit_limit() * 5 // 4)
    first = CurveWithPoints(Curve(FamilyParams(2, 2), 1, Fraction(1, A * A)),
                            (AffinePoint(0, Fraction(1, A)),))
    with pytest.raises(ValueError, match=r"t\^s exceeds"):
        rescale(first, A * B)
    other = CurveWithPoints(Curve(FamilyParams(2, 2), 7, B * B), (AffinePoint(0, B),))
    assert not cwp_equivalent(first, other) and not cwp_equivalent(other, first)
    scaled = CurveWithPoints(Curve(FamilyParams(2, 2), A * A * B * B, B * B), (AffinePoint(0, B),))
    assert cwp_equivalent(first, scaled) and cwp_equivalent(scaled, first)


# ---------------------------------------------------------------------------
# chord-and-tangent points on the s = 3 plane cubic


@pytest.mark.parametrize("alphas, regenerated", [((0, 2, 3), 15), ((1, 2, 4), 5), ((0, 4, -5), 8)])
def test_chord_tangent_points_lie_on_the_fiber_and_round_trip(alphas, regenerated):
    # three rounds from the H = 12 search points reach 60-86 digits, and
    # regenerate every point that the search finds at H = 300
    a_2 = XCoordinates(alphas, 3)
    fiber = Fiber(a_2, 3)
    eq = fiber.equations[0]
    points = chord_tangent_points((eq.c0, eq.c1, eq.ci),
                                  search_fiber_points(fiber, SearchConfig(12))[:12], 3)
    # at r = s the trivial points are [1 : 1 : 1] (a = 0) and [alphas] (b = 0)
    trivial = {normalize_projective([1, 1, 1]), normalize_projective(alphas)}
    for P in points:
        assert fiber_contains(a_2, 3, P.coords), P
        if 0 in P.coords:
            continue
        if P in trivial:
            assert not phi_inverse(fiber, P.coords).curve.is_smooth
        else:
            assert phi_forward(phi_inverse(fiber, P.coords)) == (a_2, P)
    low = {P for P in points if pair_height(P) <= 300}
    assert low <= set(search_fiber_points(fiber, SearchConfig(300)))
    assert len(low) == regenerated


def test_tangents_past_the_digit_rule_are_refused_at_once():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    fiber = Fiber(XCoordinates((0, 2, 3), 3), 3)
    eq = fiber.equations[0]
    P = normalize_projective([4, 2, -5])
    while 3 * (max(abs(y) for y in P.coords).bit_length() - 1) <= 4 * limit:
        P = cubic_third_point((eq.c0, eq.c1, eq.ci), P.coords, P.coords)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^Y\\^s exceeds {limit} digits$"):
        phi_inverse(fiber, P.coords)
    assert time.perf_counter() - start < 1

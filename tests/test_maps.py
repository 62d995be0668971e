import random
from fractions import Fraction

import pytest

from superfiber import (
    BasePointVanishing,
    ConicSpec,
    CubicSpec,
    CoordinateVanishing,
    CurveWithPoints,
    DegenerateParameter,
    DegenerateSpec,
    DiagonalCubicPoint,
    DimensionMismatch,
    ELKIES,
    NotAdmissible,
    NotOnCubic,
    NotOnFiber,
    TrivialPoint,
    WrongShape,
    conic_param,
    cubic_to_diagonal,
    cwp_equivalent,
    diagonal_to_weierstrass,
    fermat_to_weierstrass,
    fiber_contains,
    lift_quartic_parameter,
    make_curve,
    normalize_projective,
    phi_forward,
    phi_inverse,
    point,
    quadrics_to_quartic,
    quartic_value,
    x_coordinates,
)
from helpers_roundtrip import random_cwp, random_rational

# ---------------------------------------------------------------------------
# forward map


def test_phi_forward_example():
    curve = make_curve(3, 2, 1, 1)
    cwp = CurveWithPoints(curve, (point(0, 1), point(2, 3), point(-1, 0)))
    a_n, Y = phi_forward(cwp)
    assert a_n.alphas == (0, 2, -1)
    assert Y.coords == (1, 3, 0)
    assert fiber_contains(a_n, 2, Y.coords)
    # spec spot check: (-9)*1 + 1*9 + 8*0 = 0 on the single fiber equation


def test_phi_forward_constant_y_gives_unit_point():
    curve = make_curve(2, 2, 0, 9)  # non-smooth member, still mappable
    cwp = CurveWithPoints(curve, (point(1, 3), point(2, 3), point(3, 3)))
    _, Y = phi_forward(cwp)
    assert Y.coords == (1, 1, 1)


def test_phi_forward_base_vanishing():
    curve = make_curve(3, 2, 1, 1)
    cwp = CurveWithPoints(curve, (point(-1, 0), point(0, 1), point(2, 3)))
    with pytest.raises(BasePointVanishing):
        phi_forward(cwp)


def test_phi_forward_guard_reads_first_point_not_base_index():
    # the image [y_0 : ... : y_n] is in point order, so base_index plays no part
    curve = make_curve(3, 2, 1, 1)
    cwp = CurveWithPoints(curve, (point(-1, 0), point(0, 1), point(2, 3)), base_index=1)
    with pytest.raises(BasePointVanishing):
        phi_forward(cwp)
    cwp = CurveWithPoints(curve, (point(0, 1), point(-1, 0), point(2, 3)), base_index=1)
    a_n, Y = phi_forward(cwp)
    assert a_n.alphas == (0, -1, 2)
    assert Y.coords == (1, 0, 3)


def test_phi_forward_not_admissible():
    curve = make_curve(2, 2, 0, 1)
    cwp = CurveWithPoints(curve, (point(1, 1), point(-1, 1), point(2, 1)))
    with pytest.raises(NotAdmissible):
        phi_forward(cwp)


def test_phi_forward_image_always_on_fiber():
    rng = random.Random(911)
    for _ in range(60):
        cwp = random_cwp(rng)
        a_n, Y = phi_forward(cwp)
        assert fiber_contains(a_n, cwp.curve.params.s, Y.coords)


# ---------------------------------------------------------------------------
# inverse map


def test_phi_inverse_example():
    a_2 = x_coordinates([0, 2, -1], 3)
    cwp = phi_inverse(a_2, [1, 3, 0], 2)
    assert cwp.curve == make_curve(3, 2, 1, 1)
    assert cwp.points == (point(0, 1), point(2, 3), point(-1, 0))


def test_phi_inverse_trivial_point():
    a_2 = x_coordinates([0, 2, -1], 3)
    with pytest.raises(TrivialPoint) as err:
        phi_inverse(a_2, [1, 1, 1], 2)
    assert err.value.a == 0
    assert err.value.b == 1


def test_phi_inverse_rejects_off_fiber_and_bad_dimension():
    a_2 = x_coordinates([0, 1, 2], 2)
    with pytest.raises(NotOnFiber):
        phi_inverse(a_2, [1, 1, 2], 2)
    with pytest.raises(DimensionMismatch):
        phi_inverse(a_2, [1, 1, 1, 1], 2)


def test_phi_inverse_elkies_point_recovers_curve():
    a_16 = ELKIES.x_coordinates()
    cwp = phi_inverse(a_16, ELKIES.y_vector(), 2)
    assert cwp.curve == make_curve(3, 2, 1, ELKIES.b0)
    assert tuple((p.x, p.y) for p in cwp.points) == ELKIES.points


def test_phi_inverse_scaling_covariance():
    rng = random.Random(313)
    for _ in range(40):
        cwp = random_cwp(rng)
        s = cwp.curve.params.s
        a_n, Y = phi_forward(cwp)
        base = phi_inverse(a_n, Y.coords, s)
        lam = random_rational(rng, 5, nonzero=True)
        scaled = phi_inverse(a_n, [lam * c for c in Y.coords], s)
        assert scaled.curve.a == lam ** s * base.curve.a
        assert scaled.curve.b == lam ** s * base.curve.b
        assert all(q.y == lam * p.y for p, q in zip(base.points, scaled.points))
        assert cwp_equivalent(base, scaled)


def test_phi_round_trip_modulo_rescaling():
    rng = random.Random(515)
    for _ in range(60):
        cwp = random_cwp(rng)
        s = cwp.curve.params.s
        a_n, Y = phi_forward(cwp)
        back = phi_inverse(a_n, Y.coords, s)
        assert cwp_equivalent(cwp, back)


def test_phi_round_trip_raw_representative_scale():
    # on the unnormalized image the recovered data is exactly the
    # y_0^(s-1) rescaling of the input
    rng = random.Random(616)
    for _ in range(40):
        cwp = random_cwp(rng)
        r, s = cwp.curve.params.r, cwp.curve.params.s
        y0 = cwp.base.y
        raw = [p.y * y0 ** (s - 1) for p in cwp.points]
        a_n = x_coordinates([p.x for p in cwp.points], r)
        back = phi_inverse(a_n, raw, s)
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


def test_conic_param_identity_sweep_and_random():
    def check(alpha, beta, u):
        spec = ConicSpec(alpha, beta)
        P = conic_param(spec, u)
        X, Y, Z = P.fractions()
        assert spec.alpha * X ** 2 + spec.beta * Y ** 2 + spec.gamma * Z ** 2 == 0

    small = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    for alpha in small:
        for beta in small:
            if alpha == 0 or beta == 0:
                continue
            for u in (Fraction(0), Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
                if alpha + beta == 0 and u == 1:
                    continue
                check(alpha, beta, u)

    rng = random.Random(828)
    for _ in range(200):
        alpha = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
        beta = Fraction(-rng.randint(1, 10 ** 6), rng.randint(1, 1000))
        u = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        try:
            check(alpha, beta, u)
        except DegenerateParameter:
            continue


def test_conic_param_degenerate_parameter():
    with pytest.raises(DegenerateParameter):
        conic_param(ConicSpec(1, -1), 1)


def test_conic_spec_validated():
    for alpha, beta in ((0, 1), (1, 0)):
        with pytest.raises(DegenerateSpec):
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
    with pytest.raises(CoordinateVanishing):
        cubic_to_diagonal(spec, [1, 0, 2])
    with pytest.raises(NotOnCubic):
        cubic_to_diagonal(CubicSpec(1, 1), [1, 1, 2])
    for alpha, beta in ((0, 1), (1, 0), (1, -1)):  # alpha = 0, beta = 0, gamma = 0
        with pytest.raises(DegenerateSpec):
            CubicSpec(alpha, beta)


def test_diagonal_to_weierstrass_refuses_u_plus_v_zero():
    with pytest.raises(CoordinateVanishing):
        diagonal_to_weierstrass(CubicSpec(1, 1), DiagonalCubicPoint(1, -1, 0))


def random_cubic_instance(rng):
    # constraint-solving generator: alpha = (Y^3 - Z^3) t, beta = -(X^3 - Z^3) t
    while True:
        X = random_rational(rng, 9, nonzero=True)
        Y = random_rational(rng, 9, nonzero=True)
        Z = random_rational(rng, 9, nonzero=True)
        t = random_rational(rng, 9, nonzero=True)
        alpha = (Y ** 3 - Z ** 3) * t
        beta = -(X ** 3 - Z ** 3) * t
        if alpha == 0 or beta == 0 or alpha + beta == 0:
            continue
        return CubicSpec(alpha, beta), (X, Y, Z)


def test_fermat_cubic_chain_500_random():
    rng = random.Random(939)
    for _ in range(500):
        spec, P = random_cubic_instance(rng)
        assert spec.contains(P)
        dp = cubic_to_diagonal(spec, P)
        abc = spec.alpha * spec.beta * spec.gamma
        assert dp.U ** 3 + dp.V ** 3 == abc * dp.W ** 3
        wp = fermat_to_weierstrass(spec, P)
        assert wp.on_curve()
        assert wp.discriminant_term == 432 * spec.alpha ** 2 * spec.beta ** 2 * (spec.alpha + spec.beta) ** 2
        # chain consistency (U + V is never zero on the accepted domain)
        assert dp.U + dp.V != 0
        chained = diagonal_to_weierstrass(spec, dp)
        assert (chained.T, chained.S) == (wp.T, wp.S)


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
    a_3 = x_coordinates([0, 1, 2, 3], 2)
    assert quadrics_to_quartic(a_3) == (16, 80, -164, 60, 9)
    assert quartic_value(quadrics_to_quartic(a_3), 1) == 1


def test_quartic_trivial_point_consistency():
    rng = random.Random(424)
    from helpers_roundtrip import random_admissible_alphas
    from superfiber import fiber_equations

    for _ in range(25):
        a_3 = random_admissible_alphas(rng, rng.randint(2, 4), 4)
        coeffs = quadrics_to_quartic(a_3)
        eq2 = fiber_equations(a_3, 2)[0]
        # q(1) equals the squared Y_3 of the trivial point in this scale
        assert quartic_value(coeffs, 1) == Fraction(eq2.ci) ** 2
        assert coeffs[4] == Fraction(eq2.c0) ** 2


def test_quartic_wrong_shape():
    with pytest.raises(WrongShape):
        quadrics_to_quartic(x_coordinates([0, 1, 2], 2))


def test_quartic_lift_round_trip():
    a_3 = x_coordinates([0, 1, 2, 3], 2)
    lifted = 0
    for num in range(-12, 13):
        for den in (1, 2, 3):
            P = lift_quartic_parameter(a_3, Fraction(num, den))
            if P is not None:
                assert fiber_contains(a_3, 2, P.coords)
                lifted += 1
    assert lifted >= 2  # u = 0 and u = 1 always lift here


def test_quartic_lift_none_when_not_square():
    a_3 = x_coordinates([0, 1, 2, 3], 2)
    assert lift_quartic_parameter(a_3, 3) is None  # q(3) = 1129 is not a square


# ---------------------------------------------------------------------------
# equivalence helper


def test_cwp_equivalent_detects_rescaling_only():
    rng = random.Random(202)
    cwp = random_cwp(rng)
    from helpers_roundtrip import rescale

    other = rescale(cwp, rng)
    # x-rescaling changes the alphas, so equivalence compares them unequal
    if [p.x for p in other.points] == [p.x for p in cwp.points]:
        assert cwp_equivalent(cwp, other)
    curve = make_curve(3, 2, 1, 1)
    first = CurveWithPoints(curve, (point(0, 1), point(2, 3)))
    second = CurveWithPoints(make_curve(3, 2, 4, 4), (point(0, 2), point(2, 6)))
    third = CurveWithPoints(make_curve(3, 2, 1, 1), (point(0, -1), point(2, -3)))
    assert cwp_equivalent(first, second)  # t = 2
    assert cwp_equivalent(first, third)  # t = -1
    fourth = CurveWithPoints(make_curve(3, 2, 9, 9), (point(0, 3), point(2, -9)))
    assert not cwp_equivalent(first, fourth)  # mixed signs break one scale


def test_cwp_equivalent_rejects_each_difference():
    # y^2 = x^3 + 1 through (0, 1) and (2, 3); each pair differs in one respect
    first = CurveWithPoints(make_curve(3, 2, 1, 1), (point(0, 1), point(2, 3)))
    ends = (point(0, 1), point(-1, 0))  # on y^s = x^3 + 1 for every s
    cases = {
        "params": (CurveWithPoints(make_curve(3, 2, 1, 1), ends),
                   CurveWithPoints(make_curve(3, 3, 1, 1), ends)),
        "base index": (first, CurveWithPoints(first.curve, first.points, base_index=1)),
        "x-coordinates": (first, CurveWithPoints(first.curve, first.points[::-1])),
        # y^2 = 3x^3 + 4 is nonzero at x = -1, where y^2 = x^3 + 1 vanishes
        "zero pattern of y": (CurveWithPoints(make_curve(3, 2, 1, 1), ends),
                              CurveWithPoints(make_curve(3, 2, 3, 4),
                                              (point(0, 2), point(-1, 1)))),
        # t = 2 from the points, but a scales by 12, not t^2 = 4
        "coefficient scale": (first, CurveWithPoints(make_curve(3, 2, 12, 4),
                                                     (point(0, 2), point(2, 10)))),
        # t = 2 scales a and b by 4, but y_1 by -2
        "point scale": (first, CurveWithPoints(make_curve(3, 2, 4, 4),
                                               (point(0, 2), point(2, -6)))),
    }
    for name, (one, other) in cases.items():
        assert cwp_equivalent(one, one), name
        assert not cwp_equivalent(one, other), name


def test_cwp_equivalent_without_nonzero_y():
    # every y is 0, so only the coefficients carry the scale
    def at_five(a, b):
        return CurveWithPoints(make_curve(3, 2, a, b), (point(5, 0),))

    assert cwp_equivalent(at_five(0, 0), at_five(0, 0))
    assert not cwp_equivalent(at_five(0, 0), at_five(1, -125))
    assert not cwp_equivalent(at_five(1, -125), at_five(0, 0))
    assert cwp_equivalent(at_five(1, -125), at_five(4, -500))  # 4 is a square
    assert not cwp_equivalent(at_five(1, -125), at_five(2, -250))

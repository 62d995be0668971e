import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superfiber.elkies import ELKIES
from superfiber.errors import DomainError
from superfiber.exact import normalize_projective
from superfiber.fiber import (
    Fiber,
    XCoordinates,
    canonical_fiber_point,
    fiber_contains,
    fiber_equation_determinant,
    fiber_genus,
    gonality_lower_bound,
    lazarsfeld_bound,
    n0_threshold,
)
from superfiber.maps import phi_forward
from helpers_roundtrip import random_admissible_alphas, random_cwp, random_rational


def test_x_coordinates_validation():
    with pytest.raises(DomainError, match="x-coordinates must have pairwise distinct r-th powers"):
        XCoordinates([1, -1, 2], 2)
    assert XCoordinates([1, -1, 2], 3).rth_powers() == (1, -1, 8)  # odd r keeps the sign
    with pytest.raises(ValueError):
        XCoordinates([0, 1], 2)  # n >= 2 needed
    with pytest.raises(ValueError):
        XCoordinates([0, 1, 2], 1)


def test_rth_powers_are_the_exact_powers():
    for alphas, r in (([0, 4, -5, -6, 6], 3), ([Fraction(1, 2), 2, Fraction(-1, 3)], 2),
                      ([0, Fraction(1, 2), Fraction(3, 4)], 3), ([2, 3, 5], 7)):
        a_n = XCoordinates(alphas, r)
        powers = a_n.rth_powers()
        assert powers == tuple(Fraction(a) ** r for a in alphas)
        # integral powers are ints, so the search kernels stay in int arithmetic
        assert [type(w) for w in powers] == [int if Fraction(a).denominator == 1 else Fraction
                                             for a in alphas]


def test_stored_powers_leave_the_value_alone():
    ints = XCoordinates((0, 4, -5), 3)
    fractions = XCoordinates((Fraction(0), Fraction(4), Fraction(-5)), 3)
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert repr(ints) == repr(fractions) == (
        "XCoordinates(alphas=(Fraction(0, 1), Fraction(4, 1), Fraction(-5, 1)), r=3)")
    assert ints != XCoordinates([0, 4, -5], 5)


def test_canonical_equations_small_example():
    a_2 = XCoordinates([0, 1, 2], 2)
    eqs = Fiber(a_2, 2).equations
    assert len(eqs) == 1
    eq = eqs[0]
    assert (eq.i, eq.c0, eq.c1, eq.ci) == (2, 3, -4, 1)


def test_canonical_equations_have_gcd_1_and_ci_positive():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(2, 5)
        n = rng.randint(2, 5)
        a_n = random_admissible_alphas(rng, r, n + 1)
        s = rng.randint(2, 5)
        w = a_n.rth_powers()
        for eq in Fiber(a_n, s).equations:
            assert eq.c0 + eq.c1 + eq.ci == 0
            assert eq.ci > 0
            assert math.gcd(eq.c0, eq.c1, eq.ci) == 1
            # proportional to the raw power differences
            raw = (w[eq.i] - w[1], w[0] - w[eq.i], w[1] - w[0])
            assert eq.c0 * raw[1] == eq.c1 * raw[0]
            assert eq.c1 * raw[2] == eq.ci * raw[1]


def test_canonical_equations_clear_denominators():
    a_2 = XCoordinates([Fraction(1, 2), 0, 1], 2)
    eq = Fiber(a_2, 2).equations[0]
    # raw differences (1, -3/4, -1/4) scale to ci > 0, gcd 1
    assert (eq.c0, eq.c1, eq.ci) == (-4, 3, 1)


def test_elkies_equation_i2_canonical_and_raw():
    a_16 = Fiber(ELKIES.x_coordinates(), 2)
    eq2 = a_16.equations[0]
    A2, B2 = ELKIES.expected_equations[0]
    c = ELKIES.expected_c
    # the raw i = 2 row has content 8; the canonical equation divides it out
    g = 8
    assert (eq2.c0, eq2.c1, eq2.ci) == (B2 // g, -A2 // g, c // g)
    assert a_16.c == c
    assert a_16.pairs[0] == (A2, B2)


def test_solved_form_matches_embedded_table():
    a_16 = Fiber(ELKIES.x_coordinates(), 2)
    assert a_16.c == ELKIES.expected_c
    assert a_16.pairs == ELKIES.expected_equations
    for A, B in a_16.pairs:
        assert A - B == a_16.c


def test_determinant_vanishes_on_equal_columns():
    rng = random.Random(23)
    for _ in range(20):
        a_n = random_admissible_alphas(rng, rng.randint(2, 4), rng.randint(3, 6))
        ones = [1] * (a_n.n + 1)
        for i in range(2, a_n.n + 1):
            assert fiber_equation_determinant(Fiber(a_n, 2), i, ones) == 0


def test_determinant_small_example():
    a_2 = Fiber(XCoordinates([0, 1, 2], 2), 2)
    assert fiber_equation_determinant(a_2, 2, [1, 3, 0]) == -33


def test_determinant_index_validated():
    a_2 = XCoordinates([0, 1, 2], 2)
    with pytest.raises(ValueError):
        fiber_equation_determinant(Fiber(a_2, 2), 3, [1, 1, 1])
    with pytest.raises(ValueError):
        fiber_equation_determinant(Fiber(a_2, 1), 2, [1, 1, 1])


def test_fiber_contains():
    a_2 = XCoordinates([0, 1, 2], 2)
    assert fiber_contains(a_2, 2, [1, 1, 1])
    assert not fiber_contains(a_2, 2, [1, 1, 2])  # 3 - 4 + 4 = 3 != 0
    with pytest.raises(DomainError, match="expected 3 coordinates, got 4"):
        fiber_contains(a_2, 2, [1, 1, 1, 1])


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32), on_fiber=st.booleans(), height=st.sampled_from((1, 2, 9)))
def test_fiber_contains_is_every_determinant_vanishing(seed, on_fiber, height):
    # on-fiber draws are forward images; other draws have coordinates of
    # height <= `height`, and at height 1 they land on the fiber often
    rng = random.Random(seed)
    if on_fiber:
        cwp = random_cwp(rng)
        s = cwp.curve.params.s
        a_n, image = phi_forward(cwp)
        Y = image.coords
    else:
        s = rng.randint(2, 5)
        a_n = random_admissible_alphas(rng, rng.randint(2, 5), rng.randint(3, 6))
        Y = [random_rational(rng, height) for _ in range(a_n.n + 1)]
    fiber = Fiber(a_n, s)
    vanishing = all(fiber_equation_determinant(fiber, i, Y) == 0 for i in range(2, a_n.n + 1))
    assert fiber_contains(a_n, s, Y) == vanishing
    assert vanishing or not on_fiber


def test_fiber_genus_values():
    assert fiber_genus(3, 2) == 1
    assert fiber_genus(2, 3) == 1
    assert fiber_genus(2, 2) == 0
    assert fiber_genus(4, 2) == 5


def test_fiber_genus_at_least_two_exactly_outside_low_cases():
    low = {(2, 2), (2, 3), (3, 2)}  # (s, n)
    for s in range(2, 13):
        for n in range(2, 13):
            if (s, n) in low:
                assert fiber_genus(n, s) <= 1
            else:
                assert fiber_genus(n, s) >= 2


# ---------------------------------------------------------------------------
# Hasse-Weil: |p + 1 - #F_k(F_p)| <= 2g*sqrt(p) for the smooth reduction of
# each rung F_k (the fiber over alpha_0..alpha_k), a check that shares no code
# with fiber_genus


def _primes(bound: int) -> list[int]:
    return [p for p in range(2, bound) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def rung_point_counts(alphas, r: int, s: int, p: int):
    """#F_k(F_p) for k = 2..n, or None when p is bad: p divides s or the
    numerator or denominator of some w_i - w_j (w_i = alpha_i^r), where
    the reduction may be singular.  Every point has (Y_0, Y_1) != (0, 0),
    so the count is a sum over [Y_0 : Y_1] in P^1(F_p) of the product over
    i = 2..k of N_s(t_i) = #{y : y^s = t_i}, with t_i solving equation i,
    (w_i - w_1)*Y_0^s + (w_0 - w_i)*Y_1^s + (w_1 - w_0)*t_i = 0."""
    w = [Fraction(a) ** r for a in alphas]
    if s % p == 0 or any(d.numerator % p == 0 or d.denominator % p == 0
                         for d in (x - y for x, y in itertools.combinations(w, 2))):
        return None

    def mod(q):
        return q.numerator * pow(q.denominator, -1, p) % p

    roots = [0] * p  # N_s
    for y in range(p):
        roots[pow(y, s, p)] += 1
    pivot = pow(mod(w[1] - w[0]), -1, p)
    equations = [(mod(w[i] - w[1]) * pivot, mod(w[0] - w[i]) * pivot) for i in range(2, len(w))]
    counts = [0] * len(equations)
    for y0, y1 in [(0, 1)] + [(1, y) for y in range(p)]:
        z0, z1, term = pow(y0, s, p), pow(y1, s, p), 1
        for k, (c0, c1) in enumerate(equations):
            term *= roots[-(c0 * z0 + c1 * z1) % p]
            counts[k] += term
    return counts


def _weil_genus_lower_bounds(alphas, r: int, s: int, bound: int) -> list[int]:
    # per rung, the least g with (p + 1 - #F_k)^2 <= 4*g^2*p at every good p < bound
    lower = [0] * (len(alphas) - 2)
    for p in _primes(bound):
        for k, count in enumerate(rung_point_counts(alphas, r, s, p) or ()):
            a_p = p + 1 - count
            while 4 * p * lower[k] ** 2 < a_p * a_p:
                lower[k] += 1
    return lower


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5), r=st.integers(2, 4),
       s=st.sampled_from((2, 3)))
def test_rung_point_counts_keep_the_weil_bound_of_fiber_genus(seed, n, r, s):
    a_n = random_admissible_alphas(random.Random(seed), r, n + 1)
    bounds = _weil_genus_lower_bounds(a_n.alphas, r, s, 100)
    assert all(g <= fiber_genus(k, s) for k, g in enumerate(bounds, start=2))


def test_point_counts_alone_show_the_genus_rising_along_the_ladder():
    # max |a_p| / (2*sqrt(p)) over good p < 400: 0, 0.966, 2.965 on a_4;
    # 0, 0.949, 3.194; and 0.992, 5.077 (formula: 0, 1, 5 twice, then 1, 10).
    # A 0 says p + 1 points at every good p, as a smooth conic with a
    # rational point must have
    for alphas, r, s, lower in (((0, 4, -5, -6, 6), 3, 2, [0, 1, 3]),
                                ((1, 2, 7, -3, 4), 2, 2, [0, 1, 4]),
                                ((0, 2, 3, 5), 3, 3, [1, 6])):
        assert _weil_genus_lower_bounds(alphas, r, s, 400) == lower, alphas


def test_gonality_values():
    assert gonality_lower_bound(2, 2) == 1
    assert lazarsfeld_bound([2, 3, 4]) == 12
    assert lazarsfeld_bound([4, 2, 3]) == 12  # sorted internally
    with pytest.raises(ValueError):
        lazarsfeld_bound([1, 3])
    for n, s in ((1, 2), (2, 1)):
        with pytest.raises(ValueError):
            gonality_lower_bound(n, s)


def test_gonality_closed_form_is_lazarsfeld_bound():
    # n-1 hypersurfaces of degree s
    for n in range(2, 13):
        for s in range(2, 7):
            assert gonality_lower_bound(n, s) == lazarsfeld_bound([s] * (n - 1))


def test_n0_threshold():
    # the values at s = 2..10 are acceptance criterion 6
    with pytest.raises(ValueError):
        n0_threshold(1)


def test_alpha_r_is_refused_before_the_other_checks():
    # refused where alpha^r is formed, still ahead of the length and r checks
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    huge = 2 ** (4 * limit + 1)  # past 4*L bits already at r = 1
    for call in (lambda: XCoordinates((huge, 1, 2), 2), lambda: XCoordinates((huge,), 2),
                 lambda: XCoordinates((huge, 1, 2), 1)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == f"alpha^r exceeds {limit} digits"


def test_canonical_fiber_point():
    assert canonical_fiber_point([1, -3, 0], 2).coords == (1, 3, 0)
    assert canonical_fiber_point([-2, -6, 0], 2).coords == (1, 3, 0)
    assert canonical_fiber_point([1, -3, 0], 3).coords == (1, -3, 0)
    assert canonical_fiber_point([-1, 3, 0], 3).coords == (1, -3, 0)
    assert canonical_fiber_point([Fraction(1, 2), -1], 2) == normalize_projective([1, 2])


def test_xcoordinates_json_round_trip():
    a_n = XCoordinates([0, Fraction(1, 2), 2], 3)
    assert XCoordinates(**a_n.to_obj()) == a_n
    assert a_n.to_obj() == {"alphas": ["0", "1/2", "2"], "r": 3}

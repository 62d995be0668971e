"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from superfiber.elkies import ELKIES, verify_reproduction
from superfiber.exact import sth_root_exact
from superfiber.fiber import (
    XCoordinates,
    canonical_fiber_point,
    fiber_contains,
    fiber_equation_determinant,
    fiber_equations,
    fiber_genus,
    gonality_lower_bound,
    n0_threshold,
)
from superfiber.maps import (
    ConicSpec,
    conic_param,
    cubic_to_diagonal,
    cwp_equivalent,
    diagonal_to_weierstrass,
    fermat_to_weierstrass,
    phi_forward,
    phi_inverse,
)
from superfiber.search import cross_check
from helpers_roundtrip import (random_admissible_alphas, random_cubic_instance, random_cwp,
                              random_rational)


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_rank17_bit_exact_reproduction():
    started = time.perf_counter()
    report = verify_reproduction(ELKIES)
    assert report["ok"] is True, [f for c in report["checks"] for f in c["failures"]]
    assert [c["name"] for c in report["checks"]] == [
        "points_on_curve", "shared_coefficient_c", "equation_pairs", "y_vector_on_fiber",
        "fiber_genus"]
    assert all(c["passed"] and c["failures"] == [] for c in report["checks"])
    # the dict is what repro-elkies prints, keys in this order
    assert list(report) == ["ok", "checks"]
    assert all(list(c) == ["name", "passed", "failures"] for c in report["checks"])

    # the golden constant is anchored to the embedded table twice over:
    # c = alpha_1^3 - alpha_0^3 and c = A_i - B_i for every printed pair
    x0, x1 = ELKIES.points[0][0], ELKIES.points[1][0]
    assert ELKIES.expected_c == x1 ** 3 - x0 ** 3
    assert all(A - B == ELKIES.expected_c for A, B in ELKIES.expected_equations)
    assert fiber_genus(16, 2) == 212993
    _report(1, "rank-17 dataset reproduction, 5 exact checks", started, 1.0)


def test_criterion_2_genus_cross_validation():
    started = time.perf_counter()
    for s in range(2, 7):
        for n in range(2, 13):
            assert 2 * fiber_genus(n, s) - 2 == s ** (n - 1) * ((n - 1) * s - n - 1)
    _report(2, "genus formula vs complete-intersection formula", started, 1.0)


def test_criterion_3_identity_suites():
    started = time.perf_counter()
    rng = random.Random(20260810)

    # (a) conic parameterization identities: 1000 random draws, a sweep of
    # small coefficients at four parameters, and 200 draws of up to seven digits
    small = [Fraction(p, q) for p in range(-3, 4) if p for q in (1, 2, 3)]
    conics = [(alpha, beta, Fraction(u)) for alpha in small for beta in small
              for u in (0, 2, Fraction(-1, 2), Fraction(5, 3))]
    conics += [(random_rational(rng, 60, nonzero=True), random_rational(rng, 60, nonzero=True),
                random_rational(rng, 60)) for _ in range(1000)]
    conics += [(Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000)),
                Fraction(-rng.randint(1, 10 ** 6), rng.randint(1, 1000)),
                Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)))
               for _ in range(200)]
    for alpha, beta, u in conics:
        if alpha + beta == 0 and u == 1:  # the one parameter that collapses to zero
            continue
        spec = ConicSpec(alpha, beta)
        X, Y, Z = conic_param(spec, u).coords
        assert spec.alpha * X ** 2 + spec.beta * Y ** 2 + spec.gamma * Z ** 2 == 0

    # (b) 500 Fermat-cubic chains from the constraint-solving generator
    for _ in range(500):
        cubic, P = random_cubic_instance(rng)
        alpha, beta = cubic.alpha, cubic.beta
        assert cubic.contains(P)
        dp = cubic_to_diagonal(cubic, P)
        assert dp.U ** 3 + dp.V ** 3 == alpha * beta * cubic.gamma * dp.W ** 3
        wp = fermat_to_weierstrass(cubic, P)
        assert wp.discriminant_term == 432 * alpha ** 2 * beta ** 2 * (alpha + beta) ** 2
        assert wp.S ** 2 == wp.T ** 3 - wp.discriminant_term and wp.on_curve()
        # U + V is never zero on the accepted domain, so the chain is defined
        assert dp.U + dp.V != 0
        chained = diagonal_to_weierstrass(cubic, dp)
        assert (chained.T, chained.S) == (wp.T, wp.S)

    # (c) 200 random forward/inverse round trips, r, s <= 5, n <= 6
    for _ in range(200):
        cwp = random_cwp(rng)
        params = cwp.curve.params
        assert 2 <= params.r <= 5 and 2 <= params.s <= 5
        assert 2 <= len(cwp.points) - 1 <= 6
        a_n, image = phi_forward(cwp)
        back = phi_inverse(a_n, image.coords, params.s)
        assert cwp_equivalent(cwp, back)

    # (d) determinant form vs expanded form on 500 random evaluations
    for _ in range(500):
        r = rng.randint(2, 5)
        n = rng.randint(2, 5)
        s = rng.randint(2, 5)
        a_n = random_admissible_alphas(rng, r, n + 1)
        Ycoords = [random_rational(rng, 9) for _ in range(n + 1)]
        i = rng.randint(2, n)
        w = a_n.rth_powers()
        expanded = (
            (w[i] - w[1]) * Ycoords[0] ** s
            + (w[0] - w[i]) * Ycoords[1] ** s
            + (w[1] - w[0]) * Ycoords[i] ** s
        )
        assert fiber_equation_determinant(a_n, s, i, Ycoords) == expanded

    _report(3, "2496 conic + 500 cubic-chain + 200 round-trip + 500 determinant identities",
            started, 30.0)


def test_criterion_4_dual_enumeration_equivalence():
    started = time.perf_counter()

    a_2 = XCoordinates([0, 2, -1], 3)
    report = cross_check(a_2, 2, 2)
    assert report["ok"]
    (match,) = report["matched"]
    assert match["fiber_point"] == ["1", "3", "0"]
    assert [(c["a"], c["b"]) for c in match["curves"]] == [("1", "1")]
    assert (match["recovered_a"], match["recovered_b"]) == ("1", "1")
    assert report["trivial_points"] == [["1", "1", "1"]]
    assert report["cutoff_fiber_points"] == report["unmatched_curves"] \
        == report["unmatched_fiber_points"] == []

    rng = random.Random(41)
    for _ in range(10):
        a_4 = random_admissible_alphas(rng, 3, 5, height=5)
        outcome = cross_check(a_4, 2, 20)
        assert outcome["unmatched_curves"] == []
        assert outcome["unmatched_fiber_points"] == []
    _report(4, "exact bijection at H=2 plus 10 random a_4 cross-checks at H=20",
            started, 120.0)


def test_criterion_5_low_genus_infinitude_witness():
    started = time.perf_counter()
    a_2 = XCoordinates([0, 2, -1], 3)
    eq = fiber_equations(a_2, 2)[0]
    spec = ConicSpec(Fraction(eq.c0), Fraction(eq.c1))

    points = set()
    classes = set()
    for u in range(2, 102):  # u = 1 is the trivial point; 2..101 are not
        canonical = canonical_fiber_point(conic_param(spec, u).coords, 2)
        points.add(canonical)
        cwp = phi_inverse(a_2, canonical.coords, 2)
        assert cwp.curve.is_smooth
        for alpha in a_2.alphas:
            value = cwp.curve.a * alpha ** 3 + cwp.curve.b
            assert sth_root_exact(value, 2) is not None
        classes.add((cwp.curve.a, cwp.curve.b))

    assert len(points) == 100
    assert len(classes) == 100
    _report(5, "100 parameters give 100 distinct points and smooth curves", started, 10.0)


def test_criterion_6_trivial_point_and_thresholds():
    started = time.perf_counter()
    rng = random.Random(6)
    for _ in range(50):
        r = rng.randint(2, 5)
        n = rng.randint(2, 6)
        s = rng.randint(2, 5)
        a_n = random_admissible_alphas(rng, r, n + 1)
        assert fiber_contains(a_n, s, [1] * (n + 1))
        if s % 2 == 0:  # at even s the trivial point holds under any signs
            assert fiber_contains(a_n, s, [rng.choice((1, -1)) for _ in range(n + 1)])

    for s in range(2, 11):
        assert n0_threshold(s) == (4 if s == 2 else 3)

    assert gonality_lower_bound(16, 2) == 16384
    for s in (2, 3, 4):
        values = [gonality_lower_bound(n, s) for n in range(2, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] >= 2 ** 18
    _report(6, "trivial points and their signs, n0 thresholds, gonality growth", started, 5.0)

"""Seeded generators of valid curve-with-points data.

Curves in the family with three or more rational points at distinct,
admissible x-coordinates are exactly the rare objects the fiber curves
parameterize, so "random" instances have to be constructed rather than
sampled.  Each generator below produces exact witnesses:

  * conic fibers (s = 2, any r, n = 2) parameterized rationally;
  * tangent-chord points on diagonal-cubic fibers (s = 3, any r, n = 2);
  * squares in arithmetic progression, giving y^s = a*x^2 + b through
    (x_0, y_0), (x_1, -y_0), (x_2, 0) for any odd s, from the classical
    parameterization (m^2-2mn-n^2)^2, (m^2+n^2)^2, (m^2+2mn-n^2)^2;
  * two sporadic seeds for s = 4 (e.g. y^4 = 3x^2 - 27 through
    (-21, 6), (-6, 3), (-3, 0));
  * random subsets of the embedded rank-17 dataset (s = 2, r = 3,
    n up to 6);
  * chords and tangents on the plane cubic c0*Y_0^3 + c1*Y_1^3 + c2*Y_2^3
    = 0 (the s = 3, n = 2 fiber), reaching points far above any search
    height from a few small ones.

Every instance can further be rescaled by (a, b, y) -> (t^s a, t^s b, t y)
and (a, x) -> (a/m^r, m x), which keeps all invariants.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from superfiber.elkies import ELKIES
from superfiber.errors import DomainError
from superfiber.exact import normalize_projective
from superfiber.family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from superfiber.fiber import Fiber, XCoordinates
from superfiber.maps import ConicSpec, CubicSpec, conic_param, phi_inverse

S4_SEEDS = (
    (3, -27, ((-21, 6), (-6, 3), (-3, 0))),
    (3, -11, ((-37, 8), (-3, 2), (-2, 1))),
)


def random_rational(rng: random.Random, height: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value != 0 or not nonzero:
            return value


def random_admissible_alphas(rng: random.Random, r: int, count: int,
                             height: int = 6) -> XCoordinates:
    while True:
        values = []
        while len(values) < count:
            candidate = random_rational(rng, height)
            if candidate not in values:
                values.append(candidate)
        try:
            return XCoordinates(tuple(values), r)
        except DomainError:  # not admissible
            continue


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def admissible_x_coordinates(values=SMALL_FRACTIONS, max_size: int = 4):
    """A hypothesis strategy of admissible XCoordinates, n >= 2, by
    construction: r in {2, 3} first, then alphas unique by their r-th power."""
    return st.sampled_from((2, 3)).flatmap(
        lambda r: st.lists(values, min_size=3, max_size=max_size,
                           unique_by=lambda q: q ** r).map(lambda alphas: XCoordinates(alphas, r)))


def random_rescaling(cwp: CurveWithPoints, rng: random.Random) -> CurveWithPoints:
    """Random (t, m) rescaling; exercises coordinate growth without
    changing which fiber class the data represents."""
    r, s = cwp.curve.params.r, cwp.curve.params.s
    t = random_rational(rng, 4, nonzero=True)
    m = random_rational(rng, 4, nonzero=True)
    curve = Curve(FamilyParams(r, s), cwp.curve.a * t ** s / m ** r, cwp.curve.b * t ** s)
    pts = tuple(AffinePoint(m * p.x, t * p.y) for p in cwp.points)
    return CurveWithPoints(curve, pts, cwp.base_index)


def random_cubic_instance(rng: random.Random) -> tuple[CubicSpec, tuple[Fraction, ...]]:
    """A diagonal cubic alpha*X^3 + beta*Y^3 + gamma*Z^3 = 0 through a point
    with X*Y*Z != 0, by solving for the coefficients: alpha = (Y^3 - Z^3)*t,
    beta = -(X^3 - Z^3)*t."""
    while True:
        X, Y, Z, t = (random_rational(rng, 9, nonzero=True) for _ in range(4))
        alpha = (Y ** 3 - Z ** 3) * t
        beta = -(X ** 3 - Z ** 3) * t
        if alpha != 0 and beta != 0 and alpha + beta != 0:
            return CubicSpec(alpha, beta), (X, Y, Z)


def _inverse_of(a_n: XCoordinates, coords, s: int) -> CurveWithPoints | None:
    if coords[0] == 0:
        return None
    cwp = phi_inverse(Fiber(a_n, s), coords)
    return cwp if cwp.curve.is_smooth else None


def conic_cwp(rng: random.Random, r: int | None = None) -> CurveWithPoints:
    """s = 2, n = 2: rational point on the conic fiber, pulled back."""
    r = r or rng.randint(2, 5)
    while True:
        a_2 = random_admissible_alphas(rng, r, 3)
        eq = Fiber(a_2, 2).equations[0]
        spec = ConicSpec(Fraction(eq.c0), Fraction(eq.c1))
        for _ in range(12):
            u = random_rational(rng, 9)
            try:
                P = conic_param(spec, u)
            except Exception:
                continue
            cwp = _inverse_of(a_2, P.coords, 2)
            if cwp is not None:
                return cwp


def cubic_tangent_cwp(rng: random.Random, r: int | None = None) -> CurveWithPoints:
    """s = 3, n = 2: third intersection of the tangent at [1:1:1]."""
    r = r or rng.randint(2, 5)
    while True:
        a_2 = random_admissible_alphas(rng, r, 3)
        eq = Fiber(a_2, 3).equations[0]
        c = (Fraction(eq.c0), Fraction(eq.c1), Fraction(eq.ci))
        directions = ((c[1], -c[0], 0), (c[2], 0, -c[0]), (0, c[2], -c[1]))
        for D in directions:
            quad = sum(cj * dj * dj for cj, dj in zip(c, D))
            cubic = sum(cj * dj ** 3 for cj, dj in zip(c, D))
            if cubic == 0:
                continue
            lam = Fraction(-3) * quad / cubic
            Q = [1 + lam * d for d in D]
            if all(v == 0 for v in Q):
                continue
            assert sum(cj * qj ** 3 for cj, qj in zip(c, Q)) == 0
            cwp = _inverse_of(a_2, Q, 3)
            if cwp is not None:
                return cwp


def ap_squares_cwp(rng: random.Random, s: int) -> CurveWithPoints:
    """Odd s, r = 2: squares in arithmetic progression w_1 + w_0 = 2*w_2
    give a*w_i + b running through {y_0^s, -y_0^s, 0}."""
    assert s % 2 == 1
    m = rng.randint(2, 9)
    n = rng.randint(1, m - 1)
    x0, x1, x2 = m * m - 2 * m * n - n * n, m * m + 2 * m * n - n * n, m * m + n * n
    y0 = random_rational(rng, 6, nonzero=True)
    a = Fraction(y0 ** s, x0 * x0 - x2 * x2)
    b = -a * x2 * x2
    curve = Curve(FamilyParams(2, s), a, b)
    pts = (AffinePoint(x0, y0), AffinePoint(x1, -y0), AffinePoint(x2, 0))
    return CurveWithPoints(curve, pts, 0)


def ap_squares_n3_cwp(rng: random.Random) -> CurveWithPoints:
    """s = 3, r = 2, n = 3: the (1, 7, 5) progression extended by the
    fourth point (10/3, 5*y_0/6)."""
    y0 = random_rational(rng, 6, nonzero=True)
    a = Fraction(-y0 ** 3, 24)
    b = -a * 25
    curve = Curve(FamilyParams(2, 3), a, b)
    pts = (
        AffinePoint(1, y0),
        AffinePoint(7, -y0),
        AffinePoint(5, 0),
        AffinePoint(Fraction(10, 3), Fraction(5, 6) * y0),
    )
    return CurveWithPoints(curve, pts, 0)


def quartic_seed_cwp(rng: random.Random) -> CurveWithPoints:
    """s = 4, r = 2: sporadic integer seeds."""
    a, b, pts = S4_SEEDS[rng.randrange(len(S4_SEEDS))]
    curve = Curve(FamilyParams(2, 4), a, b)
    return CurveWithPoints(curve, tuple(AffinePoint(x, y) for x, y in pts), 0)


def elkies_subset_cwp(rng: random.Random, max_n: int = 6) -> CurveWithPoints:
    """s = 2, r = 3, n in 2..max_n: subsets of the rank-17 point list."""
    k = rng.randint(3, max_n + 1)
    indices = sorted(rng.sample(range(len(ELKIES.points)), k))
    curve = Curve(FamilyParams(3, 2), 1, ELKIES.b0)
    pts = tuple(AffinePoint(*ELKIES.points[i]) for i in indices)
    return CurveWithPoints(curve, pts, 0)


FAMILIES = (
    lambda rng: conic_cwp(rng),
    lambda rng: cubic_tangent_cwp(rng),
    lambda rng: ap_squares_cwp(rng, 3),
    lambda rng: ap_squares_cwp(rng, 5),
    lambda rng: ap_squares_n3_cwp(rng),
    lambda rng: quartic_seed_cwp(rng),
    lambda rng: elkies_subset_cwp(rng),
)


def random_cwp(rng: random.Random) -> CurveWithPoints:
    """A random valid instance with base y != 0, randomly rescaled."""
    cwp = FAMILIES[rng.randrange(len(FAMILIES))](rng)
    if rng.random() < 0.75:
        cwp = random_rescaling(cwp, rng)
    assert cwp.base.y != 0
    return cwp


def cubic_third_point(c, P, Q):
    """The third point where the line PQ (the tangent at P when Q = P) meets
    c0*Y_0^3 + c1*Y_1^3 + c2*Y_2^3 = 0, by Vieta on the cubic in t along
    P + t*D: its roots are 0, the known root (1 at Q, 0 again on the
    tangent) and the third, or D itself when the t^3 term vanishes."""
    if P == Q:  # D = grad(P) x P lies on the tangent and is not a multiple of P
        g = [ci * y * y for ci, y in zip(c, P)]
        D = (g[1] * P[2] - g[2] * P[1], g[2] * P[0] - g[0] * P[2], g[0] * P[1] - g[1] * P[0])
        known = 0
    else:
        D, known = [q - p for p, q in zip(P, Q)], 1
    cubic = sum(ci * d ** 3 for ci, d in zip(c, D))
    if cubic == 0:
        return normalize_projective(D)
    t = Fraction(-3 * sum(ci * p * d * d for ci, p, d in zip(c, P, D)), cubic) - known
    return normalize_projective([p + t * d for p, d in zip(P, D)])


def chord_tangent_points(c, seeds, rounds: int) -> set:
    """The seeds and what `rounds` rounds of chords and tangents add: each
    round takes the third point of every pair of the points so far."""
    points = set(seeds)
    for _ in range(rounds):
        pairs = itertools.combinations_with_replacement(sorted(p.coords for p in points), 2)
        points |= {cubic_third_point(c, P, Q) for P, Q in pairs}
    return points

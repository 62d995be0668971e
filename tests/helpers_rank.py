"""Rank lower bounds for Mordell curves y^2 = x^3 + k by the Kummer map mod p.

Let p be a prime with p not dividing 6k, and theta a root of x^3 + k mod p.
Then P -> x(P) - theta, or 3*theta^2 (the derivative of x^3 + k at theta)
when x(P) = theta, is a homomorphism from E(F_p) to F_p^*/F_p^*2
(Silverman, The Arithmetic of Elliptic Curves, ch. X).  Composed with
reduction mod p it kills 2E(Q).  So the Legendre symbols of these values,
over several (p, theta), form an F_2 matrix whose rank d is a lower bound
on the dimension of the points' image in E(Q)/2E(Q).  That dimension is
at most the rank of the subgroup they generate plus dim E(Q)[2], which is
1 when k is a cube (x^3 + c^3 has the one rational root -c) and 0 when it
is not.  A prime that divides the denominator of some x(P) is skipped.

The s = 2 genus-1 rung F_3, of four alphas with r-th powers w_i, is not a
Mordell curve.  With d_i = w_i - w_0 and z = a/Y_0^2 (a as phi_inverse
recovers it), a point with Y_0 != 0 has 1 + d_i*z = (Y_i/Y_0)^2, so
pi(P) = (d1*d2*d3*z, d1*d2*d3*Y_1*Y_2*Y_3/Y_0^3) lies on
E: y^2 = (x - e_1)(x - e_2)(x - e_3), e_i = -d_j*d_k, with full rational
2-torsion.  pi is a 2-covering: x(pi(P)) - e_i = d_j*d_k*(Y_i/Y_0)^2 has
one square class for every P, so pi(P) - T lies in 2E(Q), T = pi([1:...:1])
= (0, d1*d2*d3), and only its halves carry rank.  The 2-descent map
E(Q)/2E(Q) -> (Q*/Q*^2)^2, P -> (x - e_1, x - e_2), is injective (same
chapter); its Legendre symbols mod p, over primes where every value is a
p-unit, with a column per point and one per 2-torsion point, have an
F_2-rank at most the rank plus 2.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from superfiber.exact import sth_root_exact


def _primes(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def kummer_rows(k: int, points, bound: int) -> list[int]:
    """One row per (p, theta) with p <= bound: bit j is set when the value
    of point j is a non-square mod p."""
    xs = [Fraction(x) for x, _ in points]
    rows = []
    for p in _primes(bound):
        if (6 * k) % p == 0 or any(x.denominator % p == 0 for x in xs):
            continue
        for theta in (t for t in range(p) if (t ** 3 + k) % p == 0):
            row = 0
            for j, x in enumerate(xs):
                value = (x.numerator * pow(x.denominator, -1, p) - theta) % p or 3 * theta * theta
                if pow(value, (p - 1) // 2, p) == p - 1:
                    row |= 1 << j
            rows.append(row)
    return rows


def f2_rank(rows) -> int:
    """The rank over F_2 of rows given as bit masks."""
    pivots = {}  # leading bit -> row
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def certified_rank(k: int, points, bound: int) -> int:
    """A lower bound on the rank of the subgroup that points generate on
    y^2 = x^3 + k, from the primes p <= bound."""
    cube = sth_root_exact(k, 3) is not None
    return max(f2_rank(kummer_rows(k, points, bound)) - cube, 0)


def add(P, Q, curve):
    """P + Q on y^2 = x^3 + a2*x^2 + a4*x + a6, curve = (a2, a4, a6), by the
    chord and tangent law in Fractions; None is the point at infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    a2, a4, _ = curve
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y1 == -y2:
        return None
    if P == Q:
        slope = Fraction(3 * x1 * x1 + 2 * a2 * x1 + a4) / (2 * y1)
    else:
        slope = Fraction(y2 - y1) / (x2 - x1)
    x3 = slope * slope - a2 - x1 - x2
    return x3, slope * (x1 - x3) - y1


def combination(coefficients, points, curve):
    """sum(c_j * P_j), by repeated addition."""
    total = None
    for c, (x, y) in zip(coefficients, points):
        for _ in range(abs(c)):
            total = add(total, (x, y if c > 0 else -y), curve)
    return total


def rung_roots(w):
    """(e_1, e_2, e_3) of the curve E that the rung F_3 of r-th powers w
    2-covers, e_i = -d_j*d_k."""
    d1, d2, d3 = (w[i] - w[0] for i in (1, 2, 3))
    return -d2 * d3, -d1 * d3, -d1 * d2


def rung_image(w, Y, a):
    """pi(P) on E for the point Y of F_3 with Y_0 != 0 that recovers a."""
    d = (w[1] - w[0]) * (w[2] - w[0]) * (w[3] - w[0])
    return d * Fraction(a, Y[0] ** 2), d * Fraction(Y[1] * Y[2] * Y[3], Y[0] ** 3)


def cubic(roots):
    """(a2, a4, a6) of y^2 = (x - e_1)(x - e_2)(x - e_3)."""
    e1, e2, e3 = roots
    return -(e1 + e2 + e3), e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3


def halve(Q, roots):
    """An R with 2R = Q on y^2 = (x - e_1)(x - e_2)(x - e_3), or None when Q
    is not in 2E(Q).  If x(Q) - e_i = r_i^2, then for some signs of the r_i
    x(R) = x(Q) + r_1*r_2 + r_1*r_3 + r_2*r_3; each candidate is doubled back."""
    rs = [sth_root_exact(Q[0] - e, 2) for e in roots]
    if None in rs:
        return None
    for s2, s3 in itertools.product((1, -1), repeat=2):
        r1, r2, r3 = rs[0], s2 * rs[1], s3 * rs[2]
        x = Q[0] + r1 * r2 + r1 * r3 + r2 * r3
        y = sth_root_exact((x - roots[0]) * (x - roots[1]) * (x - roots[2]), 2)
        if y is None:
            continue
        for R in ((x, y), (x, -y)):
            if add(R, R, cubic(roots)) == Q:
                return R
    return None


def descent_rows(roots, points, bound: int) -> list[int]:
    """One row per odd prime p <= bound at which every value is a p-unit, and
    per i in (1, 2): bit j is set when the i-th value of point j is a
    non-square mod p.  That value is x - e_i, or at x = e_i the product of
    e_i minus each other root."""
    values = []
    for x, _ in points:
        pair = []
        for i in (0, 1):
            others = [e for t, e in enumerate(roots) if t != i]
            pair.append(Fraction(x - roots[i] if x != roots[i]
                                 else (roots[i] - others[0]) * (roots[i] - others[1])))
        values.append(pair)
    rows = []
    for p in _primes(bound)[1:]:
        if any(v.numerator * v.denominator % p == 0 for pair in values for v in pair):
            continue
        for i in (0, 1):
            rows.append(sum(1 << j for j, pair in enumerate(values)
                            if pow(pair[i].numerator * pair[i].denominator % p,
                                   (p - 1) // 2, p) == p - 1))
    return rows


def descent_rank(roots, points, bound: int) -> int:
    """A lower bound on the rank of y^2 = (x - e_1)(x - e_2)(x - e_3), from
    points and the 2-torsion at the primes p <= bound."""
    torsion = [(roots[0], 0), (roots[1], 0)]
    return max(f2_rank(descent_rows(roots, [*points, *torsion], bound)) - 2, 0)

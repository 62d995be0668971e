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
"""

from __future__ import annotations

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


def add(P, Q, k: int):
    """P + Q on y^2 = x^3 + k by the chord and tangent law, in Fractions;
    None is the point at infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y1 == -y2:
        return None
    slope = Fraction(3 * x1 * x1, 2 * y1) if P == Q else Fraction(y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return x3, slope * (x1 - x3) - y1


def combination(coefficients, points, k: int):
    """sum(c_j * P_j), by repeated addition."""
    total = None
    for c, (x, y) in zip(coefficients, points):
        for _ in range(abs(c)):
            total = add(total, (x, y if c > 0 else -y), k)
    return total

"""The two-exponent curve family y^s = a*x^r + b and its twists.

A member is determined by exponents (r, s) and rational coefficients
(a, b); it is smooth exactly when a*b != 0.  Twisting by a marked point
(x_0, y_0) with y_0 != 0 produces the curve

    (a*x_0^r + b) * y^s = a*x^r + b

on which the marked point becomes (x_0, 1) and every other point
(x_i, y_i) becomes (x_i, y_i/y_0).
"""

from __future__ import annotations

from math import gcd

from .errors import BasePointVanishing, PointNotOnCurve, PointNotOnTwist
from .exact import Rational, rational_str, record, refuse_power


@record
class FamilyParams:
    """Exponent pair (r, s), both at least 2."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 2 or self.s < 2:
            raise ValueError(f"exponents must be >= 2, got r={self.r}, s={self.s}")


@record
class Curve:
    params: FamilyParams
    a: Rational
    b: Rational

    @property
    def is_smooth(self) -> bool:
        return self.a != 0 and self.b != 0

    def rhs(self, x: Rational) -> Rational:
        return self.a * x ** self.params.r + self.b

    def to_obj(self) -> dict:
        return {
            "r": self.params.r,
            "s": self.params.s,
            "a": rational_str(self.a),
            "b": rational_str(self.b),
        }

    @staticmethod
    def from_obj(obj: dict) -> "Curve":
        return Curve(FamilyParams(obj["r"], obj["s"]), obj["a"], obj["b"])


@record
class AffinePoint:
    x: Rational
    y: Rational

    def to_obj(self) -> dict:
        return {"x": rational_str(self.x), "y": rational_str(self.y)}

    @staticmethod
    def from_obj(obj: dict) -> "AffinePoint":
        return AffinePoint(obj["x"], obj["y"])


def contains_point(curve: Curve, p: AffinePoint) -> bool:
    """Exact membership test: p.y^s == a*p.x^r + b."""
    return p.y ** curve.params.s == curve.rhs(p.x)


@record
class CurveWithPoints:
    """A family member plus an ordered list of points on it.

    Invariants enforced here: each point's x^r and y^s pass
    exact.refuse_power (first), the x-coordinates are mutually distinct
    and every point satisfies the curve equation.  The base point (which
    must have y != 0 for twisting and for the forward map) is checked by
    the operations that need it, so data with a vanishing base y is kept.
    """

    curve: Curve
    points: tuple[AffinePoint, ...]
    base_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        for i, p in enumerate(self.points):
            refuse_power([p.x], self.curve.params.r, f"point {i}: x^r or y^s")
            refuse_power([p.y], self.curve.params.s, f"point {i}: x^r or y^s")
        if not self.points:
            raise ValueError("need at least one point")
        if not 0 <= self.base_index < len(self.points):
            raise ValueError(f"base_index {self.base_index} out of range")
        xs = [p.x for p in self.points]
        if len(set(xs)) != len(xs):
            raise ValueError("x-coordinates must be mutually distinct")
        for i, p in enumerate(self.points):
            if not contains_point(self.curve, p):
                raise PointNotOnCurve(f"point {i} ({p.x}, {p.y}) is not on the curve")

    @property
    def base(self) -> AffinePoint:
        return self.points[self.base_index]

    def to_obj(self) -> dict:
        return {
            "curve": self.curve.to_obj(),
            "points": [p.to_obj() for p in self.points],
            "base_index": self.base_index,
        }

    @staticmethod
    def from_obj(obj: dict) -> "CurveWithPoints":
        return CurveWithPoints(
            Curve.from_obj(obj["curve"]),
            tuple(AffinePoint.from_obj(p) for p in obj["points"]),
            obj.get("base_index", 0),
        )


def curve_genus(params: FamilyParams) -> int:
    """Genus of a smooth member: ((r-1)(s-1) + 1 - gcd(r, s)) / 2."""
    r, s = params.r, params.s
    num = (r - 1) * (s - 1) + 1 - gcd(r, s)
    if num % 2:
        raise AssertionError("superelliptic genus formula produced a half-integer")
    return num // 2


@record
class TwistedCurve:
    """The twist c0*y^s = a*x^r + b by a base point with c0 = a*x_0^r + b."""

    params: FamilyParams
    c0: Rational
    a: Rational
    b: Rational
    base: AffinePoint

    def contains_point(self, p: AffinePoint) -> bool:
        return self.c0 * p.y ** self.params.s == self.a * p.x ** self.params.r + self.b

    def to_obj(self) -> dict:
        return {
            "r": self.params.r,
            "s": self.params.s,
            "c0": rational_str(self.c0),
            "a": rational_str(self.a),
            "b": rational_str(self.b),
            "base": self.base.to_obj(),
        }


def twist_curve(cwp: CurveWithPoints) -> TwistedCurve:
    """Twist the curve by its base point; requires base y != 0."""
    base = cwp.base
    if base.y == 0:
        raise BasePointVanishing(f"base point ({base.x}, 0) cannot define a twist")
    c0 = cwp.curve.rhs(base.x)
    # c0 = y_0^s, nonzero exactly when y_0 is
    return TwistedCurve(cwp.curve.params, c0, cwp.curve.a, cwp.curve.b, base)


def twist_points(cwp: CurveWithPoints) -> list[AffinePoint]:
    """Images of the points on the twist: (x_i, y_i / y_0), base becomes (x_0, 1)."""
    base = cwp.base
    if base.y == 0:
        raise BasePointVanishing(f"base point ({base.x}, 0) cannot define a twist")
    return [AffinePoint(p.x, p.y / base.y) for p in cwp.points]


def untwist_point(tc: TwistedCurve, p: AffinePoint) -> AffinePoint:
    """Send a point on the twist back to the original curve: (x, y) -> (x, y_0 * y)."""
    if not tc.contains_point(p):
        raise PointNotOnTwist(f"({p.x}, {p.y}) does not satisfy c0*y^s = a*x^r + b")
    return AffinePoint(p.x, tc.base.y * p.y)

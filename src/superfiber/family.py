"""The two-exponent curve family y^s = a*x^r + b.

A member is determined by exponents (r, s) and rational coefficients
(a, b); it is smooth exactly when a*b != 0.  Members with points are
counted up to the rescaling (a, b, y) ~ (t^s*a, t^s*b, t*y), t != 0,
which rescale forms.  The twist by a base point (x_0, y_0), y_0 != 0,
is c0*y^s = a*x^r + b with c0 = y_0^s, carrying the points of rescale
by 1/y_0; rescale by y_0 is its inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError
from .exact import RationalLike, printed, rational, record, refuse_power


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
    a: Fraction
    b: Fraction

    @property
    def is_smooth(self) -> bool:
        return self.a != 0 and self.b != 0

    def rhs(self, x: Fraction) -> Fraction:
        return self.a * x ** self.params.r + self.b

    def to_obj(self) -> dict:
        a, b = printed((self.a, self.b), "curve a or b")
        return {"r": self.params.r, "s": self.params.s, "a": a, "b": b}

    @staticmethod
    def from_obj(obj: dict) -> "Curve":
        return Curve(FamilyParams(obj["r"], obj["s"]), obj["a"], obj["b"])


@record
class AffinePoint:
    x: Fraction
    y: Fraction

    def to_obj(self) -> dict:
        x, y = printed((self.x, self.y), "point")
        return {"x": x, "y": y}

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
    exact.refuse_power (first; rescale's y may not), the x-coordinates are
    mutually distinct and every point satisfies the curve equation.  The
    base point (y != 0 for twisting and for the forward map) is checked by
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
                raise DomainError(f"point {i} ({p.x}, {p.y}) is not on the curve")

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
    return ((r - 1) * (s - 1) + 1 - gcd(r, s)) // 2


def rescale(cwp: CurveWithPoints, t: RationalLike) -> CurveWithPoints:
    """The member (t^s*a, t^s*b) with points (x_i, t*y_i), whose fiber point
    is cwp's; refuses t = 0, then a t^s past refuse_power's limit.  The digit
    rule is not applied again: a t*y_i, such as a twisted y_i/y_0, may exceed
    it where t and y_i met it."""
    t = rational(t)
    if t == 0:
        raise ValueError("rescale needs t != 0")
    params, a, b = cwp.curve.params, cwp.curve.a, cwp.curve.b
    refuse_power([t], params.s, "t^s")
    ts = t ** params.s
    scaled = object.__new__(CurveWithPoints)  # cwp's checks hold for it, and are not run
    scaled.__dict__.update(curve=Curve(params, ts * a, ts * b), base_index=cwp.base_index,
                           points=tuple(AffinePoint(p.x, t * p.y) for p in cwp.points))
    return scaled


def twist(cwp: CurveWithPoints) -> dict:
    """The twist c0*y^s = a*x^r + b by the base point, c0 = y_0^s, with the
    points of rescale(cwp, 1/y_0), as the twist command prints it."""
    base = cwp.base
    if base.y == 0:
        raise DomainError(f"base point ({base.x}, 0) cannot define a twist")
    curve, s = cwp.curve, cwp.curve.params.s
    c0, a, b = printed((base.y ** s, curve.a, curve.b), "twist c0, a or b")
    return {"twist": {"r": curve.params.r, "s": s, "c0": c0, "a": a, "b": b, "base": base.to_obj()},
            "points": [p.to_obj() for p in rescale(cwp, 1 / base.y).points]}

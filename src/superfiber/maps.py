"""Explicit maps between curves-with-points and fiber points.

The forward map sends a family member with points (P_0, ..., P_n),
base y_0 != 0, to its x-coordinates together with the fiber point

    [a*x_0^r + b : y_1*y_0^(s-1) : ... : y_n*y_0^(s-1)]
      ~ [y_0 : y_1 : ... : y_n].

The inverse recovers, from an admissible tuple and a fiber point,

    a = (Y_1^s - Y_0^s) / (w_1 - w_0),
    b = (w_1*Y_0^s - w_0*Y_1^s) / (w_1 - w_0),      w_i = alpha_i^r,

with points (alpha_i, Y_i); then a*alpha_i^r + b = Y_i^s holds for every
i exactly because Y lies on the fiber.  Composing the two is the
identity modulo the rescaling (a, b, y) ~ (t^s*a, t^s*b, t*y).

Fiber points with recovered a*b = 0 are the trivial ones; the inverse
map rejects them with a TrivialPoint error carrying (a, b).

Low-dimensional fibers admit classical models, implemented here as
well: a rational parameterization of sum-zero conics, the map from a
diagonal plane cubic with coefficient sum zero to U^3 + V^3 = abc*W^3,
its Weierstrass model S^2 = T^3 - 432*a^2*b^2*(a+b)^2, and the quartic
model v^2 = q(u) of an intersection of two quadrics in P^3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BasePointVanishing,
    CoordinateVanishing,
    DegenerateParameter,
    DegenerateSpec,
    DimensionMismatch,
    NotOnCubic,
    NotOnFiber,
    PointNotOnCurve,
    TrivialPoint,
    WrongShape,
)
from .exact import (
    ProjectivePoint,
    Rational,
    RationalLike,
    normalize_projective,
    rational,
    rational_str,
    record,
    sth_root_exact,
)
from .family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from .fiber import FiberPoint, XCoordinates, fiber_equations


def phi_forward(cwp: CurveWithPoints) -> tuple[XCoordinates, FiberPoint]:
    """Map a curve with points to (x-coordinates, fiber point).

    The image is [y_0 : ... : y_n] in point order, whatever base_index
    says.  Raises BasePointVanishing when the first point's y is zero and
    NotAdmissible when the x-coordinates have colliding r-th powers.
    """
    if cwp.points[0].y == 0:
        raise BasePointVanishing("forward map needs a first point with y != 0")
    a_n = XCoordinates(tuple(p.x for p in cwp.points), cwp.curve.params.r)
    # [y_i * y_0^(s-1)] is [y_i] scaled by y_0^(s-1) != 0: the same canonical point
    return a_n, normalize_projective([p.y for p in cwp.points])


def phi_inverse(a_n: XCoordinates, Y: Sequence[RationalLike], s: int) -> CurveWithPoints:
    """Recover the curve and its points from a nontrivial fiber point."""
    coords = [rational(c) for c in Y]
    if len(coords) != a_n.n + 1:
        raise DimensionMismatch(f"expected {a_n.n + 1} coordinates, got {len(coords)}")
    params = FamilyParams(a_n.r, s)
    w = a_n.rth_powers()
    z0, z1 = coords[0] ** s, coords[1] ** s
    denom = w[1] - w[0]  # nonzero: the tuple is admissible
    a = (z1 - z0) / denom
    b = (w[1] * z0 - w[0] * z1) / denom
    points = tuple(AffinePoint(alpha, y) for alpha, y in zip(a_n.alphas, coords))
    try:
        # the per-point check a*alpha_i^r + b = Y_i^s is the fiber equation set
        cwp = CurveWithPoints(Curve(params, a, b), points, base_index=0)
    except PointNotOnCurve:
        raise NotOnFiber("point does not satisfy the fiber equations") from None
    if a == 0 or b == 0:
        raise TrivialPoint(a, b)
    return cwp


def cwp_equivalent(first: CurveWithPoints, second: CurveWithPoints) -> bool:
    """Equality modulo the rescaling (a, b, y) ~ (t^s*a, t^s*b, t*y)."""
    if first.curve.params != second.curve.params:
        return False
    if first.base_index != second.base_index:
        return False
    if [p.x for p in first.points] != [p.x for p in second.points]:
        return False
    s = first.curve.params.s
    t = None
    for p, q in zip(first.points, second.points):
        if (p.y == 0) != (q.y == 0):
            return False
        if p.y != 0 and t is None:
            t = q.y / p.y
    if t is None:
        # every y is 0, so b = -a*x_0^r on both curves and a fixes b:
        # compare a up to an s-th-power scale
        if first.curve.a == 0 or second.curve.a == 0:
            return first.curve.a == second.curve.a
        return sth_root_exact(second.curve.a / first.curve.a, s) is not None
    ts = t ** s
    if second.curve.a != ts * first.curve.a or second.curve.b != ts * first.curve.b:
        return False
    return all(q.y == t * p.y for p, q in zip(first.points, second.points))


# ---------------------------------------------------------------------------
# conic parameterization


@record
class ConicSpec:
    """Conic alpha*X^2 + beta*Y^2 + gamma*Z^2 = 0 with gamma = -(alpha+beta)."""

    alpha: Rational
    beta: Rational

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        object.__setattr__(self, "beta", rational(self.beta))
        if self.alpha == 0 or self.beta == 0:
            raise DegenerateSpec("conic coefficients alpha, beta must be nonzero")

    @property
    def gamma(self) -> Rational:
        return -(self.alpha + self.beta)


def _conic_coordinate_polys(spec: ConicSpec) -> tuple[list[Fraction], ...]:
    # ascending coefficient lists of X(u) = alpha*u^2 + 2*beta*u - beta,
    # Y(u) = -alpha*u^2 + 2*alpha*u + beta and Z(u) = alpha*u^2 + beta
    al, be = spec.alpha, spec.beta
    X = [-be, 2 * be, al]
    Y = [be, 2 * al, -al]
    Z = [be, Fraction(0), al]
    return X, Y, Z


def quartic_value(coeffs: Sequence[Rational], u: RationalLike) -> Rational:
    """Value at u of the polynomial with ascending coefficients `coeffs`."""
    uu = rational(u)
    value = Fraction(0)
    for c in reversed(list(coeffs)):
        value = value * uu + c
    return value


def conic_param(spec: ConicSpec, u: RationalLike) -> ProjectivePoint:
    """Point [X(u) : Y(u) : Z(u)] on the conic for parameter u; u = 1
    gives the distinguished point [1 : 1 : 1]."""
    uu = rational(u)
    X, Y, Z = (quartic_value(poly, uu) for poly in _conic_coordinate_polys(spec))
    if X == 0 and Y == 0 and Z == 0:
        raise DegenerateParameter(f"parameter u={uu} collapses to the zero vector")
    return normalize_projective([X, Y, Z])


# ---------------------------------------------------------------------------
# diagonal cubics and their Weierstrass model


@record
class CubicSpec:
    """Cubic alpha*X^3 + beta*Y^3 + gamma*Z^3 = 0 with gamma = -(alpha+beta) != 0."""

    alpha: Rational
    beta: Rational

    def __post_init__(self):
        object.__setattr__(self, "alpha", rational(self.alpha))
        object.__setattr__(self, "beta", rational(self.beta))
        if self.alpha == 0 or self.beta == 0:
            raise DegenerateSpec("cubic coefficients alpha, beta must be nonzero")
        if self.alpha + self.beta == 0:
            raise DegenerateSpec("alpha + beta must be nonzero (gamma != 0)")

    @property
    def gamma(self) -> Rational:
        return -(self.alpha + self.beta)

    def contains(self, P: Sequence[RationalLike]) -> bool:
        X, Y, Z = (rational(c) for c in P)
        return self.alpha * X ** 3 + self.beta * Y ** 3 + self.gamma * Z ** 3 == 0


@record
class DiagonalCubicPoint:
    """Point (U, V, W) on U^3 + V^3 = alpha*beta*gamma * W^3."""

    U: Rational
    V: Rational
    W: Rational


def _cubic_input(spec: CubicSpec, P: Sequence[RationalLike]):
    coords = [rational(c) for c in P]
    if len(coords) != 3:
        raise DimensionMismatch("cubic points live in P^2")
    X, Y, Z = coords
    if X * Y * Z == 0:
        raise CoordinateVanishing("the map is defined only where X*Y*Z != 0")
    if not spec.contains(coords):
        raise NotOnCubic(f"[{X} : {Y} : {Z}] is not on the cubic")
    return X, Y, Z


def cubic_to_diagonal(spec: CubicSpec, P: Sequence[RationalLike]) -> DiagonalCubicPoint:
    """Classical map from the cubic to U^3 + V^3 = alpha*beta*gamma*W^3."""
    X, Y, Z = _cubic_input(spec, P)
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    x3, y3, z3 = X ** 3, Y ** 3, Z ** 3
    s_uv = -9 * al * be * ga * x3 * y3 * z3
    d_uv = (al * x3 - be * y3) * (be * y3 - ga * z3) * (ga * z3 - al * x3)
    U = (s_uv + d_uv) / 2
    V = (s_uv - d_uv) / 2
    W = 3 * (al * be * x3 * y3 + be * ga * y3 * z3 + al * ga * x3 * z3) * X * Y * Z
    return DiagonalCubicPoint(U, V, W)


@record
class WeierstrassPoint:
    """Point (T, S) on S^2 = T^3 - discriminant_term."""

    T: Rational
    S: Rational
    discriminant_term: Rational

    def on_curve(self) -> bool:
        return self.S ** 2 == self.T ** 3 - self.discriminant_term

    def to_obj(self) -> dict:
        return {
            "T": rational_str(self.T),
            "S": rational_str(self.S),
            "rhs_constant": rational_str(self.discriminant_term),
        }


def _discriminant_term(spec: CubicSpec) -> Rational:
    return 432 * spec.alpha ** 2 * spec.beta ** 2 * (spec.alpha + spec.beta) ** 2


def fermat_to_weierstrass(spec: CubicSpec, P: Sequence[RationalLike]) -> WeierstrassPoint:
    """Map a cubic point with X*Y*Z != 0 to S^2 = T^3 - 432*a^2*b^2*(a+b)^2."""
    X, Y, Z = _cubic_input(spec, P)
    al, be = spec.alpha, spec.beta
    x3, y3, z3 = X ** 3, Y ** 3, Z ** 3
    xyz = X * Y * Z
    T = 4 * (al * be * (x3 * z3 + y3 * z3 - x3 * y3) + z3 * (al ** 2 * x3 + be ** 2 * y3)) / xyz ** 2
    S = 4 * (al * x3 - be * y3) * (be * y3 + (al + be) * z3) * (al * x3 + (al + be) * z3) / xyz ** 3
    return WeierstrassPoint(T, S, _discriminant_term(spec))


def diagonal_to_weierstrass(spec: CubicSpec, dp: DiagonalCubicPoint) -> WeierstrassPoint:
    """Second leg of the chain: T = 12*abc*W/(U+V), S = 36*abc*(U-V)/(U+V)."""
    if dp.U + dp.V == 0:
        raise CoordinateVanishing("U + V must be nonzero")
    abc = spec.alpha * spec.beta * spec.gamma
    T = 12 * abc * dp.W / (dp.U + dp.V)
    S = 36 * abc * (dp.U - dp.V) / (dp.U + dp.V)
    return WeierstrassPoint(T, S, _discriminant_term(spec))


# ---------------------------------------------------------------------------
# quartic model of the n = 3, s = 2 fiber


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _quartic_model(a_3: XCoordinates) -> tuple[tuple[list[Fraction], ...], tuple[Rational, ...]]:
    # the conic coordinate polynomials (X, Y, Z) of the first quadric and
    # the coefficients of q, from substituting X(u), Y(u) into the second
    if a_3.n != 3:
        raise WrongShape("quartic model needs n = 3 and s = 2")
    eq2, eq3 = fiber_equations(a_3, 2)
    polys = _conic_coordinate_polys(ConicSpec(Fraction(eq2.c0), Fraction(eq2.c1)))
    x2 = _poly_mul(polys[0], polys[0])
    y2 = _poly_mul(polys[1], polys[1])
    q = tuple((-eq3.c0 * a - eq3.c1 * b) / Fraction(eq3.ci) for a, b in zip(x2, y2))
    return polys, q


def quadrics_to_quartic(a_3: XCoordinates) -> tuple[Rational, ...]:
    """Coefficients (q_0, ..., q_4) of the quartic model of an n = 3 fiber.

    The first quadric is parameterized by u; substituting into the
    second leaves v^2 = q(u), so (u, v) with q(u) a rational square lift
    to fiber points [X(u) : Y(u) : Z(u) : v].
    """
    return _quartic_model(a_3)[1]


def lift_quartic_parameter(a_3: XCoordinates, u: RationalLike) -> Optional[FiberPoint]:
    """Fiber point [X(u) : Y(u) : Z(u) : v] when q(u) = v^2 is a rational
    square; None otherwise."""
    polys, q = _quartic_model(a_3)
    uu = rational(u)
    v = sth_root_exact(quartic_value(q, uu), 2)
    if v is None:
        return None
    return normalize_projective([*(quartic_value(poly, uu) for poly in polys), v])

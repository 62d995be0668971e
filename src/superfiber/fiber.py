"""Fiber curves over a fixed tuple of x-coordinates.

Fix exponents (r, s) and admissible x-coordinates (alpha_0, ..., alpha_n),
"admissible" meaning the r-th powers are pairwise distinct.  Writing
w_i = alpha_i^r, the fiber curve in P^n with coordinates [Y_0 : ... : Y_n]
is cut out by the n-1 equations (i = 2..n)

    (w_i - w_1) Y_0^s + (w_0 - w_i) Y_1^s + (w_1 - w_0) Y_i^s = 0,

equivalently det [[1, 1, 1], [w_0, w_1, w_i], [Y_0^s, Y_1^s, Y_i^s]] = 0.
The three coefficients of each equation telescope to zero, so
[1 : 1 : ... : 1] always lies on the fiber.  As a complete intersection
of n-1 degree-s hypersurfaces the fiber has genus

    g = 1 + s^(n-1) * ((n-1)(s-1) - 2) / 2

and gonality at least (s-1) * s^(n-2).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import DomainError
from .exact import (
    ProjectivePoint,
    RationalLike,
    normalize_projective,
    printed,
    rational,
    record,
    refuse_power,
)
from .family import FamilyParams


@record
class XCoordinates:
    """An admissible tuple (alpha_0, ..., alpha_n), n >= 2, with its exponent r."""

    alphas: tuple[Fraction, ...]
    r: int

    def __post_init__(self):
        # the one former of alpha^r refuses it first
        refuse_power(self.alphas, self.r, "alpha^r")
        if self.r < 2:
            raise ValueError(f"exponents must be >= 2, got r={self.r}")
        if len(self.alphas) < 3:
            raise ValueError("a fiber needs n >= 2, i.e. at least 3 x-coordinates")
        # integral powers are kept as int, so that a*w + b on int a and b stays
        # in int arithmetic in the search kernels
        powers = tuple(w.numerator if w.denominator == 1 else w
                       for w in (a ** self.r for a in self.alphas))
        if len(set(powers)) < len(powers):
            raise DomainError("x-coordinates must have pairwise distinct r-th powers")
        # alpha_i^r, computed once; not a field, since alphas and r fix it
        object.__setattr__(self, "_powers", powers)

    @property
    def n(self) -> int:
        return len(self.alphas) - 1

    def rth_powers(self) -> tuple[int | Fraction, ...]:
        """The exact powers alpha_i^r: an int where the power is integral,
        else a Fraction."""
        return self._powers

    def to_obj(self) -> dict:
        return {"alphas": printed(self.alphas, "alphas"), "r": self.r}


@record
class FiberEquation:
    """c0*Y_0^s + c1*Y_1^s + ci*Y_i^s = 0 in canonical integer form.

    The coefficients are the power differences (w_i - w_1, w_0 - w_i,
    w_1 - w_0) rescaled so they are integers with gcd 1 and ci > 0;
    they always sum to zero.
    """

    i: int
    c0: int
    c1: int
    ci: int

    def to_obj(self) -> dict:
        c0, c1, ci = printed((self.c0, self.c1, self.ci), "fiber equation")
        return {"i": self.i, "c0": c0, "c1": c1, "ci": ci}


@record
class Fiber:
    """The fiber of the admissible tuple x at exponent s, and its solved form
    c * Y_i^s = A_i * Y_1^s - B_i * Y_0^s, i = 2..n, computed once: c = w_1 - w_0
    and pairs, the raw (A_i, B_i) = (w_i - w_0, w_i - w_1) without any gcd
    reduction (the golden-table layout).  params, FamilyParams(x.r, s), is the
    one check of s.  Since x and s fix all three, none of them is a field."""

    x: XCoordinates
    s: int

    def __post_init__(self):
        object.__setattr__(self, "params", FamilyParams(self.x.r, self.s))
        w = self.x.rth_powers()
        object.__setattr__(self, "c", w[1] - w[0])
        object.__setattr__(self, "pairs", tuple((w[i] - w[0], w[i] - w[1])
                                                for i in range(2, self.x.n + 1)))

    @property
    def equations(self) -> list[FiberEquation]:
        """The n-1 defining equations, for i = 2..n: the solved form's
        (B_i, -A_i, c) in canonical integer form, normalized at each read."""
        equations = []
        for i, (A, B) in enumerate(self.pairs, start=2):
            # c = w_1 - w_0 != 0 leads, so the normalization leaves ci > 0
            ci, c0, c1 = normalize_projective([self.c, B, -A]).coords
            equations.append(FiberEquation(i, c0, c1, ci))
        return equations

    def to_obj(self) -> dict:
        return {**self.x.to_obj(), "s": self.s}


def fiber_equation_determinant(fiber: Fiber, i: int, Y: Sequence[RationalLike]) -> Fraction:
    """Evaluate equation i at Y via the symmetric determinant form.

    det [[1, 1, 1], [w_0, w_1, w_i], [Y_0^s, Y_1^s, Y_i^s]] expanded by
    cofactors along the first row; identical to evaluating the raw
    difference form.
    """
    if not 2 <= i <= fiber.x.n:
        raise ValueError(f"equation index must be in 2..{fiber.x.n}, got {i}")
    w, s = fiber.x.rth_powers(), fiber.s
    ys = [rational(c) for c in Y]
    z0, z1, zi = ys[0] ** s, ys[1] ** s, ys[i] ** s
    w0, w1, wi = w[0], w[1], w[i]
    return (w1 * zi - wi * z1) - (w0 * zi - wi * z0) + (w0 * z1 - w1 * z0)


def fiber_coordinates(fiber: Fiber, Y: Sequence[RationalLike]) -> list[Fraction]:
    """The coordinates of a candidate point of the fiber, as rationals:
    refuses Y^s past the digit rule (exact.refuse_power), then a length
    other than n + 1."""
    coords = [rational(c) for c in Y]
    refuse_power(coords, fiber.s, "Y^s")
    if len(coords) != fiber.x.n + 1:
        raise DomainError(f"expected {fiber.x.n + 1} coordinates, got {len(coords)}")
    return coords


def fiber_contains(a_n: XCoordinates, s: int, Y: Sequence[RationalLike]) -> bool:
    """True iff c * Y_i^s = A_i * Y_1^s - B_i * Y_0^s for every i = 2..n;
    Fiber(a_n, s) refuses s before the point is read."""
    fiber = Fiber(a_n, s)
    z = [y ** s for y in fiber_coordinates(fiber, Y)]
    c = fiber.c
    return all(c * z[i] == A * z[1] - B * z[0] for i, (A, B) in enumerate(fiber.pairs, start=2))


def canonical_fiber_point(Y: Sequence[RationalLike], s: int) -> ProjectivePoint:
    """Canonical representative of a fiber point.

    For even s each coordinate appears only through Y_i^s and sign flips
    stay on the fiber, so the representative takes absolute values;
    for odd s it is the usual projective normalization.
    """
    coords = [rational(c) for c in Y]
    if s % 2 == 0:
        coords = [abs(c) for c in coords]
    return normalize_projective(coords)


def _fiber_shape(n: int, s: int) -> None:
    if n < 2 or s < 2:  # the one refusal of the genus formulas
        raise ValueError("need n >= 2 and s >= 2")


def fiber_genus(n: int, s: int) -> int:
    """Genus of the fiber: 1 + s^(n-1) * ((n-1)(s-1) - 2) / 2."""
    _fiber_shape(n, s)
    return 1 + s ** (n - 1) * ((n - 1) * (s - 1) - 2) // 2


def lazarsfeld_bound(degrees: Sequence[int]) -> int:
    """Gonality lower bound (d_1 - 1) * d_2 * ... * d_m for a smooth
    complete intersection of hypersurfaces of the given degrees."""
    ds = sorted(degrees)
    if not ds or any(d < 2 for d in ds):
        raise ValueError("degrees must all be >= 2")
    bound = ds[0] - 1
    for d in ds[1:]:
        bound *= d
    return bound


def gonality_lower_bound(n: int, s: int) -> int:
    """Gonality lower bound (s-1) * s^(n-2) for the fiber in P^n."""
    _fiber_shape(n, s)
    return (s - 1) * s ** (n - 2)


def n0_threshold(s: int) -> int:
    """Smallest n at which the fibers stop having infinitely many points:
    4 when s = 2, else 3."""
    _fiber_shape(2, s)  # n = 2, the smallest fiber: n0 depends on s alone
    return 4 if s == 2 else 3


def geometry_report(n: int, s: int) -> dict:
    """Genus, gonality lower bound and finiteness threshold of the fiber.  Past
    the formulas' n and s check, a report that would not print is a ValueError:
    first by s^(n-1) <= genus, before anything is computed, then by exact.printed's
    rule; the values print as JSON numbers, not as its text."""
    _fiber_shape(n, s)
    what = f"genus report for n={n}, s={s}"
    refuse_power([s], n - 1, what)
    report = {"genus": fiber_genus(n, s), "gonality_lower_bound": gonality_lower_bound(n, s),
              "n0": n0_threshold(s)}
    printed(report.values(), what)
    return report

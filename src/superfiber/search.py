"""Bounded census of curves through fixed x-coordinates and of fiber points.

Heights are naive: the height of a rational p/q in lowest terms is
max(|p|, q), and a search at height H is exhaustive for that bound and a
strict subset of any search at a larger bound.  Finding nothing proves
nothing beyond H; reports therefore speak of "none found up to H".

Two enumerations realize the two sides of the curve <-> fiber-point
correspondence:

  * curve-box: coefficient pairs (a, b) in an integer box (optionally a
    rational box) such that a*alpha_i^r + b is an exact s-th power for
    every i and nonzero at the base index;
  * fiber-pairs: coprime leading pairs (Y_0, Y_1) up to H, solving each
    remaining equation for Y_i^s and keeping exact roots.

Both can be partitioned across workers by slicing the candidate stream;
the union of the slices equals the unpartitioned result, so merging is
a deterministic sorted union.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import TrivialPoint
from .exact import Rational, _floor_nth_root, rational_str, sth_root_exact
from .family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from .fiber import FiberPoint, XCoordinates, canonical_fiber_point, fiber_equations
from .maps import phi_forward, phi_inverse


@dataclass(frozen=True)
class SearchConfig:
    """Height bound, (worker_index, worker_count) slice of the candidate
    stream, and whether the curve box runs over rationals."""

    height_bound: int
    partition: tuple[int, int] = (0, 1)
    rational_box: bool = False

    def __post_init__(self):
        if self.height_bound < 1:
            raise ValueError("height bound must be >= 1")
        index, count = self.partition
        if not (count >= 1 and 0 <= index < count):
            raise ValueError("need 0 <= worker_index < worker_count")


@dataclass(frozen=True)
class CensusEntry:
    """One curve of the census with its canonical fiber-point image."""

    curve: Curve
    fiber_point: FiberPoint

    def to_obj(self) -> dict:
        # one point per alpha, and CurveWithPoints enforces distinct x
        return {
            "curve": self.curve.to_obj(),
            "fiber_point": self.fiber_point.to_obj(),
            "distinct_x_count": len(self.fiber_point),
        }


def rationals_up_to_height(height: int) -> list[Fraction]:
    """All rationals p/q in lowest terms with max(|p|, q) <= height, sorted."""
    values = set()
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(abs(p), q) == 1:
                values.add(Fraction(p, q))
    return sorted(values)


def _slice(stream: Iterable, partition: tuple[int, int]) -> Iterator:
    index, count = partition
    return itertools.islice(stream, index, None, count)


def curve_roots_over(a_n: XCoordinates, s: int, a: Rational, b: Rational,
                     base_index: int = 0) -> Optional[list[Rational]]:
    """s-th roots of a*alpha_i^r + b at every alpha_i, canonical sign.

    None when some value is not an exact s-th power or the base root
    vanishes.  For even s the non-negative root is taken.
    """
    roots = []
    for w in a_n.rth_powers():
        root = sth_root_exact(a * w + b, s)
        if root is None:
            return None
        roots.append(root)
    if roots[base_index] == 0:
        return None
    return roots


def curve_in_census(a_n: XCoordinates, s: int, a: Rational, b: Rational,
                    base_index: int = 0) -> bool:
    """Membership predicate of the curve-box census: smooth and passing
    the s-th-power test at every alpha_i with nonzero base root."""
    if a == 0 or b == 0:
        return False
    return curve_roots_over(a_n, s, a, b, base_index) is not None


def census_points(a_n: XCoordinates, s: int, curve: Curve,
                  base_index: int = 0) -> CurveWithPoints:
    """The curve's canonical point list over the alphas."""
    roots = curve_roots_over(a_n, s, curve.a, curve.b, base_index)
    if roots is None:
        raise ValueError("curve does not pass the census membership test")
    pts = tuple(AffinePoint(alpha, y) for alpha, y in zip(a_n.alphas, roots))
    return CurveWithPoints(curve, pts, base_index)


def enumerate_curves(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[Curve]:
    """All census curves with coefficients in the (a, b) box of height H,
    in (a, b) order: the box is the product of a sorted value list."""
    if s < 2:
        raise ValueError("s must be >= 2")
    H = cfg.height_bound
    if cfg.rational_box:
        values = [v for v in rationals_up_to_height(H) if v != 0]
    else:
        values = [Fraction(v) for v in range(-H, H + 1) if v != 0]
    params = FamilyParams(a_n.r, s)
    return [Curve(params, a, b)
            for a, b in _slice(itertools.product(values, repeat=2), cfg.partition)
            if curve_in_census(a_n, s, a, b)]


def _leading_pairs(height: int, s: int) -> Iterator[tuple[int, int]]:
    # coprime (Y_0, Y_1) up to the bound; for even s signs never matter,
    # for odd s the pair is normalized only by the global sign
    for p in range(0, height + 1):
        if s % 2 == 0:
            qs = range(0, height + 1)
        else:
            qs = range(-height, height + 1) if p > 0 else (1,)
        for q in qs:
            if math.gcd(p, abs(q)) == 1:
                yield (p, q)


def search_fiber_points(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[FiberPoint]:
    """All fiber points whose reduced (Y_0, Y_1) pair has height <= H,
    as canonical representatives, sorted."""
    if s < 2:
        raise ValueError("s must be >= 2")
    equations = fiber_equations(a_n, s)
    found = set()
    for p, q in _slice(_leading_pairs(cfg.height_bound, s), cfg.partition):
        z0, z1 = Fraction(p) ** s, Fraction(q) ** s
        coords: list[Rational] = [Fraction(p), Fraction(q)]
        for eq in equations:
            value = -(eq.c0 * z0 + eq.c1 * z1) / eq.ci
            root = sth_root_exact(value, s)
            if root is None:
                break
            coords.append(root)
        else:
            found.add(canonical_fiber_point(coords, s))
    return sorted(found, key=lambda P: P.coords)


def reduced_leading_pair(P: FiberPoint) -> tuple[int, int]:
    """(Y_0, Y_1) of a canonical point in lowest terms; its height is the
    bound at which the pair enumeration reaches the point."""
    p, q = P[0], P[1]
    g = math.gcd(abs(p), abs(q))
    return (p // g, q // g)


def pair_height(P: FiberPoint) -> int:
    p, q = reduced_leading_pair(P)
    return max(abs(p), abs(q))


def _ceil_root(n: int, s: int) -> int:
    if n <= 0:
        return 0
    r = _floor_nth_root(n, s)
    return r if r ** s == n else r + 1


def integer_class_representatives(a: Rational, b: Rational, s: int,
                                  height: int) -> list[tuple[int, int]]:
    """All integer pairs (t*a, t*b) with t a nonzero s-th power in Q
    (negative allowed when s is odd) and max(|.|, |.|) <= height.

    Exhaustive: an integer pair (A, B) = ((u/v)^s a, ...) forces
    u^s <= |A| * den(a) and v^s <= |num(a)|, so scanning u, v up to those
    bounds finds every representative.
    """
    ucap = max(_ceil_root(height * a.denominator, s),
               _ceil_root(height * b.denominator, s))
    vcap = max(_ceil_root(abs(a.numerator), s), _ceil_root(abs(b.numerator), s))
    reps = set()
    signs = (1, -1) if s % 2 else (1,)
    for v in range(1, vcap + 1):
        for u in range(1, ucap + 1):
            if math.gcd(u, v) != 1:
                continue
            t = Fraction(u ** s, v ** s)
            for sign in signs:
                A, B = sign * t * a, sign * t * b
                if A.denominator == 1 and B.denominator == 1:
                    if max(abs(A), abs(B)) <= height:
                        reps.add((int(A), int(B)))
    return sorted(reps)


@dataclass(frozen=True)
class MatchedClass:
    fiber_point: FiberPoint
    curves: tuple[Curve, ...]
    recovered_a: Rational
    recovered_b: Rational

    def to_obj(self) -> dict:
        return {
            "fiber_point": self.fiber_point.to_obj(),
            "curves": [c.to_obj() for c in self.curves],
            "recovered_a": rational_str(self.recovered_a),
            "recovered_b": rational_str(self.recovered_b),
        }


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of the dual enumeration.

    matched pairs one fiber point with every box curve in its rescaling
    class; trivial_points and base_vanishing_points fall outside the
    correspondence; cutoff lists fiber points whose curve class has no
    integer representative inside the box (height-cutoff asymmetry).
    unmatched_curves / unmatched_fiber_points are genuine failures and
    should always be empty.
    """

    alphas: XCoordinates
    s: int
    curve_height: int
    fiber_height: int
    matched: tuple[MatchedClass, ...]
    trivial_points: tuple[FiberPoint, ...]
    base_vanishing_points: tuple[FiberPoint, ...]
    cutoff_fiber_points: tuple[FiberPoint, ...]
    unmatched_curves: tuple[Curve, ...]
    unmatched_fiber_points: tuple[FiberPoint, ...]

    @property
    def ok(self) -> bool:
        return not self.unmatched_curves and not self.unmatched_fiber_points

    def to_obj(self) -> dict:
        return {
            "alphas": self.alphas.to_obj(),
            "s": self.s,
            "curve_height": self.curve_height,
            "fiber_height": self.fiber_height,
            "matched": [m.to_obj() for m in self.matched],
            "trivial_points": [P.to_obj() for P in self.trivial_points],
            "base_vanishing_points": [P.to_obj() for P in self.base_vanishing_points],
            "cutoff_fiber_points": [P.to_obj() for P in self.cutoff_fiber_points],
            "unmatched_curves": [c.to_obj() for c in self.unmatched_curves],
            "unmatched_fiber_points": [P.to_obj() for P in self.unmatched_fiber_points],
            "ok": self.ok,
        }


def curve_census_entries(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[CensusEntry]:
    """Curve-box census with canonical fiber-point images."""
    entries = []
    for curve in enumerate_curves(a_n, s, cfg):
        _, image = phi_forward(census_points(a_n, s, curve))
        entries.append(CensusEntry(curve, canonical_fiber_point(image.coords, s)))
    return entries


def fiber_census_entries(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[CensusEntry]:
    """Fiber-pair census; trivial and base-vanishing points are skipped
    since they recover no census curve."""
    entries = []
    for P in search_fiber_points(a_n, s, cfg):
        if P[0] == 0:
            continue
        try:
            cwp = phi_inverse(a_n, P.coords, s)
        except TrivialPoint:
            continue
        entries.append(CensusEntry(cwp.curve, P))
    return entries


def cross_check(a_n: XCoordinates, s: int, cfg: SearchConfig) -> CrossCheckReport:
    """Run both enumerations at compatible bounds and match them up.

    The fiber bound is raised to cover the images of every box curve, so
    each curve class must be found on the fiber side; conversely each
    nontrivial fiber point either recovers a curve class with a box
    representative (matched) or is explained by the height cutoff.
    """
    H = cfg.height_bound
    groups: dict[tuple[int, ...], list[Curve]] = {}
    fiber_bound = H
    for entry in curve_census_entries(a_n, s, SearchConfig(H, rational_box=cfg.rational_box)):
        groups.setdefault(entry.fiber_point.coords, []).append(entry.curve)
        fiber_bound = max(fiber_bound, pair_height(entry.fiber_point))

    points = search_fiber_points(a_n, s, SearchConfig(fiber_bound))

    matched: list[MatchedClass] = []
    trivial: list[FiberPoint] = []
    base_vanishing: list[FiberPoint] = []
    cutoff: list[FiberPoint] = []
    unmatched_points: list[FiberPoint] = []
    seen_groups: set[tuple[int, ...]] = set()

    for P in points:
        try:
            cwp = phi_inverse(a_n, P.coords, s)
        except TrivialPoint:
            trivial.append(P)
            continue
        if P[0] == 0:
            base_vanishing.append(P)
            continue
        if P.coords in groups:
            matched.append(MatchedClass(P, tuple(groups[P.coords]),
                                        cwp.curve.a, cwp.curve.b))
            seen_groups.add(P.coords)
        elif cfg.rational_box:
            # rational box is complete for heights <= H directly
            height = max(abs(cwp.curve.a.numerator), cwp.curve.a.denominator,
                         abs(cwp.curve.b.numerator), cwp.curve.b.denominator)
            (cutoff if height > H else unmatched_points).append(P)
        elif integer_class_representatives(cwp.curve.a, cwp.curve.b, s, H):
            unmatched_points.append(P)
        else:
            cutoff.append(P)

    unmatched_curves = [c for key, group in sorted(groups.items())
                        if key not in seen_groups for c in group]

    return CrossCheckReport(
        alphas=a_n,
        s=s,
        curve_height=H,
        fiber_height=fiber_bound,
        matched=tuple(matched),
        trivial_points=tuple(trivial),
        base_vanishing_points=tuple(base_vanishing),
        cutoff_fiber_points=tuple(cutoff),
        unmatched_curves=tuple(unmatched_curves),
        unmatched_fiber_points=tuple(unmatched_points),
    )

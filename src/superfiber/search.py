"""Bounded census of curves through fixed x-coordinates and of fiber points.

Heights are naive: the height of a rational p/q in lowest terms is
max(|p|, q), and a search at height H is exhaustive for that bound and a
strict subset of any search at a larger bound.  Finding nothing proves
nothing beyond H; reports therefore speak of "none found up to H".

Two enumerations realize the two sides of the curve <-> fiber-point
correspondence:

  * curve-box: coefficient pairs (a, b) in an integer box such that
    a*alpha_i^r + b is an exact s-th power for every i and nonzero at
    alpha_0;
  * fiber-pairs: coprime leading pairs (Y_0, Y_1) up to H, solving each
    remaining equation for Y_i^s and keeping exact roots.

Both kernels run on Python ints and build a Fraction only for a hit.
The box values are ints, and XCoordinates stores alpha_i^r once, as an
int where it is integral, so a*alpha_i^r + b is an int unless an alpha
is not an integer (then it stays exact Fraction arithmetic).  The
fiber-pair loop scales equation i by ci^(s-1) once per search:

    (ci*Y_i)^s = ci^(s-1) * ci * Y_i^s = k0*Y_0^s + k1*Y_1^s,
    (k0, k1) = -ci^(s-1) * (c0, c1),

so the radicand is an int and Y_i = root / ci.  This is exact: Y_i is
rational exactly when ci*Y_i is, and ci > 0 in canonical form, so the
scale keeps the sign of Y_i for odd s and the non-negative root for even s.
The pairs come by row, one Y_0 = p with its Y_1 = q coprime to p: k0*p^s
is formed once per row, and each pair costs one root test per equation
until one fails.

Worker i of N takes rows i, i+N, ... of the outer coordinate (a in the
curve box, Y_0 in the pair stream), so no worker generates another's
candidates.  The slices are disjoint, not equal-sized; their union is the
unpartitioned result, so merging is a deterministic sorted union.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import TrivialPoint
from .exact import Rational, normalize_projective, rational_str, record, sth_root_exact
from .family import Curve, FamilyParams
from .fiber import FiberPoint, XCoordinates, canonical_fiber_point, fiber_equations
from .maps import phi_inverse


# (2H + 1)^2 bounds the candidates of either stream at height H: the
# curve box has (2H)^2, the leading pairs at most (H + 1)(2H + 1).  The cap
# is on the whole box, not a worker's share, so a run is bounded by H alone.
MAX_CANDIDATES = 10 ** 8


@record
class SearchConfig:
    """Height bound and (worker_index, worker_count) share of the outer
    rows of the candidate stream."""

    height_bound: int
    partition: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if self.height_bound < 1:
            raise ValueError("height bound must be >= 1")
        if (2 * self.height_bound + 1) ** 2 > MAX_CANDIDATES:
            raise ValueError(f"height bound {self.height_bound} exceeds the candidate cap:"
                             f" (2H+1)^2 > {MAX_CANDIDATES}")
        index, count = self.partition
        if not (count >= 1 and 0 <= index < count):
            raise ValueError("need 0 <= worker_index < worker_count")


@record
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


def _rows(rows: Sequence[int], partition: tuple[int, int]) -> Sequence[int]:
    # a worker's share of the outer coordinate: rows index, index + count, ...
    index, count = partition
    return rows[index::count]


def curve_roots_over(a_n: XCoordinates, s: int, a: Rational,
                     b: Rational) -> Optional[list[Rational]]:
    """Membership test of the curve-box census with its witness: the s-th
    roots of a*alpha_i^r + b, non-negative for even s, which are the
    curve's fiber point [y_0 : ... : y_n].  None when a*b = 0, some value
    is not an exact s-th power, or the base root vanishes."""
    if a == 0 or b == 0:
        return None
    roots = []
    for w in a_n.rth_powers():
        root = sth_root_exact(a * w + b, s)
        if root is None:
            return None
        roots.append(root)
    if roots[0] == 0:
        return None
    return roots


def enumerate_curves(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[Curve]:
    """All census curves with coefficients in the (a, b) box of height H,
    in (a, b) order: the box is the product of a sorted value list."""
    params = FamilyParams(a_n.r, s)
    H = cfg.height_bound
    values = [v for v in range(-H, H + 1) if v != 0]
    return [Curve(params, Fraction(a), Fraction(b))
            for a, b in itertools.product(_rows(values, cfg.partition), values)
            if curve_roots_over(a_n, s, a, b) is not None]


def _pair_rows(height: int, s: int,
               partition: tuple[int, int]) -> Iterator[tuple[int, list[int]]]:
    # for even s signs never matter, for odd s only the global sign is normalized
    for p in _rows(range(0, height + 1), partition):
        if s % 2 == 0:
            qs = range(0, height + 1)
        else:
            qs = range(-height, height + 1) if p > 0 else (1,)
        yield p, [q for q in qs if math.gcd(p, q) == 1]


def search_fiber_points(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[FiberPoint]:
    """All fiber points whose reduced (Y_0, Y_1) pair has height <= H,
    as canonical representatives, sorted."""
    # (ci*Y_i)^s = k0*Y_0^s + k1*Y_1^s with (k0, k1) = -ci^(s-1)*(c0, c1)
    scaled = [(eq.ci, -eq.c0 * eq.ci ** (s - 1), -eq.c1 * eq.ci ** (s - 1))
              for eq in fiber_equations(a_n, s)]
    found = set()
    for p, qs in _pair_rows(cfg.height_bound, s, cfg.partition):
        z0 = p ** s
        row = [(ci, k0 * z0, k1) for ci, k0, k1 in scaled]
        for q in qs:
            z1 = q ** s
            coords: list[int | Rational] = [p, q]
            for ci, t0, k1 in row:
                root = sth_root_exact(t0 + k1 * z1, s)
                if root is None:
                    break
                coords.append(root / ci)
            else:
                found.add(canonical_fiber_point(coords, s))
    return sorted(found, key=lambda P: P.coords)


def pair_height(P: FiberPoint) -> int:
    """Height of (Y_0, Y_1) in lowest terms: the bound at which the pair
    enumeration reaches the point."""
    return max(abs(c) for c in normalize_projective(P.coords[:2]))


def integer_class_representatives(a: Rational, b: Rational, s: int,
                                  height: int) -> list[tuple[int, int]]:
    """All integer pairs (t*a, t*b) with t a nonzero s-th power in Q
    (negative allowed when s is odd) and max(|.|, |.|) <= height, sorted.

    Exhaustive: with (p, q) the primitive integer pair of [a : b] and
    (a, b) = lam*(p, q), the integer pairs on the line are m*(p, q), and
    m*(p, q) is in the class exactly when m/lam is an s-th power.
    """
    if a == 0 and b == 0:
        return []
    p, q = normalize_projective([a, b])
    lam = Fraction(a, p) if p else Fraction(b, q)
    bound = height // max(abs(p), abs(q))
    # p >= 0, and q > 0 when p = 0, so the pairs come out in increasing m
    return [(m * p, m * q) for m in range(-bound, bound + 1)
            if m and sth_root_exact(m / lam, s) is not None]


def curve_census_entries(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[CensusEntry]:
    """Curve-box census with canonical fiber-point images; the roots that
    admit a curve are phi_forward's image [y_0 : ... : y_n]."""
    entries = []
    for curve in enumerate_curves(a_n, s, cfg):
        roots = curve_roots_over(a_n, s, curve.a, curve.b)
        entries.append(CensusEntry(curve, canonical_fiber_point(roots, s)))
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


def cross_check(a_n: XCoordinates, s: int, height: int) -> dict:
    """Run both enumerations at compatible bounds and match them up;
    returns the report that `cross-check` prints.

    The fiber bound is raised to cover the images of every box curve, so
    each curve class must be found on the fiber side; conversely each
    nontrivial fiber point either recovers a curve class with a box
    representative (matched) or is explained by the height cutoff.

    Each fiber point lands in one bucket: matched pairs it with every box
    curve in its rescaling class and the (a, b) it recovers;
    trivial_points and base_vanishing_points fall outside the
    correspondence; cutoff_fiber_points have a curve class with no integer
    representative inside the box (height-cutoff asymmetry).
    unmatched_curves / unmatched_fiber_points are genuine failures and
    should always be empty; ok says that they are.
    """
    groups: dict[tuple[int, ...], list[Curve]] = {}
    fiber_bound = height
    for entry in curve_census_entries(a_n, s, SearchConfig(height)):
        groups.setdefault(entry.fiber_point.coords, []).append(entry.curve)
        fiber_bound = max(fiber_bound, pair_height(entry.fiber_point))

    report = {"alphas": a_n.to_obj(), "s": s, "curve_height": height, "fiber_height": fiber_bound,
              "matched": [], "trivial_points": [], "base_vanishing_points": [],
              "cutoff_fiber_points": [], "unmatched_curves": [], "unmatched_fiber_points": []}
    for P in search_fiber_points(a_n, s, SearchConfig(fiber_bound)):
        try:
            cwp = phi_inverse(a_n, P.coords, s)
        except TrivialPoint:
            report["trivial_points"].append(P.to_obj())
            continue
        if P[0] == 0:
            bucket = "base_vanishing_points"
        elif P.coords in groups:
            report["matched"].append({
                "fiber_point": P.to_obj(),
                "curves": [c.to_obj() for c in groups.pop(P.coords)],
                "recovered_a": rational_str(cwp.curve.a),
                "recovered_b": rational_str(cwp.curve.b),
            })
            continue
        elif integer_class_representatives(cwp.curve.a, cwp.curve.b, s, height):
            bucket = "unmatched_fiber_points"
        else:
            bucket = "cutoff_fiber_points"
        report[bucket].append(P.to_obj())

    # the classes no fiber point matched
    report["unmatched_curves"] = [c.to_obj() for _, group in sorted(groups.items()) for c in group]
    report["ok"] = not report["unmatched_curves"] and not report["unmatched_fiber_points"]
    return report

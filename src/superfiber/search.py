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

The curve box goes row by row, one a with every b.  A candidate costs one
root test, of its base radicand a*alpha_0^r + b; only a nonzero base root
calls curve_roots_over, the one definition of membership and of the witness
roots, which tests the base radicand again and then every other alpha.

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
The pairs come by row, one Y_0 = p with its Y_1 = q coprime to p.  A row
is a mask over the q: a smallest-prime-factor table, built once per
search, gives the primes of p, each zeroes its multiples by one slice
assignment, and itertools.compress reads the kept q, so a rejected q costs
no Python step.  The first equation's k1*q^s is tabled once per search and
k0*p^s once per row, so a pair costs one addition and one root test; only
a pair that passes builds its coordinates and tries the later equations,
one root test each until one fails.

Worker i of N takes rows i, i+N, ... of the outer coordinate (a in the
curve box, Y_0 in the pair stream), so no worker generates another's
candidates.  The slices are disjoint, not equal-sized; their union is the
unpartitioned result, so merging is a deterministic sorted union.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .exact import ProjectivePoint, normalize_projective, record, refuse_power, sth_root_exact
from .family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from .fiber import FiberEquation, XCoordinates, fiber_equations
from .maps import phi_forward, phi_inverse


# (2H + 1)^2 bounds the candidates of either stream at height H: the
# curve box has (2H)^2, the leading pairs at most (H + 1)(2H + 1).  The cap
# is on the whole box, not a worker's share, so a run is bounded by H alone.
MAX_CANDIDATES = 10 ** 8

# the fiber-pair radicands k0*Y_0^s + k1*Y_1^s have about
# s*(bits(H) + bits(max |c|)) bits, and the kernel builds ci^(s-1) and a
# table of them before any pair; past this cap it refuses them first
MAX_RADICAND_BITS = 2 ** 20


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


def _rows(rows: Sequence[int], partition: tuple[int, int]) -> Sequence[int]:
    # a worker's share of the outer coordinate: rows index, index + count, ...
    index, count = partition
    return rows[index::count]


def curve_roots_over(a_n: XCoordinates, s: int, a: Fraction,
                     b: Fraction) -> list[Fraction] | None:
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
    # bound here, not at definition, so that a wrapper installed on either
    # name before the call is the one that runs
    rth_powers, root = a_n.rth_powers, sth_root_exact
    found = []
    for a in _rows(values, cfg.partition):
        for b in values:
            # the base root alone rejects most candidates; a zero one is
            # refused by curve_roots_over too
            if root(a * rth_powers()[0] + b, s) and curve_roots_over(a_n, s, a, b) is not None:
                found.append(Curve(params, a, b))
    return found


def _smallest_prime_factors(n: int) -> list[int]:
    # spf[m] for 2 <= m <= n: marking from the largest f down leaves each
    # multiple of f, from f^2 on, holding its smallest divisor >= 2, a prime
    spf = list(range(n + 1))
    for f in range(math.isqrt(n), 1, -1):
        spf[f * f::f] = [f] * ((n - f * f) // f + 1)
    return spf


def _pair_rows(height: int, s: int,
               partition: tuple[int, int]) -> Iterator[tuple[int, list[int]]]:
    # row p holds the Y_1 = q coprime to p, from 0 (even s) or -H (odd s) to
    # H: a mask of q in 0..H with the multiples of each prime of p zeroed,
    # mirrored in front of itself for odd s, where only the global sign of a
    # point is normalized (row 0 is just q = 1)
    spf = _smallest_prime_factors(height)
    ones = b"\x01" * (height + 1)
    for p in _rows(range(0, height + 1), partition):
        if p == 0:
            yield p, [1]
            continue
        keep = bytearray(ones)
        m = p
        while m > 1:
            f = spf[m]
            keep[::f] = bytes(height // f + 1)
            while m % f == 0:
                m //= f
        if s % 2 == 0:
            yield p, list(itertools.compress(range(height + 1), keep))
        else:
            yield p, list(itertools.compress(range(-height, height + 1), keep[:0:-1] + keep))


def _pair_search_equations(a_n: XCoordinates, s: int, H: int) -> list[FiberEquation]:
    # the pair search's refusals, in order: height^s, s < 2 (fiber_equations),
    # then radicands past the cap
    refuse_power([H], s, "height^s")
    equations = fiber_equations(a_n, s)
    coefficient_bits = max(abs(c).bit_length() for eq in equations for c in (eq.c0, eq.c1, eq.ci))
    if s * (H.bit_length() + coefficient_bits) > MAX_RADICAND_BITS:
        raise ValueError(f"fiber-pair radicands at s={s}, height {H} exceed the radicand cap:"
                         f" s*(bits(H) + bits(c)) > {MAX_RADICAND_BITS}")
    return equations


def search_fiber_points(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[ProjectivePoint]:
    """All fiber points whose reduced (Y_0, Y_1) pair has height <= H,
    as canonical representatives, sorted; refuses H^s, then s < 2, then
    radicands past their cap, before any pair.  The rows reach each point
    once, with Y_0 >= 0 and, for even s, every coordinate >= 0, so its
    normalize_projective is its canonical_fiber_point."""
    H = cfg.height_bound
    equations = _pair_search_equations(a_n, s, H)
    # (ci*Y_i)^s = k0*Y_0^s + k1*Y_1^s with (k0, k1) = -ci^(s-1)*(c0, c1)
    scaled = []
    for eq in equations:
        scale = eq.ci ** (s - 1)
        scaled.append((eq.ci, -eq.c0 * scale, -eq.c1 * scale))
    (c2, k0, k1), *later = scaled
    # the first equation's k1*q^s, indexed by q itself: -H..-1 wrap to the tail
    first = [k1 * q ** s for q in itertools.chain(range(H + 1), range(-H, 0))]
    found = []
    for p, qs in _pair_rows(H, s, cfg.partition):
        z0 = p ** s
        t = k0 * z0
        for q in qs:
            root = sth_root_exact(t + first[q], s)
            if root is None:
                continue
            z1 = q ** s
            coords: list[int | Fraction] = [p, q, root / c2]
            for ci, k0i, k1i in later:
                root = sth_root_exact(k0i * z0 + k1i * z1, s)
                if root is None:
                    break
                coords.append(root / ci)
            else:
                found.append(normalize_projective(coords))
    return sorted(found, key=lambda P: P.coords)


def pair_height(P: ProjectivePoint) -> int:
    """Height of (Y_0, Y_1) in lowest terms: the bound at which the pair
    enumeration reaches the point."""
    return max(abs(c) for c in normalize_projective(P.coords[:2]).coords)


def integer_class_representatives(a: Fraction, b: Fraction, s: int,
                                  height: int) -> list[tuple[int, int]]:
    """All integer pairs (t*a, t*b) with t a nonzero s-th power in Q
    (negative allowed when s is odd) and max(|.|, |.|) <= height, sorted.

    Exhaustive: with (p, q) the primitive integer pair of [a : b] and
    (a, b) = lam*(p, q), the integer pairs on the line are m*(p, q), and
    m*(p, q) is in the class exactly when m/lam is an s-th power.
    """
    if a == 0 and b == 0:
        return []
    p, q = normalize_projective([a, b]).coords
    lam = Fraction(a, p) if p else Fraction(b, q)
    bound = height // max(abs(p), abs(q))
    # p >= 0, and q > 0 when p = 0, so the pairs come out in increasing m
    return [(m * p, m * q) for m in range(-bound, bound + 1)
            if m and sth_root_exact(m / lam, s) is not None]


def curve_census_entries(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[CurveWithPoints]:
    """Curve-box census: each curve with its points (alpha_i, y_i), y_i the
    roots that admit it, so base y_0 != 0 and y_i >= 0 for even s."""
    entries = []
    for curve in enumerate_curves(a_n, s, cfg):
        roots = curve_roots_over(a_n, s, curve.a, curve.b)
        entries.append(CurveWithPoints(curve, tuple(map(AffinePoint, a_n.alphas, roots))))
    return entries


def fiber_census_entries(a_n: XCoordinates, s: int, cfg: SearchConfig) -> list[CurveWithPoints]:
    """Fiber-pair census: phi_inverse of each point, whose points are the
    fiber point's coordinates; trivial and base-vanishing points are skipped
    since they recover no census curve."""
    cwps = (phi_inverse(a_n, P.coords, s) for P in search_fiber_points(a_n, s, cfg)
            if P.coords[0] != 0)
    return [cwp for cwp in cwps if cwp.curve.is_smooth]


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
    should always be empty; ok says that they are.  The height meets the
    refusals of `search --mode fiber-pairs`, in its order, before the box
    (the fiber bound only grows from it); a raised bound past the candidate
    cap is a ValueError naming it.
    """
    box = SearchConfig(height)
    _pair_search_equations(a_n, s, height)
    groups: dict[tuple[int, ...], list[Curve]] = {}
    fiber_bound = height
    for cwp in curve_census_entries(a_n, s, box):
        _, image = phi_forward(cwp)
        groups.setdefault(image.coords, []).append(cwp.curve)
        fiber_bound = max(fiber_bound, pair_height(image))

    try:
        fiber_cfg = SearchConfig(fiber_bound)
    except ValueError:
        # only a raised bound can fail here: SearchConfig(height) passed
        raise ValueError(f"fiber bound {fiber_bound}, raised from height {height} to cover the"
                         f" box curves, exceeds the candidate cap: (2H+1)^2 > {MAX_CANDIDATES}"
                         ) from None

    report = {**a_n.to_obj(), "s": s, "curve_height": height, "fiber_height": fiber_bound,
              "matched": [], "trivial_points": [], "base_vanishing_points": [],
              "cutoff_fiber_points": [], "unmatched_curves": [], "unmatched_fiber_points": []}
    for P in search_fiber_points(a_n, s, fiber_cfg):
        cwp = phi_inverse(a_n, P.coords, s)
        if not cwp.curve.is_smooth:
            bucket = "trivial_points"
        elif P.coords[0] == 0:
            bucket = "base_vanishing_points"
        elif P.coords in groups:
            recovered = cwp.curve.to_obj()
            report["matched"].append({
                "fiber_point": P.to_obj(),
                "curves": [c.to_obj() for c in groups.pop(P.coords)],
                "recovered_a": recovered["a"],
                "recovered_b": recovered["b"],
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

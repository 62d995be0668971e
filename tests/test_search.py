import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superfiber import search
from superfiber.elkies import ELKIES
from superfiber.exact import int_nth_root, normalize_projective, sth_root_exact
from superfiber.family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from superfiber.fiber import (
    Fiber,
    XCoordinates,
    canonical_fiber_point,
    fiber_contains,
    fiber_genus,
    geometry_report,
)
from superfiber.maps import (
    ConicSpec,
    CubicSpec,
    conic_param,
    cwp_equivalent,
    fermat_to_weierstrass,
    lift_quartic_parameter,
    phi_forward,
    phi_inverse,
)
from superfiber.search import (
    MAX_WORK,
    SearchConfig,
    cross_check,
    curve_census_entries,
    curve_roots_over,
    enumerate_curves,
    fiber_census_entries,
    integer_class_representatives,
    pair_height,
    search_fiber_points,
)
from helpers_roundtrip import SMALL_FRACTIONS, admissible_x_coordinates


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(0)
    for partition in ((3, 3), (0, 0), (0, -3), (-1, 2), (7, 1)):
        with pytest.raises(ValueError, match="worker_index < worker_count"):
            SearchConfig(5, partition)


def test_enumerate_curves_empty_box():
    a_2 = XCoordinates([1, 2, 3], 3)
    assert enumerate_curves(Fiber(a_2, 2), SearchConfig(1)) == []


def test_curve_membership_predicate_on_elkies_data():
    a_16 = Fiber(ELKIES.x_coordinates(), 2)
    assert curve_roots_over(a_16, Fraction(1), Fraction(ELKIES.b0)) is not None
    # consecutive integers are never both squares above 0
    assert curve_roots_over(a_16, Fraction(1), Fraction(ELKIES.b0 + 1)) is None
    assert curve_roots_over(a_16, Fraction(0), Fraction(ELKIES.b0)) is None
    # 1*x^3 + 2 is 2 at x = 0, so a_2 has no curve (1, 2)
    assert curve_roots_over(Fiber(XCoordinates([0, 2, -1], 3), 2), 1, 2) is None


def test_even_s_sign_closure_before_canonicalization():
    a_2 = XCoordinates([0, 2, -1], 3)
    pts = search_fiber_points(Fiber(a_2, 2), SearchConfig(5))
    rng = random.Random(3)
    for P in pts:
        signs = [rng.choice((1, -1)) * c for c in P.coords]
        assert fiber_contains(a_2, 2, signs)
        assert canonical_fiber_point(signs, 2) == P


@given(a_n=admissible_x_coordinates(), s=st.integers(2, 5), height=st.integers(1, 12),
       count=st.integers(1, 5))
# the first finds curves in the box and the point [1:3:0]; the second is the
# odd-s fiber side, whose pairs are signed; the last is s = 5 at H = 12 in 3 slices
@example(a_n=XCoordinates([0, 2, -1], 3), s=2, height=6, count=3)
@example(a_n=XCoordinates([0, 2, 3], 3), s=3, height=12, count=3)
@example(a_n=XCoordinates([Fraction(1, 2), 2, Fraction(-1, 3)], 2), s=2, height=12, count=2)
@example(a_n=XCoordinates([0, Fraction(1, 2), Fraction(3, 4)], 3), s=3, height=12, count=1)
@example(a_n=XCoordinates([0, 2, 3], 3), s=5, height=12, count=3)
def test_worker_slices_union_to_full_result(a_n, s, height, count):
    fiber = Fiber(a_n, s)
    for runner, key in ((enumerate_curves, lambda c: (c.a, c.b)),
                        (search_fiber_points, lambda P: P.coords)):
        full = runner(fiber, SearchConfig(height))
        merged = [item for index in range(count)
                  for item in runner(fiber, SearchConfig(height, (index, count)))]
        assert sorted(merged, key=key) == full
        assert len({key(item) for item in merged}) == len(merged)  # no item in two slices
    # merged now holds the pair kernel's slices, which keep normalize_projective
    # images with no set and no canonical_fiber_point: each is already canonical
    assert all(canonical_fiber_point(P.coords, s) == P for P in merged)


def _rows_of(stream, row_of):
    rows = {}
    for item in stream:
        rows.setdefault(row_of(item), []).append(item)
    # each row is one run of the stream, and the runs come in row order
    assert [item for row in sorted(rows) for item in rows[row]] == list(stream)
    return rows


def _box_candidates(monkeypatch, a_n, height, partition):
    # every candidate's base radicand a*w_0 + b, read back as (a, b): |b| <= H
    # and w_0 > 2H, so a is the multiple of w_0 nearest to it
    w_0 = a_n.rth_powers()[0]
    assert w_0 > 2 * height
    radicands = []
    monkeypatch.setattr(search, "sth_root_exact", lambda x, s: radicands.append(x))
    assert enumerate_curves(Fiber(a_n, 2), SearchConfig(height, partition)) == []
    return [(round(x / w_0), x - round(x / w_0) * w_0) for x in radicands]


@pytest.mark.parametrize("height", (1, 5, 8))
def test_worker_slices_take_whole_rows(monkeypatch, height):
    # worker i of N gets outer rows i, i+N, ... (rows of a in the box, of Y_0
    # among the pairs), and the rows of all workers rebuild the whole stream
    a_2 = XCoordinates([10, 2, -1], 3)
    values = [v for v in range(-height, height + 1) if v != 0]
    kernels = [(lambda part: _box_candidates(monkeypatch, a_2, height, part),
                lambda ab: values.index(ab[0]))]
    for s in (2, 3):
        kernels.append((lambda part, s=s: [(p, q) for p, qs in search._pair_rows(height, s, part)
                                           for q in qs],
                        lambda pq: pq[0]))
    for stream_of, row_of in kernels:
        full = stream_of((0, 1))
        assert full
        for count in (1, 2, 3, 7):
            merged = {}
            for index in range(count):
                rows = _rows_of(stream_of((index, count)), row_of)
                assert all(row % count == index for row in rows)
                merged.update(rows)
            assert [item for row in sorted(merged) for item in merged[row]] == full


def _gcd_rows(height, s, partition):
    # the coprime rows by definition: one gcd per candidate Y_1
    for p in range(height + 1)[partition[0]::partition[1]]:
        if s % 2 == 0:
            qs = range(0, height + 1)
        else:
            qs = range(-height, height + 1) if p > 0 else (1,)
        yield p, [q for q in qs if math.gcd(p, q) == 1]


@given(height=st.integers(1, 120), s=st.sampled_from((2, 3, 4, 5)),
       partition=st.integers(1, 5).flatmap(
           lambda count: st.tuples(st.integers(0, count - 1), st.just(count))))
# row 0 is [1]; row 1 holds q = 0 once; 64 = 2^6 zeroes only the even q;
# the last row p = H with odd s mirrors around 0
@example(height=1, s=3, partition=(0, 1))
@example(height=64, s=2, partition=(0, 1))
@example(height=64, s=3, partition=(4, 5))
@example(height=97, s=5, partition=(2, 5))
def test_pair_rows_are_the_coprime_rows(height, s, partition):
    assert list(search._pair_rows(height, s, partition)) == list(_gcd_rows(height, s, partition))


@pytest.mark.parametrize("alphas, s, height, pairs, root_tests", (
    ([0, 4, -5, -6, 6], 2, 60, 2205, 2226),
    ([0, 2, 3], 3, 40, 1960, 1960),
))
def test_fiber_pairs_root_test_every_coprime_pair(monkeypatch, alphas, s, height, pairs,
                                                 root_tests):
    # exhaustive: each coprime pair gets the first equation's root test, and
    # only the pairs that pass it get the later equations' tests
    calls = []
    monkeypatch.setattr(search, "sth_root_exact",
                        lambda x, s: calls.append(x) or sth_root_exact(x, s))
    a_n = XCoordinates(alphas, 3)
    search_fiber_points(Fiber(a_n, s), SearchConfig(height))
    assert sum(len(qs) for _, qs in search._pair_rows(height, s, (0, 1))) == pairs
    assert len(calls) == root_tests


@pytest.mark.parametrize("alphas, s, height, members, found", (
    ([0, 1, 2], 2, 30, 300, 4),
    ([2, 3, -1], 2, 30, 102, 1),
    ([1, 2, 0], 3, 30, 282, 4),
    ([-3, 3, 2, -4, -1], 2, 30, 56, 0),
))
def test_curve_box_root_tests_every_base_radicand(monkeypatch, alphas, s, height, members,
                                                  found):
    # exhaustive: each candidate gets one root test of its base radicand
    # a*w_0 + b, and only a nonzero base root calls curve_roots_over
    a_n = XCoordinates(alphas, 3)
    radicands, called = [], []
    monkeypatch.setattr(search, "sth_root_exact",
                        lambda x, s: radicands.append(x) or sth_root_exact(x, s))

    def roots_over(fiber, a, b):
        called.append((a, b))
        before = len(radicands)
        roots = curve_roots_over(fiber, a, b)
        del radicands[before:]  # the membership test's own root tests
        return roots

    monkeypatch.setattr(search, "curve_roots_over", roots_over)
    fiber = Fiber(a_n, s)
    curves = enumerate_curves(fiber, SearchConfig(height))
    w_0 = a_n.rth_powers()[0]
    values = [v for v in range(-height, height + 1) if v != 0]
    assert radicands == [a * w_0 + b for a in values for b in values]
    assert called == [(a, b) for a in values for b in values if sth_root_exact(a * w_0 + b, s)]
    assert len(called) == members
    assert [(c.a, c.b) for c in curves] == [ab for ab in called
                                           if curve_roots_over(fiber, *ab) is not None]
    assert len(curves) == found


def _reference_root(v: Fraction, s: int):
    # exact s-th root of a Fraction, non-negative for even s, signed for odd s
    if v < 0 and s % 2 == 0:
        return None
    num, den = int_nth_root(abs(v.numerator), s), int_nth_root(v.denominator, s)
    if num is None or den is None:
        return None
    return Fraction(-num if v < 0 else num, den)


def _reference_curves(a_n, s, height):
    """The curve box in Fraction arithmetic: a*w + b on Fraction a, b, w."""
    w = [Fraction(x) ** a_n.r for x in a_n.alphas]
    values = [Fraction(v) for v in range(-height, height + 1) if v != 0]
    found = []
    for a in values:
        for b in values:
            roots = [_reference_root(a * wi + b, s) for wi in w]
            if None not in roots and roots[0] != 0:
                found.append((a, b, roots))
    return found


def _reference_fiber_points(a_n, s, height):
    """The fiber-pair stream in Fraction arithmetic: Y_i^s = -(c0*z0 + c1*z1)/ci."""
    equations = Fiber(a_n, s).equations
    found = set()
    for p in range(height + 1):
        if s % 2 == 0:
            qs = range(height + 1)
        else:
            qs = range(-height, height + 1) if p > 0 else (1,)
        for q in qs:
            if math.gcd(p, q) != 1:
                continue
            z0, z1 = Fraction(p) ** s, Fraction(q) ** s
            coords = [Fraction(p), Fraction(q)]
            for eq in equations:
                root = _reference_root(-(eq.c0 * z0 + eq.c1 * z1) / eq.ci, s)
                if root is None:
                    break
                coords.append(root)
            else:
                found.add(canonical_fiber_point(coords, s))
    return sorted(found, key=lambda P: P.coords)


@given(a_n=admissible_x_coordinates(), s=st.sampled_from((2, 3, 4)), height=st.integers(1, 10))
# random boxes are mostly empty; these find curves or nontrivial fiber points,
# with ci = 8, 27, 64 or 55 so that the ci^(s-1) scaling matters; the last is
# five alphas at r = 4 and the smallest height, which already holds [1:1:1:1:1]
@example(a_n=XCoordinates([0, 2, -1], 3), s=2, height=10)
@example(a_n=XCoordinates([0, 2, 3], 3), s=3, height=10)
@example(a_n=XCoordinates([Fraction(1, 2), 2, Fraction(-1, 3)], 2), s=2, height=10)
@example(a_n=XCoordinates([-2, 0, Fraction(3, 2)], 3), s=3, height=10)
@example(a_n=XCoordinates([-4, Fraction(-3, 2), Fraction(-1, 2)], 2), s=2, height=10)
@example(a_n=XCoordinates([0, 1, -2, Fraction(1, 2), Fraction(5, 6)], 4), s=4, height=1)
def test_search_kernels_match_the_fraction_reference(a_n, s, height):
    # the reference is exhaustive at every height, so it also pins what the
    # kernels must find at any height: [1 : ... : 1] from H = 1 on, and a box
    # at H inside the box at any larger H
    assert a_n.rth_powers() == tuple(x ** a_n.r for x in a_n.alphas)
    cfg, fiber = SearchConfig(height), Fiber(a_n, s)
    curves = enumerate_curves(fiber, cfg)
    assert all(type(c.a) is Fraction and type(c.b) is Fraction for c in curves)
    # the kernel tests int box values; the roots it sees are those of int a, b
    assert [(c.a, c.b, curve_roots_over(fiber, int(c.a), int(c.b))) for c in curves] \
        == _reference_curves(a_n, s, height)
    assert search_fiber_points(fiber, cfg) == _reference_fiber_points(a_n, s, height)


@given(a_n=admissible_x_coordinates(st.integers(-6, 6), max_size=3),
       s=st.sampled_from((2, 3)), height=st.integers(1, 40))
@example(a_n=XCoordinates([0, 2, 3], 3), s=3, height=40)
@example(a_n=XCoordinates([0, 1, 2], 3), s=3, height=40)
@example(a_n=XCoordinates([1, 2, 4], 3), s=3, height=40)
@example(a_n=XCoordinates([0, 4, -5], 3), s=3, height=40)
def test_fiber_points_lie_on_their_conic_or_cubic(a_n, s, height):
    # an oracle that takes no root: for n = 2 the fiber is the one curve
    # c0*X^s + c1*Y^s + c2*Z^s = 0, whose coefficients sum to zero
    fiber = Fiber(a_n, s)
    (eq,) = fiber.equations
    assert eq.c0 + eq.c1 + eq.ci == 0
    for P in search_fiber_points(fiber, SearchConfig(height)):
        if s == 2:
            spec = ConicSpec(eq.c0, eq.c1)
            X, Y, Z = P.coords
            assert spec.alpha * X ** 2 + spec.beta * Y ** 2 + spec.gamma * Z ** 2 == 0
        else:
            spec = CubicSpec(eq.c0, eq.c1)
            assert spec.contains(P.coords)
            if math.prod(P.coords):
                assert fermat_to_weierstrass(spec, P.coords).on_curve()


# the parameters u = p/q with |p| <= 8 and q <= 8 at which the rung models are evaluated
MODEL_PARAMETERS = sorted({Fraction(p, q) for p in range(-8, 9) for q in range(1, 9)})


@given(a_n=admissible_x_coordinates(st.integers(-6, 6)), height=st.integers(1, 40))
@example(a_n=XCoordinates([0, 1, 2, 3], 2), height=40)
@example(a_n=XCoordinates([0, 1, 2], 2), height=40)
def test_rung_model_images_are_found_by_the_pair_search(a_n, height):
    # s = 2 oracles that share no code with the kernel: the conic parameterization
    # of F_2 and the quartic model of F_3; each image of pair height <= H must
    # be a census point
    fiber = Fiber(a_n, 2)
    found = set(search_fiber_points(fiber, SearchConfig(height)))
    if a_n.n == 2:
        (eq,) = fiber.equations
        images = [conic_param(ConicSpec(eq.c0, eq.c1), u) for u in MODEL_PARAMETERS]
    else:
        images = [lift_quartic_parameter(fiber, u) for u in MODEL_PARAMETERS]
    reached = [canonical_fiber_point(P.coords, 2) for P in images if P is not None]
    reached = [P for P in reached if pair_height(P) <= height]
    assert set(reached) <= found
    if (a_n.alphas, a_n.r, height) == ((0, 1, 2, 3), 2, 40):
        # u = 2 lifts to [0 : 1 : 2 : 3], besides the trivial point
        assert set(reached) == found and len(found) == 2


def test_integer_class_representatives():
    reps = integer_class_representatives(Fraction(1), Fraction(1), 2, 20)
    assert reps == [(1, 1), (4, 4), (9, 9), (16, 16)]
    reps = integer_class_representatives(Fraction(3, 4), Fraction(1, 4), 2, 5)
    assert reps == [(3, 1)]
    # odd s admits negative rescalings
    reps = integer_class_representatives(Fraction(1), Fraction(2), 3, 20)
    assert (-1, -2) in reps and (8, 16) in reps
    assert integer_class_representatives(Fraction(1, 7), Fraction(1), 2, 10) == []


SMALL_RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))


@settings(max_examples=300)
@given(a=SMALL_RATIONALS, b=SMALL_RATIONALS, s=st.integers(2, 5), height=st.integers(1, 200))
def test_class_representatives_are_in_the_class_and_the_box(a, b, s, height):
    for A, B in integer_class_representatives(a, b, s, height):
        assert isinstance(A, int) and isinstance(B, int)
        assert max(abs(A), abs(B)) <= height
        assert A * b == B * a
        t = Fraction(A) / a if a else Fraction(B) / b
        assert t != 0 and sth_root_exact(t, s) is not None


@settings(max_examples=300)
@given(A0=st.integers(-80, 80), B0=st.integers(-80, 80), s=st.integers(2, 5),
       u=st.integers(-6, 6), v=st.integers(1, 6), slack=st.integers(0, 40))
def test_class_representatives_find_every_pair_in_the_box(A0, B0, s, u, v, slack):
    # t = u/v rescales an integer pair of the box to a rational pair of its class
    assume((A0, B0) != (0, 0) and u != 0 and (u > 0 or s % 2 == 1))
    t = Fraction(u, v) ** s
    height = max(abs(A0), abs(B0)) + slack
    assert (A0, B0) in integer_class_representatives(A0 / t, B0 / t, s, height)


def test_class_representatives_of_the_zero_pair_are_empty():
    assert integer_class_representatives(Fraction(0), Fraction(0), 3, 10) == []


def test_reduced_pair_and_height():
    assert pair_height(normalize_projective([2, 6, 1])) == 3


def test_searches_refuse_work_past_the_cap_at_once():
    # SearchConfig bounds no height; each kernel refuses its own work, whatever
    # the partition, and names the largest height it admits (a_4's box admits
    # H = 5138; a bound on (2H+1)^2 alone stopped every search at 4999)
    assert MAX_WORK == 60 * 10 ** 9
    assert SearchConfig(10 ** 11, (1, 2)).height_bound == 10 ** 11
    a_4 = Fiber(XCoordinates((0, 4, -5, -6, 6), 3), 2)
    for kernel, search, admitted in (("curve-box", enumerate_curves, 5138),
                                     ("fiber-pairs", search_fiber_points, 8925)):
        for partition in ((0, 1), (1, 2)):
            start = time.perf_counter()
            with pytest.raises(ValueError) as refused:
                search(a_4, SearchConfig(admitted + 1, partition))
            assert time.perf_counter() - start < 1
            assert re.fullmatch(f"{kernel} search at height {admitted + 1} needs about [0-9.e+]+ s"
                                " of root tests, past the 60 s work cap: this tuple and s admit"
                                f" heights up to {admitted}", str(refused.value)), refused.value


def test_pair_search_refuses_work_past_the_cap_before_building_it():
    # 0,2,3 at r = 3 gives (c0, c1, ci) = (19, -27, 8), so at H = 1 the cap
    # admits the 4 candidates of s = 695420, whose radicands have about
    # 4*(s-1) + 5 + 1 + s bits, and refuses the 6 of s = 695421 before it
    # forms ci^(s-1)
    a_2 = XCoordinates([0, 2, 3], 3)
    assert search_fiber_points(Fiber(a_2, 695420), SearchConfig(1)) == [normalize_projective([1, 1, 1])]
    refused = ("fiber-pairs search at height 1 needs about 89 s of root tests, past the 60 s work"
               " cap: this tuple and s admit heights up to 0")
    for call in (lambda: search_fiber_points(Fiber(a_2, 695421), SearchConfig(1)),
                 lambda: cross_check(Fiber(a_2, 695421), SearchConfig(1))):
        start = time.perf_counter()
        with pytest.raises(ValueError) as error:
            call()
        assert time.perf_counter() - start < 1
        assert str(error.value) == refused


def _admits(refuse, fiber: Fiber, height: int) -> bool:
    try:
        refuse(fiber, height)
    except ValueError:
        return False
    return True


@given(a_n=admissible_x_coordinates(st.one_of(
           SMALL_FRACTIONS, st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 3)))),
       s=st.integers(2, 40), height=st.integers(1, 10 ** 6), larger=st.integers(1, 10 ** 6),
       k=st.integers(1, 5))
@example(a_n=XCoordinates((0, 4, -5, -6, 6), 3), s=2, height=10 ** 5, larger=1, k=1)
@example(a_n=XCoordinates(("1/2", "2/3", "3/5"), 3), s=3, height=4999, larger=1, k=1)
def test_the_work_cap_admits_the_heights_up_to_the_one_it_names(a_n, s, height, larger, k):
    # for each kernel's refusal (the pair one is _refuse_pair_work): the
    # height a refusal names is admitted and the next one refused, no height
    # above a refused one is admitted, and scaling the alphas by t, prime to
    # their denominators, keeps the fiber equations and grows every |alpha^r|,
    # so it admits no height that was refused
    t = k * math.lcm(*(alpha.denominator for alpha in a_n.alphas)) + 1
    fiber = Fiber(a_n, s)
    scaled = Fiber(XCoordinates([t * alpha for alpha in a_n.alphas], a_n.r), s)
    for refuse in (search._refuse_box_work, search._refuse_pair_work):
        try:
            refuse(fiber, height)
            continue
        except ValueError as refused:
            named = int(re.search("admit heights up to ([0-9]+)$", str(refused))[1])
        assert named < height
        assert named == 0 or _admits(refuse, fiber, named)
        assert not _admits(refuse, fiber, named + 1)
        assert not _admits(refuse, fiber, height + larger)
        assert not _admits(refuse, scaled, named + 1)


def test_values_refuse_the_powers_they_would_form_at_once():
    # each call used to form its power first (2^(10^6) and more, 3^(10^8) for a
    # fiber point) or, at s = 10^8, meet the work cap instead; cross_check ran
    # its whole box (13 s) first
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    a_2 = XCoordinates((0, 1, 2), 2)
    calls = (
        (lambda: XCoordinates((2, 3, 5), 10 ** 6), "alpha^r"),
        (lambda: CurveWithPoints(Curve(FamilyParams(10 ** 6, 2), 1, 1), [AffinePoint(2, 3)]),
         "point 0: x^r or y^s"),
        (lambda: search_fiber_points(Fiber(XCoordinates((0, 4, -5, -6, 6), 3), 10 ** 8),
                                     SearchConfig(3)), "height^s"),
        (lambda: fiber_contains(a_2, 10 ** 8, (2, 3, 5)), "Y^s"),
        (lambda: phi_inverse(Fiber(a_2, 10 ** 8), (2, 3, 5)), "Y^s"),
        (lambda: geometry_report(10 ** 100, 10 ** 100),
         f"genus report for n={10 ** 100}, s={10 ** 100}"),
    )
    for call, what in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            call()
        assert time.perf_counter() - start < 1, what
        assert str(refused.value) == f"{what} exceeds {limit} digits"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^fiber-pairs search at height 1500 needs about"):
        cross_check(Fiber(XCoordinates((2 ** 100, 0, 1), 11), 1000), SearchConfig(1500))
    assert time.perf_counter() - start < 1


def test_census_entries_hold_images():
    a_2 = XCoordinates([0, 2, -1], 3)
    fiber = Fiber(a_2, 2)
    entries = curve_census_entries(fiber, SearchConfig(2))
    assert len(entries) == 1
    cwp = entries[0]
    assert (cwp.curve.a, cwp.curve.b) == (1, 1)
    assert cwp.points == (AffinePoint(0, 1), AffinePoint(2, 3), AffinePoint(-1, 0))
    assert cwp.base_index == 0 and len(cwp.points) == 3
    assert [p.y for p in cwp.points] == curve_roots_over(fiber, cwp.curve.a, cwp.curve.b)
    _, image = phi_forward(cwp)
    assert image.coords == (1, 3, 0)
    assert fiber_contains(a_2, 2, image.coords)
    assert canonical_fiber_point(image.coords, 2) == image

    fiber_entries = fiber_census_entries(fiber, SearchConfig(5))
    assert [(e.curve.a, e.curve.b) for e in fiber_entries] == [(1, 1)]


@given(a_n=admissible_x_coordinates(), s=st.sampled_from((2, 3)), height=st.integers(1, 8),
       census=st.sampled_from((curve_census_entries, fiber_census_entries)))
# random small boxes are mostly empty; these hold 1 to 6 curves each at H = 8,
# and the last three 2 to 5 fiber-census entries
@example(a_n=XCoordinates([-4, Fraction(-3, 2), Fraction(-1, 2)], 2), s=2, height=8,
         census=curve_census_entries)
@example(a_n=XCoordinates([-3, -1, 0], 2), s=3, height=8, census=curve_census_entries)
@example(a_n=XCoordinates([-2, 0, 1], 3), s=2, height=8, census=curve_census_entries)
@example(a_n=XCoordinates([-2, 0, Fraction(3, 2)], 3), s=3, height=8,
         census=curve_census_entries)
@example(a_n=XCoordinates([-3, -1, 0], 2), s=3, height=8, census=fiber_census_entries)
@example(a_n=XCoordinates([-2, 0, 1], 3), s=2, height=8, census=fiber_census_entries)
@example(a_n=XCoordinates([-2, 0, Fraction(3, 2)], 3), s=3, height=8,
         census=fiber_census_entries)
def test_census_images_are_forward_map_images(a_n, s, height, census):
    fiber = Fiber(a_n, s)
    for cwp in census(fiber, SearchConfig(height)):
        assert [p.x for p in cwp.points] == list(a_n.alphas) and cwp.base_index == 0
        _, image = phi_forward(cwp)
        # the printed point is the canonical point of the curve's s-th roots
        ys = [sth_root_exact(cwp.curve.rhs(x), s) for x in a_n.alphas]
        assert image == canonical_fiber_point(ys, s)
        recovered = phi_inverse(fiber, image.coords)
        if census is fiber_census_entries:
            assert cwp == recovered
        else:
            # the box holds (a, b), the recovered curve a rescaling of it
            assert cwp_equivalent(cwp, recovered)


@given(a_n=admissible_x_coordinates(), s=st.sampled_from((2, 3)), height=st.integers(1, 8))
# every bucket but unmatched: [0:1:4] base-vanishing and [3:4:11] cutoff at the
# first, two curves in one matched class at the second, s = 3 with a matched
# class and four cutoff points at the third
@example(a_n=XCoordinates([1, 2, 7], 2), s=2, height=6)
@example(a_n=XCoordinates([0, 2, -1], 3), s=2, height=4)
@example(a_n=XCoordinates([-2, 0, Fraction(3, 2)], 3), s=3, height=8)
def test_cross_check_partitions_both_censuses(a_n, s, height):
    fiber = Fiber(a_n, s)
    report = cross_check(fiber, SearchConfig(height))
    assert (report["alphas"], report["r"]) == (a_n.to_obj()["alphas"], a_n.r)
    curves = [c for m in report["matched"] for c in m["curves"]] + report["unmatched_curves"]
    assert sorted(map(Curve.from_obj, curves), key=lambda c: (c.a, c.b)) \
        == [cwp.curve for cwp in curve_census_entries(fiber, SearchConfig(height))]
    buckets = ("trivial_points", "base_vanishing_points", "cutoff_fiber_points",
               "unmatched_fiber_points")
    points = [m["fiber_point"] for m in report["matched"]] + [
        P for key in buckets for P in report[key]]
    assert sorted(points) == sorted(P.to_obj() for P in search_fiber_points(
        fiber, SearchConfig(report["fiber_height"])))
    assert report["ok"] is (report["unmatched_curves"] == report["unmatched_fiber_points"] == [])


def _floor_root(n: int, s: int) -> int:
    root = int(n ** (1 / s))
    while root ** s > n:
        root -= 1
    while (root + 1) ** s <= n:
        root += 1
    return root


@settings(max_examples=30)
@given(a_n=admissible_x_coordinates(), s=st.sampled_from((2, 3, 4)), height=st.integers(1, 12))
# random boxes are mostly empty; these hold curves (a_4 at H = 225 has H' = 120)
@example(a_n=XCoordinates([0, 4, -5, -6, 6], 3), s=2, height=225)
@example(a_n=XCoordinates([1, 2, 7], 2), s=2, height=100)
@example(a_n=XCoordinates([0, 1, 2], 3), s=3, height=100)
@example(a_n=XCoordinates([Fraction(1, 2), 1, 3], 2), s=2, height=60)
def test_curve_box_is_the_fiber_census_below_a_bound_it_does_not_choose(a_n, s, height):
    # a box curve's roots satisfy |D*y_j|^s <= D^s*H*(|w_j| + 1), where D is the
    # lcm of the denominators of w_0 and w_1 (w = alpha^r) and D*y_j is an
    # integer, so its fiber point's reduced (Y_0, Y_1) has height at most H'.
    # The box at H is then the integer representatives, up to H, of the curves
    # that the fiber census at H' recovers; cross_check raises its fiber bound
    # from the box's own curves, so it cannot see a curve the box misses
    w = a_n.rth_powers()[:2]
    D = math.lcm(*(Fraction(x).denominator for x in w))
    fiber_height = max(_floor_root(int(D ** s * height * (abs(x) + 1)), s) for x in w)
    fiber = Fiber(a_n, s)
    union = sorted(pair for cwp in fiber_census_entries(fiber, SearchConfig(fiber_height))
                   for pair in integer_class_representatives(cwp.curve.a, cwp.curve.b, s, height))
    assert union == [(c.a, c.b) for c in enumerate_curves(fiber, SearchConfig(height))]


def test_cross_check_sorts_base_vanishing_points():
    # with alpha_0 = 0 the point [0:1:2] recovers b = 0: the triviality test
    # comes first, so it is trivial although its base coordinate vanishes
    report = cross_check(Fiber(XCoordinates([0, 1, 2], 2), 2), SearchConfig(4))
    assert report["trivial_points"] == [["0", "1", "2"], ["1", "1", "1"]]
    assert report["base_vanishing_points"] == []


def test_cross_check_trivial_only_fiber():
    a_2 = XCoordinates([1, 2, 3], 3)
    report = cross_check(Fiber(a_2, 2), SearchConfig(1))
    assert report["matched"] == []
    assert report["trivial_points"] == [["1", "1", "1"]]
    assert report["ok"]


def test_cross_check_groups_equivalent_curves():
    # (1, 1) and (4, 4) are the same class; both sit in an H = 4 box
    a_2 = XCoordinates([0, 2, -1], 3)
    report = cross_check(Fiber(a_2, 2), SearchConfig(4))
    classes = {tuple(m["fiber_point"]): [(c["a"], c["b"]) for c in m["curves"]]
               for m in report["matched"]}
    assert classes[("1", "3", "0")] == [("1", "1"), ("4", "4")]
    assert report["ok"]


def test_census_stability_observed_above_threshold():
    # empirical observation, not a theorem: above the finiteness
    # threshold the census stops growing with H on test fibers
    empty_fiber = XCoordinates([0, 1, 2, 3, 4], 3)
    # x-coordinates of five small points on y^2 = x^3 + 225
    rich_fiber = XCoordinates([0, 4, -5, -6, 6], 3)
    for a_4, label in ((empty_fiber, "empty"), (rich_fiber, "rich")):
        sizes = {}
        for H in (17, 30, 45):
            entries = fiber_census_entries(Fiber(a_4, 2), SearchConfig(H))
            sizes[H] = len(entries)
        assert sizes[17] <= sizes[30] <= sizes[45]
        assert sizes[30] == sizes[45]
        print(f"census sizes on {label} n=4 fiber as H grows: {sizes} (observed stable)")
    entries = fiber_census_entries(Fiber(rich_fiber, 2), SearchConfig(17))
    assert [(e.curve.a, e.curve.b) for e in entries] == [(1, 225)]
    assert phi_forward(entries[0])[1].coords == (15, 17, 10, 3, 21)


def test_cross_check_matches_rich_fiber_once_box_reaches_curve():
    a_4 = XCoordinates([0, 4, -5, -6, 6], 3)
    report = cross_check(Fiber(a_4, 2), SearchConfig(225))
    assert report["ok"]
    assert len(report["matched"]) == 1
    match = report["matched"][0]
    assert [(c["a"], c["b"]) for c in match["curves"]] == [("1", "225")]
    assert match["fiber_point"] == ["15", "17", "10", "3", "21"]
    assert report["cutoff_fiber_points"] == []


def test_genus_ladder_of_a4():
    # the abstract's ladder F_2 > F_3 > F_4 of genera 0, 1, 5 on a_4's prefixes:
    # a rung point without its last coordinate is a point of the rung below
    # with the same (Y_0, Y_1), so counts never grow down the ladder and
    # never shrink as H grows
    rungs = ([0, 4, -5], [0, 4, -5, -6], [0, 4, -5, -6, 6])
    assert [fiber_genus(len(alphas) - 1, 2) for alphas in rungs] == [0, 1, 5]
    counts = {H: [len(search_fiber_points(Fiber(XCoordinates(alphas, 3), 2), SearchConfig(H)))
                  for alphas in rungs]
              for H in (30, 300)}
    assert counts == {30: [11, 2, 2], 300: [110, 4, 2]}
    for H, ladder in counts.items():
        assert ladder == sorted(ladder, reverse=True), H
    assert all(low <= high for low, high in zip(counts[30], counts[300]))


def test_curve_roots_over_refuses_a_vanishing_base_root():
    # x^2 - 1 is 0, -1 and 8 at alphas 1, 0, 3: every value is a cube, but
    # the base root is 0
    assert [sth_root_exact(v, 3) for v in (0, -1, 8)] == [0, -1, 2]
    assert curve_roots_over(Fiber(XCoordinates((1, 0, 3), 2), 3), 1, -1) is None

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superfiber import (
    ELKIES,
    Curve,
    CurveWithPoints,
    SearchConfig,
    canonical_fiber_point,
    cross_check,
    curve_roots_over,
    enumerate_curves,
    fiber_contains,
    fiber_equations,
    int_nth_root,
    integer_class_representatives,
    is_admissible,
    normalize_projective,
    phi_forward,
    point,
    search_fiber_points,
    sth_root_exact,
    x_coordinates,
)
from superfiber import search
from superfiber.search import (
    MAX_CANDIDATES,
    curve_census_entries,
    fiber_census_entries,
    pair_height,
)
from helpers_roundtrip import random_admissible_alphas


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(0)
    for partition in ((3, 3), (0, 0), (0, -3), (-1, 2), (7, 1)):
        with pytest.raises(ValueError, match="worker_index < worker_count"):
            SearchConfig(5, partition)


def test_enumerate_curves_small_box():
    a_2 = x_coordinates([0, 2, -1], 3)
    found = enumerate_curves(a_2, 2, SearchConfig(2))
    assert [(c.a, c.b) for c in found] == [(1, 1)]
    # values 1, 9, 0 at the three alphas are all squares


def test_enumerate_curves_empty_box():
    a_2 = x_coordinates([1, 2, 3], 3)
    assert enumerate_curves(a_2, 2, SearchConfig(1)) == []


def test_curve_membership_predicate_on_elkies_data():
    a_16 = ELKIES.x_coordinates()
    assert curve_roots_over(a_16, 2, Fraction(1), Fraction(ELKIES.b0)) is not None
    # consecutive integers are never both squares above 0
    assert curve_roots_over(a_16, 2, Fraction(1), Fraction(ELKIES.b0 + 1)) is None
    assert curve_roots_over(a_16, 2, Fraction(0), Fraction(ELKIES.b0)) is None


def test_census_points_membership_verified():
    a_2 = x_coordinates([0, 2, -1], 3)
    # 1*x^3 + 1 is 1, 9, 0 at the three alphas
    assert curve_roots_over(a_2, 2, Fraction(1), Fraction(1)) == [1, 3, 0]
    assert curve_roots_over(a_2, 2, Fraction(1), Fraction(2)) is None


def test_search_fiber_points_contains_unit_and_example():
    a_2 = x_coordinates([0, 2, -1], 3)
    pts = search_fiber_points(a_2, 2, SearchConfig(5))
    coords = {P.coords for P in pts}
    assert (1, 1, 1) in coords
    assert (1, 3, 0) in coords
    for P in pts:
        assert fiber_contains(a_2, 2, P.coords)


def test_search_fiber_points_trivial_always_found():
    rng = random.Random(112)
    for _ in range(10):
        a_n = random_admissible_alphas(rng, rng.randint(2, 4), rng.randint(3, 5))
        s = rng.randint(2, 4)
        pts = search_fiber_points(a_n, s, SearchConfig(1))
        assert any(P.coords == tuple([1] * (a_n.n + 1)) for P in pts)


def test_even_s_sign_closure_before_canonicalization():
    a_2 = x_coordinates([0, 2, -1], 3)
    pts = search_fiber_points(a_2, 2, SearchConfig(5))
    rng = random.Random(3)
    for P in pts:
        signs = [rng.choice((1, -1)) * c for c in P.coords]
        assert fiber_contains(a_2, 2, signs)
        assert canonical_fiber_point(signs, 2) == P


def test_search_monotone_in_height():
    rng = random.Random(55)
    for _ in range(5):
        a_n = random_admissible_alphas(rng, 3, 3)
        small = set(P.coords for P in search_fiber_points(a_n, 2, SearchConfig(3)))
        large = set(P.coords for P in search_fiber_points(a_n, 2, SearchConfig(6)))
        assert small <= large
        boxed_small = {(c.a, c.b) for c in enumerate_curves(a_n, 2, SearchConfig(3))}
        boxed_large = {(c.a, c.b) for c in enumerate_curves(a_n, 2, SearchConfig(9))}
        assert boxed_small <= boxed_large


def test_partition_union_equals_full_search():
    a_2 = x_coordinates([0, 2, -1], 3)
    a_3 = x_coordinates([0, 2, 3], 3)

    def by_curve(c):
        return (c.a, c.b)

    def by_point(P):
        return P.coords

    # the curve box; even s and odd (signed pairs) fiber side
    for runner, a_n, s, height, key in (
        (enumerate_curves, a_2, 2, 6, by_curve),
        (search_fiber_points, a_2, 2, 6, by_point),
        (search_fiber_points, a_3, 3, 12, by_point),
    ):
        full = runner(a_n, s, SearchConfig(height))
        assert full
        merged = []
        for index in range(3):
            merged.extend(runner(a_n, s, SearchConfig(height, (index, 3))))
        assert sorted(merged, key=key) == full


@settings(deadline=None)
@given(alphas=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                      min_size=3, max_size=4, unique=True),
       r=st.sampled_from((2, 3)), s=st.sampled_from((2, 3)),
       height=st.integers(1, 8), count=st.integers(1, 5))
def test_worker_slices_union_to_full_result(alphas, r, s, height, count):
    assume(is_admissible(alphas, r))
    a_n = x_coordinates(alphas, r)
    for runner, key in ((enumerate_curves, lambda c: (c.a, c.b)),
                        (search_fiber_points, lambda P: P.coords)):
        full = runner(a_n, s, SearchConfig(height))
        merged = [item for index in range(count)
                  for item in runner(a_n, s, SearchConfig(height, (index, count)))]
        assert sorted(merged, key=key) == full


def _rows_of(stream, row_of):
    rows = {}
    for item in stream:
        rows.setdefault(row_of(item), []).append(item)
    # each row is one run of the stream, and the runs come in row order
    assert [item for row in sorted(rows) for item in rows[row]] == list(stream)
    return rows


def _box_candidates(monkeypatch, a_n, height, partition):
    seen = []
    monkeypatch.setattr(search, "curve_roots_over",
                        lambda a_n, s, a, b: seen.append((a, b)))
    assert enumerate_curves(a_n, 2, SearchConfig(height, partition)) == []
    return seen


@pytest.mark.parametrize("height", (1, 5, 8))
def test_worker_slices_take_whole_rows(monkeypatch, height):
    # worker i of N gets outer rows i, i+N, ... (rows of a in the box, of Y_0
    # among the pairs), and the rows of all workers rebuild the whole stream
    a_2 = x_coordinates([0, 2, -1], 3)
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
    equations = fiber_equations(a_n, s)
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


@settings(deadline=None)
@given(alphas=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                      min_size=3, max_size=4, unique=True),
       r=st.sampled_from((2, 3)), s=st.sampled_from((2, 3, 4)), height=st.integers(1, 10))
# random boxes are mostly empty; these find curves or nontrivial fiber points,
# with ci = 8, 27, 64 or 55 so that the ci^(s-1) scaling matters
@example(alphas=[Fraction(0), Fraction(2), Fraction(-1)], r=3, s=2, height=10)
@example(alphas=[Fraction(0), Fraction(2), Fraction(3)], r=3, s=3, height=10)
@example(alphas=[Fraction(1, 2), Fraction(2), Fraction(-1, 3)], r=2, s=2, height=10)
@example(alphas=[Fraction(-2), Fraction(0), Fraction(3, 2)], r=3, s=3, height=10)
@example(alphas=[Fraction(-4), Fraction(-3, 2), Fraction(-1, 2)], r=2, s=2, height=10)
def test_search_kernels_match_the_fraction_reference(alphas, r, s, height):
    assume(is_admissible(alphas, r))
    a_n = x_coordinates(alphas, r)
    assert a_n.rth_powers() == tuple(Fraction(x) ** r for x in alphas)
    cfg = SearchConfig(height)
    curves = enumerate_curves(a_n, s, cfg)
    assert all(type(c.a) is Fraction and type(c.b) is Fraction for c in curves)
    # the kernel tests int box values; the roots it sees are those of int a, b
    assert [(c.a, c.b, curve_roots_over(a_n, s, int(c.a), int(c.b))) for c in curves] \
        == _reference_curves(a_n, s, height)
    assert search_fiber_points(a_n, s, cfg) == _reference_fiber_points(a_n, s, height)


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


@settings(deadline=None, max_examples=300)
@given(a=SMALL_RATIONALS, b=SMALL_RATIONALS, s=st.integers(2, 5), height=st.integers(1, 200))
def test_class_representatives_are_in_the_class_and_the_box(a, b, s, height):
    for A, B in integer_class_representatives(a, b, s, height):
        assert isinstance(A, int) and isinstance(B, int)
        assert max(abs(A), abs(B)) <= height
        assert A * b == B * a
        t = Fraction(A) / a if a else Fraction(B) / b
        assert t != 0 and sth_root_exact(t, s) is not None


@settings(deadline=None, max_examples=300)
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


def test_search_config_refuses_heights_past_the_candidate_cap():
    # (2*4999 + 1)^2 = 9999^2 < 10^8 < 10001^2
    assert MAX_CANDIDATES == 10 ** 8
    assert SearchConfig(4999).height_bound == 4999
    with pytest.raises(ValueError, match="exceeds the candidate cap"):
        SearchConfig(5000)


def test_census_entries_hold_images():
    a_2 = x_coordinates([0, 2, -1], 3)
    entries = curve_census_entries(a_2, 2, SearchConfig(2))
    assert len(entries) == 1
    entry = entries[0]
    assert (entry.curve.a, entry.curve.b) == (1, 1)
    assert entry.fiber_point.coords == (1, 3, 0)
    assert entry.to_obj()["distinct_x_count"] == 3
    assert fiber_contains(a_2, 2, entry.fiber_point.coords)
    roots = curve_roots_over(a_2, 2, entry.curve.a, entry.curve.b)
    cwp = CurveWithPoints(entry.curve, tuple(map(point, a_2.alphas, roots)))
    assert cwp.points == (point(0, 1), point(2, 3), point(-1, 0))
    _, image = phi_forward(cwp)
    assert canonical_fiber_point(image.coords, 2) == entry.fiber_point

    fiber_entries = fiber_census_entries(a_2, 2, SearchConfig(5))
    assert [(e.curve.a, e.curve.b) for e in fiber_entries] == [(1, 1)]


@settings(deadline=None)
@given(alphas=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                      min_size=3, max_size=4, unique=True),
       r=st.sampled_from((2, 3)), s=st.sampled_from((2, 3)), height=st.integers(1, 8))
# random small boxes are mostly empty; these hold 1 to 6 curves each at H = 8
@example(alphas=[Fraction(-4), Fraction(-3, 2), Fraction(-1, 2)], r=2, s=2, height=8)
@example(alphas=[Fraction(-3), Fraction(-1), Fraction(0)], r=2, s=3, height=8)
@example(alphas=[Fraction(-2), Fraction(0), Fraction(1)], r=3, s=2, height=8)
@example(alphas=[Fraction(-2), Fraction(0), Fraction(3, 2)], r=3, s=3, height=8)
def test_census_images_are_forward_map_images(alphas, r, s, height):
    assume(is_admissible(alphas, r))
    a_n = x_coordinates(alphas, r)
    for entry in curve_census_entries(a_n, s, SearchConfig(height)):
        ys = [sth_root_exact(entry.curve.rhs(x), s) for x in a_n.alphas]
        cwp = CurveWithPoints(entry.curve, tuple(map(point, a_n.alphas, ys)))
        _, image = phi_forward(cwp)
        assert entry.fiber_point == canonical_fiber_point(image.coords, s)


@settings(deadline=None)
@given(alphas=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                      min_size=3, max_size=4, unique=True),
       r=st.sampled_from((2, 3)), s=st.sampled_from((2, 3)), height=st.integers(1, 8))
# every bucket but unmatched: [0:1:4] base-vanishing and [3:4:11] cutoff at the
# first, two curves in one matched class at the second, s = 3 with a matched
# class and four cutoff points at the third
@example(alphas=[Fraction(1), Fraction(2), Fraction(7)], r=2, s=2, height=6)
@example(alphas=[Fraction(0), Fraction(2), Fraction(-1)], r=3, s=2, height=4)
@example(alphas=[Fraction(-2), Fraction(0), Fraction(3, 2)], r=3, s=3, height=8)
def test_cross_check_partitions_both_censuses(alphas, r, s, height):
    assume(is_admissible(alphas, r))
    a_n = x_coordinates(alphas, r)
    report = cross_check(a_n, s, height)
    curves = [c for m in report["matched"] for c in m["curves"]] + report["unmatched_curves"]
    assert sorted(map(Curve.from_obj, curves), key=lambda c: (c.a, c.b)) \
        == [e.curve for e in curve_census_entries(a_n, s, SearchConfig(height))]
    buckets = ("trivial_points", "base_vanishing_points", "cutoff_fiber_points",
               "unmatched_fiber_points")
    points = [m["fiber_point"] for m in report["matched"]] + [
        P for key in buckets for P in report[key]]
    assert sorted(points) == sorted(P.to_obj() for P in search_fiber_points(
        a_n, s, SearchConfig(report["fiber_height"])))
    assert report["ok"] is (report["unmatched_curves"] == report["unmatched_fiber_points"] == [])


def test_cross_check_exact_bijection():
    a_2 = x_coordinates([0, 2, -1], 3)
    report = cross_check(a_2, 2, 2)
    assert report["ok"]
    assert len(report["matched"]) == 1
    match = report["matched"][0]
    assert match["fiber_point"] == ["1", "3", "0"]
    assert [(c["a"], c["b"]) for c in match["curves"]] == [("1", "1")]
    assert (match["recovered_a"], match["recovered_b"]) == ("1", "1")
    assert report["trivial_points"] == [["1", "1", "1"]]
    assert report["cutoff_fiber_points"] == []
    assert report["unmatched_curves"] == []
    assert report["unmatched_fiber_points"] == []


def test_cross_check_sorts_base_vanishing_points():
    a_2 = x_coordinates([1, 2, 7], 2)
    report = cross_check(a_2, 2, 6)
    assert report["ok"] and report["matched"] == []
    assert report["base_vanishing_points"] == [["0", "1", "4"]]
    assert report["trivial_points"] == [["1", "1", "1"], ["1", "2", "7"]]
    assert report["cutoff_fiber_points"] == [["3", "4", "11"]]
    # with alpha_0 = 0 the point [0:1:2] recovers b = 0: the triviality test
    # comes first, so it is trivial although its base coordinate vanishes
    report = cross_check(x_coordinates([0, 1, 2], 2), 2, 4)
    assert report["trivial_points"] == [["0", "1", "2"], ["1", "1", "1"]]
    assert report["base_vanishing_points"] == []


def test_cross_check_trivial_only_fiber():
    a_2 = x_coordinates([1, 2, 3], 3)
    report = cross_check(a_2, 2, 1)
    assert report["matched"] == []
    assert report["trivial_points"] == [["1", "1", "1"]]
    assert report["ok"]


def test_cross_check_groups_equivalent_curves():
    # (1, 1) and (4, 4) are the same class; both sit in an H = 4 box
    a_2 = x_coordinates([0, 2, -1], 3)
    report = cross_check(a_2, 2, 4)
    classes = {tuple(m["fiber_point"]): [(c["a"], c["b"]) for c in m["curves"]]
               for m in report["matched"]}
    assert classes[("1", "3", "0")] == [("1", "1"), ("4", "4")]
    assert report["ok"]


def test_census_stability_observed_above_threshold():
    # empirical observation, not a theorem: above the finiteness
    # threshold the census stops growing with H on test fibers
    empty_fiber = x_coordinates([0, 1, 2, 3, 4], 3)
    # x-coordinates of five small points on y^2 = x^3 + 225
    rich_fiber = x_coordinates([0, 4, -5, -6, 6], 3)
    for a_4, label in ((empty_fiber, "empty"), (rich_fiber, "rich")):
        sizes = {}
        for H in (17, 30, 45):
            entries = fiber_census_entries(a_4, 2, SearchConfig(H))
            sizes[H] = len(entries)
        assert sizes[17] <= sizes[30] <= sizes[45]
        assert sizes[30] == sizes[45]
        print(f"census sizes on {label} n=4 fiber as H grows: {sizes} (observed stable)")
    entries = fiber_census_entries(rich_fiber, 2, SearchConfig(17))
    assert [(e.curve.a, e.curve.b) for e in entries] == [(1, 225)]
    assert entries[0].fiber_point.coords == (15, 17, 10, 3, 21)


def test_cross_check_cutoff_reconciliation_on_rich_fiber():
    # y^2 = x^3 + 225 passes through five of these x's; its minimal
    # integer representative (1, 225) sits outside an H = 20 box while
    # the fiber point (pair height 17) is inside the pair search, so the
    # point must be explained as cutoff, not left unmatched
    a_4 = x_coordinates([0, 4, -5, -6, 6], 3)
    report = cross_check(a_4, 2, 20)
    assert report["ok"]
    assert report["matched"] == []
    assert report["cutoff_fiber_points"] == [["15", "17", "10", "3", "21"]]
    assert integer_class_representatives(Fraction(1), Fraction(225), 2, 20) == []


def test_cross_check_matches_rich_fiber_once_box_reaches_curve():
    a_4 = x_coordinates([0, 4, -5, -6, 6], 3)
    report = cross_check(a_4, 2, 225)
    assert report["ok"]
    assert len(report["matched"]) == 1
    match = report["matched"][0]
    assert [(c["a"], c["b"]) for c in match["curves"]] == [("1", "225")]
    assert match["fiber_point"] == ["15", "17", "10", "3", "21"]
    assert report["cutoff_fiber_points"] == []


def test_cross_check_nontrivial_points_recover_census_curves():
    rng = random.Random(999)
    for _ in range(5):
        a_n = random_admissible_alphas(rng, 3, 3)
        report = cross_check(a_n, 2, 8)
        assert report["ok"]
        for m in report["matched"]:
            for curve in map(Curve.from_obj, m["curves"]):
                roots = [sth_root_exact(curve.rhs(alpha), 2) for alpha in a_n.alphas]
                assert all(value is not None for value in roots)
                assert roots[0] != 0

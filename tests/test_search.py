import random
from fractions import Fraction

import pytest

from superfiber import (
    ELKIES,
    SearchConfig,
    canonical_fiber_point,
    census_points,
    cross_check,
    curve_in_census,
    enumerate_curves,
    fiber_contains,
    integer_class_representatives,
    make_curve,
    normalize_projective,
    phi_forward,
    point,
    rationals_up_to_height,
    search_fiber_points,
    sth_root_exact,
    x_coordinates,
)
from superfiber.search import (
    curve_census_entries,
    fiber_census_entries,
    pair_height,
    reduced_leading_pair,
)
from helpers_roundtrip import random_admissible_alphas


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(0)
    for partition in ((3, 3), (0, 0), (0, -3), (-1, 2), (7, 1)):
        with pytest.raises(ValueError, match="worker_index < worker_count"):
            SearchConfig(5, partition)


def test_rationals_up_to_height():
    values = rationals_up_to_height(2)
    assert values == sorted(
        [Fraction(0), 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
    )


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
    assert curve_in_census(a_16, 2, Fraction(1), Fraction(ELKIES.b0))
    # consecutive integers are never both squares above 0
    assert not curve_in_census(a_16, 2, Fraction(1), Fraction(ELKIES.b0 + 1))
    assert not curve_in_census(a_16, 2, Fraction(0), Fraction(ELKIES.b0))


def test_enumerate_rational_box_superset_of_integer_box():
    a_2 = x_coordinates([0, 2, -1], 3)
    integer = enumerate_curves(a_2, 2, SearchConfig(2))
    rational_box = enumerate_curves(a_2, 2, SearchConfig(2, rational_box=True))
    assert set((c.a, c.b) for c in integer) <= set((c.a, c.b) for c in rational_box)
    assert (Fraction(1, 2), Fraction(1, 2)) not in set((c.a, c.b) for c in rational_box)
    # (1/4, 1/4) has values (1/4, 9/4, 0): all squares, height 4 > 2


def test_enumerate_rational_box_finds_scaled_class_members():
    a_2 = x_coordinates([0, 2, -1], 3)
    found = enumerate_curves(a_2, 2, SearchConfig(4, rational_box=True))
    assert (Fraction(1, 4), Fraction(1, 4)) in {(c.a, c.b) for c in found}


def test_census_points_membership_verified():
    a_2 = x_coordinates([0, 2, -1], 3)
    cwp = census_points(a_2, 2, make_curve(3, 2, 1, 1))
    assert cwp.points == (point(0, 1), point(2, 3), point(-1, 0))
    with pytest.raises(ValueError):
        census_points(a_2, 2, make_curve(3, 2, 1, 2))


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

    # integer and rational curve boxes; even s and odd (signed pairs) fiber side
    for runner, a_n, s, height, rational_box, key in (
        (enumerate_curves, a_2, 2, 6, False, by_curve),
        (enumerate_curves, a_2, 2, 4, True, by_curve),
        (search_fiber_points, a_2, 2, 6, False, by_point),
        (search_fiber_points, a_3, 3, 12, False, by_point),
    ):
        full = runner(a_n, s, SearchConfig(height, rational_box=rational_box))
        assert full
        merged = []
        for index in range(3):
            merged.extend(runner(a_n, s, SearchConfig(height, (index, 3), rational_box)))
        assert sorted(merged, key=key) == full


def test_integer_class_representatives():
    reps = integer_class_representatives(Fraction(1), Fraction(1), 2, 20)
    assert reps == [(1, 1), (4, 4), (9, 9), (16, 16)]
    reps = integer_class_representatives(Fraction(3, 4), Fraction(1, 4), 2, 5)
    assert reps == [(3, 1)]
    # odd s admits negative rescalings
    reps = integer_class_representatives(Fraction(1), Fraction(2), 3, 20)
    assert (-1, -2) in reps and (8, 16) in reps
    assert integer_class_representatives(Fraction(1, 7), Fraction(1), 2, 10) == []


def test_reduced_pair_and_height():
    P = normalize_projective([2, 6, 1])
    assert reduced_leading_pair(P) == (1, 3)
    assert pair_height(P) == 3


def test_census_entries_hold_images():
    a_2 = x_coordinates([0, 2, -1], 3)
    entries = curve_census_entries(a_2, 2, SearchConfig(2))
    assert len(entries) == 1
    entry = entries[0]
    assert (entry.curve.a, entry.curve.b) == (1, 1)
    assert entry.fiber_point.coords == (1, 3, 0)
    assert entry.to_obj()["distinct_x_count"] == 3
    assert fiber_contains(a_2, 2, entry.fiber_point.coords)
    cwp = census_points(a_2, 2, entry.curve)
    _, image = phi_forward(cwp)
    assert canonical_fiber_point(image.coords, 2) == entry.fiber_point

    fiber_entries = fiber_census_entries(a_2, 2, SearchConfig(5))
    assert [(e.curve.a, e.curve.b) for e in fiber_entries] == [(1, 1)]


def test_cross_check_exact_bijection():
    a_2 = x_coordinates([0, 2, -1], 3)
    report = cross_check(a_2, 2, SearchConfig(2))
    assert report.ok
    assert len(report.matched) == 1
    match = report.matched[0]
    assert match.fiber_point.coords == (1, 3, 0)
    assert [(c.a, c.b) for c in match.curves] == [(1, 1)]
    assert (match.recovered_a, match.recovered_b) == (1, 1)
    assert [P.coords for P in report.trivial_points] == [(1, 1, 1)]
    assert report.cutoff_fiber_points == ()
    assert report.unmatched_curves == ()
    assert report.unmatched_fiber_points == ()


def test_cross_check_trivial_only_fiber():
    a_2 = x_coordinates([1, 2, 3], 3)
    report = cross_check(a_2, 2, SearchConfig(1))
    assert report.matched == ()
    assert [P.coords for P in report.trivial_points] == [(1, 1, 1)]
    assert report.ok


def test_cross_check_groups_equivalent_curves():
    # (1, 1) and (4, 4) are the same class; both sit in an H = 4 box
    a_2 = x_coordinates([0, 2, -1], 3)
    report = cross_check(a_2, 2, SearchConfig(4))
    classes = {m.fiber_point.coords: [(c.a, c.b) for c in m.curves] for m in report.matched}
    assert classes[(1, 3, 0)] == [(1, 1), (4, 4)]
    assert report.ok


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


def test_cross_check_rational_box():
    a_2 = x_coordinates([0, 2, -1], 3)
    report = cross_check(a_2, 2, SearchConfig(2, rational_box=True))
    assert report.ok
    assert [(c.a, c.b) for c in report.matched[0].curves] == [(1, 1)]
    # a taller rational box pulls in more members of the same class
    report = cross_check(a_2, 2, SearchConfig(4, rational_box=True))
    assert report.ok
    classes = {m.fiber_point.coords: [(c.a, c.b) for c in m.curves] for m in report.matched}
    assert classes[(1, 3, 0)] == [(Fraction(1, 4), Fraction(1, 4)), (1, 1), (4, 4)]


def test_cross_check_cutoff_reconciliation_on_rich_fiber():
    # y^2 = x^3 + 225 passes through five of these x's; its minimal
    # integer representative (1, 225) sits outside an H = 20 box while
    # the fiber point (pair height 17) is inside the pair search, so the
    # point must be explained as cutoff, not left unmatched
    a_4 = x_coordinates([0, 4, -5, -6, 6], 3)
    report = cross_check(a_4, 2, SearchConfig(20))
    assert report.ok
    assert report.matched == ()
    assert [P.coords for P in report.cutoff_fiber_points] == [(15, 17, 10, 3, 21)]
    assert integer_class_representatives(Fraction(1), Fraction(225), 2, 20) == []


def test_cross_check_matches_rich_fiber_once_box_reaches_curve():
    a_4 = x_coordinates([0, 4, -5, -6, 6], 3)
    report = cross_check(a_4, 2, SearchConfig(225))
    assert report.ok
    assert len(report.matched) == 1
    match = report.matched[0]
    assert [(c.a, c.b) for c in match.curves] == [(1, 225)]
    assert match.fiber_point.coords == (15, 17, 10, 3, 21)
    assert report.cutoff_fiber_points == ()


def test_cross_check_nontrivial_points_recover_census_curves():
    rng = random.Random(999)
    for _ in range(5):
        a_n = random_admissible_alphas(rng, 3, 3)
        report = cross_check(a_n, 2, SearchConfig(8))
        assert report.ok
        for m in report.matched:
            for curve in m.curves:
                roots = [sth_root_exact(curve.rhs(alpha), 2) for alpha in a_n.alphas]
                assert all(value is not None for value in roots)
                assert roots[0] != 0

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_rank import (add, certified_rank, combination, cubic, descent_rank, f2_rank, halve,
                          kummer_rows, rung_image, rung_roots)
from superfiber.elkies import ELKIES, ElkiesDataset, dataset_self_check, verify_reproduction
from superfiber.errors import DomainError
from superfiber.fiber import Fiber, XCoordinates
from superfiber.maps import CubicSpec, fermat_to_weierstrass, phi_inverse
from superfiber.search import SearchConfig, search_fiber_points


def test_dataset_self_check_passes():
    dataset_self_check(ELKIES)


def test_dataset_shape():
    assert len(ELKIES.points) == 17
    assert len(ELKIES.expected_equations) == 15
    assert ELKIES.b0 == 24537619889008718205152851658505801


def _failing(report):
    return {c["name"] for c in report["checks"] if not c["passed"]}


def _failures(report, name):
    return next(c["failures"] for c in report["checks"] if c["name"] == name)


def _altered(**changes):
    # ELKIES with some fields replaced
    return ElkiesDataset(**{**vars(ELKIES), **changes})


def _with_perturbed_point(index, dy):
    points = list(ELKIES.points)
    x, y = points[index]
    points[index] = (x, y + dy)
    return _altered(points=tuple(points))


def test_perturbed_point_fails_membership_check():
    bad = _with_perturbed_point(3, 1)
    report = verify_reproduction(bad)
    assert report["ok"] is False
    assert "points_on_curve" in _failing(report)
    assert any(f.startswith("point 3") for f in _failures(report, "points_on_curve"))


def test_perturbed_point_breaks_fiber_membership_too():
    bad = _with_perturbed_point(3, 1)
    report = verify_reproduction(bad)
    assert "y_vector_on_fiber" in _failing(report)


def test_perturbed_golden_pair_fails_equation_check():
    eqs = list(ELKIES.expected_equations)
    A, B = eqs[0]
    eqs[0] = (A + 1, B)
    bad = _altered(expected_equations=tuple(eqs))
    report = verify_reproduction(bad)
    assert "equation_pairs" in _failing(report)
    assert any(f.startswith("equation 2:") for f in _failures(report, "equation_pairs"))


def test_golden_table_of_the_wrong_length_fails_equation_check():
    table = ELKIES.expected_equations
    extra = (ELKIES.expected_c + 1, 1)  # A - B = c, so only the row count is wrong
    for expected in (table[:14], table + (extra,)):
        bad = _altered(expected_equations=expected)
        report = verify_reproduction(bad)
        assert report["ok"] is False
        assert _failing(report) == {"equation_pairs"}
        assert (_failures(report, "equation_pairs")[0]
                == f"computed 15 equations, expected {len(expected)}")


def test_perturbed_c_fails_coefficient_check():
    bad = _altered(expected_c=ELKIES.expected_c + 1)
    assert "shared_coefficient_c" in _failing(verify_reproduction(bad))


def test_perturbed_genus_fails_genus_check():
    bad = _altered(expected_genus=212992)
    assert _failing(verify_reproduction(bad)) == {"fiber_genus"}


def test_self_check_rejects_broken_dataset():
    bad = _with_perturbed_point(0, 5)
    with pytest.raises(DomainError) as refused:
        dataset_self_check(bad)
    # one wording for an off-curve point, whichever check finds it
    failures = _failures(verify_reproduction(bad), "points_on_curve")
    assert str(refused.value) == f"{len(failures)} mismatch(es): {'; '.join(failures)}"
    assert str(refused.value).startswith("1 mismatch(es): point 0: (")


def test_self_check_rejects_repeated_x_coordinate():
    points = ELKIES.points
    bad = _altered(points=(points[0], points[0], *points[2:]))
    with pytest.raises(DomainError) as refused:
        dataset_self_check(bad)
    assert str(refused.value) == "1 mismatch(es): x-coordinates are not pairwise distinct"


def test_self_check_rejects_wrong_table_size():
    bad = _altered(expected_equations=ELKIES.expected_equations[:14])
    with pytest.raises(DomainError) as refused:
        dataset_self_check(bad)
    assert str(refused.value) == "1 mismatch(es): dataset table sizes are wrong"


# the rank-17 claim, certified by the Kummer map mod p (tests/helpers_rank.py)
TORSION = ((-1, 0), (0, 1), (2, 3))  # of y^2 = x^3 + 1, whose torsion is Z/6


def test_elkies_points_are_certified_independent():
    assert certified_rank(ELKIES.b0, ELKIES.points, 101) == 17


def test_a_dependent_triple_certifies_two():
    P0, P1 = ELKIES.points[:2]
    P2 = add(P0, P1, (0, 0, ELKIES.b0))
    assert P2[1] ** 2 == P2[0] ** 3 + ELKIES.b0
    assert certified_rank(ELKIES.b0, (P0, P1, P2), 101) == 2


def test_torsion_certifies_nothing():
    # 1 is a cube, so (-1, 0) is a rational 2-torsion point: the rows' F_2-rank
    # of 1 is that of E(Q)[2], not a rank
    assert f2_rank(kummer_rows(1, TORSION, 101)) == 1
    assert certified_rank(1, TORSION, 101) == 0


@pytest.mark.parametrize("alphas, r, rank", (((0, 2, 3), 3, 2), ((1, 2, 4), 3, 1),
                                             ((0, 4, -5), 3, 1), ((0, 1, 3), 3, 1),
                                             ((0, 1, 2), 2, 1), ((1, 2, 3), 2, 1)))
def test_s3_rung_search_points_certify_a_rank(alphas, r, rank):
    # the s = 3 rung c0*Y_0^3 + c1*Y_1^3 + ci*Y_2^3 = 0 is CubicSpec(c0, c1), and
    # fermat_to_weierstrass sends its points with X*Y*Z != 0 to the Mordell
    # curve S^2 = T^3 - D: the H = 60 search points bound its rank from below
    a_n = XCoordinates(alphas, r)
    equation = Fiber(a_n, 3).equations[0]
    spec = CubicSpec(equation.c0, equation.c1)
    images = [fermat_to_weierstrass(spec, P.coords)
              for P in search_fiber_points(Fiber(a_n, 3), SearchConfig(60)) if 0 not in P.coords]
    points = [(image.T, image.S) for image in images]
    assert certified_rank(-images[0].discriminant_term, points, 101) == rank


@pytest.mark.parametrize("alphas, r, rank", (((0, 4, -5, -6), 3, 1), ((0, 1, 2, 3), 3, 1),
                                             ((1, 2, 7, 3), 2, 2)))
def test_s2_rung_search_points_certify_a_rank_by_halving(alphas, r, rank):
    # the s = 2 genus-1 rung F_3 2-covers E (tests/helpers_rank.py), so each
    # nontrivial H = 300 point's pi(P) - T lies in 2E(Q) and certifies nothing,
    # and its halves bound the rank of E from below
    a_n = XCoordinates(alphas, r)
    w = a_n.rth_powers()
    roots = rung_roots(w)
    x_t, y_t = rung_image(w, (1, 1, 1, 1), 0)
    images = []
    fiber = Fiber(a_n, 2)
    for P in search_fiber_points(fiber, SearchConfig(300)):
        curve = phi_inverse(fiber, P.coords).curve
        if curve.is_smooth:
            images.append(add(rung_image(w, P.coords, curve.a), (x_t, -y_t), cubic(roots)))
    halves = [halve(Q, roots) for Q in images]
    assert halve((x_t, y_t), roots) is None and None not in halves
    assert descent_rank(roots, images, 101) == 0
    assert descent_rank(roots, halves, 101) == rank


@settings(max_examples=40)
@given(indices=st.lists(st.integers(0, 16), min_size=3, max_size=3, unique=True),
       coefficients=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any),
                             min_size=1, max_size=4))
def test_combinations_never_certify_more_than_their_coefficients(indices, coefficients):
    # the combinations generate a group of rank at most that of their
    # coefficient matrix, and their image in E(Q)/2E(Q) is that matrix mod 2
    points = [ELKIES.points[i] for i in indices]
    combos = [combination(c, points, (0, 0, ELKIES.b0)) for c in coefficients]
    masks = [sum((c_j & 1) << j for j, c_j in enumerate(c)) for c in coefficients]
    assert certified_rank(ELKIES.b0, combos, 101) <= f2_rank(masks)

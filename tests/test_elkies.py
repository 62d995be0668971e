import dataclasses

import pytest

from superfiber import (
    ELKIES,
    MismatchReport,
    dataset_self_check,
    fiber_genus,
    verify_reproduction,
)


def test_dataset_self_check_passes():
    dataset_self_check(ELKIES)


def test_dataset_shape():
    assert len(ELKIES.points) == 17
    assert len(ELKIES.expected_equations) == 15
    assert ELKIES.expected_genus == 212993
    assert ELKIES.b0 == 24537619889008718205152851658505801


def test_shared_coefficient_anchored_by_table():
    # c equals alpha_1^3 - alpha_0^3 and every printed pair difference
    x0, x1 = ELKIES.points[0][0], ELKIES.points[1][0]
    assert ELKIES.expected_c == x1 ** 3 - x0 ** 3
    for A, B in ELKIES.expected_equations:
        assert A - B == ELKIES.expected_c


def test_verify_reproduction_all_checks_pass():
    report = verify_reproduction(ELKIES)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "points_on_curve",
        "shared_coefficient_c",
        "equation_pairs",
        "y_vector_on_fiber",
        "fiber_genus",
    ]
    report.raise_if_failed()  # no-op when everything passed
    obj = report.to_obj()
    assert obj["ok"] is True
    assert all(c["passed"] for c in obj["checks"])


def _with_perturbed_point(index, dy):
    points = list(ELKIES.points)
    x, y = points[index]
    points[index] = (x, y + dy)
    return dataclasses.replace(ELKIES, points=tuple(points))


def test_perturbed_point_fails_membership_check():
    bad = _with_perturbed_point(3, 1)
    report = verify_reproduction(bad)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert "points_on_curve" in failing
    membership = next(c for c in report.checks if c.name == "points_on_curve")
    assert any(f.startswith("point 3") for f in membership.failures)
    with pytest.raises(MismatchReport):
        report.raise_if_failed()


def test_perturbed_point_breaks_fiber_membership_too():
    bad = _with_perturbed_point(3, 1)
    report = verify_reproduction(bad)
    names = {c.name: c.passed for c in report.checks}
    assert names["y_vector_on_fiber"] is False


def test_perturbed_golden_pair_fails_equation_check():
    eqs = list(ELKIES.expected_equations)
    A, B = eqs[0]
    eqs[0] = (A + 1, B)
    bad = dataclasses.replace(ELKIES, expected_equations=tuple(eqs))
    report = verify_reproduction(bad)
    failing = {c.name for c in report.checks if not c.passed}
    assert "equation_pairs" in failing
    check = next(c for c in report.checks if c.name == "equation_pairs")
    assert any(f.startswith("equation 2:") for f in check.failures)


def test_golden_table_of_the_wrong_length_fails_equation_check():
    table = ELKIES.expected_equations
    extra = (ELKIES.expected_c + 1, 1)  # A - B = c, so only the row count is wrong
    for expected in (table[:14], table + (extra,)):
        bad = dataclasses.replace(ELKIES, expected_equations=expected)
        report = verify_reproduction(bad)
        assert not report.ok
        assert {c.name for c in report.checks if not c.passed} == {"equation_pairs"}
        check = next(c for c in report.checks if c.name == "equation_pairs")
        assert check.failures[0] == f"computed 15 equations, expected {len(expected)}"


def test_perturbed_c_fails_coefficient_check():
    bad = dataclasses.replace(ELKIES, expected_c=ELKIES.expected_c + 1)
    report = verify_reproduction(bad)
    failing = {c.name for c in report.checks if not c.passed}
    assert "shared_coefficient_c" in failing


def test_perturbed_genus_fails_genus_check():
    bad = dataclasses.replace(ELKIES, expected_genus=212992)
    report = verify_reproduction(bad)
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"fiber_genus"}


def test_self_check_rejects_broken_dataset():
    bad = _with_perturbed_point(0, 5)
    with pytest.raises(MismatchReport):
        dataset_self_check(bad)


def test_genus_matches_formula():
    assert fiber_genus(16, 2) == ELKIES.expected_genus

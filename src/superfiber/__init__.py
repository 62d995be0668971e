"""Exact rational arithmetic for the curve family y^s = a*x^r + b,
its twists, and the fiber curves parameterizing members with many
rational points."""

from .errors import (
    AllZero,
    BasePointVanishing,
    CoordinateVanishing,
    DegenerateParameter,
    DegenerateSpec,
    DimensionMismatch,
    DomainError,
    MismatchReport,
    NotAdmissible,
    NotOnCubic,
    NotOnFiber,
    PointNotOnCurve,
    PointNotOnTwist,
    TrivialPoint,
    WrongShape,
)
from .exact import (
    ProjectivePoint,
    Rational,
    int_nth_root,
    normalize_projective,
    projective_from_obj,
    rational,
    rational_str,
    sth_root_exact,
)
from .family import (
    AffinePoint,
    Curve,
    CurveWithPoints,
    FamilyParams,
    TwistedCurve,
    contains_point,
    curve_genus,
    make_curve,
    point,
    twist_curve,
    twist_points,
    untwist_point,
)
from .fiber import (
    FiberEquation,
    FiberPoint,
    XCoordinates,
    canonical_fiber_point,
    fiber_contains,
    fiber_equation_determinant,
    fiber_equation_triples,
    fiber_equations,
    fiber_genus,
    geometry_report,
    gonality_lower_bound,
    is_admissible,
    lazarsfeld_bound,
    n0_threshold,
    x_coordinates,
)
from .maps import (
    ConicSpec,
    CubicSpec,
    DiagonalCubicPoint,
    WeierstrassPoint,
    conic_param,
    cubic_to_diagonal,
    cwp_equivalent,
    diagonal_to_weierstrass,
    fermat_to_weierstrass,
    lift_quartic_parameter,
    phi_forward,
    phi_inverse,
    quadrics_to_quartic,
    quartic_value,
)
from .search import (
    CensusEntry,
    SearchConfig,
    cross_check,
    curve_census_entries,
    curve_roots_over,
    enumerate_curves,
    fiber_census_entries,
    integer_class_representatives,
    search_fiber_points,
)
from .elkies import ELKIES, ElkiesDataset, dataset_self_check, verify_reproduction

__version__ = "0.1.0"

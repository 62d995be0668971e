"""The Elkies rank-17 curve dataset and its reproduction checks.

In 2016 Elkies found an elliptic curve y^2 = x^3 + b0 over the rationals
with 17 independent points.
Taking the 17 x-coordinates as an admissible tuple (r = 3, s = 2), the
y-coordinate vector is a single rational point on a fiber curve of genus
212993, and the fiber's defining equations have the closed form

    c * Y_i^2 = A_i * Y_1^2 - B_i * Y_0^2,   i = 2..16,

with c = x_1^3 - x_0^3, A_i = x_i^3 - x_0^3, B_i = x_i^3 - x_1^3.  The
constants below store that table; verify_reproduction() recomputes
everything from the points and compares bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchReport
from .exact import normalize_projective
from .fiber import XCoordinates, fiber_contains, fiber_equation_triples, fiber_genus

B0 = 24537619889008718205152851658505801

POINTS = (
    (-249954149276, 94452185380426435),
    (-218829008658, 118569576333381183),
    (-110315760690, 152299457785937151),
    (-12083686365, 156639252691623474),
    (179588218407, 174154202398188288),
    (194693247690, 178654854781822599),
    (481938369495, 369425010854453724),
    (527526224524, 413931980240076925),
    (532637728899, 419104420151289750),
    (660796972800, 559532270810391651),
    (891937317975, 856808203106532276),
    (1369152212199, 1609695603071293320),
    (1556910033324, 1948958451538253955),
    (2095375244992, 3037184017947911267),
    (3020920353232, 5252935870900542563),
    (45908680009155, 311058636438867847974),
    (209109621212430, 3023855428577131273599),
)

C = 5137529108739065960774606731670264

EQUATION_PAIRS = (
    (14273909518752011104805996875187576, 9136380410012945144031390143517312),
    (15614640160651830564600703341019451, 10477111051912764603826096609349187),
    (21408470889810690063581042253561719, 16270941781071624102806435521891455),
    (22996341813975679987992445860305576, 17858812705236614027217839128635312),
    (127553623321674810616820424010658951, 122416094212935744656045817278988687),
    (162418468942332992713014707470646400, 157280939833593926752240100738976136),
    (166727299667210364694533366008253275, 161589770558471298733758759276583011),
    (304155146755095019623144945563696576, 299017617646355953662370338832026312),
    (725199081587506223753723959382930951, 720061552478767157792949352651260687),
    (2582198719223916255279881435029813175, 2577061190115177189319106828298142911),
    (3789517830499250148872819507626332800, 3784380301390511082912044900894662536),
    (9215565543555079748052029625658736064, 9210428014446340682091255018927065800),
    (27584414048470503122920101305327799744, 27579276519361764056959326698596129480),
    (96757466381992441404259415168107529095451, 96757461244463332665193454393500797425187),
    (9143701644014170929876417817964781347603576, 9143701638876641821137351857190174615933312),
)

GENUS = 212993

R = 3
S = 2


@dataclass(frozen=True)
class ElkiesDataset:
    """The embedded record: curve constant, the 17 points, and the
    expected fiber table (shared c, the (A_i, B_i) pairs, the genus)."""

    b0: int
    points: tuple[tuple[int, int], ...]
    expected_c: int
    expected_equations: tuple[tuple[int, int], ...]
    expected_genus: int

    def x_coordinates(self) -> XCoordinates:
        return XCoordinates(tuple(x for x, _ in self.points), R)

    def y_vector(self) -> tuple[int, ...]:
        return tuple(y for _, y in self.points)


ELKIES = ElkiesDataset(
    b0=B0,
    points=POINTS,
    expected_c=C,
    expected_equations=EQUATION_PAIRS,
    expected_genus=GENUS,
)


def _points_off_curve(dataset: ElkiesDataset) -> list[tuple[int, tuple[int, int]]]:
    """(index, point) for each point not on y^2 = x^3 + b0."""
    return [(i, (x, y)) for i, (x, y) in enumerate(dataset.points)
            if y * y != x**3 + dataset.b0]


def dataset_self_check(dataset: ElkiesDataset = ELKIES) -> None:
    """Cheap structural invariants, run before any CLI command: every
    point on the curve, x-coordinates pairwise distinct, table sizes."""
    xs = [x for x, _ in dataset.points]
    if len(set(xs)) != len(xs):
        raise MismatchReport(["x-coordinates are not pairwise distinct"])
    bad = [f"point {i} is not on y^2 = x^3 + b0" for i, _ in _points_off_curve(dataset)]
    if bad:
        raise MismatchReport(bad)
    if len(dataset.points) != 17 or len(dataset.expected_equations) != 15:
        raise MismatchReport(["dataset table sizes are wrong"])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    failures: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "failures": list(self.failures)}


@dataclass(frozen=True)
class ReproReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_obj() for c in self.checks]}

    def raise_if_failed(self) -> None:
        failures = [f for c in self.checks for f in c.failures]
        if failures:
            raise MismatchReport(failures)


def verify_reproduction(dataset: ElkiesDataset = ELKIES) -> ReproReport:
    """Recompute the whole table from the 17 points and compare bit-exactly.

    Five checks: point membership, the shared coefficient c, the fifteen
    (A_i, B_i) pairs, the y-vector lying on the fiber, and the genus.
    """
    checks = []

    failures = [f"point {i}: ({x}, {y}) not on y^2 = x^3 + b0"
                for i, (x, y) in _points_off_curve(dataset)]
    checks.append(CheckResult("points_on_curve", not failures, tuple(failures)))

    a_n = dataset.x_coordinates()
    c, pairs = fiber_equation_triples(a_n, S)
    failures = []
    if c != dataset.expected_c:
        failures.append(f"c: computed {c}, expected {dataset.expected_c}")
    failures += [
        f"equation {i + 2}: A - B = {A - B} != c"
        for i, (A, B) in enumerate(dataset.expected_equations)
        if A - B != dataset.expected_c
    ]
    checks.append(CheckResult("shared_coefficient_c", not failures, tuple(failures)))

    failures = []
    for i, ((A, B), (eA, eB)) in enumerate(zip(pairs, dataset.expected_equations)):
        if (A, B) != (eA, eB):
            failures.append(
                f"equation {i + 2}: computed ({A}, {B}), expected ({eA}, {eB})"
            )
    checks.append(CheckResult("equation_pairs", not failures, tuple(failures)))

    Q = normalize_projective(dataset.y_vector())
    on_fiber = fiber_contains(a_n, S, Q.coords)
    failures = () if on_fiber else ("y-coordinate vector is not on the fiber",)
    checks.append(CheckResult("y_vector_on_fiber", on_fiber, failures))

    g = fiber_genus(len(dataset.points) - 1, S)
    ok = g == dataset.expected_genus
    failures = () if ok else (f"genus: computed {g}, expected {dataset.expected_genus}",)
    checks.append(CheckResult("fiber_genus", ok, failures))

    return ReproReport(tuple(checks))

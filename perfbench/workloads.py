"""Seeded workloads for the superfiber benchmark and the checks on their outputs.

A workload is one pass: an ordered list of CLI operations.  Inputs are
drawn from the seed alone, and the program sees only the generated flags
and JSON files.  Each operation carries the exit codes its input calls
for and a validator for its stdout that re-derives, with the library,
what the output claims.  Validators run outside the timed region.

Why these workloads (see BENCHMARK.json for the one-line form):

* curve-box: 202,500 (a, b) candidates at H=225, nearly all rejected by
  the first exact root test; time splits between `fiber` (rth_powers per
  candidate), `exact` roots and Fraction arithmetic in `search`.
* fiber-pairs: 152,233 coprime leading pairs at H=500 in two worker
  slices run one after the other; rth_powers is called once per slice,
  so hoisting it must show no change here.  The only worker-partition
  path, so slice overhead and peak memory show here.
* session: short commands, where latency is interpreter start-up,
  imports, dataset_self_check and input validation; `search` is idle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from superfiber.elkies import ELKIES
from superfiber.exact import normalize_projective, sth_root_exact
from superfiber.family import AffinePoint, Curve, CurveWithPoints, FamilyParams
from superfiber.fiber import XCoordinates, canonical_fiber_point, fiber_contains
from superfiber.maps import cwp_equivalent, phi_forward

R, S = 3, 2
A4 = (0, 4, -5, -6, 6)
# the one census curve of a_4 up to H=225 (and up to pair height 1000)
KNOWN_ENTRY = {
    "curve": {"r": 3, "s": 2, "a": "1", "b": "225"},
    "fiber_point": ["15", "17", "10", "3", "21"],
    "distinct_x_count": 5,
}
STANDARD_HEIGHTS = {"curve-box": 225, "fiber-pairs": 500, "cross-check": 20}
SMOKE_HEIGHTS = {"curve-box": 12, "fiber-pairs": 40, "cross-check": 4}
NAMES = ("curve-box", "fiber-pairs", "session")

SETUP_ARGV = ("genus", "--n", "2", "--s", "2")
SETUP_STDOUT = '{"genus":0,"gonality_lower_bound":1,"n0":4}\n'

DOCUMENTED_CODES = frozenset({0, 2, 64, 74})


class CheckFailed(Exception):
    """An output that the library says is wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its input calls for."""

    label: str
    argv: tuple[str, ...]
    codes: frozenset = frozenset({0})
    # validates stdout and returns how many search results it reports
    check: Optional[Callable[[str], int]] = None
    candidates: int = 0
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # traced-run floor for each layer counter that is hot on this workload
    hot: dict
    # check across the stdouts of one pass (the union of worker slices)
    union_check: Optional[Callable[[list[str]], None]] = None
    # unpartitioned search traced once as the base of search.slice_overhead
    reference: Optional[Op] = None


def verdict(op: Op, code: int, stdout: str, stderr: str) -> tuple[Optional[str], int]:
    """(why the operation failed or None, search results it reports)."""
    if code not in DOCUMENTED_CODES or code not in op.codes:
        return f"{op.label}: exit {code}, expected {sorted(op.codes)}", 0
    if "Traceback" in stderr:
        return f"{op.label}: traceback on stderr", 0
    if op.check is None or code != 0:
        return None, 0
    try:
        return None, op.check(stdout)
    except Exception as exc:  # any validator error means the output is wrong
        return f"{op.label}: {type(exc).__name__}: {exc}", 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _alphas_flag(values) -> str:
    # one token, so that a leading minus sign is not read as a flag
    return "--alphas=" + ",".join(str(v) for v in values)


def coprime_pairs(height: int) -> int:
    """Leading pairs (p, q) in [0, H]^2 with gcd 1: the fiber-pairs
    candidates for even s, counted independently of the library."""
    return sum(1 for p in range(height + 1) for q in range(height + 1) if math.gcd(p, q) == 1)


def draw_alphas(seed: int) -> tuple[int, ...]:
    """a_4 for seed 0, otherwise five distinct integers of height <= 6
    (distinct integers have distinct cubes, so the tuple is admissible)."""
    if seed == 0:
        return A4
    return tuple(random.Random(seed).sample(range(-6, 7), 5))


# ---------------------------------------------------------------------------
# search outputs


def _check_census_entry(a_n: XCoordinates, height: int, mode: str, entry: dict) -> None:
    curve = Curve.from_obj(entry["curve"])
    _require((curve.params.r, curve.params.s) == (R, S), "wrong exponents")
    _require(curve.a != 0 and curve.b != 0, "singular curve")
    roots = [sth_root_exact(curve.rhs(x), S) for x in a_n.alphas]
    _require(None not in roots, "s-th power test fails at some alpha")
    point = tuple(int(c) for c in entry["fiber_point"])
    _require(fiber_contains(a_n, S, point), "reported point is not on the fiber")
    cwp = CurveWithPoints(curve, tuple(AffinePoint(x, y) for x, y in zip(a_n.alphas, roots)))
    _, image = phi_forward(cwp)
    _require(canonical_fiber_point(image.coords, S).coords == point,
             "phi_forward does not send the curve to the reported point")
    _require(entry["distinct_x_count"] == len(a_n.alphas), "wrong distinct_x_count")
    if mode == "curve-box":
        _require(curve.a.denominator == 1 and curve.b.denominator == 1
                 and max(abs(curve.a), abs(curve.b)) <= height, "curve outside the box")
    else:
        g = math.gcd(point[0], point[1])
        _require(max(point[0], point[1]) // g <= height, "leading pair above the bound")


def _census_check(a_n: XCoordinates, height: int, mode: str, expected=None):
    def check(stdout: str) -> int:
        entries = [json.loads(line) for line in stdout.splitlines()]
        for entry in entries:
            _check_census_entry(a_n, height, mode, entry)
        if mode == "curve-box":
            keys = [(Fraction(e["curve"]["a"]), Fraction(e["curve"]["b"])) for e in entries]
        else:
            keys = [tuple(int(c) for c in e["fiber_point"]) for e in entries]
        _require(keys == sorted(set(keys)), "entries not sorted or repeated")
        if expected is not None:
            _require(entries == expected, "census differs from the known result")
        return len(entries)
    return check


def _union_check(expected=None):
    def check(stdouts: list[str]) -> None:
        entries = [json.loads(line) for out in stdouts for line in out.splitlines()]
        points = [tuple(int(c) for c in e["fiber_point"]) for e in entries]
        _require(len(points) == len(set(points)), "worker slices overlap")
        if expected is not None:
            union = sorted(entries, key=lambda e: [int(c) for c in e["fiber_point"]])
            _require(union == expected, "union of slices differs from the unpartitioned census")
    return check


def _search_argv(alphas, height: int, mode: str, *extra: str) -> tuple[str, ...]:
    return ("search", _alphas_flag(alphas), "--r", str(R), "--s", str(S),
            "--height", str(height), "--mode", mode, *extra)


def curve_box(seed: int, heights: dict) -> Workload:
    alphas = draw_alphas(seed)
    H = heights["curve-box"]
    known = [KNOWN_ENTRY] if seed == 0 and heights == STANDARD_HEIGHTS else None
    candidates = (2 * H) ** 2
    op = Op("search curve-box", _search_argv(alphas, H, "curve-box"),
            check=_census_check(XCoordinates(alphas, R), H, "curve-box", known),
            candidates=candidates)
    hot = {"search.enumerate": 1, "search.census": 1, "elkies.self_check": 1,
           "exact.root": candidates, "fiber.rth_powers": candidates}
    return Workload("curve-box", (op,), hot)


def fiber_pairs(seed: int, heights: dict) -> Workload:
    alphas = draw_alphas(seed)
    H = heights["fiber-pairs"]
    known = [KNOWN_ENTRY] if seed == 0 and heights == STANDARD_HEIGHTS else None
    a_n = XCoordinates(alphas, R)
    total = coprime_pairs(H)
    ops = tuple(
        Op(f"search fiber-pairs slice {i}",
           _search_argv(alphas, H, "fiber-pairs", "--workers", "2", "--worker-index", str(i)),
           check=_census_check(a_n, H, "fiber-pairs"),
           candidates=(total + 1 - i) // 2)
        for i in (0, 1)
    )
    reference = Op("search fiber-pairs unpartitioned", _search_argv(alphas, H, "fiber-pairs"),
                   check=_census_check(a_n, H, "fiber-pairs", known), candidates=total)
    hot = {"search.enumerate": 2, "search.census": 2, "elkies.self_check": 1,
           "exact.root": total, "fiber.rth_powers": 1}
    return Workload("fiber-pairs", ops, hot, _union_check(known), reference)


# ---------------------------------------------------------------------------
# session: short commands and bad inputs


def _elkies_cwp(rng: random.Random) -> CurveWithPoints:
    """3 to 6 of the Elkies points on a seeded rescaling
    (a, b, y) -> (t^2, t^2 * b0, t * y) of y^2 = x^3 + b0."""
    chosen = rng.sample(ELKIES.points, rng.randint(3, 6))
    t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    curve = Curve(FamilyParams(R, S), t * t, t * t * ELKIES.b0)
    points = tuple(AffinePoint(Fraction(x), t * y) for x, y in chosen)
    return CurveWithPoints(curve, points)


def _write(directory: Path, name: str, obj) -> str:
    path = directory / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _check_repro(stdout: str) -> int:
    report = json.loads(stdout)
    _require(report["ok"] is True and len(report["checks"]) == 5
             and all(c["passed"] for c in report["checks"]), "repro-elkies is not ok")
    return 0


def _check_fiber_eqs(stdout: str) -> int:
    out = json.loads(stdout)
    _require(out["solved_form"]["c"] == str(ELKIES.expected_c), "wrong shared coefficient")
    pairs = [[str(A), str(B)] for A, B in ELKIES.expected_equations]
    _require(out["solved_form"]["pairs"] == pairs, "wrong equation pairs")
    _require(len(out["equations"]) == len(ELKIES.points) - 2, "wrong equation count")
    return 0


def _check_verify_point(point, on_fiber: bool):
    def check(stdout: str) -> int:
        out = json.loads(stdout)
        _require(out["on_fiber"] is on_fiber, f"on_fiber should be {on_fiber}")
        _require(out["point"] == normalize_projective(point).to_obj(), "wrong normalized point")
        return 0
    return check


def _check_map(cwp: CurveWithPoints):
    xs = [p.x for p in cwp.points]
    expected = normalize_projective([p.y for p in cwp.points])  # base_index 0

    def check(stdout: str) -> int:
        out = json.loads(stdout)
        _require(out["alphas"] == [str(x) for x in xs], "wrong alphas")
        _require(out["fiber_point"] == expected.to_obj(), "wrong fiber point")
        point = [int(c) for c in out["fiber_point"]]
        _require(fiber_contains(XCoordinates(tuple(xs), R), S, point), "image is not on the fiber")
        return 0
    return check


def _check_map_inverse(cwp: CurveWithPoints):
    def check(stdout: str) -> int:
        _require(cwp_equivalent(cwp, CurveWithPoints.from_obj(json.loads(stdout))),
                 "map-inverse is not equivalent to the input")
        return 0
    return check


def _check_twist(cwp: CurveWithPoints):
    base = cwp.base
    a, b = cwp.curve.a, cwp.curve.b

    def check(stdout: str) -> int:
        out = json.loads(stdout)
        twist = out["twist"]
        c0 = Fraction(twist["c0"])
        _require(c0 == a * base.x ** R + b, "wrong twist constant")
        _require((Fraction(twist["a"]), Fraction(twist["b"])) == (a, b), "wrong twist coefficients")
        images = [(Fraction(p["x"]), Fraction(p["y"])) for p in out["points"]]
        _require(images == [(p.x, p.y / base.y) for p in cwp.points], "wrong twisted points")
        _require(all(c0 * y ** S == a * x ** R + b for x, y in images), "point not on the twist")
        return 0
    return check


def _check_genus(n: int, s: int):
    expected = {"genus": 1 + s ** (n - 1) * ((n - 1) * (s - 1) - 2) // 2,
                "gonality_lower_bound": (s - 1) * s ** (n - 2),
                "n0": 4 if s == 2 else 3}

    def check(stdout: str) -> int:
        _require(json.loads(stdout) == expected, "wrong genus report")
        return 0
    return check


def _check_conic(alpha: int, beta: int):
    def check(stdout: str) -> int:
        X, Y, Z = (int(c) for c in json.loads(stdout)["point"])
        _require(alpha * X * X + beta * Y * Y - (alpha + beta) * Z * Z == 0, "point not on the conic")
        return 0
    return check


def _check_weierstrass(alpha: int, beta: int):
    def check(stdout: str) -> int:
        out = json.loads(stdout)
        T, Sv, k = (Fraction(out[key]) for key in ("T", "S", "rhs_constant"))
        _require(k == 432 * alpha ** 2 * beta ** 2 * (alpha + beta) ** 2, "wrong model constant")
        _require(Sv * Sv == T ** 3 - k, "point not on the Weierstrass model")
        return 0
    return check


def _check_cross_check(height: int, known: bool):
    def check(stdout: str) -> int:
        out = json.loads(stdout)
        _require(out["ok"] is True and not out["unmatched_curves"]
                 and not out["unmatched_fiber_points"], "cross-check is not ok")
        _require(out["fiber_height"] == height, "fiber bound was raised")
        if known:
            _require(KNOWN_ENTRY["fiber_point"] in out["cutoff_fiber_points"],
                     "known point is not reported as a cutoff point")
        curves = sum(len(m["curves"]) for m in out["matched"]) + len(out["unmatched_curves"])
        points = sum(len(out[key]) for key in ("matched", "trivial_points", "base_vanishing_points",
                                              "cutoff_fiber_points", "unmatched_fiber_points"))
        return curves + points
    return check


def session(seed: int, heights: dict, inputs: Path) -> Workload:
    rng = random.Random(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    xs = [x for x, _ in ELKIES.points]
    elkies_flags = (_alphas_flag(xs), "--r", str(R), "--s", str(S))
    scale = rng.randint(1, 9)
    ys = [y * scale for _, y in ELKIES.points]
    off = list(ys)
    off[rng.randint(2, len(off) - 1)] += 1

    ops = [
        Op("repro-elkies", ("repro-elkies",), check=_check_repro),
        Op("fiber-eqs elkies", ("fiber-eqs", *elkies_flags), check=_check_fiber_eqs),
        Op("verify-point on fiber", ("verify-point", *elkies_flags, "--point=" + ",".join(map(str, ys))),
           check=_check_verify_point(ys, True)),
        Op("verify-point off fiber", ("verify-point", *elkies_flags, "--point=" + ",".join(map(str, off))),
           check=_check_verify_point(off, False)),
    ]
    for i in range(2):
        cwp = _elkies_cwp(rng)
        path = _write(inputs, f"cwp{i}.json", cwp.to_obj())
        ops.append(Op(f"map {i}", ("map", "--input", path), check=_check_map(cwp)))
        _, image = phi_forward(cwp)
        ops.append(Op(f"map-inverse {i}",
                      ("map-inverse", _alphas_flag(p.x for p in cwp.points), "--r", str(R),
                       "--s", str(S), "--point=" + ",".join(image.to_obj())),
                      check=_check_map_inverse(cwp)))
    cwp = _elkies_cwp(rng)
    cwp = CurveWithPoints(cwp.curve, cwp.points, rng.randrange(len(cwp.points)))
    ops.append(Op("twist", ("twist", "--input", _write(inputs, "twist.json", cwp.to_obj())),
                  check=_check_twist(cwp)))

    n, s = rng.randint(2, 24), rng.randint(2, 5)
    ops.append(Op("genus", ("genus", "--n", str(n), "--s", str(s)), check=_check_genus(n, s)))
    alpha, beta = rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([-1, 1]) * rng.randint(1, 9)
    u = rng.randint(2, 20)  # u >= 2 never sends (X, Y, Z) to zero for nonzero alpha, beta
    ops.append(Op("param-conic", ("param-conic", f"--alpha={alpha}", f"--beta={beta}", f"--u={u}"),
                  check=_check_conic(alpha, beta)))
    alpha, beta = rng.randint(1, 9), rng.randint(1, 9)
    ops.append(Op("cubic-to-weierstrass", ("cubic-to-weierstrass", f"--alpha={alpha}",
                                           f"--beta={beta}", "--point", "1,1,1"),
                  check=_check_weierstrass(alpha, beta)))
    H = heights["cross-check"]
    ops.append(Op("cross-check a_4",
                  ("cross-check", _alphas_flag(A4), "--r", str(R), "--s", str(S), "--height", str(H)),
                  check=_check_cross_check(H, heights == STANDARD_HEIGHTS),
                  candidates=(2 * H) ** 2 + coprime_pairs(H)))

    # bad inputs; the first three are the known defects of the input boundary
    bad = _elkies_cwp(rng).to_obj()
    bad["points"][rng.randrange(len(bad["points"]))]["y"] += "1"
    ops += [
        Op("map empty points", ("map", "--input", _write(inputs, "empty.json", {"points": []})),
           codes=frozenset({2, 64}), known_defect=True),
        Op("map json array", ("map", "--input", _write(inputs, "array.json", [rng.randint(0, 9)])),
           codes=frozenset({2, 64}), known_defect=True),
        Op("map point off curve", ("map", "--input", _write(inputs, "off.json", bad)),
           codes=frozenset({2}), known_defect=True),
        Op("fiber-eqs not admissible",
           ("fiber-eqs", _alphas_flag([n, -n, n + 1]), "--r", "2", "--s", str(S)),
           codes=frozenset({2})),
        Op("verify-point missing flag", ("verify-point", *elkies_flags), codes=frozenset({64})),
        Op("twist missing file", ("twist", "--input", str(inputs / "missing.json")),
           codes=frozenset({74})),
    ]
    hot = {"elkies.self_check": 1, "elkies.verify": 1, "fiber.contains": 1,
           "exact.normalize": 1, "exact.root": 1, "maps.forward": 2, "maps.inverse": 2,
           "family.cwp": 1, "search.enumerate": 2}
    return Workload("session", tuple(ops), hot)


def build(name: str, seed: int, heights: dict, inputs: Path) -> Workload:
    if name == "curve-box":
        return curve_box(seed, heights)
    if name == "fiber-pairs":
        return fiber_pairs(seed, heights)
    return session(seed, heights, inputs)

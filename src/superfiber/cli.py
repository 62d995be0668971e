"""Command-line interface.

Commands read flags (or a JSON file via --input), write exact JSON to
stdout, and use stable exit codes: 0 success, 2 domain error (bad
mathematics, e.g. non-admissible x-coordinates, or a printed report whose
"ok" is false), 64 usage error, 74 I/O error.  Identical invocations
produce identical output bytes.  Every command can record a run manifest
(--manifest PATH) with sha256 digests of its input and output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import DomainError
from .exact import ProjectivePoint, normalize_projective, rational
from .family import AffinePoint, Curve, CurveWithPoints, twist_curve, twist_points
from .fiber import (
    XCoordinates,
    fiber_contains,
    fiber_equation_triples,
    fiber_equations,
    geometry_report,
)
from .elkies import ELKIES, dataset_self_check, verify_reproduction
from .maps import (
    ConicSpec,
    CubicSpec,
    conic_param,
    fermat_to_weierstrass,
    phi_forward,
    phi_inverse,
)
from .search import SearchConfig, cross_check, curve_census_entries, fiber_census_entries

USAGE_ERROR = 64
IO_ERROR = 74
DOMAIN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _rational_list(text: str) -> list[Fraction]:
    return [rational(part) for part in text.split(",") if part.strip() != ""]


def _digit_limit() -> int:
    # the digits an int may print with; a disabled limit counts as the default,
    # so the work bounds derived from it stay finite
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _too_big(values, exponent: int) -> bool:
    # True when some rational value^exponent passes 4*L bits: more than L digits
    return any(exponent * (max(abs(q.numerator), q.denominator).bit_length() - 1)
               > 4 * _digit_limit() for q in values)


def _alphas(args) -> XCoordinates:
    alphas = _rational_list(args.alphas)
    if _too_big(alphas, args.r):
        raise ValueError(f"alpha^r exceeds {_digit_limit()} digits")
    return XCoordinates(tuple(alphas), args.r)


def _point(args) -> ProjectivePoint:
    point = normalize_projective(_rational_list(args.point))
    if _too_big(point.coords, args.s):
        raise ValueError(f"Y^s exceeds {_digit_limit()} digits")
    return point


def _read_input(args) -> dict:
    if args.input == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as handle:
            raw = handle.read()
    setattr(args, "_input_bytes", raw)
    return json.loads(raw.decode("utf-8"))


def _cmd_repro_elkies(args):
    return verify_reproduction(ELKIES)


def _cmd_fiber_eqs(args):
    a_n = _alphas(args)
    eqs = fiber_equations(a_n, args.s)
    c, pairs = fiber_equation_triples(a_n, args.s)
    payload = {
        **a_n.to_obj(),
        "s": args.s,
        "equations": [eq.to_obj() for eq in eqs],
        "solved_form": {"c": str(c), "pairs": [[str(A), str(B)] for A, B in pairs]},
    }
    return payload


def _cmd_verify_point(args):
    a_n = _alphas(args)
    point = _point(args)
    on_fiber = fiber_contains(a_n, args.s, point.coords)
    payload = {
        **a_n.to_obj(),
        "s": args.s,
        "point": point.to_obj(),
        "on_fiber": on_fiber,
    }
    return payload


def _cmd_genus(args):
    # refuse what cannot print before computing it;
    # genus >= s^(n-1) >= 16^limit past the first test
    limit = _digit_limit()
    too_long = ValueError(f"genus report for n={args.n}, s={args.s} exceeds {limit} digits")
    if _too_big([args.s], args.n - 1):
        raise too_long
    report = geometry_report(args.n, args.s)
    if any(abs(value) >= 10 ** limit for value in report.values()):
        raise too_long
    return report


def _read_cwp(args) -> CurveWithPoints:
    try:
        obj = _read_input(args)
        # refuse before CurveWithPoints raises any coordinate to the power r or s
        params = Curve.from_obj(obj["curve"]).params
        for i, raw in enumerate(obj["points"]):
            p = AffinePoint.from_obj(raw)
            if _too_big([p.x], params.r) or _too_big([p.y], params.s):
                raise ValueError(f"point {i}: x^r or y^s exceeds {_digit_limit()} digits")
        return CurveWithPoints.from_obj(obj)
    except (KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed --input JSON: {type(exc).__name__}: {exc}") from None


def _cmd_twist(args):
    cwp = _read_cwp(args)
    tc = twist_curve(cwp)
    images = twist_points(cwp)
    return {"twist": tc.to_obj(), "points": [p.to_obj() for p in images]}


def _cmd_map(args):
    cwp = _read_cwp(args)
    a_n, image = phi_forward(cwp)
    payload = {
        **a_n.to_obj(),
        "s": cwp.curve.params.s,
        "fiber_point": image.to_obj(),
    }
    return payload


def _cmd_map_inverse(args):
    a_n = _alphas(args)
    cwp = phi_inverse(a_n, _point(args).coords, args.s)
    return cwp.to_obj()


def _cmd_param_conic(args):
    spec = ConicSpec(rational(args.alpha), rational(args.beta))
    point = conic_param(spec, rational(args.u))
    return {"point": point.to_obj()}


def _cmd_cubic_to_weierstrass(args):
    spec = CubicSpec(rational(args.alpha), rational(args.beta))
    wp = fermat_to_weierstrass(spec, _rational_list(args.point))
    return wp.to_obj()


def _cmd_search(args):
    # looked up per call, so a rebinding of the module names (perfbench/tracer.py) applies
    census ={"curve-box": curve_census_entries, "fiber-pairs": fiber_census_entries}[args.mode]
    cfg = SearchConfig(args.height, (args.worker_index, args.workers))
    a_n = _alphas(args)
    # the pair search raises every leading coordinate up to the height to the s
    if args.mode == "fiber-pairs" and _too_big([args.height], args.s):
        raise ValueError(f"height^s exceeds {_digit_limit()} digits")
    entries = census(a_n, args.s, cfg)
    return [e.to_obj() for e in entries]


def _cmd_cross_check(args):
    a_n = _alphas(args)
    if _too_big([args.height], args.s):
        raise ValueError(f"height^s exceeds {_digit_limit()} digits")
    return cross_check(a_n, args.s, args.height)


def _table_lines(command: str, payload) -> list[str]:
    if command == "repro-elkies":
        lines = []
        for check in payload["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status}  {check['name']}")
            lines.extend(f"      {f}" for f in check["failures"])
        lines.append("OK" if payload["ok"] else "MISMATCH")
        return lines
    if command == "fiber-eqs":
        s = payload["s"]
        c = payload["solved_form"]["c"]
        return [
            f"({c}) * Y_{i + 2}^{s} = {A} * Y_1^{s} - {B} * Y_0^{s}"
            for i, (A, B) in enumerate(payload["solved_form"]["pairs"])
        ]
    if isinstance(payload, dict):
        return [f"{key}: {json.dumps(value)}" for key, value in payload.items()]
    return [json.dumps(item) for item in payload]


def _render(command: str, payload, fmt: str) -> str:
    if fmt == "table":
        return "\n".join(_table_lines(command, payload)) + "\n"
    # a list is JSON lines, one item per line
    if isinstance(payload, list):
        return "".join(json.dumps(item, separators=(",", ":")) + "\n" for item in payload)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _write_manifest(args, output: bytes) -> None:
    """Reproducibility record for one invocation; digests are stable
    across reruns with identical inputs."""
    # imported here, not at the top: only --manifest needs it, and the import
    # would cost every command a few milliseconds
    import hashlib

    params = {
        key: value
        for key, value in vars(args).items()
        if not key.startswith("_") and key not in ("command", "manifest", "func") and value is not None
    }
    raw_input = getattr(args, "_input_bytes", None)
    if raw_input is None:
        raw_input = json.dumps(params, sort_keys=True).encode("utf-8")
    manifest = {
        "command": args.command,
        "input_digest": hashlib.sha256(raw_input).hexdigest(),
        "parameters": {key: str(value) for key, value in sorted(params.items())},
        "tool_version": __version__,
        "output_digest": hashlib.sha256(output).hexdigest(),
    }
    with open(args.manifest, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--manifest", metavar="PATH", help="write a run manifest here")

    fiber_flags = argparse.ArgumentParser(add_help=False)
    fiber_flags.add_argument("--alphas", required=True, help="comma-separated x-coordinates")
    fiber_flags.add_argument("--r", type=int, required=True)
    fiber_flags.add_argument("--s", type=int, required=True)

    parser = _Parser(prog="superfiber", description=__doc__)
    parser.add_argument("--version", action="version", version=f"superfiber {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("repro-elkies", parents=[common],
                       help="recompute the rank-17 dataset tables bit-exactly")
    p.set_defaults(func=_cmd_repro_elkies)

    p = sub.add_parser("fiber-eqs", parents=[common, fiber_flags],
                       help="defining equations of the fiber")
    p.set_defaults(func=_cmd_fiber_eqs)

    p = sub.add_parser("verify-point", parents=[common, fiber_flags],
                       help="test whether a point lies on the fiber")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_verify_point)

    p = sub.add_parser("genus", parents=[common],
                       help="genus, gonality bound and finiteness threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("twist", parents=[common],
                       help="twist a curve-with-points by its base point")
    p.add_argument("--input", required=True, help="JSON file ('-' for stdin)")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("map", parents=[common],
                       help="forward map: curve with points -> fiber point")
    p.add_argument("--input", required=True, help="JSON file ('-' for stdin)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("map-inverse", parents=[common, fiber_flags],
                       help="inverse map: fiber point -> curve with points")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_map_inverse)

    p = sub.add_parser("param-conic", parents=[common],
                       help="rational point on a sum-zero conic")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(func=_cmd_param_conic)

    p = sub.add_parser("cubic-to-weierstrass", parents=[common],
                       help="map a diagonal cubic point to the Weierstrass model")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_cubic_to_weierstrass)

    p = sub.add_parser("search", parents=[common, fiber_flags],
                       help="bounded census (JSON lines, one entry per curve)")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--mode", choices=("curve-box", "fiber-pairs"), default="curve-box")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--worker-index", type=int, default=0)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("cross-check", parents=[common, fiber_flags],
                       help="dual enumeration and bijection report")
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=_cmd_cross_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        dataset_self_check(ELKIES)
        payload = args.func(args)
        output = _render(args.command, payload, args.format)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    sys.stdout.write(output)
    sys.stdout.flush()
    if args.manifest:
        try:
            _write_manifest(args, output.encode("utf-8"))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return IO_ERROR
    # a report that checks something says whether it held
    return DOMAIN_ERROR if isinstance(payload, dict) and payload.get("ok") is False else 0


def entrypoint() -> None:
    sys.exit(main())

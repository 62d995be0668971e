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
import re
import sys

from . import __version__
from .errors import DomainError
from .exact import clip, digit_limit, normalize_projective, shown
from .family import CurveWithPoints, twist
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


# what argparse echoes of the input: a token quoted by %r, or a bare run
# without whitespace (unrecognized arguments, an ambiguous option)
_ECHOED = re.compile(r"'([^'\\]*)'|[^\s']{21,}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main's one error line and exit 64, each echoed token shown as in exact
        raise ValueError(_ECHOED.sub(
            lambda m: clip(m[0]) if m[1] is None else shown(m[1]), message))

    def parse_args(self, args=None, namespace=None):
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:  # each token clipped before they are joined, whitespace or not
            self.error("unrecognized arguments: " + " ".join(map(clip, extra)))
        for dest, value in vars(parsed).items():
            if value == []:  # Python 3.11 reads --flag=-- as an empty list
                self.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        return parsed


def _comma_list(text: str) -> list[str]:
    # the values that receive these strings parse them
    return [part for part in text.split(",") if part.strip() != ""]


def _alphas(args) -> XCoordinates:
    return XCoordinates(_comma_list(args.alphas), args.r)


def _cmd_repro_elkies(args):
    return verify_reproduction(ELKIES)


def _cmd_fiber_eqs(args):
    a_n = _alphas(args)
    eqs = fiber_equations(a_n, args.s)
    c, pairs = fiber_equation_triples(a_n, args.s)
    return {
        **a_n.to_obj(),
        "s": args.s,
        "equations": [eq.to_obj() for eq in eqs],
        "solved_form": {"c": str(c), "pairs": [[str(A), str(B)] for A, B in pairs]},
    }


def _cmd_verify_point(args):
    a_n = _alphas(args)
    point = normalize_projective(_comma_list(args.point))
    on_fiber = fiber_contains(a_n, args.s, point.coords)
    return {
        **a_n.to_obj(),
        "s": args.s,
        "point": point.to_obj(),
        "on_fiber": on_fiber,
    }


def _cmd_genus(args):
    return geometry_report(args.n, args.s)


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > digit_limit():
        raise ValueError(f"an integer of more than {digit_limit()} digits")
    return int(text)


def _decode_json(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8"), parse_int=_json_int)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise ValueError(f"malformed --input JSON: {exc}") from None


def _read_cwp(args) -> CurveWithPoints:
    if args.input == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as handle:
            raw = handle.read()
    args._input_bytes = raw
    try:
        return CurveWithPoints.from_obj(_decode_json(raw))
    except (KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed --input JSON: {type(exc).__name__}: {exc}") from None


def _cmd_twist(args):
    return twist(_read_cwp(args))


def _cmd_map(args):
    cwp = _read_cwp(args)
    a_n, image = phi_forward(cwp)
    return {
        **a_n.to_obj(),
        "s": cwp.curve.params.s,
        "fiber_point": image.to_obj(),
    }


def _cmd_map_inverse(args):
    a_n = _alphas(args)
    point = normalize_projective(_comma_list(args.point))
    return phi_inverse(a_n, point.coords, args.s).to_obj()


def _cmd_param_conic(args):
    return {"point": conic_param(ConicSpec(args.alpha, args.beta), args.u).to_obj()}


def _cmd_cubic_to_weierstrass(args):
    return fermat_to_weierstrass(CubicSpec(args.alpha, args.beta), _comma_list(args.point)).to_obj()


def _cmd_search(args):
    # looked up per call, so a rebinding of the module names (perfbench/tracer.py) applies
    census = {"curve-box": curve_census_entries, "fiber-pairs": fiber_census_entries}[args.mode]
    cfg = SearchConfig(args.height, (args.worker_index, args.workers))
    # one point per alpha, and CurveWithPoints enforces distinct x
    return [{"curve": cwp.curve.to_obj(), "fiber_point": phi_forward(cwp)[1].to_obj(),
             "distinct_x_count": len(cwp.points)} for cwp in census(_alphas(args), args.s, cfg)]


def _cmd_cross_check(args):
    return cross_check(_alphas(args), args.s, args.height)


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
    try:
        args = build_parser().parse_args(argv)
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

"""Command-line interface.

Commands read flags (or a JSON file via --input), write exact JSON to
stdout, and use stable exit codes: 0 success, 2 domain error (bad
mathematics, e.g. non-admissible x-coordinates, or a printed report whose
"ok" is false), 64 usage error, 74 I/O error.  Identical invocations
produce identical output bytes.  Every command can record a run manifest
(--manifest PATH) with sha256 digests of its input and output.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .errors import DomainError
from .exact import clip, digit_limit, normalize_projective, printed, shown
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


def _alphas(args) -> XCoordinates:
    return XCoordinates(args.alphas.split(","), args.r)


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
        "solved_form": {"c": printed([c], "solved form")[0],
                        "pairs": [printed(pair, "solved form") for pair in pairs]},
    }


def _cmd_verify_point(args):
    a_n = _alphas(args)
    point = normalize_projective(args.point.split(","))
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
        if sys.stdin is None:  # the process was started with stdin closed
            raise OSError("stdin is closed")
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
    point = normalize_projective(args.point.split(","))
    cwp = phi_inverse(a_n, point.coords, args.s)
    if not cwp.curve.is_smooth:
        curve = cwp.curve.to_obj()
        raise DomainError(f"trivial fiber point: recovered a={curve['a']}, b={curve['b']}")
    return cwp.to_obj()


def _cmd_param_conic(args):
    return {"point": conic_param(ConicSpec(args.alpha, args.beta), args.u).to_obj()}


def _cmd_cubic_to_weierstrass(args):
    return fermat_to_weierstrass(CubicSpec(args.alpha, args.beta), args.point.split(",")).to_obj()


def _cmd_search(args):
    # looked up per call, so a rebinding of the module names (perfbench/tracer.py) applies
    census = {"curve-box": curve_census_entries, "fiber-pairs": fiber_census_entries}[args.mode]
    cfg = SearchConfig(args.height, (args.worker_index, args.workers))
    # one point per alpha, and CurveWithPoints enforces distinct x
    return [{"curve": cwp.curve.to_obj(), "fiber_point": phi_forward(cwp)[1].to_obj(),
             "distinct_x_count": len(cwp.points)} for cwp in census(_alphas(args), args.s, cfg)]


def _cmd_cross_check(args):
    return cross_check(_alphas(args), args.s, args.height)


def _render(command: str, payload, fmt: str) -> str:
    """payload's printed lines, each ended by a newline; a list is one line per
    item in either format, so an empty list prints nothing."""
    if isinstance(payload, list):
        lines = [json.dumps(item, separators=(",", ":") if fmt == "json" else None)
                 for item in payload]
    elif fmt == "json":
        lines = [json.dumps(payload, separators=(",", ":"))]
    elif command == "repro-elkies":
        lines = []
        for check in payload["checks"]:
            lines.append(f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}")
            lines.extend(f"      {f}" for f in check["failures"])
        lines.append("OK" if payload["ok"] else "MISMATCH")
    elif command == "fiber-eqs":
        s, c = payload["s"], payload["solved_form"]["c"]
        lines = [f"({c}) * Y_{i + 2}^{s} = {A} * Y_1^{s} - {B} * Y_0^{s}"
                 for i, (A, B) in enumerate(payload["solved_form"]["pairs"])]
    else:
        lines = [f"{key}: {json.dumps(value)}" for key, value in payload.items()]
    return "".join(line + "\n" for line in lines)


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


# every flag: its type (int, str, or the tuple of its choices), its default
# (... when it must be given) and its help line
_FLAGS = {
    "--alphas": (str, ..., "comma-separated x-coordinates alpha_i"),
    "--r": (int, ..., "the exponent r of x"),
    "--s": (int, ..., "the exponent s of y"),
    "--n": (int, ..., "the number of points n"),
    "--point": (str, ..., "comma-separated coordinates"),
    "--input": (str, ..., "curve-with-points JSON file, or - for stdin"),
    "--alpha": (str, ..., "the coefficient alpha"),
    "--beta": (str, ..., "the coefficient beta"),
    "--u": (str, ..., "the conic parameter u"),
    "--height": (int, ..., "the height bound H"),
    "--mode": (("curve-box", "fiber-pairs"), "curve-box", "curve-box (default) or fiber-pairs"),
    "--workers": (int, 1, "the number N of worker slices (default 1)"),
    "--worker-index": (int, 0, "this worker's slice I, 0 <= I < N (default 0)"),
    "--format": (("json", "table"), "json", "json (default) or table"),
    "--manifest": (str, None, "write a run manifest to this path"),
}
_FIBER = "--alphas --r --s "
# each command's handler, help line and flags, before the two that every command takes
COMMANDS = {
    "repro-elkies": (_cmd_repro_elkies, "recompute the rank-17 dataset tables bit-exactly", ""),
    "fiber-eqs": (_cmd_fiber_eqs, "defining equations of the fiber", _FIBER),
    "verify-point": (_cmd_verify_point, "test whether a point lies on the fiber", _FIBER + "--point"),
    "genus": (_cmd_genus, "genus, gonality bound and finiteness threshold", "--n --s"),
    "twist": (_cmd_twist, "twist a curve-with-points by its base point", "--input"),
    "map": (_cmd_map, "forward map: curve -> fiber point", "--input"),
    "map-inverse": (_cmd_map_inverse, "inverse map: fiber point -> curve", _FIBER + "--point"),
    "param-conic": (_cmd_param_conic, "rational point on a sum-zero conic", "--alpha --beta --u"),
    "cubic-to-weierstrass": (_cmd_cubic_to_weierstrass, "map a diagonal cubic point to the "
                             "Weierstrass model", "--alpha --beta --point"),
    "search": (_cmd_search, "bounded census (JSON lines, one entry per curve)",
               _FIBER + "--height --mode --workers --worker-index"),
    "cross-check": (_cmd_cross_check, "dual enumeration and bijection report", _FIBER + "--height"),
}


def _is_flag(token: str) -> bool:
    # argparse's rule: a token longer than "-" that starts with it is a flag and
    # not a value, unless it is a negative number or has a space
    return token[:1] == "-" and len(token) > 1 and not (
        re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token)


def _parse(argv):
    """argv's namespace as argparse made it (every flag, command and func), or None
    once -h or --version is answered; a bad argv raises ValueError in argparse's words."""
    tokens, extra = list(sys.argv[1:] if argv is None else argv), []
    command, flags, values = None, (), {"command": ...}
    while tokens and tokens[0] != "--":
        token = tokens.pop(0)
        name, eq, value = token.partition("=")
        if token in ("-h", "--help"):  # every command, or every flag of this one
            about = {n: _FLAGS[n][2] for n in flags} or {n: c[1] for n, c in COMMANDS.items()}
            _write(f"usage: superfiber {command or '<command>'} [-h] [flags]\n\n"
                   + "".join(f"  {n:<20}  {line}\n" for n, line in about.items()))
            return None
        elif token == "--version" and command is None:
            _write(f"superfiber {__version__}\n")
            return None
        elif command is None and not _is_flag(token):
            if token not in COMMANDS:
                raise ValueError(f"argument command: invalid choice: {shown(token)} "
                                 f"(choose from {', '.join(map(repr, COMMANDS))})")
            command, flags = token, [*COMMANDS[token][2].split(), "--format", "--manifest"]
            values = {flag: _FLAGS[flag][1] for flag in flags}
        elif name not in flags:
            extra.append(token)
        else:  # the value follows "=", or is the next token unless that is a flag ("--" too)
            if not eq:
                value = tokens.pop(0) if tokens and not _is_flag(tokens[0]) else "--"
            kind = _FLAGS[name][0]
            if value == "--":  # never a value, in either form
                raise ValueError(f"argument {name}: expected one argument")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"argument {name}: invalid int value: {shown(value)}") from None
            elif kind is not str and value not in kind:
                raise ValueError(f"argument {name}: invalid choice: {shown(value)} "
                                 f"(choose from {', '.join(map(repr, kind))})")
            values[name] = value
    extra += tokens  # "--" and what follows it
    # then the missing flags, then the unrecognized tokens: clipped, line breaks escaped
    missing = [name for name, value in values.items() if value is ...]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise ValueError("unrecognized arguments: " + " ".join(re.sub(
            "[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]", lambda m: repr(m[0])[1:-1], clip(token))
            for token in extra))
    return SimpleNamespace(command=command, func=COMMANDS[command][0],
                           **{name[2:].replace("-", "_"): value for name, value in values.items()})


def _write(text: str) -> None:
    """text on stdout, flushed; a stdout that cannot take it raises OSError."""
    if sys.stdout is None:  # the process was started with stdout closed
        raise OSError("stdout is closed")
    sys.stdout.write(text)
    sys.stdout.flush()


def main(argv=None) -> int:
    """Run one command and return its exit code, with what it wrote to
    stdout and stderr flushed; a stdout that cannot take it is an I/O
    error (74).  Every refusal is one `error: <message>` line."""
    try:
        args = _parse(argv)
        if args is None:
            return 0
        dataset_self_check(ELKIES)
        payload = args.func(args)
        output = _render(args.command, payload, args.format)
        # before stdout, so that a manifest refusal (the empty path too) leaves stdout empty
        if args.manifest is not None:
            _write_manifest(args, output.encode("utf-8"))
        try:
            _write(output)
        except OSError:
            # the manifest records output that never arrived; a device such as
            # /dev/null is no record, and stays
            if args.manifest and os.path.isfile(args.manifest):
                os.remove(args.manifest)
            raise
    except (DomainError, ValueError, OSError) as exc:
        code = (DOMAIN_ERROR if isinstance(exc, DomainError)
                else USAGE_ERROR if isinstance(exc, ValueError) else IO_ERROR)
        if sys.stderr is not None:  # None when Python found fd 2 closed at start
            try:
                print(f"error: {exc}", file=sys.stderr, flush=True)
            except OSError:  # a stderr that cannot take the line does not change the code
                pass
        return code
    # a report that checks something says whether it held
    return DOMAIN_ERROR if isinstance(payload, dict) and payload.get("ok") is False else 0


def entrypoint() -> None:
    """The console script and `python -m superfiber`: the process ends with
    main's code at its last flushed byte."""
    code = main()
    # main has flushed stdout and stderr, and nothing else needs the
    # interpreter's teardown (no atexit handler, no thread, no open file), so
    # the process skips it: clearing every module and freeing every object
    # costs each command milliseconds after its output is complete
    os._exit(code)

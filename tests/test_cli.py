import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import superfiber
from superfiber.cli import main
from superfiber.fiber import fiber_genus, gonality_lower_bound, n0_threshold
from superfiber.maps import ConicSpec, conic_param

CMD = [sys.executable, "-m", "superfiber"]
VALID_CWP = {
    "curve": {"r": 3, "s": 2, "a": "1", "b": "1"},
    "points": [{"x": "0", "y": "1"}, {"x": "2", "y": "3"}, {"x": "-1", "y": "0"}],
    "base_index": 0,
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)


def run_main(*argv):
    """main() in process: (exit code, stdout, stderr); any escaping exception fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_start_up_imports_no_dataclasses():
    # value classes are exact.record, so no command pays for importing
    # dataclasses (which imports inspect) or for generating its methods; the
    # CLI parses argv from its own flag table, not argparse (which imports
    # gettext, and locale at its first message); annotations use
    # collections.abc, not typing; only --manifest imports hashlib
    src = os.path.dirname(os.path.dirname(superfiber.__file__))
    absent = {"dataclasses", "inspect", "argparse", "gettext", "locale", "typing", "hashlib"}
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from superfiber.cli import main; "
            "code = main(['genus', '--n', '2', '--s', '2']); "
            f"print(code, sorted({absent!r} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code, src],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == '{"genus":0,"gonality_lower_bound":1,"n0":4}\n0 []\n'


def test_exact_imports_no_other_package_module():
    # the package root defines only __version__, so a module loads just
    # the modules it imports itself
    src = os.path.dirname(os.path.dirname(superfiber.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import superfiber.exact; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'superfiber'))")
    result = subprocess.run([sys.executable, "-S", "-c", code, src],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['superfiber', 'superfiber.errors', 'superfiber.exact']\n"


def test_param_conic():
    # alpha + beta = 0 is a valid conic; only its parameter u = 1 is degenerate
    assert run_main("param-conic", "--alpha", "1", "--beta", "-1", "--u", "2") \
        == (0, '{"point":["1","-1","3"]}\n', "")


def test_fiber_eqs_json_and_table():
    fiber = ("fiber-eqs", "--alphas", "0,1,2", "--r", "2", "--s", "2")
    payload = json.loads(run_main(*fiber)[1])
    assert payload["equations"] == [{"i": 2, "c0": "3", "c1": "-4", "ci": "1"}]
    assert payload["solved_form"] == {"c": "1", "pairs": [["4", "3"]]}
    assert run_main(*fiber, "--format", "table") == (0, "(1) * Y_2^2 = 4 * Y_1^2 - 3 * Y_0^2\n", "")


def test_map_and_twist_from_input_file(monkeypatch):
    # --input - reads stdin: the golden cwp.json, piped in, prints the goldens
    # map.json and twist.json, which test_golden reads from the file
    golden = Path(__file__).parent / "golden"
    raw = (golden / "cwp.json").read_bytes()
    for command in ("map", "twist"):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        expected = (golden / f"{command}.json").read_text(encoding="utf-8")
        assert run_main(command, "--input", "-") == (0, expected, ""), command


def run_with_input(command, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(value, handle)
        return run_main(command, "--input", path)


def test_deeply_nested_input_exits_64_in_one_line(monkeypatch):
    deep = "[" * 100000 + "]" * 100000
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "deep.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(deep)
        for command in ("map", "twist"):
            code, out, err = run_main(command, "--input", path)
            assert (code, out) == (64, ""), command
            assert err.startswith("error: malformed --input JSON: RecursionError: ")
            assert err.count("\n") == 1 and "Traceback" not in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(deep.encode())))
    code, out, err = run_main("map", "--input", "-")
    assert (code, out) == (64, "")
    assert err.startswith("error: malformed --input JSON: RecursionError: ")


def test_malformed_input_exits_64_in_one_line():
    for value in ({"points": []}, [3], {"curve": 5, "points": []},
                  {**VALID_CWP, "points": 7}, {**VALID_CWP, "base_index": float("inf")}):
        for command in ("map", "twist"):
            code, out, err = run_with_input(command, value)
            assert (code, out) == (64, ""), (command, value)
            assert err.startswith("error: malformed --input JSON: ")
            assert err.count("\n") == 1


def test_huge_exponent_flags_end_at_once():
    # each argv used to raise alpha^r, Y^s or a height to the s-th power first,
    # and at H = 1 the pair kernel its coefficients ci^(s-1)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    huge = ("--s", "100000000")
    box = ("--alphas=0,4,-5,-6,6", "--r", "3", *huge, "--height", "3")
    tiny = ("--alphas=0,2,3", "--r", "3", *huge, "--height", "1")
    radicands = ("error: fiber-pair radicands at s=100000000, height 1 exceed the radicand cap:"
                 " s*(bits(H) + bits(c)) > 1048576\n")
    cases = (
        (("fiber-eqs", "--alphas=2,3,5", "--r", "100000000", "--s", "2"), "alpha^r"),
        (("verify-point", "--alphas=0,1,2", "--r", "2", *huge, "--point=2,3,5"), "Y^s"),
        (("map-inverse", "--alphas=0,1,2", "--r", "2", *huge, "--point=2,3,5"), "Y^s"),
        (("search", *box, "--mode", "curve-box"), None),
        (("search", *box, "--mode", "fiber-pairs"), "height^s"),
        (("cross-check", "--alphas=0,4,-5,-6,6", "--r", "3", *huge, "--height", "2"), "height^s"),
        (("search", *tiny, "--mode", "fiber-pairs"), radicands),
        (("cross-check", *tiny), radicands),
        # height^s passes here; cross-check used to run its whole box (16 s) first
        (("cross-check", f"--alphas={2 ** 100},0,1", "--r", "11", "--s", "1000", "--height", "1500"),
         "error: fiber-pair radicands at s=1000, height 1500 exceed the radicand cap:"
         " s*(bits(H) + bits(c)) > 1048576\n"),
        # root tests at large s: Newton started at 2^ceil(bits/s) took 13 s and 36 s
        # here, and both censuses are empty
        (("search", f"--alphas={2 ** 1000},0,1", "--r", "17", "--s", "999", "--height", "8"), None),
        (("search", "--alphas=0,100,1", "--r", "3", "--s", "20001", "--height", "1",
          "--mode", "fiber-pairs"), None),
    )
    for argv, refused in cases:
        start = time.perf_counter()
        code, out, err = run_main(*argv)
        assert time.perf_counter() - start < 1, argv
        if refused is None:
            assert (code, out, err) == (0, "", ""), argv
            continue
        if not refused.startswith("error:"):
            refused = f"error: {refused} exceeds {limit} digits\n"
        assert (code, out, err) == (64, "", refused), argv


def test_cross_check_of_scaled_alphas_is_bounded_by_the_height():
    # the fiber is Y_2^2 = 4*Y_1^2 - 3*Y_0^2 for every scale of 0,1,2; the
    # representative scan used to grow with the coefficients, not with H
    flags = ("--r", "2", "--s", "2", "--height", "20")
    start = time.perf_counter()
    code, out, err = run_main("cross-check", "--alphas=0,100000,200000", *flags)
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    cutoff = json.loads(out)["cutoff_fiber_points"]
    _, small, _ = run_main("cross-check", "--alphas=0,10,20", *flags)
    assert cutoff == json.loads(small)["cutoff_fiber_points"]
    assert len(cutoff) == 8 and cutoff[0] == ["3", "7", "13"]
    # Y_2^2 = 8*Y_1^2 - 7*Y_0^2: (1, 2, 5) recovers a = 3/2^15000, which would
    # not print, but cross-check prints only the point; so is the trivial point
    # (0, 1, 2) of Y_2^2 = 4*Y_1^2 - 3*Y_0^2 at r = 2, which recovers a = 1/2^16000
    cases = (("3", 5000, {"cutoff_fiber_points": [["1", "2", "5"], ["1", "4", "11"]]}),
             ("2", 8000, {"trivial_points": [["0", "1", "2"], ["1", "1", "1"]],
                          "cutoff_fiber_points": [["3", "7", "13"], ["5", "7", "11"]]}))
    for r, scale, points in cases:
        code, out, err = run_main("cross-check", f"--alphas=0,{2 ** scale},{2 ** (scale + 1)}",
                                  "--r", r, "--s", "2", "--height", "7")
        assert (code, err) == (0, ""), r
        report = json.loads(out)
        assert {bucket: report[bucket] for bucket in points} == points


# rational tokens, bad ones in one branch of four: zero denominators,
# exponent notation, nan, the empty string and junk (the unicode minus is
# accepted)
TOKENS = st.one_of(*[st.sampled_from(("0", "1", "-1", "2", "3", "1/2", "-3/4", " 5 ", "−2"))] * 3,
                   st.sampled_from(("1/0", "0/0", "1e3", "nan", "", "x")))
# mostly valid values, so that most draws get past the first check
EXPONENTS = st.integers(2, 4) | st.integers(-2, 6)
HEIGHTS = st.integers(1, 20) | st.integers(-2, 20)
TOKEN_LISTS = (st.lists(TOKENS, min_size=3, max_size=5)
               | st.lists(TOKENS, max_size=5)).map(",".join)
# the rational fields of VALID_CWP: ("curve", key) or (point index, key)
CWP_FIELDS = [("curve", key) for key in "ab"] + [(i, key) for i in range(3) for key in "xy"]


def _flag(name, strategy):
    # --flag=value, so that a value with a leading minus is not read as a flag
    return strategy.map(f"--{name}={{}}".format)


def _with_token(field, token):
    value = json.loads(json.dumps(VALID_CWP))
    owner, key = field
    (value["curve"] if owner == "curve" else value["points"][owner])[key] = token
    return value


def _argv(*flags):
    # one argv tuple from the flag strategies, fiber flags spliced in
    return st.tuples(*flags).map(lambda parts: tuple(
        flag for part in parts for flag in ((part,) if isinstance(part, str) else part)))


FIBER_FLAGS = _argv(_flag("alphas", TOKEN_LISTS), _flag("r", EXPONENTS), _flag("s", EXPONENTS))


@st.composite
def _admissible_fiber_flags(draw):
    # 3-5 small integers of distinct sizes, so their r-th powers are distinct
    # and searches and cross-checks can get past input validation and succeed;
    # a permutation, not a filtered list, so that no draw is rejected
    sizes = draw(st.permutations(range(7)))[:draw(st.integers(3, 5))]
    alphas = [draw(st.sampled_from((size, -size))) for size in sizes]
    r, s = draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3)))
    return f"--alphas={','.join(map(str, alphas))}", f"--r={r}", f"--s={s}"


ADMISSIBLE_FLAGS = _argv(_admissible_fiber_flags(), _flag("height", st.integers(1, 20)))
SEARCH_MODE = _flag("mode", st.sampled_from(("curve-box", "fiber-pairs")))
# the flags of all 11 commands; map and twist also get an --input file
ARGV = {
    "repro-elkies": st.just(()),
    "fiber-eqs": FIBER_FLAGS,
    "verify-point": _argv(FIBER_FLAGS, _flag("point", TOKEN_LISTS)),
    "genus": _argv(_flag("n", st.integers(-2, 40)), _flag("s", EXPONENTS)),
    "twist": st.just(()),
    "map": st.just(()),
    "map-inverse": _argv(FIBER_FLAGS, _flag("point", TOKEN_LISTS)),
    "param-conic": _argv(_flag("alpha", TOKENS), _flag("beta", TOKENS), _flag("u", TOKENS)),
    "cubic-to-weierstrass": _argv(_flag("alpha", TOKENS), _flag("beta", TOKENS),
                                  _flag("point", TOKEN_LISTS)),
    "search": _argv(ADMISSIBLE_FLAGS, SEARCH_MODE,
                    st.sampled_from(((), ("--workers=2", "--worker-index=0"),
                                     ("--workers=2", "--worker-index=1"))))
              | _argv(FIBER_FLAGS, _flag("height", HEIGHTS), SEARCH_MODE,
                      _flag("workers", st.integers(1, 3) | st.integers(-1, 4)),
                      _flag("worker-index", st.integers(0, 1) | st.integers(-1, 4))),
    "cross-check": ADMISSIBLE_FLAGS | _argv(FIBER_FLAGS, _flag("height", HEIGHTS)),
}
# any fields, or VALID_CWP with one rational replaced by a token
CWP_JSON = (st.fixed_dictionaries({
    "curve": st.fixed_dictionaries({"r": EXPONENTS, "s": EXPONENTS, "a": TOKENS, "b": TOKENS}),
    "points": st.lists(st.fixed_dictionaries({"x": TOKENS, "y": TOKENS}), max_size=4),
    "base_index": st.integers(-1, 4),
}) | st.builds(_with_token, st.sampled_from(CWP_FIELDS), TOKENS))


@settings(max_examples=300)
@given(data=st.data(), command=st.sampled_from(sorted(ARGV)),
       fmt=st.sampled_from(("json", "table")),
       manifest=st.sampled_from((None, "run.json", "missing/run.json")))
def test_any_argv_ends_in_a_documented_exit(data, command, fmt, manifest, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    argv = [command, f"--format={fmt}", *data.draw(ARGV[command])]
    if command in ("map", "twist"):
        (tmp / "cwp.json").write_text(json.dumps(data.draw(CWP_JSON | JSON_VALUES)),
                                      encoding="utf-8")
        argv.append(f"--input={tmp / 'cwp.json'}")
    if manifest:
        argv.append(f"--manifest={tmp / manifest}")
    code, out, err = run_main(*argv)
    event(f"{command}: exit {code}")
    assert code in (0, 2, 64, 74), argv
    if manifest == "missing/run.json":  # the manifest is written before stdout
        assert out == "", argv
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv


def test_genus_refuses_values_too_long_to_print():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits

    def genus(n):  # s = 2; increasing in n
        return 1 + 2 ** (n - 1) * (n - 3) // 2

    lo, hi = 3, 4 * limit + 2  # genus(lo) prints, genus(hi) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if genus(mid) < 10 ** limit else (lo, mid)
    code, out, _ = run_main("genus", "--n", str(lo), "--s", "2")
    assert code == 0 and json.loads(out)["genus"] == genus(lo)
    code, out, _ = run_main("genus", "--n", "2000", "--s", "2")
    assert code == 0 and json.loads(out)["genus"] == genus(2000)
    for n, s in ((hi, 2), (20000, 2), (10 ** 7, 9), (10 ** 100, 2), (10 ** 100, 10 ** 100)):
        code, out, err = run_main("genus", "--n", str(n), "--s", str(s))
        assert (code, out) == (64, "")
        assert err == f"error: genus report for n={n}, s={s} exceeds {limit} digits\n"


def test_cross_check_that_is_not_ok_exits_2(monkeypatch):
    # with no fiber points the box curve (1, 1) is unmatched
    monkeypatch.setattr("superfiber.search.search_fiber_points", lambda *args: [])
    code, out, err = run_main("cross-check", "--alphas=0,2,-1", "--r", "3", "--s", "2",
                              "--height", "2")
    payload = json.loads(out)
    assert (code, err, payload["ok"]) == (2, "", False)
    assert payload["unmatched_curves"] == [{"r": 3, "s": 2, "a": "1", "b": "1"}]

    # with no box curves the fiber point [1 : 3 : 0], whose class (1, 1) has
    # an integer representative at H = 3, is unmatched
    monkeypatch.undo()
    monkeypatch.setattr("superfiber.search.curve_census_entries", lambda *args: [])
    code, out, err = run_main("cross-check", "--alphas=0,2,-1", "--r", "3", "--s", "2",
                              "--height", "3")
    payload = json.loads(out)
    assert (code, err, payload["ok"]) == (2, "", False)
    assert payload["unmatched_fiber_points"] == [["1", "3", "0"]]


def test_readme_example_session():
    # every `$ superfiber ...` line of the README followed by output prints that output
    lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    ran = 0
    for i, line in enumerate(lines):
        if not line.startswith("$ superfiber "):
            continue
        expected = list(itertools.takewhile(
            lambda text: not text.startswith(("$ ", "```")), lines[i + 1:]))
        if expected:
            assert run_main(*shlex.split(line)[2:]) == (0, "\n".join(expected) + "\n", ""), line
            ran += 1
    assert ran >= 2


def test_every_bad_input_leaves_through_one_error_line(tmp_path):
    # the one table of CLI refusals: each row is an argv, with the --input
    # files it reads written under tmp_path, and its exit code and error:
    # line, or None where the row checks the contract alone: that code, an
    # empty stdout, one line of under 300 bytes, and none of the
    # interpreter's own words (argparse used to print its usage block and
    # exit by itself, and Python's own parse errors reached stderr for the
    # tokens and files below)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    search = ("search", "--alphas", "0,2,-1", "--r", "3", "--s", "2", "--height", "5")
    a_4 = "--alphas=0,4,-5,-6,6"
    # the six commands that build a fiber, each with what it takes besides
    # --alphas, --r and --s
    fiber = (("fiber-eqs",), ("verify-point", "--point=1,1,1,1,1"),
             ("map-inverse", "--point=1,1,1,1,1"), ("search", "--height", "5"),
             ("search", "--height", "5", "--mode", "fiber-pairs"), ("cross-check", "--height", "5"))
    curve, points = VALID_CWP["curve"], VALID_CWP["points"]
    big_point = ",".join(conic_param(ConicSpec(3, -4), Fraction(2 ** 4000 + 1, 3)).to_obj())
    def hyperbola(*ts):  # points of y^2 = x^2 + 1
        return {**VALID_CWP, "curve": {"r": 2, "s": 2, "a": "1", "b": "1"},
                "points": [{"x": str(2 * t / (1 - t * t)), "y": str((1 + t * t) / (1 - t * t))}
                           for t in ts]}
    # X^3 + Y^3 = ... with X, Y, Z of 701 digits: T, S and the constant would not print
    X, Y, Z = 10 ** 700 + 7, 10 ** 700 + 3, 10 ** 700 + 1
    # each --input file, as its raw bytes or as a JSON value
    files = {
        "not-utf8.json": b'{"curve": "\xff"}', "not-json.json": b"curve",
        "long-int.json": b'{"curve": {"r": ' + b"7" * 5000 + b"}}",
        "long-r.json": {**VALID_CWP, "curve": {**curve, "r": "x" * 5000}},
        "off-curve.json": {**VALID_CWP, "points": [{"x": "0", "y": "1"}, {"x": "2", "y": "4"}]},
        "base-y-0.json": {**VALID_CWP, "points": points[::-1]},
        "no-points.json": {**VALID_CWP, "points": []},
        # three points whose normalized fiber point would not print
        "big-image.json": hyperbola(*(Fraction(2 ** 4000 + k, 3 ** 2520 + 2 * k) for k in (1, 3, 5))),
        # twist's c0 = y_0^2 of 4,817 digits on y^2 = x^3/4 + 2^8001 + 1; and a
        # c0 of 4,198 digits whose twisted point y_1/y_0 has 4,665
        "big-c0.json": {"curve": {"r": 3, "s": 2, "a": "1/4", "b": str(2 ** 8001 + 1)},
                        "points": [{"x": str(2 ** 5334), "y": str(2 ** 8000 + 1)}]},
        "big-twisted.json": hyperbola(Fraction(1, 3 ** 2200), Fraction(1, 5 ** 1840)),
        # integer fields that are not JSON integers; read as 1 and 0, a = true
        # and y = false at x = -1 would leave the curve valid
        "r-float.json": {**VALID_CWP, "curve": {**curve, "r": 3.9, "s": 2.5}, "base_index": 0.7},
        "r-true.json": {**VALID_CWP, "curve": {**curve, "r": True}},
        "s-text.json": {**VALID_CWP, "curve": {**curve, "s": "2"}},
        "base-float.json": {**VALID_CWP, "base_index": 0.7},
        "base-false.json": {**VALID_CWP, "base_index": False},
        "a-true.json": {**VALID_CWP, "curve": {**curve, "a": True}},
        "y-false.json": {**VALID_CWP, "points": [*points[:2], {"x": "-1", "y": False}]},
        # work the input would make unbounded
        "a-exponent.json": {**VALID_CWP, "curve": {**curve, "a": "1e300000000"}},
        "r-huge.json": {"curve": {**curve, "r": 10 ** 9}, "points": [{"x": "2", "y": "3"}]},
        "s-huge.json": {"curve": {**curve, "s": 10 ** 9}, "points": [{"x": "2", "y": "3"}]},
        "b-over-0.json": {**VALID_CWP, "curve": {**curve, "b": "1/0"}},
        "y-over-0.json": {**VALID_CWP, "points": [{"x": "0", "y": "1/0"}, *points[1:]]},
    }
    for name, raw in files.items():
        (tmp_path / name).write_bytes(raw if isinstance(raw, bytes) else json.dumps(raw).encode())

    def read(name, message, commands=("map", "twist")):
        # a row for each command that reads the file
        return {(command, "--input", str(tmp_path / name)): message for command in commands}

    not_integer = "error: malformed --input JSON: TypeError: {} must be an integer, got {!r}\n".format
    zero_denominator = "error: not a rational: '{}' (zero denominator)\n".format
    cap = "exceeds the candidate cap: (2H+1)^2 > 100000000"
    refusals = {
        # each domain refusal that an argv can reach
        2: {
            ("fiber-eqs", "--alphas=1,-1,2", "--r", "2", "--s", "2"):
                "error: x-coordinates must have pairwise distinct r-th powers\n",
            ("verify-point", "--alphas=0,1,2", "--r", "2", "--s", "2", "--point=0,0,0"):
                "error: all projective coordinates are zero\n",
            ("verify-point", "--alphas=0,1,2", "--r", "2", "--s", "2", "--point=1,1,1,1"):
                "error: expected 3 coordinates, got 4\n",
            ("map-inverse", "--alphas=0,1,2", "--r", "2", "--s", "2", "--point=1,1,2"):
                "error: point does not satisfy the fiber equations\n",
            ("map-inverse", "--alphas=0,2,-1", "--r", "3", "--s", "2", "--point=1,1,1"):
                "error: trivial fiber point: recovered a=0, b=1\n",
            **read("off-curve.json", "error: point 1 (2, 4) is not on the curve\n"),
            **read("base-y-0.json", "error: forward map needs a first point with y != 0\n", ("map",)),
            **read("base-y-0.json", "error: base point (-1, 0) cannot define a twist\n", ("twist",)),
            ("param-conic", "--alpha", "0", "--beta", "1", "--u", "2"):
                "error: conic coefficients alpha, beta must be nonzero\n",
            ("param-conic", "--alpha", "1", "--beta", "-1", "--u", "1"):
                "error: parameter u=1 collapses to the zero vector\n",
            ("cubic-to-weierstrass", "--alpha", "2", "--beta", "0", "--point", "1,1,1"):
                "error: cubic coefficients alpha, beta must be nonzero\n",
            ("cubic-to-weierstrass", "--alpha", "1", "--beta", "-1", "--point", "1,1,1"):
                "error: alpha + beta must be nonzero (gamma != 0)\n",
            ("cubic-to-weierstrass", "--alpha", "8", "--beta", "-7", "--point", "1,0,2"):
                "error: the map is defined only where X*Y*Z != 0\n",
            ("cubic-to-weierstrass", "--alpha", "1", "--beta", "1", "--point", "1,1,2"):
                "error: [1 : 1 : 2] is not on the cubic\n",
            ("cubic-to-weierstrass", "--alpha", "1", "--beta", "1", "--point", "1,1"):
                "error: cubic points live in P^2\n",
        },
        64: {
            ("genus", "--n", "16"): "error: the following arguments are required: --s\n",
            ("frobnicate",): None,
            ("fiber-eqz", "--alphas", "0,1,2"): None,
            ("genus", "--n", "x", "--s", "2"): "error: argument --n: invalid int value: 'x'\n",
            ("param-conic", "--alpha", "zzz", "--beta", "1", "--u", "0"): None,
            **{(*search, *workers): "error: need 0 <= worker_index < worker_count\n"
               for workers in (("--workers", "3", "--worker-index", "3"), ("--workers", "0"),
                               ("--workers", "-3"), ("--workers", "1", "--worker-index", "7"))},
            ("param-conic", "--alpha=1", "--beta=-1", "--u="): "error: not a rational: ''\n",
            # an empty comma item is an empty rational, not a skipped one
            ("fiber-eqs", "--alphas=0,1,,2", "--r", "2", "--s", "2"): "error: not a rational: ''\n",
            ("fiber-eqs", "--alphas=", "--r", "2", "--s", "2"): "error: not a rational: ''\n",
            ("verify-point", "--alphas=0,1,2", "--r", "2", "--s", "2", "--point=1,1,1,"):
                "error: not a rational: ''\n",
            ("fiber-eqs", "--alphas=" + "7" * 5000 + ",1,2", "--r", "2", "--s", "2"):
                f"error: not a rational: '{'7' * 20}...' (more than {limit} digits)\n",
            **{argv: zero_denominator(token) for argv, token in (
                (("fiber-eqs", "--alphas=1/0,2,3", "--r", "2", "--s", "2"), "1/0"),
                (("search", "--alphas=0/0,2,3", "--r", "2", "--s", "2", "--height", "3"), "0/0"),
                (("verify-point", "--alphas=0,2,-1", "--r", "2", "--s", "2", "--point", "1/0,3,0"),
                 "1/0"),
                (("map-inverse", "--alphas=0,2,-1", "--r", "2", "--s", "2", "--point", "1/0,3,0"),
                 "1/0"),
                (("param-conic", "--alpha", "3", "--beta", "-1", "--u", "1/0"), "1/0"))},
            **read("b-over-0.json", zero_denominator("1/0")),
            **read("y-over-0.json", zero_denominator("1/0")),
            # inputs within the rules whose printed values would not be: a point of
            # 2,536-digit u, a b of about 4,800 digits from 8,000-bit coordinates, and
            # the fiber point of big-image.json
            ("param-conic", "--alpha", "3", "--beta", "-1", "--u", str(7 ** 3000)):
                f"error: point exceeds {limit} digits\n",
            ("map-inverse", "--alphas=0,1,2", "--r", "2", "--s", "2", f"--point={big_point}"):
                f"error: curve a or b exceeds {limit} digits\n",
            **read("big-image.json", f"error: point exceeds {limit} digits\n", ("map",)),
            # A_2 = 2^16000 of 4,817 digits, and the values of the files and X, Y, Z above
            ("fiber-eqs", f"--alphas=0,1,{2 ** 8000}", "--r", "2", "--s", "2"):
                f"error: fiber equation exceeds {limit} digits\n",
            **read("big-c0.json", f"error: twist c0, a or b exceeds {limit} digits\n", ("twist",)),
            **read("big-twisted.json", f"error: point exceeds {limit} digits\n", ("twist",)),
            ("cubic-to-weierstrass", "--alpha", str(Z ** 3 - Y ** 3), "--beta", str(X ** 3 - Z ** 3),
             "--point", f"{X},{Y},{Z}"): f"error: Weierstrass point exceeds {limit} digits\n",
            **read("not-utf8.json", "error: malformed --input JSON: 'utf-8' codec can't decode"
                   " byte 0xff in position 11: invalid start byte\n", ("map",)),
            **read("not-json.json", "error: malformed --input JSON: Expecting value: line 1 column 1"
                   " (char 0)\n", ("map",)),
            **read("long-int.json",
                   f"error: malformed --input JSON: an integer of more than {limit} digits\n",
                   ("twist",)),
            **read("no-points.json", "error: need at least one point\n", ("map",)),
            **read("r-float.json", not_integer("r", 3.9)),
            **read("r-true.json", not_integer("r", True)),
            **read("s-text.json", not_integer("s", "2")),
            **read("base-float.json", not_integer("base_index", 0.7)),
            **read("base-false.json", not_integer("base_index", False)),
            **read("a-true.json", "error: not a rational: True\n"),
            **read("y-false.json", "error: not a rational: False\n"),
            **read("a-exponent.json",
                   "error: not a rational: '1e300000000' (exponent notation is not accepted)\n"),
            **read("r-huge.json", f"error: point 0: x^r or y^s exceeds {limit} digits\n"),
            **read("s-huge.json", f"error: point 0: x^r or y^s exceeds {limit} digits\n"),
            # the three genus formulas share one refusal, checked before their size
            ("genus", "--n", "100000000", "--s", "-3"): "error: need n >= 2 and s >= 2\n",
            ("genus", "--n", "3", "--s", "1"): "error: need n >= 2 and s >= 2\n",
            ("genus", "--n", "1", "--s", "2"): "error: need n >= 2 and s >= 2\n",
            # an r below 2 is refused by XCoordinates in FamilyParams' words,
            # before s is read; every fiber command answers a bad --s with the
            # one FamilyParams line, and a zero coordinate to a negative power
            # used to escape as ZeroDivisionError
            **{(command, a_4, "--r", "1", "--s", "2", *rest):
               "error: exponents must be >= 2, got r=1\n" for command, *rest in fiber},
            **{(command, a_4, "--r", "3", *rest, "--s", s):
               f"error: exponents must be >= 2, got r=3, s={s}\n"
               for s in ("1", "0") for command, *rest in fiber},
            **{(command, "--alphas=0,1,2", "--r", "2", "--s", "-1", "--point=0,1,1"):
               "error: exponents must be >= 2, got r=2, s=-1\n"
               for command in ("verify-point", "map-inverse")},
            # heights past the candidate cap; a box curve raises cross-check's
            # fiber bound to its pair height, past the cap, and the line names
            # that bound, not a height the user gave
            **{("search", a_4, "--r", "3", "--s", "2", "--height", "100000000000", "--mode", mode):
               f"error: height bound 100000000000 {cap}\n" for mode in ("curve-box", "fiber-pairs")},
            # the box curve y^2 = 2x^2 + 1
            ("cross-check", "--alphas=80782,470832,2744210", "--r", "2", "--height", "2", "--s", "2"):
                f"error: fiber bound 665857, raised from height 2 to cover the box curves, {cap}\n",
            ("cross-check", "--alphas=0,532,1", "--r", "3", "--height", "5", "--s", "2"):
                f"error: fiber bound 13719, raised from height 5 to cover the box curves, {cap}\n",
            # Python 3.11 reads --flag=-- as an empty list, which ended in a traceback
            ("fiber-eqs", "--alphas=--", "--r", "2", "--s", "2"): None,
            ("genus", "--n=--", "--s", "2"): None,
            ("map", "--input=--"): None,
            # an over-long token is shown by its first 20 characters, then ...
            ("genus", "--n", "7" * 5000, "--s", "2"):
                f"error: argument --n: invalid int value: '{'7' * 20}...'\n",
            (*search, "--mode", "x" * 5000):
                f"error: argument --mode: invalid choice: '{'x' * 20}...'"
                " (choose from 'curve-box', 'fiber-pairs')\n",
            ("x" * 5000,): None,
            # an unrecognized token with whitespace was echoed whole (5,032 bytes)
            ("genus", "--n", "2", "--s", "2", "x " * 2500):
                "error: unrecognized arguments: x x x x x x x x x x ...\n",
            ("param-conic", "--alpha", "1", "--beta", "2", "--u", "x" * 5000):
                f"error: not a rational: '{'x' * 20}...'\n",
            **read("long-r.json", "error: malformed --input JSON: TypeError: r must be an integer,"
                   f" got '{'x' * 20}...'\n", ("twist",)),
        },
        74: {
            ("map", "--input", "/nonexistent/cwp.json"):
                "error: [Errno 2] No such file or directory: '/nonexistent/cwp.json'\n",
            # an empty manifest path is a file that cannot be written
            ("genus", "--n", "2", "--s", "2", "--manifest="):
                "error: [Errno 2] No such file or directory: ''\n",
        },
    }
    for code, rows in refusals.items():
        for argv, message in rows.items():
            got, out, err = run_main(*argv)
            assert (got, out) == (code, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
            assert len(err.encode()) < 300, argv
            for python_words in ("Traceback", "Invalid literal", "set_int_max_str_digits"):
                assert python_words not in err, argv
            assert message is None or err == message, (argv, err)


# each command's flags, and the two every command takes
FLAGS = {
    "repro-elkies": (),
    "fiber-eqs": ("--alphas", "--r", "--s"),
    "verify-point": ("--alphas", "--r", "--s", "--point"),
    "genus": ("--n", "--s"),
    "twist": ("--input",),
    "map": ("--input",),
    "map-inverse": ("--alphas", "--r", "--s", "--point"),
    "param-conic": ("--alpha", "--beta", "--u"),
    "cubic-to-weierstrass": ("--alpha", "--beta", "--point"),
    "search": ("--alphas", "--r", "--s", "--height", "--mode", "--workers", "--worker-index"),
    "cross-check": ("--alphas", "--r", "--s", "--height"),
}
COMMON_FLAGS = ("--format", "--manifest")


def test_flags_keep_argparse_rules():
    genus = '{"genus":0,"gonality_lower_bound":1,"n0":4}\n'
    search = ("search", "--alphas=0,2,-1", "--r", "3", "--s", "2", "--height", "5")
    refused = {
        # a token is a value unless it starts with "-", is longer than that, is
        # no negative number and has no space
        ("genus", "--n", "-5", "--s", "2"): "need n >= 2 and s >= 2",
        ("genus", "--n", "-1.5", "--s", "2"): "argument --n: invalid int value: '-1.5'",
        ("genus", "--n", "-1 2", "--s", "2"): "argument --n: invalid int value: '-1 2'",
        ("genus", "--n", "-", "--s", "2"): "argument --n: invalid int value: '-'",
        ("genus", "--n", "", "--s", "2"): "argument --n: invalid int value: ''",
        ("genus", "--n", "-x", "--s", "2"): "argument --n: expected one argument",
        ("genus", "--n", "--s=2 3"): "argument --n: invalid int value: '--s=2 3'",
        ("genus", "--n", "-h"): "argument --n: expected one argument",
        ("genus", "--s", "2", "--n"): "argument --n: expected one argument",
        # "--" is never a value, in either form
        ("genus", "--n", "--", "2", "--s", "2"): "argument --n: expected one argument",
        ("genus", "--n=--", "--s", "2"): "argument --n: expected one argument",
        # the leftmost bad value first, then the missing flags in table order,
        # then the unrecognized tokens
        ("genus", "--s", "y", "--n", "x", "extra"): "argument --s: invalid int value: 'y'",
        ("genus", "--n=2", "--s", "2", "--format", "xml", "--n", "x"):
            "argument --format: invalid choice: 'xml' (choose from 'json', 'table')",
        (*search, "--mode", "pairs"):
            "argument --mode: invalid choice: 'pairs' (choose from 'curve-box', 'fiber-pairs')",
        ("verify-point", "extra", "--format", "table"):
            "the following arguments are required: --alphas, --r, --s, --point",
        ("--bogus",): "the following arguments are required: command",
        ("genus", "--n", "2", "--s", "2", "--mode", "x", "-5"):
            "unrecognized arguments: --mode x -5",
        ("--bogus", "genus", "--n", "2", "--s", "2", "extra"):
            "unrecognized arguments: --bogus extra",
        # "--" ends the flags, and it and what follows are unrecognized
        ("genus", "--n", "2", "--", "--s", "2"): "the following arguments are required: --s",
        ("genus", "--n", "2", "--s", "2", "--"): "unrecognized arguments: --",
        ("genus", "--n", "2", "--s", "2", "--", "--n", "3"): "unrecognized arguments: -- --n 3",
        # flags are spelled in full
        ("genus", "--n", "2", "--s", "2", "--form=table"): "unrecognized arguments: --form=table",
        (*search, "--work", "2"): "unrecognized arguments: --work 2",
        # each echoed token is clipped, and a line break in it is escaped
        ("genus", "--n", "2", "--s", "2", "x" * 30 + "\n"):
            f"unrecognized arguments: {'x' * 20}...",
        ("genus", "--n", "2", "--s", "2", "x\ny", "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"):
            r"unrecognized arguments: x\ny \r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
        ("genus", "--n", "2\n" + "7" * 30, "--s", "2"):
            "argument --n: invalid int value: '2\\n777777777777777777...'",
        ("x\n" * 30,): "argument command: invalid choice: '" + "x\\n" * 10 + "...' (choose from "
                       + ", ".join(map(repr, FLAGS)) + ")",
    }
    for argv, message in refused.items():
        assert run_main(*argv) == (64, "", f"error: {message}\n"), argv
    # --flag value and --flag=value, and the last of a repeated flag wins
    for argv in (("genus", "--n", "2", "--s", "2"), ("genus", "--n=2", "--s=2"),
                 ("genus", "--s", "2", "--n=7", "--n", "2")):
        assert run_main(*argv) == (0, genus, ""), argv
    assert run_main("param-conic", "--alpha", "3", "--beta", "-1", "--u", "2")[0] == 0


def test_help_and_version_print_from_the_table():
    for argv in (("-h",), ("--help",), ("--bogus", "-h")):
        code, out, err = run_main(*argv)
        assert (code, err) == (0, "") and out.startswith("usage: superfiber "), argv
        assert all(command in out for command in FLAGS), argv
    for command, flags in FLAGS.items():
        for help_flag in ("-h", "--help"):
            code, out, err = run_main(command, help_flag)
            assert (code, err) == (0, "") and out.startswith(f"usage: superfiber {command} ")
            assert all(flag in out for flag in (*flags, *COMMON_FLAGS)), command
    assert run_main("--version") == (0, f"superfiber {superfiber.__version__}\n", "")


# the seeded fuzz's tokens: mostly small numbers, and odd ones (every line
# break str.splitlines knows, other control characters, unicode digits and
# minus signs, a 30-digit run, the empty string, "--" and "-")
SMALL = ("0", "1", "-1", "2", "3", "4", "5", "-5", "6", "1/2", "-3/4")
ODD = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
       "\x00", "\t", "\x1b", "٣", "९", "−", "‐", "7" * 30, "", "--", "-", " ", "x")
# the int flags' small values
SMALL_INTS = {"--r": range(1, 6), "--s": range(2, 6), "--n": range(2, 10),
              "--height": range(1, 10), "--workers": range(1, 4), "--worker-index": range(4)}


def _fuzz_token(rng):
    token = rng.choice(SMALL)
    if rng.random() < 0.15:
        odd = rng.choice(ODD)
        token = rng.choice((odd, odd + token, token + odd))
    return token


def _fuzz_value(rng, flag, files, directory):
    if flag in ("--alphas", "--point"):
        return ",".join(_fuzz_token(rng) for _ in range(rng.randint(3, 5)))
    if flag == "--input":  # "" names the directory itself
        return str(directory / rng.choice((*files, "missing.json", "")))
    if flag == "--manifest":
        return str(directory / "run.json")
    choices = {"--format": ("json", "table"), "--mode": ("curve-box", "fiber-pairs")}
    if flag in choices:
        return rng.choice(choices[flag]) if rng.random() < 0.9 else rng.choice(ODD)
    if flag in SMALL_INTS and rng.random() < 0.7:
        return str(rng.choice(SMALL_INTS[flag]))
    return _fuzz_token(rng)


def fuzz_argvs(rng, directory, count):
    """count seeded argvs over every command and its flags, with the --input
    files they name written to directory."""
    point = {"x": "2", "y": "3"}
    files = {"cwp.json": json.dumps(VALID_CWP),
             "base1.json": json.dumps({**VALID_CWP, "base_index": 1}),
             "off-curve.json": json.dumps({**VALID_CWP, "points": [point, {"x": "0", "y": "2"}]}),
             "empty.json": json.dumps({"points": []}), "array.json": "[3]",
             "not-json.json": "curve", "not-utf8.json": b'{"curve": "\xff"}',
             "long-int.json": '{"curve": {"r": ' + "7" * 30 + "}}"}
    for name, raw in files.items():
        (directory / name).write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    argvs = []
    for _ in range(count):
        command = rng.choice(sorted(FLAGS)) if rng.random() < 0.97 else rng.choice(ODD)
        argv = [command]
        flags = [flag for flag in FLAGS.get(command, ()) if rng.random() < 0.97]
        flags += [flag for flag in COMMON_FLAGS if rng.random() < 0.2]
        if rng.random() < 0.2:
            rng.shuffle(flags)
        for flag in flags:
            value = _fuzz_value(rng, flag, files, directory)
            # a list starting with "-" is a flag unless joined to its name
            joined = rng.random() < (0.8 if flag in ("--alphas", "--point") else 0.5)
            argv += [f"{flag}={value}"] if joined else [flag, value]
        if rng.random() < 0.15:
            argv.append(rng.choice((*ODD, "x\ny", "extra")))
        argvs.append(argv)
    return argvs


def test_table_fallback_rendering():
    code, out, _ = run_main("genus", "--n", "4", "--s", "2", "--format", "table")
    assert code == 0 and "genus: 5" in out
    # a list payload is one json.dumps line per item
    search = ("search", "--alphas=0,2,-1", "--r", "3", "--s", "2", "--height", "3")
    for mode in ("curve-box", "fiber-pairs"):
        assert run_main(*search, "--mode", mode, "--format", "table") == (0, (
            '{"curve": {"r": 3, "s": 2, "a": "1", "b": "1"}, "fiber_point": ["1", "3", "0"], '
            '"distinct_x_count": 3}\n'), ""), mode
        # and an empty census prints nothing, in table form too
        empty = ("search", "--alphas=0,1,2", "--r", "2", "--s", "2", "--height", "2")
        for fmt in ("json", "table"):
            assert run_main(*empty, "--mode", mode, "--format", fmt) == (0, "", ""), (mode, fmt)


def test_the_process_prints_what_main_returns(tmp_path):
    # python -m superfiber ends at its last flushed byte, with no interpreter
    # teardown: each exit code, and every byte it writes through a pipe, is main's
    alphas = ",".join(map(str, range(1500)))
    codes = set()
    for argv in (("genus", "--n", "16", "--s", "2"),
                 ("map-inverse", "--alphas", "0,1,2", "--r", "2", "--s", "2", "--point", "1,1,2"),
                 ("genus", "--n", "16"),
                 ("repro-elkies", f"--manifest={tmp_path / 'missing' / 'run.json'}"),
                 ("-h",),
                 ("--version",),
                 # more than a pipe buffer holds
                 ("fiber-eqs", f"--alphas={alphas}", "--r", "2", "--s", "2", "--format", "table")):
        code, out, err = run_main(*argv)
        done = subprocess.run(CMD + list(argv), capture_output=True, timeout=300)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode()), argv
        codes.add(code)
    assert codes == {0, 2, 64, 74}
    assert len(done.stdout) == 72389


@pytest.mark.parametrize("redirect", (">/dev/full", ">&-"), ids=("full", "closed"))
def test_a_stdout_that_cannot_take_the_output_exits_74(redirect):
    if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    for argv in (("genus", "--n", "2", "--s", "2"), ("-h",)):
        done = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *CMD, *argv],
                              stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 74, (argv, done.stderr)
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1, argv
        assert "Traceback" not in done.stderr, argv


def test_a_closed_stderr_keeps_the_exit_code():
    # the error line cannot be written, and the process still exits with main's code
    for argv, code in ((("genus", "--n", "2"), 64),
                       (("fiber-eqs", "--alphas=1,-1,2", "--r", "2", "--s", "2"), 2)):
        done = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *CMD, *argv],
                              stdout=subprocess.PIPE, timeout=60)
        assert (done.returncode, done.stdout) == (code, b""), argv


def test_a_closed_stdin_exits_74():
    # --input - cannot read a stdin the process was started without
    for command in ("map", "twist"):
        done = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", *CMD, command, "--input", "-"],
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (74, "", "error: stdin is closed\n"), \
            command


def test_a_stdout_that_fails_leaves_no_manifest(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    manifest, device = tmp_path / "run.json", tmp_path / "null"
    device.symlink_to(os.devnull)
    for path in (manifest, device):
        argv = ("genus", "--n", "2", "--s", "2", f"--manifest={path}")
        done = subprocess.run(["sh", "-c", 'exec "$@" >/dev/full', "sh", *CMD, *argv],
                              stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 74, done.stderr
        assert done.stderr == "error: [Errno 28] No space left on device\n"
    # a run manifest is removed, and a manifest path that names a device is kept
    assert not manifest.exists() and device.is_symlink()


def test_manifest_written_and_stable(tmp_path):
    manifest_a = tmp_path / "a.json"
    manifest_b = tmp_path / "b.json"
    first = run_main("genus", "--n", "4", "--s", "2", "--manifest", str(manifest_a))
    second = run_main("genus", "--n", "4", "--s", "2", "--manifest", str(manifest_b))
    assert first[0] == second[0] == 0
    a = json.loads(manifest_a.read_text())
    b = json.loads(manifest_b.read_text())
    assert a == b
    assert a["command"] == "genus"
    assert a["tool_version"]
    assert a["output_digest"] == hashlib.sha256(first[1].encode()).hexdigest()
    assert a["parameters"]["n"] == "4"


def test_bad_exponents_and_fiber_shapes_have_one_wording_each():
    # the three genus formulas share the one refusal that `genus` prints (its
    # rows are in the refusal table)
    for formula in (lambda: n0_threshold(1), lambda: gonality_lower_bound(3, 1),
                    lambda: fiber_genus(3, 1)):
        with pytest.raises(ValueError) as raised:
            formula()
        assert str(raised.value) == "need n >= 2 and s >= 2"

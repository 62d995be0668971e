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
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

import superfiber
from superfiber.cli import main

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


def run_cli(*args, stdin=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, input=stdin, timeout=300
    )


def test_start_up_imports_no_dataclasses():
    # value classes are exact.record, so no command pays for importing
    # dataclasses (which imports inspect) or for generating its methods
    src = os.path.dirname(os.path.dirname(superfiber.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from superfiber.cli import main; "
            "code = main(['genus', '--n', '2', '--s', '2']); "
            "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code, src],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == '{"genus":0,"gonality_lower_bound":1,"n0":4}\n0 []\n'


def test_genus_command_exact_bytes():
    result = run_cli("genus", "--n", "16", "--s", "2")
    assert result.returncode == 0
    assert result.stdout == '{"genus":212993,"gonality_lower_bound":16384,"n0":4}\n'


def test_repro_elkies_passes_and_is_deterministic():
    first = run_cli("repro-elkies")
    second = run_cli("repro-elkies")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 5


def test_repro_elkies_table_format():
    result = run_cli("repro-elkies", "--format", "table")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[-1] == "OK"
    assert sum(1 for line in lines if line.startswith("PASS")) == 5


def test_param_conic():
    result = run_cli("param-conic", "--alpha", "3", "--beta", "-1", "--u", "2")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"point": ["9", "-1", "11"]}


def test_verify_point_trivial():
    result = run_cli(
        "verify-point", "--alphas", "0,1,2,3", "--r", "2", "--s", "2",
        "--point", "1,1,1,1",
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["on_fiber"] is True


def test_fiber_eqs_json_and_table():
    result = run_cli("fiber-eqs", "--alphas", "0,1,2", "--r", "2", "--s", "2")
    payload = json.loads(result.stdout)
    assert payload["equations"] == [{"i": 2, "c0": "3", "c1": "-4", "ci": "1"}]
    assert payload["solved_form"] == {"c": "1", "pairs": [["4", "3"]]}
    table = run_cli("fiber-eqs", "--alphas", "0,1,2", "--r", "2", "--s", "2",
                    "--format", "table")
    assert table.stdout == "(1) * Y_2^2 = 4 * Y_1^2 - 3 * Y_0^2\n"


def test_map_and_twist_from_input_file(tmp_path):
    cwp = {
        "curve": {"r": 3, "s": 2, "a": "1", "b": "1"},
        "points": [{"x": "0", "y": "1"}, {"x": "2", "y": "3"}, {"x": "-1", "y": "0"}],
        "base_index": 0,
    }
    path = tmp_path / "cwp.json"
    path.write_text(json.dumps(cwp))

    mapped = run_cli("map", "--input", str(path))
    assert mapped.returncode == 0
    assert json.loads(mapped.stdout) == {
        "alphas": ["0", "2", "-1"],
        "r": 3,
        "s": 2,
        "fiber_point": ["1", "3", "0"],
    }

    twisted = run_cli("twist", "--input", str(path))
    payload = json.loads(twisted.stdout)
    assert payload["twist"]["c0"] == "1"  # base (0, 1) gives the identity twist
    assert payload["points"][0] == {"x": "0", "y": "1"}

    via_stdin = run_cli("map", "--input", "-", stdin=json.dumps(cwp))
    assert via_stdin.stdout == mapped.stdout


def run_main(*argv):
    """main() in process: (exit code, stdout, stderr); any escaping exception fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_with_input(command, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(value, handle)
        return run_main(command, "--input", path)


@settings(deadline=None, max_examples=50)
@given(command=st.sampled_from(("map", "twist")), value=JSON_VALUES)
def test_any_json_input_ends_in_a_documented_exit(command, value):
    code, _, err = run_with_input(command, value)
    assert code in (0, 2, 64, 74)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err


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


def test_non_integer_fields_exit_64_in_one_line():
    curve = VALID_CWP["curve"]
    for value, name, bad in (({**VALID_CWP, "curve": {**curve, "r": 3.9, "s": 2.5},
                               "base_index": 0.7}, "r", 3.9),
                             ({**VALID_CWP, "curve": {**curve, "r": True}}, "r", True),
                             ({**VALID_CWP, "curve": {**curve, "s": "2"}}, "s", "2"),
                             ({**VALID_CWP, "base_index": 0.7}, "base_index", 0.7),
                             ({**VALID_CWP, "base_index": False}, "base_index", False)):
        for command in ("map", "twist"):
            code, out, err = run_with_input(command, value)
            assert (code, out) == (64, ""), (command, value)
            assert err == ("error: malformed --input JSON: TypeError: "
                           f"{name} must be an integer, got {bad!r}\n")


def test_unbounded_input_work_exits_64_in_one_line():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    at_two = [{"x": "2", "y": "3"}]
    cases = (
        ({**VALID_CWP, "curve": {**VALID_CWP["curve"], "a": "1e300000000"}},
         "error: not a rational: '1e300000000' (exponent notation is not accepted)\n"),
        ({"curve": {"r": 10 ** 9, "s": 2, "a": "1", "b": "1"}, "points": at_two},
         f"error: point 0: x^r or y^s exceeds {limit} digits\n"),
        ({"curve": {"r": 3, "s": 10 ** 9, "a": "1", "b": "1"}, "points": at_two},
         f"error: point 0: x^r or y^s exceeds {limit} digits\n"),
    )
    for value, message in cases:
        for command in ("map", "twist"):
            code, out, err = run_with_input(command, value)
            assert (code, out, err) == (64, "", message), (command, value)


def test_huge_exponent_flags_end_at_once():
    # each argv used to raise alpha^r, Y^s or a height to the s-th power first
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    huge = ("--s", "100000000")
    box = ("--alphas=0,4,-5,-6,6", "--r", "3", *huge, "--height", "3")
    cases = (
        (("fiber-eqs", "--alphas=2,3,5", "--r", "100000000", "--s", "2"), "alpha^r"),
        (("verify-point", "--alphas=0,1,2", "--r", "2", *huge, "--point=2,3,5"), "Y^s"),
        (("map-inverse", "--alphas=0,1,2", "--r", "2", *huge, "--point=2,3,5"), "Y^s"),
        (("search", *box, "--mode", "curve-box"), None),
        (("search", *box, "--mode", "fiber-pairs"), "height^s"),
        (("cross-check", "--alphas=0,4,-5,-6,6", "--r", "3", *huge, "--height", "2"), "height^s"),
    )
    for argv, power in cases:
        code, out, err = run_main(*argv)
        if power is None:
            assert (code, err) == (0, ""), argv
        else:
            assert (code, out, err) == (64, "", f"error: {power} exceeds {limit} digits\n"), argv


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


def test_heights_past_the_candidate_cap_exit_64_in_one_line():
    cap = "exceeds the candidate cap: (2H+1)^2 > 100000000"
    box = ("--alphas=0,4,-5,-6,6", "--r", "3", "--s", "2", "--height", "100000000000")
    cases = (
        (("search", *box, "--mode", "curve-box"), 100000000000),
        (("search", *box, "--mode", "fiber-pairs"), 100000000000),
        # the box curve y^2 = 2x^2 + 1 raises the fiber bound to its pair height
        (("cross-check", "--alphas=80782,470832,2744210", "--r", "2", "--s", "2",
          "--height", "2"), 665857),
    )
    for argv, height in cases:
        code, out, err = run_main(*argv)
        assert (code, out, err) == (64, "", f"error: height bound {height} {cap}\n"), argv


def test_negative_s_exits_64_in_one_line():
    # a zero coordinate to a negative power used to escape as ZeroDivisionError
    for command, message in (("verify-point", "s must be >= 2"),
                             ("map-inverse", "exponents must be >= 2, got r=2, s=-1")):
        code, out, err = run_main(command, "--alphas=0,1,2", "--r", "2", "--s", "-1", "--point=0,1,1")
        assert (code, out, err) == (64, "", f"error: {message}\n"), command


def test_zero_denominators_exit_64_in_one_line():
    def refused(token):
        return 64, "", f"error: not a rational: '{token}' (zero denominator)\n"

    fiber = ("--r", "2", "--s", "2")
    for argv, token in (
        (("fiber-eqs", "--alphas=1/0,2,3", *fiber), "1/0"),
        (("search", "--alphas=0/0,2,3", *fiber, "--height", "3"), "0/0"),
        (("verify-point", "--alphas=0,2,-1", *fiber, "--point", "1/0,3,0"), "1/0"),
        (("map-inverse", "--alphas=0,2,-1", *fiber, "--point", "1/0,3,0"), "1/0"),
        (("param-conic", "--alpha", "3", "--beta", "-1", "--u", "1/0"), "1/0"),
    ):
        code, out, err = run_main(*argv)
        assert (code, out, err) == refused(token), argv
    curve, points = VALID_CWP["curve"], VALID_CWP["points"]
    for value in ({**VALID_CWP, "curve": {**curve, "b": "1/0"}},
                  {**VALID_CWP, "points": [{"x": "0", "y": "1/0"}, *points[1:]]}):
        for command in ("map", "twist"):
            code, out, err = run_with_input(command, value)
            assert (code, out, err) == refused("1/0"), command


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


@settings(deadline=None, max_examples=300)
@given(data=st.data(), command=st.sampled_from(sorted(ARGV)),
       fmt=st.sampled_from(("json", "table")),
       manifest=st.sampled_from((None, "run.json", "missing/run.json")))
def test_any_argv_ends_in_a_documented_exit(data, command, fmt, manifest, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    argv = [command, f"--format={fmt}", *data.draw(ARGV[command])]
    if command in ("map", "twist"):
        (tmp / "cwp.json").write_text(json.dumps(data.draw(CWP_JSON)), encoding="utf-8")
        argv.append(f"--input={tmp / 'cwp.json'}")
    if manifest:
        argv.append(f"--manifest={tmp / manifest}")
    code, _, err = run_main(*argv)
    event(f"{command}: exit {code}")
    assert code in (0, 2, 64, 74), argv
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv


def test_point_off_curve_exits_2():
    off = {**VALID_CWP, "points": [{"x": "0", "y": "1"}, {"x": "2", "y": "4"}]}
    for command in ("map", "twist"):
        code, out, err = run_with_input(command, off)
        assert (code, out) == (2, "")
        assert err == "error: PointNotOnCurve: point 1 (2, 4) is not on the curve\n"


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
    for n, s in ((hi, 2), (20000, 2), (10 ** 7, 9), (10 ** 100, 10 ** 100)):
        code, out, err = run_main("genus", "--n", str(n), "--s", str(s))
        assert (code, out) == (64, "")
        assert err == f"error: genus report for n={n}, s={s} exceeds {limit} digits\n"


def test_map_inverse_round_trip():
    result = run_cli(
        "map-inverse", "--alphas", "0,2,-1", "--r", "3", "--s", "2",
        "--point", "1,3,0",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["curve"] == {"r": 3, "s": 2, "a": "1", "b": "1"}
    assert payload["points"][2] == {"x": "-1", "y": "0"}


def test_map_inverse_trivial_point_is_domain_error():
    result = run_cli(
        "map-inverse", "--alphas", "0,2,-1", "--r", "3", "--s", "2",
        "--point", "1,1,1",
    )
    assert result.returncode == 2
    assert "TrivialPoint" in result.stderr


def test_not_admissible_exit_code():
    result = run_cli("fiber-eqs", "--alphas", "1,-1,2", "--r", "2", "--s", "2")
    assert result.returncode == 2
    assert "NotAdmissible" in result.stderr


def test_cubic_to_weierstrass():
    result = run_cli(
        "cubic-to-weierstrass", "--alpha", "1", "--beta", "2", "--point", "1,1,1"
    )
    assert json.loads(result.stdout) == {"T": "28", "S": "-80", "rhs_constant": "15552"}


def test_cubic_to_weierstrass_domain_error():
    result = run_cli(
        "cubic-to-weierstrass", "--alpha", "1", "--beta", "1", "--point", "1,1,2"
    )
    assert result.returncode == 2
    assert "NotOnCubic" in result.stderr


def test_search_jsonl_and_workers():
    full = run_cli("search", "--alphas", "0,2,-1", "--r", "3", "--s", "2",
                   "--height", "5", "--mode", "fiber-pairs")
    assert full.returncode == 0
    lines = [json.loads(line) for line in full.stdout.splitlines()]
    assert lines == [
        {
            "curve": {"r": 3, "s": 2, "a": "1", "b": "1"},
            "fiber_point": ["1", "3", "0"],
            "distinct_x_count": 3,
        }
    ]
    merged = []
    for index in range(2):
        part = run_cli("search", "--alphas", "0,2,-1", "--r", "3", "--s", "2",
                       "--height", "5", "--mode", "fiber-pairs",
                       "--workers", "2", "--worker-index", str(index))
        merged.extend(json.loads(line) for line in part.stdout.splitlines())
    assert sorted(merged, key=lambda e: e["fiber_point"]) == lines


def test_search_curve_box_mode():
    result = run_cli("search", "--alphas", "0,2,-1", "--r", "3", "--s", "2",
                     "--height", "2", "--mode", "curve-box")
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert [e["curve"] for e in lines] == [{"r": 3, "s": 2, "a": "1", "b": "1"}]


def test_cross_check_command():
    result = run_cli("cross-check", "--alphas", "0,2,-1", "--r", "3", "--s", "2",
                     "--height", "2")
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["matched"][0]["fiber_point"] == ["1", "3", "0"]
    assert payload["trivial_points"] == [["1", "1", "1"]]


def test_cross_check_that_is_not_ok_exits_2(monkeypatch):
    # with no fiber points the box curve (1, 1) is unmatched
    monkeypatch.setattr("superfiber.search.search_fiber_points", lambda *args: [])
    code, out, err = run_main("cross-check", "--alphas=0,2,-1", "--r", "3", "--s", "2",
                              "--height", "2")
    payload = json.loads(out)
    assert (code, err, payload["ok"]) == (2, "", False)
    assert payload["unmatched_curves"] == [{"r": 3, "s": 2, "a": "1", "b": "1"}]


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


def test_usage_errors_exit_64():
    assert run_cli("genus", "--n", "16").returncode == 64  # missing --s
    assert run_cli("frobnicate").returncode == 64
    assert run_cli("genus", "--n", "x", "--s", "2").returncode == 64
    assert run_cli("param-conic", "--alpha", "zzz", "--beta", "1", "--u", "0").returncode == 64
    search = ("search", "--alphas", "0,2,-1", "--r", "3", "--s", "2", "--height", "5")
    for workers in (("--workers", "3", "--worker-index", "3"),
                    ("--workers", "0"),
                    ("--workers", "-3"),
                    ("--workers", "1", "--worker-index", "7")):
        out = run_cli(*search, *workers)
        assert out.returncode == 64
        assert out.stderr == "error: need 0 <= worker_index < worker_count\n"
        assert "Traceback" not in out.stderr


def test_degenerate_conic_and_cubic_exit_2():
    for argv, message in (
        (("param-conic", "--alpha", "0", "--beta", "1", "--u", "0"),
         "error: DegenerateSpec: conic coefficients alpha, beta must be nonzero\n"),
        (("cubic-to-weierstrass", "--alpha", "2", "--beta", "0", "--point", "1,1,1"),
         "error: DegenerateSpec: cubic coefficients alpha, beta must be nonzero\n"),
        (("cubic-to-weierstrass", "--alpha", "1", "--beta", "-1", "--point", "1,1,1"),
         "error: DegenerateSpec: alpha + beta must be nonzero (gamma != 0)\n"),
    ):
        assert run_main(*argv) == (2, "", message)


def test_map_inverse_off_fiber_is_domain_error():
    result = run_cli(
        "map-inverse", "--alphas", "0,1,2", "--r", "2", "--s", "2",
        "--point", "1,1,2",
    )
    assert result.returncode == 2
    assert "NotOnFiber" in result.stderr


def test_table_fallback_rendering():
    result = run_cli("genus", "--n", "4", "--s", "2", "--format", "table")
    assert result.returncode == 0
    assert "genus: 5" in result.stdout


def test_missing_input_file_exit_74():
    result = run_cli("map", "--input", "/nonexistent/cwp.json")
    assert result.returncode == 74


def test_manifest_written_and_stable(tmp_path):
    manifest_a = tmp_path / "a.json"
    manifest_b = tmp_path / "b.json"
    first = run_cli("genus", "--n", "4", "--s", "2", "--manifest", str(manifest_a))
    second = run_cli("genus", "--n", "4", "--s", "2", "--manifest", str(manifest_b))
    assert first.returncode == second.returncode == 0
    a = json.loads(manifest_a.read_text())
    b = json.loads(manifest_b.read_text())
    assert a == b
    assert a["command"] == "genus"
    assert a["tool_version"]
    assert a["output_digest"] == hashlib.sha256(first.stdout.encode()).hexdigest()
    assert a["parameters"]["n"] == "4"


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout == f"superfiber {superfiber.__version__}\n"

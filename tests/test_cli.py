import hashlib
import json
import subprocess
import sys

CMD = [sys.executable, "-m", "superfiber"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, input=stdin, timeout=300
    )


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


def test_usage_errors_exit_64():
    assert run_cli("genus", "--n", "16").returncode == 64  # missing --s
    assert run_cli("frobnicate").returncode == 64
    assert run_cli("genus", "--n", "x", "--s", "2").returncode == 64
    assert run_cli("param-conic", "--alpha", "zzz", "--beta", "1", "--u", "0").returncode == 64
    assert run_cli("param-conic", "--alpha", "0", "--beta", "1", "--u", "0").returncode == 64
    search = ("search", "--alphas", "0,2,-1", "--r", "3", "--s", "2", "--height", "5")
    for workers in (("--workers", "3", "--worker-index", "3"),
                    ("--workers", "0"),
                    ("--workers", "-3"),
                    ("--workers", "1", "--worker-index", "7")):
        out = run_cli(*search, *workers)
        assert out.returncode == 64
        assert out.stderr == "error: need 0 <= worker_index < worker_count\n"
        assert "Traceback" not in out.stderr


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
    assert result.stdout.startswith("superfiber ")

"""The one byte oracle of each fixed CLI argv, in two corpora.

CASES: 26 argvs whose stdout is a readable file of tests/golden/; each
exits 0 with an empty stderr.

tests/golden/parity.jsonl: every operation of the benchmark's three
workloads at seeds 0-2 and standard heights, and the 500 seeded fuzz argvs
of tests/test_cli.py, one JSON line per argv with its exit code, stdout,
stderr and manifest digest.  Each runs through main() in process, from a
temporary directory, with its --input files and manifest under the
relative directory corpus/, so that no line holds a path of the machine.
A stdout of more than 200 bytes is kept as its length and sha256.  Every
line also keeps the one-line contract: a documented exit code, and for a
refusal an empty stdout and one short error: line.  Process-only cases
(closed fds, /dev/full, os._exit) are tested in tests/test_cli.py.

A change that means to alter output regenerates both with
`PYTHONPATH=src python tests/test_golden.py` and shows the diff.
"""

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from superfiber.elkies import ELKIES
from test_cli import fuzz_argvs, run_main

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
ELKIES_FLAGS = ["--alphas=" + ",".join(ELKIES.x_coordinates().to_obj()["alphas"]),
                "--r", "3", "--s", "2"]
A4 = ["--alphas=0,4,-5,-6,6", "--r", "3", "--s", "2"]
README = ["--alphas=0,2,-1", "--r", "3", "--s", "2"]
CWP = ["--input", str(GOLDEN / "cwp.json")]
# the same curve and points with base (2, 3), so c0 = 9
CWP_BASE1 = ["--input", str(GOLDEN / "cwp-base1.json")]

CASES = {
    "repro-elkies.json": ["repro-elkies"],
    "repro-elkies.table": ["repro-elkies", "--format", "table"],
    "fiber-eqs-elkies.json": ["fiber-eqs", *ELKIES_FLAGS],
    "fiber-eqs-elkies.table": ["fiber-eqs", *ELKIES_FLAGS, "--format", "table"],
    "verify-point-on.json": ["verify-point", *README, "--point", "1,3,0"],
    "verify-point-off.json": ["verify-point", *README, "--point", "1,1,2"],
    "genus-16-2.json": ["genus", "--n", "16", "--s", "2"],
    "map.json": ["map", *CWP],
    "twist.json": ["twist", *CWP],
    "twist-base1.json": ["twist", *CWP_BASE1],
    "map-inverse.json": ["map-inverse", *README, "--point", "1,3,0"],
    "param-conic.json": ["param-conic", "--alpha", "3", "--beta", "-1", "--u", "2"],
    "cubic-to-weierstrass.json": ["cubic-to-weierstrass", "--alpha", "1", "--beta", "2",
                                  "--point", "1,1,1"],
    "search-curve-box-a4-h30.jsonl": ["search", *A4, "--height", "30"],
    "search-curve-box-readme-h30.jsonl": ["search", *README, "--height", "30"],
    "search-fiber-pairs-a4-h60-w0.jsonl": ["search", *A4, "--height", "60",
                                           "--mode", "fiber-pairs", "--workers", "2"],
    "search-fiber-pairs-a4-h60-w1.jsonl": ["search", *A4, "--height", "60",
                                           "--mode", "fiber-pairs", "--workers", "2",
                                           "--worker-index", "1"],
    "search-fiber-pairs-s3-h12.jsonl": ["search", "--alphas=0,2,3", "--r", "3", "--s", "3",
                                        "--height", "12", "--mode", "fiber-pairs"],
    "search-fiber-pairs-rational-s2-h60.jsonl": ["search", "--alphas=1/2,2,-1/3", "--r", "2",
                                                 "--s", "2", "--height", "60",
                                                 "--mode", "fiber-pairs"],
    "search-fiber-pairs-s3-scaled-h40.jsonl": ["search", "--alphas=0,1/2,3/4", "--r", "3",
                                               "--s", "3", "--height", "40",
                                               "--mode", "fiber-pairs"],
    # a partitioned odd-s slice with a negative Y_1 ([62,-60,-109])
    "search-fiber-pairs-s3-h40-w3-1.jsonl": ["search", "--alphas=0,2,3", "--r", "3", "--s", "3",
                                             "--height", "40", "--mode", "fiber-pairs",
                                             "--workers", "3", "--worker-index", "1"],
    "cross-check-rational-h30.json": ["cross-check", "--alphas=0,1/2,-2", "--r", "2", "--s", "2",
                                      "--height", "30"],
    # fills every bucket but matched: [0:1:4] is base-vanishing, [3:4:11] cutoff
    "cross-check-base-vanishing-h6.json": ["cross-check", "--alphas=1,2,7", "--r", "2",
                                           "--s", "2", "--height", "6"],
    # y^2 = x^3 + 225 passes through five of these x's; its minimal integer
    # representative (1, 225) sits outside the H = 20 box while the fiber point
    # (pair height 17) is inside the pair search, so the point must be
    # explained as cutoff, not left unmatched
    "cross-check-a4-h20.json": ["cross-check", *A4, "--height", "20"],
    # the fiber bound is raised from 60 to 161 to cover the box curves
    "cross-check-raised-bound-h60.json": ["cross-check", "--alphas=0,30,1", "--r", "3",
                                          "--s", "2", "--height", "60"],
    "cross-check-a4-h20.table": ["cross-check", *A4, "--height", "20", "--format", "table"],
}

CORPUS = GOLDEN / "parity.jsonl"
WORK = Path("corpus")
MANIFEST = WORK / "run.json"  # the one --manifest path of the fuzz argvs
VERBATIM = 200


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert run_main(*CASES[name]) == (0, (GOLDEN / name).read_text(encoding="utf-8"), "")


def corpus_argvs():
    """The corpus in order, each argv once, with every file it reads
    written under WORK (relative to the working directory)."""
    WORK.mkdir()
    argvs = []
    for name in workloads.NAMES:
        for seed in range(3):
            workload = workloads.build(name, seed, workloads.STANDARD_HEIGHTS,
                                       WORK / f"{name}-{seed}")
            argvs += [list(op.argv) for op in workload.ops]
    argvs += fuzz_argvs(random.Random(14), WORK, 500)
    unique = {json.dumps(argv): argv for argv in argvs}
    return list(unique.values())


def corpus_runs():
    """(argv, code, stdout, stderr, manifest) of each corpus argv, where
    manifest is the bytes of the run manifest it wrote, or None."""
    for argv in corpus_argvs():
        code, out, err = run_main(*argv)
        manifest = None
        if MANIFEST.exists():
            manifest = MANIFEST.read_bytes()
            MANIFEST.unlink()
        yield argv, code, out, err, manifest


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def parity_line(argv, code, out, err, manifest) -> str:
    entry = {"argv": argv, "code": code}
    raw = out.encode()
    if len(raw) <= VERBATIM:
        entry["stdout"] = out
    else:
        entry["stdout_bytes"], entry["stdout_sha256"] = len(raw), _sha256(raw)
    entry["stderr"] = err
    if manifest is not None:
        entry["manifest_sha256"] = _sha256(manifest)
    return json.dumps(entry)


def test_corpus_keeps_the_contract_and_matches_parity_file(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = CORPUS.read_text(encoding="utf-8").splitlines()
    actual = []
    for argv, code, out, err, manifest in corpus_runs():
        # the contract before the bytes, so that regenerated bytes cannot hide
        # a broken one: main returns a documented code for any argv, and a
        # refusal is one error line of under 300 bytes, none of the
        # interpreter's words, and nothing on stdout
        assert isinstance(code, int) and code in (0, 2, 64, 74), argv
        if code:
            assert out == "" and err.startswith("error: ") and err.endswith("\n"), argv
            assert len(err.splitlines()) == 1 and len(err.encode()) < 300, (argv, err)
            assert "Traceback" not in err and "set_int_max_str_digits" not in err, argv
        else:
            assert err == "", argv
        actual.append(parity_line(argv, code, out, err, manifest))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run_main(*argv)[1], encoding="utf-8")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        lines = [parity_line(*run) for run in corpus_runs()]
        os.chdir(here)
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

"""Byte-for-byte stdout of fixed CLI invocations against tests/golden/.

A change that means to alter output regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and shows the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from superfiber.cli import main
from superfiber.elkies import ELKIES

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


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert stdout_of(CASES[name]) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(stdout_of(argv), encoding="utf-8")

"""The one byte oracle of each fixed CLI argv, in two corpora.

CASES: 26 argvs whose stdout is a readable file of tests/golden/; each
exits 0 with an empty stderr.

tests/golden/parity.jsonl: 605 lines, one JSON line per distinct argv with
its exit code, stdout, stderr and manifest digest, in three parts:
- the 58 distinct operations of the benchmark's three workloads at seeds 0-2
  and standard heights;
- the 500 seeded fuzz argvs of tests/test_cli.py (460 lines; the rest repeat
  an argv above), the first 518 lines in all;
- the 87 argvs of batch_argvs, appended after them: a --manifest under a
  missing directory on every command, JSON --input shapes, and searches in
  both modes (whole and as --workers 2 slices) and cross-checks over seeded
  curves at heights up to 20.
Each runs through main() in process, from a temporary directory, with its
--input files and manifest under the relative directory corpus/, so that
no line holds a path of the machine.  A stdout of more than 200 bytes is
kept as its length and sha256.  Every line also keeps the one-line
contract: a documented exit code, and for a refusal an empty stdout and one
short error: line.  Process-only cases (closed fds, /dev/full, os._exit)
are tested in tests/test_cli.py.

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
from test_cli import FLAGS, VALID_CWP, _fuzz_token, fuzz_argvs, run_main

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
    """The corpus in order, each argv once with the workload operations that
    run it (none for a fuzz or batch argv), and with every file it reads
    written under WORK (relative to the working directory)."""
    WORK.mkdir()
    ops = [op for name in workloads.NAMES for seed in range(3)
           for op in workloads.build(name, seed, workloads.STANDARD_HEIGHTS,
                                     WORK / f"{name}-{seed}").ops]
    argvs = [list(op.argv) for op in ops]
    argvs += fuzz_argvs(random.Random(14), WORK, 500)
    argvs += batch_argvs(random.Random(15), WORK)
    unique = {json.dumps(argv): (argv, []) for argv in argvs}
    for op in ops:
        unique[json.dumps(list(op.argv))][1].append(op)
    return list(unique.values())


# the bad rationals that the fuzz's tokens lack
BAD_TOKENS = ("1/0", "0/0", "1e3", "nan")
# the rational fields of VALID_CWP: ("curve", key) or (point index, key)
CWP_FIELDS = [("curve", key) for key in "ab"] + [(i, key) for i in range(3) for key in "xy"]


def _flags_through_a_curve(rng):
    """--alphas, --r, --s and --height of three alphas of distinct sizes (so
    their r-th powers are distinct) on a seeded curve y^s = a*x^r + b with
    nonzero y, at a height that holds (a, b), so the curve box finds it."""
    while True:
        r, s = rng.choice((2, 3)), rng.choice((2, 3))
        a, b = (rng.choice((-1, 1)) * rng.randint(1, 20) for _ in range(2))
        powers = {k ** s for k in range(-80, 81)} - {0}
        xs = {}
        for x in range(-6, 7):
            if a * x ** r + b in powers:
                xs.setdefault(abs(x), []).append(x)
        if len(xs) >= 3:
            break
    sizes = rng.sample(sorted(xs), 3)
    return [f"--alphas={','.join(str(rng.choice(xs[size])) for size in sizes)}",
            f"--r={r}", f"--s={s}", f"--height={rng.randint(max(abs(a), abs(b)), 20)}"]


def batch_argvs(rng, directory):
    """What the fuzz argvs do not reach, with the --input files they read
    written to directory under names of their own: a --manifest under a
    missing directory on every command, JSON --input shapes, and searches
    and cross-checks that get past input validation."""
    argvs = []
    # the first golden argv of each command exits 0, so it reaches its manifest
    cwp = directory / "batch-cwp.json"
    cwp.write_text(json.dumps(VALID_CWP), encoding="utf-8")
    for command in sorted(FLAGS):
        argv = next(argv for argv in CASES.values() if argv[0] == command)
        argvs.append([str(cwp) if arg == CWP[1] else arg for arg in argv]
                     + [f"--manifest={directory / 'missing' / 'run.json'}"])
    # JSON values that are not objects, VALID_CWP with one rational swapped
    # for a token, and exponents or base_index out of range
    shapes = [None, False, 0, 2.5, "curve", [VALID_CWP]]
    for owner, key in CWP_FIELDS:
        shape = json.loads(json.dumps(VALID_CWP))
        token = _fuzz_token(rng) if rng.random() < 0.5 else rng.choice(BAD_TOKENS)
        (shape["curve"] if owner == "curve" else shape["points"][owner])[key] = token
        shapes.append(shape)
    for key in ("r", "s"):
        shapes.append({**VALID_CWP, "curve": {**VALID_CWP["curve"], key: rng.randint(-1, 1)}})
    shapes.append({**VALID_CWP, "base_index": rng.choice((-1, 3, 4))})
    for i, shape in enumerate(shapes):
        path = directory / f"batch-{i}.json"
        path.write_text(json.dumps(shape), encoding="utf-8")
        argvs += [[command, f"--input={path}"] for command in ("map", "twist")]
    # searches in both modes, whole and as two worker slices, and cross-checks
    for _ in range(6):
        flags = _flags_through_a_curve(rng)
        for mode in ("curve-box", "fiber-pairs"):
            for workers in ((), ("--workers=2", "--worker-index=0"),
                            ("--workers=2", "--worker-index=1")):
                argvs.append(["search", *flags, f"--mode={mode}", *workers])
        argvs.append(["cross-check", *flags])
    return argvs


def corpus_runs():
    """(argv, code, stdout, stderr, manifest) of each corpus argv, where
    manifest is the bytes of the run manifest it wrote, or None, with the
    workload operations that run the argv."""
    for argv, ops in corpus_argvs():
        code, out, err = run_main(*argv)
        manifest = None
        if MANIFEST.exists():
            manifest = MANIFEST.read_bytes()
            MANIFEST.unlink()
        yield (argv, code, out, err, manifest), ops


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
    for run, ops in corpus_runs():
        argv, code, out, err, _ = run
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
        # a workload operation's validator, which re-derives its output with
        # the library calls of the benchmark
        for op in ops:
            assert workloads.verdict(op, code, out, err)[0] is None, argv
        actual.append(parity_line(*run))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run_main(*argv)[1], encoding="utf-8")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        lines = [parity_line(*run) for run, _ in corpus_runs()]
        os.chdir(here)
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

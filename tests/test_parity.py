"""Exit code, stdout, stderr and manifest of a fixed argv corpus against
tests/golden/parity.jsonl, one JSON line per argv.

The corpus is the golden CASES, every operation of the benchmark's three
workloads at seeds 0-2 and standard heights, and the 500 seeded fuzz argvs
of tests/test_cli.py.  Each runs through main() in process, from a
temporary directory, with its --input files and manifest under the relative
directory corpus/, so that no line holds a path of the machine.  A stdout of
more than 200 bytes is kept as its length and sha256.  Process-only cases
(closed fds, /dev/full, os._exit) are tested in tests/test_cli.py.

A change that means to alter output regenerates the file with
`PYTHONPATH=src python tests/test_parity.py` and shows the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

from superfiber.cli import main
from test_cli import fuzz_argvs
from test_golden import CASES, GOLDEN

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402

CORPUS = GOLDEN / "parity.jsonl"
WORK = Path("corpus")
MANIFEST = WORK / "run.json"  # the one --manifest path of the fuzz argvs
VERBATIM = 200


def corpus_argvs():
    """The corpus in order, each argv once, with every file it reads
    written under WORK (relative to the working directory)."""
    (WORK / "golden").mkdir(parents=True)
    argvs = []
    for argv in CASES.values():
        for token in argv:
            if token.startswith(str(GOLDEN)):
                shutil.copy(token, WORK / "golden")
        argvs.append([token.replace(str(GOLDEN), str(WORK / "golden")) for token in argv])
    for name in workloads.NAMES:
        for seed in range(3):
            workload = workloads.build(name, seed, workloads.STANDARD_HEIGHTS,
                                       WORK / f"{name}-{seed}")
            argvs += [list(op.argv) for op in workload.ops]
    argvs += fuzz_argvs(random.Random(14), WORK, 500)
    unique = {json.dumps(argv): argv for argv in argvs}
    return list(unique.values())


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def parity_line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    entry = {"argv": argv, "code": code}
    raw = out.getvalue().encode()
    if len(raw) <= VERBATIM:
        entry["stdout"] = out.getvalue()
    else:
        entry["stdout_bytes"], entry["stdout_sha256"] = len(raw), _sha256(raw)
    entry["stderr"] = err.getvalue()
    if MANIFEST.exists():
        entry["manifest_sha256"] = _sha256(MANIFEST.read_bytes())
        MANIFEST.unlink()
    return json.dumps(entry)


def parity_lines() -> list[str]:
    return [parity_line(argv) for argv in corpus_argvs()]


def test_corpus_matches_parity_file(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = CORPUS.read_text(encoding="utf-8").splitlines()
    actual = parity_lines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        lines = parity_lines()
        os.chdir(here)
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

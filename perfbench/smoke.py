"""The benchmark's own tests, at tiny heights: `python3 perfbench/run.py --smoke`.

* every metric is listed with its unit, and BENCHMARK.json names the same;
* a timed and a traced run of each workload are correct and report
  every metric;
* the output checker rejects a corrupted output line, an unexpected exit
  code and a traceback;
* the wrapper self-check fails when the root-test wrapper is bound to
  the wrong module.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _metric_names(failures: list[str]) -> None:
    print("metrics (end to end):")
    for name, unit in {**run.END_TO_END, **run.REPORTED_ONLY}.items():
        print(f"  {name} [{unit}]")
    print("metrics (per layer, traced run):")
    for name, unit in run.PER_LAYER.items():
        print(f"  {name} [{unit}]")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        _expect(listed == units, f"BENCHMARK.json {key} matches the metrics printed", failures)
    _expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
            "BENCHMARK.json lists the workloads", failures)


def _checker_rejects(failures: list[str]) -> None:
    op = workloads.curve_box(0, workloads.STANDARD_HEIGHTS).ops[0]
    good = json.dumps(workloads.KNOWN_ENTRY, separators=(",", ":")) + "\n"
    _expect(workloads.verdict(op, 0, good, "")[0] is None, "checker accepts the known census line",
            failures)
    for what, corrupt in (("coefficient b", good.replace('"225"', '"224"')),
                          ("fiber point", good.replace('"21"]', '"22"]')),
                          ("distinct_x_count", good.replace(':5}', ':4}')),
                          ("missing line", "")):
        _expect(workloads.verdict(op, 0, corrupt, "")[0] is not None,
                f"checker rejects a corrupted census line ({what})", failures)
    for code in (1, 2, 64):
        _expect(workloads.verdict(op, code, good, "")[0] is not None,
                f"checker rejects exit code {code} where 0 is due", failures)
    _expect(workloads.verdict(op, 0, good, "Traceback (most recent call last):\n")[0] is not None,
            "checker rejects a traceback on stderr", failures)


def _workloads_run(failures: list[str]) -> None:
    heights = workloads.SMOKE_HEIGHTS
    for name in workloads.NAMES:
        print(f"{name} at heights {heights}:")
        scratch = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=run.WORK))
        try:
            _run_one(name, heights, scratch, failures)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def _run_one(name: str, heights: dict, scratch: Path, failures: list[str]) -> None:
    wl = workloads.build(name, 1, heights, scratch / "inputs")
    known = sum(op.known_defect for op in wl.ops)
    metrics, tally, _ = run.timed_run(wl, 0, scratch)
    _expect(tally.correct and tally.failed <= known, "timed run is correct", failures)
    _expect(set(metrics) == set(run.END_TO_END) and all(v > 0 for v in metrics.values()),
            "timed run reports every end-to-end metric, none zero", failures)
    metrics, tally, problems, _ = run.traced_run(wl)
    _expect(tally.correct, "traced run is correct", failures)
    _expect(not problems, f"wrapper self-check passes {problems}", failures)
    _expect(set(metrics) == set(run.PER_LAYER), "traced run reports every per-layer metric",
            failures)
    if name == "curve-box":
        _, _, problems, _ = run.traced_run(wl, skip={("exact.root", "superfiber.search")})
        _expect(any(p.startswith("exact.root:") for p in problems),
                "wrapper self-check fails with the root wrapper off superfiber.search", failures)


def main() -> int:
    failures: list[str] = []
    _metric_names(failures)
    print("output checker:")
    _checker_rejects(failures)
    _workloads_run(failures)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} FAILED"))
    return 0 if not failures else 1

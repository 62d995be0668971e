"""Layered benchmark for superfiber.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curve-box --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

With --trace 0 every workload is a closed loop with one client: one
`python -m superfiber` child at a time, so the program has one core and
the harness the other.  Passes repeat while a typical pass still ends
within --seconds.  Times are taken from each command's fastest run over
the passes (load from other tenants of a shared host only adds time);
setup_s and peak_rss_mb are medians over the run.  With --trace 1 the
workload's commands are replayed in this process through
superfiber.cli.main, with wrappers on each layer (see tracer.py), and
the per-layer metrics are printed; that run does a fixed amount of work
and ignores --seconds.  --smoke runs the
benchmark's own tests at tiny heights.

Outputs are checked outside the timed region.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 0 only when every output is correct.  Operations on
the known-defective inputs of the session workload count as failed
without making the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_SAMPLES_PER_PASS = 4
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "candidates_per_s": "1/s",
    "command_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed beside them but kept out of the JSON line: a search workload runs
# too few commands for ten samples to lie beyond p90, and error_rate is 0 on
# a healthy run and travels in the JSON line as failed / attempted.
REPORTED_ONLY = {"command_p90_ms": "ms", "error_rate": "ratio"}
PER_LAYER = {
    "cli.import_ms": "ms",
    "elkies.self_check_ms": "ms",
    "elkies.verify_ms": "ms",
    "search.candidates": "count",
    "search.hit_ratio": "ratio",
    "search.enumerate_s": "s",
    "search.self_s": "s",
    "search.post_s": "s",
    "search.slice_overhead": "ratio",
    "fiber.rth_powers_calls": "count",
    "fiber.rth_powers_s": "s",
    "fiber.contains_calls": "count",
    "fiber.contains_s": "s",
    "exact.root_tests": "count",
    "exact.root_hits": "count",
    "exact.root_s": "s",
    "exact.normalize_calls": "count",
    "exact.normalize_s": "s",
    "maps.forward_calls": "count",
    "maps.forward_s": "s",
    "maps.inverse_calls": "count",
    "maps.inverse_s": "s",
    "family.cwp_checks": "count",
    "family.cwp_s": "s",
    "trace.overhead": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # every child compiles nothing after the warm-up child
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


@dataclass
class Sample:
    """One finished CLI child."""

    code: int
    stdout: str
    stderr: str
    start: float
    end: float
    maxrss_kib: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_child(argv, scratch: Path, env: dict) -> Sample:
    """Run `python -m superfiber argv` to completion; time it from spawn to
    reaped exit and take its own max-RSS from wait4."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "superfiber", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, out_path.read_text(encoding="utf-8"),
                  err_path.read_text(encoding="utf-8"), start, end, usage.ru_maxrss)


def calibration_s() -> float:
    """Time of a fixed pure-Python Fraction loop, recorded to expose
    machine drift between sets of runs; never a metric."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(k % 97 + 1, k * k + 1)
    return time.perf_counter() - start


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# timed run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    reasons: Counter = field(default_factory=Counter)

    def add(self, op, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.fail(reason, op.known_defect)

    def fail(self, reason: str, known_defect: bool = False) -> None:
        self.correct = self.correct and known_defect
        self.reasons[("known defect" if known_defect else "FAILED") + ": " + reason] += 1

    def print_reasons(self) -> None:
        for reason, times in sorted(self.reasons.items()):
            print(f"  {reason} (x{times})")


def timed_run(wl, seconds: float, scratch: Path) -> tuple[dict, Tally, dict]:
    from workloads import SETUP_ARGV, SETUP_STDOUT, verdict

    env = _child_env()
    warm = run_child(SETUP_ARGV, scratch, env)  # fills the bytecode cache
    passes, lengths = [], []
    start = time.perf_counter()
    # start a pass only if a typical pass still ends within the run
    while not passes or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        setup = [run_child(SETUP_ARGV, scratch, env) for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append((setup, [run_child(op.argv, scratch, env) for op in wl.ops]))
        lengths.append(passes[-1][1][-1].end - setup[0].start)

    tally = Tally()
    for sample in [warm] + [s for setup, _ in passes for s in setup]:
        if (sample.code, sample.stdout) != (0, SETUP_STDOUT) or sample.stderr:
            tally.fail(f"setup command exited {sample.code}: {sample.stderr.strip()[:200]}")
    for _, results in passes:
        for op, sample in zip(wl.ops, results):
            tally.add(op, verdict(op, sample.code, sample.stdout, sample.stderr)[0])
        if wl.union_check is not None:
            try:
                wl.union_check([s.stdout for s in results])
            except Exception as exc:  # a wrong union is a wrong output
                tally.fail(f"union of slices: {exc}")

    # Other tenants of a shared host only ever add time, and their load moves
    # over tens of seconds, so a median over a run follows the host.  Each
    # command's fastest run over the passes follows the program instead.
    fastest = [min(r[i].seconds for _, r in passes) for i in range(len(wl.ops))]
    searching = [i for i, op in enumerate(wl.ops) if op.candidates]
    candidates = sum(wl.ops[i].candidates for i in searching)
    metrics = {
        "wall_s": sum(fastest),
        "candidates_per_s": candidates / sum(fastest[i] for i in searching) if searching else 0,
        "command_p50_ms": statistics.median(fastest) * 1000,
        "setup_s": statistics.median(s.seconds for setup, _ in passes for s in setup),
        "peak_rss_mb": statistics.median(max(s.maxrss_kib for s in setup + r) / 1024
                                         for setup, r in passes),
    }
    notes = {
        "wall_s": f"fastest run of each command summed; median pass "
                  f"{statistics.median(r[-1].end - r[0].start for _, r in passes):.6g} s",
        "candidates_per_s": "over the fastest run of each search command",
        "command_p50_ms": f"median over {len(wl.ops)} commands of each one's fastest run",
        "setup_s": f"median of {len(passes) * SETUP_SAMPLES_PER_PASS}",
        "peak_rss_mb": "median over passes of the largest child",
    }
    latencies = [s.seconds * 1000 for _, r in passes for s in r]
    return metrics, tally, {"passes": len(passes), "notes": notes, "latencies": latencies}


# ---------------------------------------------------------------------------
# traced run


def replay(ops) -> tuple[float, list[tuple[int, str, str]]]:
    """Run each op through superfiber.cli.main in this process, as the CLI
    would: exit code, captured stdout and stderr."""
    from superfiber import cli

    results = []
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the CLI would die with this traceback
                traceback.print_exc()
                code = 1
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import superfiber.cli; "
            "print(time.perf_counter() - t)")
    env = _child_env()
    samples = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                    capture_output=True, text=True, timeout=60).stdout)
               for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples) * 1000


def traced_run(wl, skip=frozenset()) -> tuple[dict, Tally, list[str], "Tracer"]:
    from tracer import Tracer, self_check
    from workloads import verdict

    import_time = import_ms()
    untraced, traced = [], []
    for _ in range(2):  # alternate, so that drift hits both sides alike
        untraced.append(replay(wl.ops)[0])
        tracer = Tracer()
        with tracer.installed(skip):
            wall, results = replay(wl.ops)
        traced.append((tracer, wall, results))
    reference = None
    if wl.reference is not None:
        reference = Tracer()
        with reference.installed(skip):
            _, ref_results = replay([wl.reference])

    tally, found = Tally(), 0
    for i, (_, _, results) in enumerate(traced):
        for op, (code, stdout, stderr) in zip(wl.ops, results):
            reason, hits = verdict(op, code, stdout, stderr)
            tally.add(op, reason)
            found += hits if i == 0 else 0
        if wl.union_check is not None:
            try:
                wl.union_check([stdout for _, stdout, _ in results])
            except Exception as exc:  # a wrong union is a wrong output
                tally.fail(f"union of slices: {exc}")
    if reference is not None:
        tally.add(wl.reference, verdict(wl.reference, *ref_results[0])[0])
    problems = self_check(wl, traced[0][0], traced[1][0])

    t = traced[0][0]
    candidates = sum(op.candidates for op in wl.ops)
    enumerate_s = t.busy["search.enumerate"]
    below_enumerate = sum(sec for (caller, callee), sec in t.child.items()
                          if caller == "search.enumerate" and callee.startswith(("fiber.", "exact.")))
    metrics = {
        "cli.import_ms": import_time,
        "elkies.self_check_ms": _median_ms(t.span_seconds("elkies.self_check")),
        "elkies.verify_ms": _median_ms(t.span_seconds("elkies.verify")),
        "search.candidates": candidates,
        "search.hit_ratio": found / candidates if candidates else 0,
        "search.enumerate_s": enumerate_s,
        "search.self_s": enumerate_s - below_enumerate,
        "search.post_s": t.busy["search.census"] - t.child["search.census", "search.enumerate"],
        "search.slice_overhead": (enumerate_s / reference.busy["search.enumerate"]
                                  if reference is not None else 0),
    }
    for layer, count_name in (("fiber.rth_powers", "calls"), ("fiber.contains", "calls"),
                              ("exact.root", "tests"), ("exact.normalize", "calls"),
                              ("maps.forward", "calls"), ("maps.inverse", "calls"),
                              ("family.cwp", "checks")):
        metrics[f"{layer}_{count_name}"] = t.calls[layer]
        metrics[f"{layer}_s"] = t.busy[layer]
    metrics["exact.root_hits"] = t.root_hits
    metrics["trace.overhead"] = sum(wall for _, wall, _ in traced) / sum(untraced)
    return {name: metrics[name] for name in PER_LAYER}, tally, problems, t


def _median_ms(seconds) -> float:
    return statistics.median(seconds) * 1000 if seconds else 0


# ---------------------------------------------------------------------------
# entry point


def report(metrics: dict, units: dict, notes: dict) -> None:
    for key, value in metrics.items():
        print(f"  {key:<24} {value:<22.10g} {units[key]:<6} {notes.get(key, '')}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        wl = workloads.build(name, seed, workloads.STANDARD_HEIGHTS, scratch / "inputs")
        print(f"workload {name}: {'traced' if trace else 'timed'} run, "
              f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {seed}, "
              f"calibration {calibration_s():.6f} s")
        if trace:
            metrics, tally, problems, tracer = traced_run(wl)
            for problem in problems:
                tally.fail(f"wrapper self-check: {problem}")
            spans = WORK / f"spans-{name}-{seed}.json"
            spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
            report(metrics, PER_LAYER, {"trace.overhead": "traced / untraced replay wall, two each"})
            print(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, tally, info = timed_run(wl, seconds, scratch)
            print(f"  {info['passes']} passes")
            report(metrics, END_TO_END, info["notes"])
            latencies = info["latencies"]
            if len(latencies) >= 100:
                report({"command_p90_ms": percentile(latencies, 90)}, REPORTED_ONLY,
                       {"command_p90_ms": f"p90 of {len(latencies)}"})
            else:
                print(f"  {'command_p90_ms':<24} {'not reported':<22} {'ms':<6} "
                      f"{len(latencies)} samples, fewer than ten beyond p90")
            report({"error_rate": tally.failed / tally.attempted}, REPORTED_ONLY,
                   {"error_rate": f"{tally.failed} of {tally.attempted} operations failed"})
        tally.print_reasons()
        print(f"  calibration at end {calibration_s():.6f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}}


def import_library() -> None:
    """Import superfiber from this checkout's src/, or exit 2."""
    if not (SRC / "superfiber" / "__init__.py").is_file():
        print(f"error: no superfiber sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import superfiber

    if Path(superfiber.__file__).resolve().parent != SRC / "superfiber":
        print(f"error: imported superfiber from {superfiber.__file__}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("curve-box", "fiber-pairs", "session", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_library()
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        import smoke

        return smoke.main()
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

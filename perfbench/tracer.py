"""Layer tracing for the benchmark's traced run.

Wrappers from this file are installed onto the public functions at each
module boundary of superfiber; the package itself is not changed.  The
package binds names at import time (`search` and `maps` both do
`from .exact import sth_root_exact`), so a wrapper has to replace the
name in every module that looks it up: install() patches each module
attribute that is the original object, and a class attribute where the
function is a method.

Hot per-candidate calls are aggregated as a count plus busy seconds;
per-command calls are also kept as spans.  Each call's duration is
charged to the nearest wrapped caller, so a layer's self time is its
busy time minus what its children took.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer key -> the functions it wraps, as (home module, attribute path)
LAYERS = {
    "exact.root": (("superfiber.exact", "sth_root_exact"),),
    "exact.normalize": (("superfiber.exact", "normalize_projective"),),
    "fiber.rth_powers": (("superfiber.fiber", "XCoordinates.rth_powers"),),
    "fiber.contains": (("superfiber.fiber", "fiber_contains"),),
    "maps.forward": (("superfiber.maps", "phi_forward"),),
    "maps.inverse": (("superfiber.maps", "phi_inverse"),),
    "family.cwp": (("superfiber.family", "CurveWithPoints.__post_init__"),),
    "search.enumerate": (("superfiber.search", "enumerate_curves"),
                         ("superfiber.search", "search_fiber_points")),
    "search.census": (("superfiber.search", "curve_census_entries"),
                      ("superfiber.search", "fiber_census_entries")),
    "elkies.self_check": (("superfiber.elkies", "dataset_self_check"),),
    "elkies.verify": (("superfiber.elkies", "verify_reproduction"),),
}
# per-command layers, recorded as spans as well as counts
SPAN_LAYERS = frozenset({"search.enumerate", "search.census", "elkies.self_check", "elkies.verify"})


class Tracer:
    """Counts, busy time, child time and spans of one traced replay."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.child = defaultdict(float)  # (caller layer, callee layer) -> seconds
        self.root_hits = 0
        self.spans = []  # (layer, start, end, caller layer or None)
        self._stack = []

    def counts(self) -> dict:
        """Everything that must repeat exactly between two replays."""
        return {**self.calls, "exact.root_hits": self.root_hits}

    def span_seconds(self, layer: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == layer]

    def wrap(self, layer: str, fn):
        stack, calls, busy, child = self._stack, self.calls, self.busy, self.child
        spans = self.spans if layer in SPAN_LAYERS else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[layer] += 1
                busy[layer] += end - start
                caller = stack[-1] if stack else None
                if caller is not None:
                    child[caller, layer] += end - start
                if spans is not None:
                    spans.append((layer, start, end, caller))
            if layer == "exact.root" and result is not None:
                self.root_hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, skip=frozenset()):
        """Patch every binding of every layer function; restore on exit.

        `skip` holds (layer, module) pairs left unpatched, which is how
        the smoke test binds a wrapper to the wrong module on purpose.
        """
        patches = []  # (owner, attribute, original)
        try:
            for layer, targets in LAYERS.items():
                for home, path in targets:
                    for owner, name, original in _bindings(home, path):
                        if (layer, _module_name(owner)) not in skip:
                            setattr(owner, name, self.wrap(layer, original))
                            patches.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)


def _module_name(owner) -> str:
    return owner.__name__ if isinstance(owner, type(sys)) else owner.__module__


def _bindings(home: str, path: str):
    """(owner, attribute, original) for each place the function is looked up."""
    owner = importlib.import_module(home)
    if "." in path:
        cls_name, name = path.split(".")
        cls = getattr(owner, cls_name)
        return [(cls, name, cls.__dict__[name])]
    original = getattr(owner, path)
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name == "superfiber" or module_name.startswith("superfiber."):
            if getattr(module, path, None) is original:
                found.append((module, path, original))
    return found


def self_check(workload, first: Tracer, second: Tracer) -> list[str]:
    """Why the wrappers cannot be trusted on this workload, if they cannot:
    a layer that is hot here never (or too rarely) fired, or the counts of
    two replays of the same commands differ."""
    problems = [
        f"{layer}: {first.calls[layer]} calls on {workload.name}, expected at least {floor}"
        for layer, floor in workload.hot.items()
        if first.calls[layer] < floor
    ]
    if "exact.root" in workload.hot and first.root_hits == 0:
        problems.append(f"exact.root_hits: no root test succeeded on {workload.name}")
    a, b = first.counts(), second.counts()
    problems += [f"{key}: {a.get(key, 0)} then {b.get(key, 0)} calls in two traced replays"
                 for key in sorted(set(a) | set(b)) if a.get(key, 0) != b.get(key, 0)]
    return problems

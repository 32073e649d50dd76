"""In-memory span tracing for the benchmark's traced run.

The traced run wraps each layer's entry points from outside the program.
safeprob binds many of them with ``from ... import``, so a wrapper placed
only on the defining module would miss those calls; :func:`traced`
therefore replaces every binding of an entry point in every loaded
safeprob module, and puts the originals back on exit.

Each span records its caller, its duration and its self time (duration
minus the time of the spans it caused). Spans are aggregated in memory
per name and per caller -> callee edge, and printed when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Entry points wrapped per module. Value-level helpers (``support``,
#: ``value_sort_key``, ``condition`` ...) are left out: they run once per
#: atom or sort key, so a span would cost as much as the call it measures.
LAYERS = {
    "cli": ("main",),
    "scenario": ("parse_scenario",),
    "core": ("enumerate_vertices", "essentially_unique", "conditional_table"),
    "_linalg": ("solve_linear", "matrix_rank"),
    "safety": ("check_safety", "hull_membership", "hierarchy_report"),
    "calibration": ("check_calibrated_full",),
    "pivots": ("check_pivotal_safety", "canonical_pivot", "check_pivot"),
    "decisions": ("check_decision_safety",),
    "updates": ("partition_check", "build_event_scenario", "rule_completion"),
}

#: Per-call tallies taken from an entry point's result.
TALLIES = {
    "core.enumerate_vertices": len,
    "linalg.solve_linear": lambda result: result[0] == "unique",
    "safety.hull_membership": bool,
    "safety.check_safety": lambda verdict: verdict.holds,
}


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Aggregated spans: per name calls, inclusive and self seconds and a
    tally; per (caller, callee) edge the number of calls. Spans are timed
    with ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.tally: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple, int] = defaultdict(int)
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        stack, tally = self._stack, TALLIES.get(name)
        perf = self.clock

        def traced_fn(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[1]
                self.edges[(caller, name)] += 1
            if tally is not None:
                self.tally[name] += int(tally(result))
            return result

        traced_fn.__wrapped__ = fn
        traced_fn.__name__ = fn.__name__
        return traced_fn

    def table(self) -> list[str]:
        """Human-readable span table, one line per caller -> callee edge."""
        lines = [f"{'callee':34} {'caller':34} {'calls':>9}"]
        for (caller, callee), n in sorted(self.edges.items(), key=lambda kv: (kv[0][1], str(kv[0][0]))):
            lines.append(f"{callee:34} {str(caller):34} {n:9d}")
        lines.append(f"{'span':34} {'calls':>9} {'incl_s':>10} {'self_s':>10}")
        for name in sorted(self.calls):
            lines.append(f"{name:34} {self.calls[name]:9d} "
                         f"{self.inclusive[name]:10.4f} {self.self_time[name]:10.4f}")
        return lines


def entry_points() -> dict:
    """``{original function: span name}`` for every wrapped entry point."""
    out = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"safeprob.{module}")
        for name in names:
            out[getattr(mod, name)] = span_name(module, name)
    return out


def _safeprob_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "safeprob" or name.startswith("safeprob.")]


@contextmanager
def traced(tracer: Tracer):
    """Route every binding of every entry point through ``tracer``; yields
    ``{id(original): original}`` for :func:`unwrapped_bindings`."""
    originals = entry_points()
    wrappers = {id(fn): tracer.wrap(name, fn) for fn, name in originals.items()}
    patched = []
    try:
        for mod in _safeprob_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    patched.append((mod, attr, value))
        yield {id(fn): fn for fn in originals}
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def unwrapped_bindings(originals: dict) -> list[str]:
    """Bindings in loaded safeprob modules that still reach an original."""
    return [f"{mod.__name__}.{attr}" for mod in _safeprob_modules()
            for attr, value in vars(mod).items() if id(value) in originals]

"""Self-tests of the benchmark itself: tracing reaches every binding, the
predicted layers run (and only those), counts repeat at a seed, the
checks reject wrong outputs, and the driver refuses to run where its
figures would mean nothing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from safeprob import cli, core, safety  # noqa: E402

#: Layers each workload must reach ("caller -> callee" edges check the
#: nesting), and layers it must never reach.
PREDICTED = {
    "cli-constraint": {
        "present": [
            "cli.main -> scenario.parse_scenario",
            "scenario.parse_scenario -> core.enumerate_vertices",
            "core.enumerate_vertices -> linalg.solve_linear",
            "cli.main -> safety.check_safety",
            "cli.main -> safety.hierarchy_report",
            "safety.hierarchy_report -> calibration.check_calibrated_full",
            "safety.hierarchy_report -> pivots.check_pivotal_safety",
            "cli.main -> updates.partition_check",
            "updates.partition_check -> safety.check_safety",
        ],
        "absent": ["safety.hull_membership", "decisions.check_decision_safety"],
    },
    "notions-vertex": {
        "present": [
            "None -> safety.hierarchy_report",
            "None -> safety.check_safety",
            "safety.hierarchy_report -> calibration.check_calibrated_full",
            "None -> pivots.check_pivotal_safety",
            "None -> decisions.check_decision_safety",
        ],
        "absent": ["core.enumerate_vertices", "linalg.solve_linear", "safety.hull_membership",
                   "scenario.parse_scenario", "cli.main", "updates.partition_check"],
    },
    "dist-range": {
        "present": [
            "None -> safety.check_safety",
            "safety.check_safety -> safety.hull_membership",
            "safety.hull_membership -> linalg.solve_linear",
        ],
        "absent": ["core.enumerate_vertices", "scenario.parse_scenario", "cli.main",
                   "calibration.check_calibrated_full", "decisions.check_decision_safety"],
    },
}


def traced_round(workload: str, seed: int, workdir: Path) -> tracing.Tracer:
    tracer = tracing.Tracer()
    queries = next(workloads.rounds(workload, seed, workdir))
    with tracing.traced(tracer):
        for query in queries:
            assert query.check(query.run()) is None
    return tracer


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    return {w: traced_round(w, 11, tmp_path_factory.mktemp(w)) for w in workloads.WORKLOADS}


def test_every_binding_is_wrapped_and_restored():
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as originals:
        assert tracing.unwrapped_bindings(originals) == []
        # bound with "from ... import" by their callers
        assert cli.check_safety.__wrapped__ is safety.check_safety.__wrapped__
        assert safety.solve_linear.__wrapped__ is core.solve_linear.__wrapped__
        assert hasattr(cli.parse_scenario, "__wrapped__")
    assert not hasattr(cli.check_safety, "__wrapped__")
    assert not hasattr(core.enumerate_vertices, "__wrapped__")


def test_every_entry_point_exists():
    for module, names in tracing.LAYERS.items():
        mod = __import__(f"safeprob.{module}", fromlist=["_"])
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_predicted_layers(traces, workload):
    tracer = traces[workload]
    edges = {f"{caller} -> {callee}" for caller, callee in tracer.edges}
    for edge in PREDICTED[workload]["present"]:
        assert edge in edges, f"{workload}: no span for {edge}"
    for name in PREDICTED[workload]["absent"]:
        assert tracer.calls.get(name, 0) == 0, f"{workload}: unexpected spans of {name}"


def test_brute_force_shape_is_visible(traces):
    cli_trace, hull_trace = traces["cli-constraint"], traces["dist-range"]
    bases = cli_trace.edges[("core.enumerate_vertices", "linalg.solve_linear")]
    assert bases > 3 * cli_trace.tally["core.enumerate_vertices"]
    solves = hull_trace.edges[("safety.hull_membership", "linalg.solve_linear")]
    assert solves > 10 * hull_trace.calls["safety.hull_membership"]


def test_counts_repeat_at_a_seed(traces, tmp_path):
    again = traced_round("dist-range", 11, tmp_path)
    first = traces["dist-range"]
    assert dict(again.calls) == dict(first.calls)
    assert dict(again.edges) == dict(first.edges)
    assert dict(again.tally) == dict(first.tally)


#: Size ranges each workload draws from, by shape key.
SIZE_RANGES = {
    "cli-constraint": {"atoms": (3, 12), "outcomes": (3, 5)},
    "notions-vertex": {"atoms": (12, 30), "vertices": (10, 60)},
    "dist-range": {"generators": (6, 12), "targets": (3, 5), "vertices": (3, 8)},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_same_sizes(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = next(workloads.rounds(workload, 1, tmp_path / "a"))
    same = next(workloads.rounds(workload, 1, tmp_path / "b"))
    other = next(workloads.rounds(workload, 2, tmp_path / "b"))
    assert [q.digest for q in first] == [q.digest for q in same]
    assert [q.kind for q in first] == [q.kind for q in other]
    assert not {q.digest for q in first} & {q.digest for q in other}
    for query in first + other:
        for key, value in query.shape.items():
            if key in SIZE_RANGES[workload]:
                low, high = SIZE_RANGES[workload][key]
                assert low <= value <= high, (query.kind, query.shape)
        if query.kind in ("report", "check"):
            assert query.shape["atoms"] >= 6


def test_checks_reject_wrong_outputs(tmp_path):
    hull = next(workloads.rounds("dist-range", 3, tmp_path))
    for query in hull:
        verdict = query.run()
        flipped = replace(verdict, holds=not verdict.holds,
                          counterexample=verdict.counterexample or safety.Counterexample())
        assert query.check(flipped) is not None

    queries = next(workloads.rounds("cli-constraint", 3, tmp_path))
    report = next(q for q in queries if q.kind == "report")
    code, text = report.run()
    doc = json.loads(text)
    doc["verdicts"]["marginal"]["notes"].append("internal-error: U|[V] holds but U|<V> fails")
    assert report.check((code, json.dumps(doc))) is not None
    assert report.check((2, "error: boom")) is not None
    doc = json.loads(text)
    failing = next(v for v in doc["verdicts"].values() if v["counterexample"])
    failing["counterexample"]["vertex"] = {"u0v0": "1"}  # breaks the known marginal
    assert report.check((code, json.dumps(doc))) is not None
    events = next(q for q in queries if q.kind == "events")
    code, text = events.run()
    doc = json.loads(text)
    doc["verdicts"]["valid"]["holds"] = not doc["verdicts"]["valid"]["holds"]
    assert events.check((code, json.dumps(doc))) is not None


def test_counterexample_must_be_a_member():
    rng = random.Random(5)
    inst = workloads.vertex_instance(rng, "random", 3, 4, 10)
    stranger = core.Pmf.uniform(inst["space"])
    verdict = safety.Verdict(holds=False, counterexample=safety.Counterexample(vertex=stranger))
    assert workloads._library_problem("valid", verdict, inst) is not None
    verdict = safety.Verdict(holds=False, counterexample=safety.Counterexample(
        vertex=inst["credal"].vertices[3]))
    assert workloads._library_problem("valid", verdict, inst) is None


def test_speed_probe_scales_by_the_probes_around_a_measurement():
    with run.SpeedProbe().running() as probe:
        first = len(probe.durations) - 1
        outcome, wall, nominal = probe.measure(lambda: sum(i * i for i in range(300_000)))
        around = probe.durations[first:]
        assert outcome == sum(i * i for i in range(300_000))
        assert len(around) >= 3  # the timer fired during the measurement
        assert nominal == pytest.approx(wall * run.REFERENCE_S / statistics.median(around))
        error, _, _ = probe.measure(lambda: 1 / 0)
        assert isinstance(error, ZeroDivisionError)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_time_is_left_out_of_spans():
    with run.SpeedProbe().running() as probe:
        tracer = tracing.Tracer(clock=probe.clock)
        slow = tracer.wrap("core.enumerate_vertices", lambda: [probe.sample() for _ in range(50)])
        slow()
    assert tracer.inclusive["core.enumerate_vertices"] < 0.2 * run.REFERENCE_S * 50


def run_driver(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", "dist-range",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_refuses_size_limit_override():
    done = run_driver(ROOT, dict(os.environ, SAFEPROB_SIZE_LIMIT="16"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = run_driver(tmp_path, env)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

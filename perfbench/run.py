"""safeprob benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) in a single process and a
single thread as a closed loop: one client, and the next query starts
only after the previous one has returned and been checked. The run
prints a readable account and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics: queries run until they have
taken ``--seconds`` of query time, finishing the round in progress.
``--trace 1`` gives the per-layer metrics: a fixed number of rounds
(a function of the workload and ``--seconds`` only, so counts repeat
exactly at a seed) runs once untraced and then once with every layer's
entry points wrapped, which also yields the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from tracing import LAYERS, Tracer, span_name, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIZE_LIMIT_ENV = "SAFEPROB_SIZE_LIMIT"

#: Percentile reported as ``query_s.tail``. At the 30 s BENCHMARK.json
#: sets, each leaves at least ten queries beyond it (about 260-410,
#: 530-840 and 180-260 queries per run) and lies inside one cost class
#: of the round; see README.md.
TAIL_PERCENTILE = {"cli-constraint": 90, "notions-vertex": 97, "dist-range": 93}

#: Nominal seconds per round, used only to size the traced run so that
#: its two passes together take about ``--seconds``.
ROUND_SECONDS = {"cli-constraint": 2.5, "notions-vertex": 1.0, "dist-range": 1.3}

#: Fresh interpreters timed per run for ``setup_s`` (after one untimed
#: start that compiles the bytecode).
SETUP_REPEATS = 5

#: Seconds the reference kernel takes at the nominal speed every reported
#: time is scaled to (about its time on a 2-vCPU Xeon host in a fast
#: phase). See :class:`SpeedProbe`.
REFERENCE_S = 0.0005

#: Seconds between two runs of the reference kernel while a measurement
#: is under way.
PROBE_PERIOD_S = 0.01

_REFERENCE_WEIGHTS = [Fraction(k, 60) for k in range(1, 9)]


def reference_kernel() -> dict:
    """Fixed exact-arithmetic work in the style of safeprob's inner loops
    (small-denominator ``Fraction`` products and sums into a dict), using
    no safeprob code, so a change to safeprob never changes its cost."""
    acc: dict = {}
    for i, a in enumerate(_REFERENCE_WEIGHTS):
        for j, b in enumerate(_REFERENCE_WEIGHTS):
            key = (i % 5, j % 4)
            acc[key] = acc.get(key, 0) + a * b / (a + b)
    return acc


class SpeedProbe:
    """Samples the host's speed, to report every time at nominal speed.

    The shared host this benchmark runs on changes speed by up to 2x in
    phases from a fraction of a second to minutes long, and every wall
    time moves with it. While :meth:`running`, a timer signal runs the
    reference kernel every ``PROBE_PERIOD_S``, in the measured process
    itself, and :meth:`sample` runs it once more after each measurement.
    :meth:`measure` scales a measurement's wall time (without the probes)
    by ``REFERENCE_S`` over the median kernel time from the probe before
    it to the probe after it. The kernel does no safeprob work, so the
    host's speed cancels out and a faster safeprob still shows.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0  # wall seconds spent in probes so far
        self._busy = False
        reference_kernel()  # warm-up
        self.sample()

    def sample(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        collect = gc.isenabled()
        gc.disable()  # a collection inside the kernel would skew the sample
        start = time.perf_counter()
        reference_kernel()
        duration = time.perf_counter() - start
        if collect:
            gc.enable()
        self.durations.append(duration)
        self.spent += duration
        self._busy = False

    def clock(self) -> float:
        """Wall seconds, without the time spent in probes."""
        return time.perf_counter() - self.spent

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn):
        """Run ``fn()``; return its outcome (a result, or the exception it
        raised), its wall seconds and those seconds at nominal speed."""
        first = len(self.durations) - 1
        start = self.clock()
        try:
            outcome = fn()
        except Exception as exc:  # noqa: BLE001 - the caller decides
            outcome = exc
        wall = self.clock() - start
        self.sample()
        return outcome, wall, wall * REFERENCE_S / statistics.median(self.durations[first:])


def traced_rounds(workload: str, seconds: float) -> int:
    """Rounds in a traced run: fixed by the workload and ``seconds`` alone,
    so counts repeat exactly at a seed."""
    return max(1, round(seconds / 2 / ROUND_SECONDS[workload]))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    """Machine and environment record printed with every result."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "safeprob").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        SIZE_LIMIT_ENV: os.environ.get(SIZE_LIMIT_ENV),
    }


def measure_setup() -> list[float]:
    """Seconds, at nominal speed, for fresh interpreters to ``import safeprob.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-c", "import safeprob.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    times = []
    with SpeedProbe().running() as probe:
        for _ in range(SETUP_REPEATS):
            done, _, nominal = probe.measure(
                lambda: subprocess.run(argv, env=env, cwd=ROOT, check=False))
            if not isinstance(done, subprocess.CompletedProcess) or done.returncode != 0:
                fail(f"a fresh interpreter could not import safeprob.cli: {done}")
            times.append(nominal)
    return times


class Loop:
    """Closed-loop executor: times each query from outside, then checks it.

    ``walls`` holds each query's wall time and ``times`` the same time at
    nominal speed (:class:`SpeedProbe`); the metrics use ``times``.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.walls: list[float] = []
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.rounds = 0

    @property
    def busy(self) -> float:
        """Wall seconds spent in queries; sets the run's length."""
        return sum(self.walls)

    def run_round(self, queries) -> None:
        for query in queries:
            output, wall, nominal = self.probe.measure(query.run)
            problem = None
            if isinstance(output, Exception):  # a raising query is a failed query
                output, problem = None, f"{type(output).__name__}: {output}"
            self.walls.append(wall)
            self.times.append(nominal)
            self.kinds.append(query.kind)
            if problem is None:
                try:
                    problem = query.check(output)
                except Exception as exc:  # an output the check cannot read
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failures.append(f"{query.kind}: {problem}")
        self.rounds += 1

    def summary(self) -> list[str]:
        lines = [f"{'kind':18} {'n':>5} {'p50_s':>9} {'max_s':>9} {'total_s':>9}"
                 "   (seconds at nominal speed)"]
        for kind in sorted(set(self.kinds)):
            ts = [t for t, k in zip(self.times, self.kinds) if k == kind]
            lines.append(f"{kind:18} {len(ts):5d} {statistics.median(ts):9.4f} "
                         f"{max(ts):9.4f} {sum(ts):9.4f}")
        lines += [f"FAILED {f}" for f in self.failures[:10]]
        return lines


def end_to_end(workload: str, loop: Loop, setup: list[float]) -> dict:
    correct = len(loop.times) - len(loop.failures)
    tail = TAIL_PERCENTILE[workload]
    return {
        "throughput_qps": (correct / sum(loop.times), "1/s"),
        "query_s.p50": (statistics.median(loop.times), "s"),
        "query_s.tail": (statistics.quantiles(loop.times, n=100, method="inclusive")[tail - 1], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Loop, plain: Loop) -> dict:
    """Span times are wall seconds, so shares divide by the traced pass's
    wall time; the overhead compares the two passes at nominal speed."""
    calls, incl, self_s, tally, edges = (tracer.calls, tracer.inclusive, tracer.self_time,
                                         tracer.tally, tracer.edges)

    def ratio(a, b):
        return a / b if b else 0.0

    vertices = tally["core.enumerate_vertices"]
    bases = edges[("core.enumerate_vertices", "linalg.solve_linear")]
    hull_calls = calls["safety.hull_membership"]
    metrics = {
        "core.enumerate_vertices.s": (incl["core.enumerate_vertices"], "s"),
        "core.enumerate_vertices.calls": (calls["core.enumerate_vertices"], "count"),
        "core.vertices": (vertices, "count"),
        "core.bases_tried": (bases, "count"),
        "core.vertex_yield": (ratio(vertices, bases), "ratio"),
        "linalg.solve_linear.s": (incl["linalg.solve_linear"], "s"),
        "linalg.solve_linear.calls": (calls["linalg.solve_linear"], "count"),
        "linalg.unique_frac": (ratio(tally["linalg.solve_linear"], calls["linalg.solve_linear"]), "ratio"),
        "linalg.matrix_rank.calls": (calls["linalg.matrix_rank"], "count"),
        "safety.hull_membership.s": (incl["safety.hull_membership"], "s"),
        "safety.hull_membership.calls": (hull_calls, "count"),
        "safety.hull_solves_per_call": (
            ratio(edges[("safety.hull_membership", "linalg.solve_linear")], hull_calls), "ratio"),
        "safety.hull_member_frac": (ratio(tally["safety.hull_membership"], hull_calls), "ratio"),
        "safety.check_safety.self_s": (self_s["safety.check_safety"], "s"),
        "safety.check_safety.calls": (calls["safety.check_safety"], "count"),
        "safety.verdict_holds_frac": (
            ratio(tally["safety.check_safety"], calls["safety.check_safety"]), "ratio"),
        "calibration.check_calibrated_full.s": (incl["calibration.check_calibrated_full"], "s"),
        "pivots.check_pivotal_safety.s": (incl["pivots.check_pivotal_safety"], "s"),
        "decisions.check_decision_safety.s": (incl["decisions.check_decision_safety"], "s"),
        "scenario.parse_scenario.self_s": (self_s["scenario.parse_scenario"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "updates.partition_check.self_s": (self_s["updates.partition_check"], "s"),
        "trace.overhead_frac": (ratio(sum(traced.times), sum(plain.times)) - 1, "ratio"),
    }
    for module, names in LAYERS.items():
        module_self = sum(self_s[span_name(module, n)] for n in names)
        metrics[f"{module.lstrip('_')}.self_share"] = (ratio(module_self, traced.busy), "ratio")
    return metrics


def run_all(names, args) -> int:
    """Run each workload in its own process and print one metric table."""
    rows, status = [], 0
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        if not rows:
            print(lines[0])  # the environment record
        result = json.loads(lines[-1])
        rows.append((name, "failed_frac", result["failed"] / result["attempted"],
                     f"of {result['attempted']}"))
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:16} {metric:38} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get(SIZE_LIMIT_ENV) is not None:
        fail(f"{SIZE_LIMIT_ENV} is set; it changes which inputs are admissible, unset it")
    if not (SRC / "safeprob" / "__init__.py").is_file():
        fail(f"no safeprob sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)} or all")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    setup = measure_setup() if args.trace == 0 else []

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        rounds = workloads.rounds(args.workload, args.seed, Path(workdir))
        if args.trace == 0:
            with SpeedProbe().running() as probe:
                loop = Loop(probe)
                while loop.busy < args.seconds:
                    loop.run_round(next(rounds))
            loops = [loop]
            metrics = end_to_end(args.workload, loop, setup)
        else:
            with SpeedProbe().running() as probe:
                plain, traced_loop = Loop(probe), Loop(probe)
                tracer = Tracer(clock=probe.clock)
                for i in range(traced_rounds(args.workload, args.seconds)):
                    queries = next(rounds)
                    # alternate which pass goes first so warm-up favours neither
                    for loop in ((plain, traced_loop) if i % 2 == 0 else (traced_loop, plain)):
                        if loop is plain:
                            loop.run_round(queries)
                        else:
                            with traced(tracer):
                                loop.run_round(queries)
            loops = [traced_loop, plain]
            print("\n".join(tracer.table()))
            metrics = per_layer(tracer, traced_loop, plain)

    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(len(loop.failures) for loop in loops)
    for loop, label in zip(loops, ("traced" if args.trace else "run", "untraced")):
        print(f"{label}: {len(loop.times)} queries in {loop.rounds} rounds, "
              f"{loop.busy:.3f} wall s of query time, {sum(loop.times):.3f} s at nominal speed")
        print("\n".join(loop.summary()))
    print(f"failed_frac {failed / attempted:.6f} (failed {failed} of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name:38} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Snapshot of the command line's output, for diffing two versions.

Runs ``safeprob.cli.main`` in-process on a fixed list of invocations and
writes ``{argv: [exit code, stdout, stderr]}`` as JSON, one invocation
per line, so that ``diff`` names exactly the invocations that changed.
The list covers, on every bundled scenario file:

- ``check`` with every notion, every ordered u/v pair, without and with
  each ``--w``, and (for ``pivotal``) each ``--pivot``, plus unknown rv
  names for ``--u``, ``--v``, ``--w`` and ``--pivot``, and ``--pivot``
  with a notion other than ``pivotal``;
- ``report`` for every ordered u/v pair, and ``events``;

plus the three ``demo``s and one short ``coverage`` run, each as text
and with ``--json``; the library's notion checks that the command line
never calls, on every ordered u/v pair of every credal scenario file:
``check_decision_safety`` and ``decision_loss_table`` with the 0/1,
Brier and log losses, ``check_pivotal_safety`` with the canonical pivot
and ``check_calibrated_mean``, each as the ``repr`` of its result (so
value types show) or the type and message of the error it raised, keyed
``library FILE --u U --v V CHECK``; and the printed output of every
``demos/*.py`` script of the checkout whose ``safeprob`` is imported,
keyed by its path relative to that checkout and run in-process as
``__main__``. The same
scenario invocations also run on the files in ``scenarios/`` next to
this script, which cover what the bundled files lack: vector and symbol
targets, and credal sets given by their vertices. Scenario files are
named relative to their directory, so the output does not depend on
where the checkout lives, and the extra files come with this script, so
an older ``safeprob`` on ``PYTHONPATH`` runs them too. Usage, from the
root of a checkout::

    PYTHONPATH=src python tests/cli_snapshot.py new.json
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_snapshot.py old.json
    diff old.json new.json

``--scn NAME`` (repeatable) limits the scenario invocations to the named
files. ``--compare OLD.json`` also reads an earlier snapshot and
prints the argv of each invocation whose entry differs from it or is
only in one of the two, one a line; the exit code is then 1 when any
does::

    PYTHONPATH=src python tests/cli_snapshot.py new.json --compare old.json

pytest does not collect this module.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import os
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import safeprob
from safeprob.calibration import check_calibrated_mean
from safeprob.cli import NOTIONS, main
from safeprob.decisions import (
    BRIER,
    LOG,
    ZERO_ONE,
    LossFunction,
    check_decision_safety,
    decision_loss_table,
)
from safeprob.pivots import canonical_pivot, check_pivotal_safety
from safeprob.scenario import parse_scenario

SCENARIO_DIR = Path(safeprob.__file__).resolve().parent / "scenarios"
EXTRA_DIR = Path(__file__).resolve().parent / "scenarios"
DEMO_DIR = Path(safeprob.__file__).resolve().parents[2] / "demos"
UNKNOWN = "NO_SUCH_RV"


def scenario_argvs(name: str) -> list[list[str]]:
    """Every ``check``, ``report`` and ``events`` invocation on one file."""
    rvs = list(parse_scenario(name).rvs) or ["U", "V"]
    argvs = [["events", name]]
    for u in rvs:
        for v in rvs:
            argvs.append(["report", name, "--u", u, "--v", v])
            for notion in NOTIONS:
                pivots = [None] + rvs if notion == "pivotal" else [None]
                for w in [None] + rvs:
                    for pivot in pivots:
                        argv = ["check", name, "--u", u, "--v", v, "--notion", notion]
                        argv += ["--w", w] if w else []
                        argv += ["--pivot", pivot] if pivot else []
                        argvs.append(argv)
    u, v = rvs[0], rvs[-1]
    for bad in ([UNKNOWN, UNKNOWN + "2", UNKNOWN + "3"], [u, UNKNOWN + "2", UNKNOWN + "3"],
                [u, v, UNKNOWN + "3"]):
        argvs.append(["check", name, "--u", bad[0], "--v", bad[1], "--w", bad[2],
                      "--notion", "valid"])
    argvs.append(["report", name, "--u", UNKNOWN, "--v", v])
    argvs.append(["check", name, "--u", u, "--v", v, "--notion", "pivotal",
                  "--pivot", UNKNOWN])
    argvs.append(["check", name, "--u", u, "--v", v, "--notion", "valid", "--pivot", rvs[0]])
    return argvs


def all_argvs(names: list[str], commands: bool = True) -> list[list[str]]:
    """The scenario invocations on ``names``, then (with ``commands``) the
    demos and the coverage run, each as text and with ``--json``."""
    argvs = [argv for name in names for argv in scenario_argvs(name)]
    if commands:
        argvs += [["demo", name] for name in ("dilation", "monty-hall", "gamble")]
        argvs.append(["coverage", "--family", "normal", "--n", "1", "--theta0", "0.0",
                      "--a", "0.1", "--b", "0.9", "--samples", "2000", "--seed", "3"])
    return argvs + [argv + ["--json"] for argv in argvs]


def run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def library_calls(name: str) -> dict:
    """The library entries of one scenario file, as zero-argument calls
    keyed as in the snapshot; none for an event scenario."""
    scenario = parse_scenario(name)
    if scenario.space is None:
        return {}
    pt, credal, calls = scenario.pragmatic, scenario.credal, {}
    for (un, u), (vn, v) in itertools.product(scenario.rvs.items(), repeat=2):
        key = f"library {name} --u {un} --v {vn}"
        for kind in (ZERO_ONE, BRIER, LOG):
            loss = LossFunction(kind)
            calls[f"{key} decision {kind}"] = functools.partial(
                check_decision_safety, pt, u, v, loss, credal)
            calls[f"{key} loss-table {kind}"] = functools.partial(
                decision_loss_table, pt, u, v, loss, credal)
        calls[f"{key} pivotal"] = functools.partial(
            lambda u, v: check_pivotal_safety(pt, u, v, canonical_pivot(pt, u, v), credal), u, v)
        calls[f"{key} calibrated-mean"] = functools.partial(check_calibrated_mean, u, v, pt, credal)
    return calls


def run_call(call) -> list:
    try:
        return [0, repr(call()), ""]
    except Exception as exc:  # recorded like the command line's exit 2
        return [2, "", f"{type(exc).__name__}: {exc}"]


def run_demo(path: Path) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        runpy.run_path(str(path), run_name="__main__")
    return [0, out.getvalue(), err.getvalue()]


def snapshot(names: list[str]) -> dict:
    here = os.getcwd()
    entries = {}
    try:
        for directory in (SCENARIO_DIR, EXTRA_DIR):
            os.chdir(directory)
            chosen = [name for name in names if (directory / name).is_file()]
            argvs = all_argvs(chosen, commands=directory == SCENARIO_DIR)
            entries.update((" ".join(argv), run(argv)) for argv in argvs)
            for name in chosen:
                entries.update((key, run_call(call)) for key, call in library_calls(name).items())
        for path in sorted(DEMO_DIR.glob("*.py")):  # none when the checkout has no demos
            entries[f"demos/{path.name}"] = run_demo(path)
        return entries
    finally:
        os.chdir(here)


def write(entries: dict, path: str) -> None:
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in entries.items()]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def differing(entries: dict, old: dict) -> list[str]:
    """Invocations whose entries differ, in ``entries`` order and then
    those only in ``old``."""
    return [argv for argv in {**entries, **old} if entries.get(argv) != old.get(argv)]


def main_snapshot(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--scn", action="append", metavar="NAME",
                        help="scenario file to include (default: all)")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="list the invocations that differ from this snapshot")
    args = parser.parse_args(argv)
    names = args.scn or [p.name for directory in (SCENARIO_DIR, EXTRA_DIR)
                         for p in sorted(directory.glob("*.scn"))]
    entries = snapshot(names)
    write(entries, args.output)
    if args.compare is None:
        return 0
    changed = differing(entries, json.loads(Path(args.compare).read_text(encoding="utf-8")))
    print("\n".join(changed), end="\n" if changed else "")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_snapshot())

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
and with ``--json``. Scenario files are named relative to the bundled
scenario directory, so the output does not depend on where the checkout
lives. Usage, from the root of a checkout::

    PYTHONPATH=src python tests/cli_snapshot.py new.json
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_snapshot.py old.json
    diff old.json new.json

``--scn NAME`` (repeatable) limits the scenario invocations to the named
bundled files. ``--compare OLD.json`` also reads an earlier snapshot and
prints the argv of each invocation whose entry differs from it or is
only in one of the two, one a line; the exit code is then 1 when any
does::

    PYTHONPATH=src python tests/cli_snapshot.py new.json --compare old.json

pytest does not collect this module.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import safeprob
from safeprob.cli import NOTIONS, main
from safeprob.scenario import parse_scenario

SCENARIO_DIR = Path(safeprob.__file__).resolve().parent / "scenarios"
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


def all_argvs(names: list[str]) -> list[list[str]]:
    argvs = [argv for name in names for argv in scenario_argvs(name)]
    argvs += [["demo", name] for name in ("dilation", "monty-hall", "gamble")]
    argvs.append(["coverage", "--family", "normal", "--n", "1", "--theta0", "0.0",
                  "--a", "0.1", "--b", "0.9", "--samples", "2000", "--seed", "3"])
    return argvs + [argv + ["--json"] for argv in argvs]


def run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def snapshot(names: list[str]) -> dict:
    here = os.getcwd()
    os.chdir(SCENARIO_DIR)
    try:
        return {" ".join(argv): run(argv) for argv in all_argvs(names)}
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
                        help="bundled scenario file to include (default: all)")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="list the invocations that differ from this snapshot")
    args = parser.parse_args(argv)
    names = args.scn or sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))
    entries = snapshot(names)
    write(entries, args.output)
    if args.compare is None:
        return 0
    changed = differing(entries, json.loads(Path(args.compare).read_text(encoding="utf-8")))
    print("\n".join(changed), end="\n" if changed else "")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_snapshot())

"""Command-line interface.

Commands: ``check`` (one notion for one scenario file), ``report`` (the
whole hierarchy), ``events`` (partition sanity check for event
conditioning), ``coverage`` (Monte Carlo confidence coverage) and
``demo`` (bundled worked examples).

Exit codes: 0 when the queried notion holds (or all demo assertions
pass), 1 when it fails (the printed report carries a counterexample),
2 for usage, input or validation errors. Reports are deterministic:
identical inputs, including seeds, produce byte-identical output.
``--json`` switches to a machine-readable rendering with stable field
order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .calibration import check_calibrated_full
from .confidence import coverage_estimate, exponential_mean, normal_location
from .core import format_value
from .demos import run_dilation_demo, run_gamble_demo, run_monty_demo
from .errors import NotFullSupport, SafeprobError, UniquenessViolated, ValidationError
from .pivots import PivotSpec, canonical_pivot, check_pivotal_safety
from .safety import (
    NOTION_NOTATION,
    NOTION_QUERIES,
    SafetyQuery,
    Verdict,
    check_safety,
    hierarchy_report,
)
from .scenario import parse_scenario
from .updates import partition_check

NOTIONS = tuple(NOTION_QUERIES) + ("calibrated", "pivotal")


def _verdict_json(verdict: Verdict) -> dict:
    out: dict = {"holds": verdict.holds}
    ce = verdict.counterexample
    if ce is not None:
        body: dict = {}
        if ce.vertex is not None:
            body["vertex"] = {
                z: str(w) for z, w in ce.vertex.weights.items() if w
            }
        for key in ("v", "w", "u"):
            val = getattr(ce, key)
            if val is not None:
                body[key] = format_value(val)
        for key in ("lhs", "rhs"):
            val = getattr(ce, key)
            if val is not None:
                body[key] = str(val) if isinstance(val, Fraction) else val
        out["counterexample"] = body
    else:
        out["counterexample"] = None
    out["notes"] = list(verdict.notes)
    return out


def _verdict_lines(name: str, entry: dict) -> list[str]:
    """Text rendering of a :func:`_verdict_json` dict."""
    label = NOTION_NOTATION.get(name, name)
    lines = [f"{name} ({label}): {'HOLDS' if entry['holds'] else 'FAILS'}"]
    body = dict(entry["counterexample"] or {})
    if "vertex" in body:
        mass = " ".join(f"{z}={w}" for z, w in body.pop("vertex").items())
        lines.append(f"  counterexample vertex: {mass}")
    if body:
        lines.append("  " + " ".join(f"{key}={val}" for key, val in body.items()))
    lines += [f"  note: {note}" for note in entry["notes"]]
    return lines


def _scenario_lines(report: dict) -> list[str]:
    """Text rendering of a ``check``, ``report`` or ``events`` report dict."""
    source, query = report["input"], report.get("query")
    lines = [f"input: {source['path']} (sha256:{source['sha256'][:16]})"]
    if query is None:
        lines.append(f"observable sets form a partition: {report['is_partition']}")
    elif report["command"] == "report":
        lines.append(f"query: report u={query['u']} v={query['v']}")
    else:
        lines.append(f"query: notion={query['notion']} u={query['u']} v={query['v']}"
                     + "".join(f" {key}={query[key]}" for key in ("w", "pivot") if query[key]))
    for name, entry in report["verdicts"].items():
        lines += _verdict_lines(name, entry)
    return lines + [f"warning: {w}" for w in report["warnings"]]


def _emit(report: dict, as_json: bool, text_lines: list[str] | None = None) -> None:
    """Print ``report`` as JSON or as text; the text of a scenario command
    is rendered from the report itself."""
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        lines = _scenario_lines(report) if text_lines is None else text_lines
        print("\n".join([f"safeprob {__version__}"] + lines))


def _load(args):
    """The scenario file of ``check`` or ``report`` with its u, v and w
    variables (w is None unless ``--w`` is given)."""
    scenario = parse_scenario(args.file)
    if scenario.space is None:
        raise ValidationError("this file holds an event scenario; use the events command")
    names = (args.u, args.v, getattr(args, "w", None))
    for rv_name in names:
        if rv_name is not None and rv_name not in scenario.rvs:
            raise ValidationError(f"unknown rv {rv_name!r}")
    return (scenario, *(scenario.rvs.get(name) for name in names))


def _report(args, scenario, head: dict, verdicts: dict, warnings=()) -> dict:
    """The report dict of a scenario command; ``head`` holds its query."""
    return {
        "tool": "safeprob",
        "version": __version__,
        "input": {"path": scenario.path, "sha256": scenario.digest},
        "command": args.command,
        **head,
        "verdicts": {name: _verdict_json(v) for name, v in verdicts.items()},
        "warnings": [*scenario.warnings, *warnings],
    }


def _pivot_from_rv(scenario, u_rv, v_rv, name: str) -> PivotSpec:
    if name not in scenario.rvs:
        raise ValidationError(f"unknown rv {name!r} for --pivot")
    prv = scenario.rvs[name]
    mapping = {}
    for z in scenario.space.atoms:
        cell = (u_rv.table[z], v_rv.table[z])
        existing = mapping.get(cell)
        if existing is not None and existing != prv.table[z]:
            raise ValidationError(
                f"--pivot {name}: value at {z!r} conflicts with an atom sharing "
                f"its (target, conditioner) cell"
            )
        mapping[cell] = prv.table[z]
    return PivotSpec(name=name, mapping=mapping)


def _cmd_check(args) -> int:
    scenario, u_rv, v_rv, w_rv = _load(args)
    if args.pivot is not None and args.notion != "pivotal":
        raise ValidationError("--pivot is only supported with the pivotal notion")
    if args.notion == "calibrated":
        if w_rv is not None:
            raise ValidationError("--w is not supported with the calibrated notion")
        verdict = check_calibrated_full(u_rv, v_rv, scenario.pragmatic, scenario.credal)
    elif args.notion == "pivotal":
        if args.pivot is not None:
            spec = _pivot_from_rv(scenario, u_rv, v_rv, args.pivot)
        else:
            spec = canonical_pivot(scenario.pragmatic, u_rv, v_rv)
        verdict = check_pivotal_safety(
            scenario.pragmatic, u_rv, v_rv, spec, scenario.credal, w=w_rv
        )
    else:
        left, right = NOTION_QUERIES[args.notion]
        query = SafetyQuery(u_rv, left, v_rv, right, stratifier=w_rv)
        verdict = check_safety(query, scenario.pragmatic, scenario.credal)

    head = {"query": {"notion": args.notion, "u": args.u, "v": args.v,
                      "w": args.w, "pivot": args.pivot}}
    _emit(_report(args, scenario, head, {args.notion: verdict}), args.json)
    return 0 if verdict.holds else 1


def _cmd_report(args) -> int:
    scenario, u_rv, v_rv, _ = _load(args)
    ptilde = scenario.pragmatic
    verdicts = hierarchy_report(u_rv, v_rv, ptilde, scenario.credal)
    warnings = []
    if "pivotal" not in verdicts:
        # the two calls by which hierarchy_report decides to omit the verdict
        try:
            spec = canonical_pivot(ptilde, u_rv, v_rv)
            check_pivotal_safety(ptilde, u_rv, v_rv, spec, scenario.credal)
        except (UniquenessViolated, NotFullSupport) as exc:
            warnings.append(f"pivotal safety not evaluated: {exc}")
    head = {"query": {"u": args.u, "v": args.v}}
    _emit(_report(args, scenario, head, verdicts, warnings), args.json)
    return 0


def _cmd_events(args) -> int:
    scenario = parse_scenario(args.file)
    if scenario.events is None:
        raise ValidationError("this file does not hold an event scenario")
    outcome = partition_check(scenario.events)
    verdict = outcome["verdict"]
    head = {"is_partition": outcome["is_partition"]}
    _emit(_report(args, scenario, head, {"valid": verdict}), args.json)
    return 0 if verdict.holds else 1


_FAMILIES = {"normal": normal_location, "expmean": exponential_mean}


def _cmd_coverage(args) -> int:
    family = _FAMILIES[args.family](args.n)
    result = coverage_estimate(family, args.theta0, args.a, args.b, args.samples, args.seed)
    target = args.b - args.a
    within = abs(result["coverage"] - target) <= 3 * result["stderr"]
    report = {
        "tool": "safeprob", "version": __version__, "command": "coverage",
        "family": family.name, "theta0": args.theta0, "a": args.a, "b": args.b,
        "samples": args.samples, "seed": args.seed,
        "coverage": result["coverage"], "stderr": result["stderr"],
        "target": target, "within_3_stderr": within,
    }
    lines = [
        f"family: {family.name}",
        f"theta0={args.theta0} a={args.a} b={args.b} samples={args.samples} seed={args.seed}",
        f"coverage: {result['coverage']:.6f} (stderr {result['stderr']:.6f}, target {target:.6f})",
        f"within 3 standard errors: {within}",
    ]
    _emit(report, args.json, lines)
    return 0 if within else 1


def _fraction_str(x) -> str:
    return str(x) if isinstance(x, Fraction) else f"{float(x):.6f}"


def _cmd_demo(args) -> int:
    if args.name == "dilation":
        result = run_dilation_demo()
        verdicts = {k: _verdict_json(v) for k, v in result["report"].items()}
        lines = [f"dilation scenario, known marginal {result['marginal']}"]
        for name, entry in verdicts.items():
            lines += _verdict_lines(name, entry)
        lines.append(
            "three-valued extension: indicator stays average-safe: "
            f"{result['extension_indicator_holds']}; full mean fails: "
            f"{not result['extension_mean_verdict'].holds}"
        )
        ce = result["extension_mean_verdict"].counterexample
        if ce is not None:
            mass = " ".join(f"{z}={w}" for z, w in ce.vertex.weights.items() if w)
            lines.append(f"  witness vertex: {mass}")
        extra = {"verdicts": verdicts}
    elif args.name == "monty-hall":
        result = run_monty_demo()
        naive, control = result["naive"], result["control"]
        lines = [
            f"event conditioning: observables overlap, partition={naive['is_partition']}",
        ]
        lines += _verdict_lines("valid", _verdict_json(naive["verdict"]))
        lines.append(f"partition control: partition={control['is_partition']}")
        lines += _verdict_lines("valid", _verdict_json(control["verdict"]))
        lines.append(
            f"fair-coin pragmatic distribution: pivot simple={result['pivot_verdict'].is_simple}, "
            f"pivotally safe={result['pivotal'].holds}"
        )
        for kind, entry in result["losses"].items():
            believed = {format_value(k): _fraction_str(x)
                        for k, x in entry["table"]["believed"].items()}
            actual = [_fraction_str(x) for x in entry["table"]["actual"]]
            lines.append(
                f"{kind}: decision-safe={entry['verdict'].holds} "
                f"believed={believed} actual-per-vertex={actual}"
            )
        extra = {"pivotal": _verdict_json(result["pivotal"])}
    else:
        result = run_gamble_demo()
        lines = [
            f"gamble on a positive parameter, true value {result['theta_bar']}, n={result['n']}",
            f"actual expected loss (closed form): {result['actual_expected_loss']:.6f}",
            f"actual expected loss (Monte Carlo): {result['actual_expected_loss_mc']:.6f}",
            f"believed expected loss (Monte Carlo): {result['believed_expected_loss']:.6f}",
        ]
        extra = {"actual": result["actual_expected_loss"],
                 "actual_mc": result["actual_expected_loss_mc"],
                 "believed": result["believed_expected_loss"]}
    lines.append(f"demo assertions pass: {result['ok']}")
    report = {"tool": "safeprob", "version": __version__, "command": "demo",
              "name": args.name, "ok": result["ok"], **extra}
    _emit(report, args.json, lines)
    return 0 if result["ok"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="safeprob",
        description="Decide safety of a pragmatic distribution relative to a credal set.",
    )
    parser.add_argument("--version", action="version", version=f"safeprob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one safety notion")
    p_check.add_argument("file")
    p_check.add_argument("--u", required=True, metavar="NAME")
    p_check.add_argument("--v", required=True, metavar="NAME")
    p_check.add_argument("--notion", required=True, choices=NOTIONS)
    p_check.add_argument("--w", metavar="NAME")
    p_check.add_argument("--pivot", metavar="NAME")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="evaluate the whole hierarchy")
    p_report.add_argument("file")
    p_report.add_argument("--u", required=True, metavar="NAME")
    p_report.add_argument("--v", required=True, metavar="NAME")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_events = sub.add_parser("events", help="partition sanity check for event conditioning")
    p_events.add_argument("file")
    p_events.add_argument("--json", action="store_true")
    p_events.set_defaults(func=_cmd_events)

    p_cov = sub.add_parser("coverage", help="Monte Carlo confidence coverage")
    p_cov.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p_cov.add_argument("--n", required=True, type=int)
    p_cov.add_argument("--theta0", required=True, type=float)
    p_cov.add_argument("--a", required=True, type=float)
    p_cov.add_argument("--b", required=True, type=float)
    p_cov.add_argument("--samples", required=True, type=int)
    p_cov.add_argument("--seed", required=True, type=int)
    p_cov.add_argument("--json", action="store_true")
    p_cov.set_defaults(func=_cmd_coverage)

    p_demo = sub.add_parser("demo", help="run a bundled demonstration")
    p_demo.add_argument("name", choices=["dilation", "monty-hall", "gamble"])
    p_demo.add_argument("--json", action="store_true")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SafeprobError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

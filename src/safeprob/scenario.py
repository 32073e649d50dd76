"""Scenario file ingestion and emission.

A scenario file is a UTF-8 JSON document with a ``format: 1`` header. It
either describes a discrete checking problem (atoms, random variables, a
credal set and a pragmatic distribution) or an event-conditioning problem
(outcomes, prior, observable sets). All probabilities and numeric values
are exact: JSON integers, or strings holding a fraction ``"p/q"`` or a
finite decimal (converted exactly). Bare JSON floats are rejected because
they round. Strings that do not parse as numbers are opaque symbols.

The published schema ships with the package as
``scenarios/scenario.schema.json``; parsing here performs the same checks
with precise error messages and the additional exactness validation a
schema cannot express.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import (
    CredalSet,
    LinearConstraint,
    OutcomeSpace,
    Pmf,
    Rv,
    as_rational,
    as_value,
    format_value,
    value_sort_key,
)
from .errors import InfeasibleCredalSet, ParseError, SafeprobError, ValidationError
from .updates import EventScenario, UpdateRule, rule_completion

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario: either discrete objects or an event scenario."""

    path: str
    digest: str
    space: Optional[OutcomeSpace] = None
    rvs: dict = field(default_factory=dict)
    credal: Optional[CredalSet] = None
    pragmatic: Optional[Pmf] = None
    events: Optional[EventScenario] = None
    warnings: tuple[str, ...] = ()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _array(raw, context: str) -> list:
    _require(isinstance(raw, list), f"{context}: expected an array")
    return raw


def _object(raw, context: str) -> dict:
    _require(isinstance(raw, dict), f"{context}: expected an object")
    return raw


def _exact_number(raw, context: str) -> Fraction:
    if isinstance(raw, (bool, float)):
        raise ValidationError(f"{context}: use integers or 'p/q'/decimal strings, not {raw!r}")
    if not isinstance(raw, (int, str)):
        raise ValidationError(f"{context}: expected a number, got {raw!r}")
    try:
        return as_rational(raw)
    except ValidationError as exc:
        raise ValidationError(f"{context}: not an exact number: {raw!r}") from exc


def _value_literal(raw, context: str):
    if isinstance(raw, float) and not isinstance(raw, bool):
        raise ValidationError(f"{context}: floats are inexact, use strings or integers")
    if isinstance(raw, list):
        return tuple(_exact_number(c, context) for c in raw)
    if isinstance(raw, (int, str)):
        return as_value(raw)
    raise ValidationError(f"{context}: cannot read value literal {raw!r}")


def _pmf_map(space: OutcomeSpace, raw: dict, context: str) -> Pmf:
    _require(isinstance(raw, dict), f"{context}: expected an atom->probability map")
    weights = {}
    for atom, prob in raw.items():
        _require(atom in space.atoms, f"{context}: unknown atom {atom!r}")
        weights[atom] = _exact_number(prob, f"{context}[{atom}]")
    return Pmf(space, weights)


def parse_scenario(path) -> ScenarioFile:
    """Parse and validate a scenario file.

    Raises ParseError for text that is not UTF-8 or malformed JSON (with
    line/column) and ValidationError naming the violated invariant
    otherwise.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    return _build_scenario(doc, str(path), digest)


def _build_scenario(doc, path: str, digest: str) -> ScenarioFile:
    _require(isinstance(doc, dict), "top level must be an object")
    _require(type(doc.get("format")) is int and doc["format"] == FORMAT_VERSION,
             f"missing or unsupported format version (expected {FORMAT_VERSION})")

    if "events" in doc:
        ev = _object(doc["events"], "events")
        for key in ("outcomes", "prior", "observables"):
            _require(key in ev, f"events: missing key {key!r}")
        outcomes = [_value_literal(o, "events.outcomes")
                    for o in _array(ev["outcomes"], "events.outcomes")]
        known, rendered = set(outcomes), {}
        for o in outcomes:
            name = format_value(o)
            _require(rendered.setdefault(name, o) == o,
                     f"events.outcomes: two distinct outcomes render as {name}")

        def prior_key(raw: str):
            """The outcome a prior key names by its literal, else by its
            rendering (how a vector outcome such as ``(1,2)`` is named)."""
            value = _value_literal(raw, "events.prior")
            return value if value in known else rendered.get(raw, value)

        prior = {
            prior_key(k): _exact_number(p, f"events.prior[{k}]")
            for k, p in _object(ev["prior"], "events.prior").items()
        }
        observables = [
            [_value_literal(o, "events.observables") for o in _array(s, f"events.observables[{i}]")]
            for i, s in enumerate(_array(ev["observables"], "events.observables"))
        ]
        scenario = EventScenario(outcomes, prior, observables)
        return ScenarioFile(path=path, digest=digest, events=scenario)

    for key in ("atoms", "rvs", "credal", "pragmatic"):
        _require(key in doc, f"missing key {key!r}")
    atoms = _array(doc["atoms"], "atoms")
    _require(all(isinstance(z, str) for z in atoms), "atoms: expected an array of strings")
    space = OutcomeSpace(atoms)

    rvs = {}
    _require(isinstance(doc["rvs"], dict), "rvs: expected a name->table map")
    for name, table in doc["rvs"].items():
        _require(isinstance(table, dict), f"rvs[{name}]: expected an atom->value map")
        parsed = {}
        for atom, raw in table.items():
            _require(atom in space.atoms, f"rvs[{name}]: unknown atom {atom!r}")
            parsed[atom] = _value_literal(raw, f"rvs[{name}][{atom}]")
        rvs[name] = Rv(space, name, parsed)

    credal_doc = _object(doc["credal"], "credal")
    if "vertices" in credal_doc:
        vertices = [
            _pmf_map(space, raw, f"credal.vertices[{i}]")
            for i, raw in enumerate(_array(credal_doc["vertices"], "credal.vertices"))
        ]
        credal = CredalSet.from_vertices(vertices)
    elif "constraints" in credal_doc:
        constraints = []
        for i, raw in enumerate(_array(credal_doc["constraints"], "credal.constraints")):
            ctx = f"credal.constraints[{i}]"
            _object(raw, ctx)
            for key in ("coeffs", "rel", "rhs"):
                _require(key in raw, f"{ctx}: missing key {key!r}")
            coeffs = {}
            for atom, c in _object(raw["coeffs"], f"{ctx}.coeffs").items():
                _require(atom in space.atoms, f"{ctx}: unknown atom {atom!r}")
                coeffs[atom] = _exact_number(c, f"{ctx}.coeffs[{atom}]")
            constraints.append(LinearConstraint(coeffs, raw["rel"], _exact_number(raw["rhs"], f"{ctx}.rhs")))
        credal = CredalSet.from_constraints(space, constraints)
        try:
            credal.vertex_list()  # feasibility is part of the file contract
        except InfeasibleCredalSet as exc:
            raise ValidationError(f"credal: {exc}") from exc
    else:
        raise ValidationError("credal: needs either 'vertices' or 'constraints'")

    warnings: list[str] = []
    prag_doc = _object(doc["pragmatic"], "pragmatic")
    if "joint" in prag_doc:
        pragmatic = _pmf_map(space, prag_doc["joint"], "pragmatic.joint")
    elif "conditional" in prag_doc:
        cond = _object(prag_doc["conditional"], "pragmatic.conditional")
        for key in ("u", "v", "rows"):
            _require(key in cond, f"pragmatic.conditional: missing key {key!r}")
        for key in ("u", "v"):
            _require(isinstance(cond[key], str) and cond[key] in rvs,
                     f"pragmatic.conditional: unknown rv {cond[key]!r}")
        target, conditioner = rvs[cond["u"]], rvs[cond["v"]]
        rows = {}
        for v_lit, row_raw in _object(cond["rows"], "pragmatic.conditional.rows").items():
            vv = _value_literal(v_lit, "pragmatic.conditional.rows")
            row = {}
            for u_lit, p in _object(row_raw, f"pragmatic.conditional.rows[{v_lit}]").items():
                row[_value_literal(u_lit, "pragmatic.conditional.rows")] = _exact_number(
                    p, f"pragmatic.conditional.rows[{v_lit}][{u_lit}]"
                )
            rows[vv] = row
        rule = UpdateRule(conditioner=conditioner, target=target, rows=rows)
        pragmatic = rule_completion(rule, space)
        warnings.append(
            "pragmatic distribution supplied as a conditional table; completed "
            "to a joint with uniform mass over conditioner values"
        )
    else:
        raise ValidationError("pragmatic: needs either 'joint' or 'conditional'")

    return ScenarioFile(
        path=path, digest=digest, space=space, rvs=rvs,
        credal=credal, pragmatic=pragmatic, warnings=tuple(warnings),
    )


def _emit_value(value) -> object:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        if len(value) == 1:
            return str(value[0])
        return [str(c) for c in value]
    raise SafeprobError(f"cannot emit value {value!r}")


def emit_scenario(scenario: ScenarioFile) -> str:
    """Canonical serialization; parse(emit(parse(f))) == parse(f) and the
    emission is a fixed point byte for byte."""
    if scenario.events is not None:
        ev = scenario.events
        doc = {
            "format": FORMAT_VERSION,
            "events": {
                "outcomes": [_emit_value(u) for u in ev.base_outcomes],
                "prior": {format_value(u): str(p) for u, p in ev.prior.items()},
                "observables": [
                    [_emit_value(u) for u in sorted(s, key=value_sort_key)]
                    for s in ev.observable_sets
                ],
            },
        }
        return json.dumps(doc, indent=2) + "\n"

    doc = {
        "format": FORMAT_VERSION,
        "atoms": list(scenario.space.atoms),
        "rvs": {
            name: {z: _emit_value(rv.table[z]) for z in scenario.space.atoms}
            for name, rv in scenario.rvs.items()
        },
    }
    if scenario.credal.vertices is not None:
        doc["credal"] = {
            "vertices": [
                {z: str(p.weights[z]) for z in scenario.space.atoms}
                for p in scenario.credal.vertices
            ]
        }
    else:
        doc["credal"] = {
            "constraints": [
                {
                    "coeffs": {z: str(c) for z, c in sorted(con.coeffs.items())},
                    "rel": con.relation,
                    "rhs": str(con.rhs),
                }
                for con in scenario.credal.constraints
            ]
        }
    doc["pragmatic"] = {
        "joint": {z: str(scenario.pragmatic.weights[z]) for z in scenario.space.atoms}
    }
    return json.dumps(doc, indent=2) + "\n"

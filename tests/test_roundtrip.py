"""Emit -> parse round trip of scenario files, on random documents.

A drawn document is parsed, emitted, parsed again and emitted again: the
two emissions must agree byte for byte and the two parses field by field.
Documents cover vertex-form and constraint-form credal sets, integer,
vector and symbol values written in every accepted literal form, joint
and conditional pragmatic distributions, and event scenarios with integer,
symbol and vector outcomes mixed within one observable set. A symbol
outcome that renders like a vector outcome, such as ``"(1,2)"`` next to
``[1, 2]``, cannot be told apart in an emitted file, so a document with
both must be rejected at parse time, naming the rendering. Where
jsonschema is installed, the drawn and the emitted document must also
validate against the shipped schema.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeprob import bundled_scenario
from safeprob.errors import ValidationError
from safeprob.scenario import emit_scenario, parse_scenario

try:
    from jsonschema import Draft202012Validator
except ImportError:  # only the schema assertions need it
    SCHEMA = None
else:
    SCHEMA = Draft202012Validator(
        json.loads(bundled_scenario("scenario.schema.json").read_text(encoding="utf-8")))

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
SYMBOLS = ["a", "b", "heads", "tails"]


def _literal(draw, x: Fraction):
    """An exact number as one of the literal forms a file may use."""
    forms = [str(x)]
    if x.denominator == 1:
        forms.append(int(x))
    if 10 ** 6 % x.denominator == 0:
        forms.append(f"{float(x):.6f}")
    return draw(st.sampled_from(forms))


def _pmf(draw, keys: list, positive=False) -> dict:
    low = 1 if positive else 0
    weights = draw(st.lists(st.integers(low, 4), min_size=len(keys), max_size=len(keys))
                   .filter(any))
    total = sum(weights)
    return {k: Fraction(w, total) for k, w in zip(keys, weights)}


def _value(draw, kind: str):
    """A drawn value as a Python value and as a JSON literal."""
    if kind == "symbol":
        sym = draw(st.sampled_from(SYMBOLS))
        return sym, sym
    if kind == "int":
        x = Fraction(draw(st.integers(-2, 3)))
        return x, _literal(draw, x)
    vec = [Fraction(draw(st.integers(-2, 3)), draw(st.integers(1, 4))) for _ in range(2)]
    return tuple(vec), [_literal(draw, c) for c in vec]


def _key(x) -> str:
    """A value written as a JSON object key: a vector as its rendering."""
    if isinstance(x, tuple):
        return "(" + ",".join(map(str, x)) + ")"
    return x if isinstance(x, str) else str(x)


@st.composite
def checking_docs(draw):
    n = draw(st.integers(2, 5))
    atoms = [f"z{i}" for i in range(n)]
    kinds = {"U": draw(st.sampled_from(["int", "symbol", "vector"])),
             "V": draw(st.sampled_from(["int", "symbol", "vector"])),
             "X": draw(st.sampled_from(["int", "symbol", "vector"]))}
    tables = {name: [_value(draw, kind) for _ in atoms] for name, kind in kinds.items()}
    doc = {"format": 1, "atoms": atoms,
           "rvs": {name: {z: lit for z, (_, lit) in zip(atoms, col)}
                   for name, col in tables.items()}}

    def pmf_doc(pmf):
        return {z: _literal(draw, p) for z, p in pmf.items() if p or draw(st.booleans())}

    truth = _pmf(draw, atoms)
    if draw(st.booleans()):
        others = [_pmf(draw, atoms) for _ in range(draw(st.integers(0, 2)))]
        vertices = list(dict.fromkeys(tuple(p.values()) for p in [truth, *others]))
        doc["credal"] = {"vertices": [pmf_doc(dict(zip(atoms, w))) for w in vertices]}
    else:
        constraints = []
        for _ in range(draw(st.integers(1, 2))):
            coeffs = {z: Fraction(draw(st.integers(-2, 2))) for z in atoms
                      if draw(st.booleans())}
            if not any(coeffs.values()):
                coeffs[atoms[0]] = Fraction(1)
            at_truth = sum(c * truth[z] for z, c in coeffs.items())
            rel = draw(st.sampled_from(["=", "<=", ">="]))
            slack = {"=": 0, "<=": Fraction(1, 4), ">=": Fraction(-1, 4)}[rel]
            constraints.append({"coeffs": {z: _literal(draw, c) for z, c in coeffs.items()},
                                "rel": rel, "rhs": _literal(draw, at_truth + slack)})
        doc["credal"] = {"constraints": constraints}

    plain = [name for name in ("U", "V") if kinds[name] != "vector"]
    if len(plain) == 2 and draw(st.booleans()):
        weights = _pmf(draw, atoms, positive=True)
        u, v = ([x for x, _ in tables[name]] for name in ("U", "V"))
        rows: dict = {}
        for i in range(n):
            row = rows.setdefault(_key(v[i]), {})
            row[_key(u[i])] = row.get(_key(u[i]), 0) + weights[atoms[i]]
        for row in rows.values():
            total = sum(row.values())
            for uu in row:
                row[uu] = _literal(draw, row[uu] / total)
        doc["pragmatic"] = {"conditional": {"u": "U", "v": "V", "rows": rows}}
    else:
        doc["pragmatic"] = {"joint": pmf_doc(_pmf(draw, atoms))}
    return doc


VECTORS = [(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(3)),
           (Fraction(0), Fraction(1, 4)), (Fraction(3), Fraction(0))]
#: A symbol outcome that renders like the vector outcome ``VECTORS[0]``.
LOOKALIKE = "(1,2)"
OUTCOME_POOLS = {"int": [Fraction(i) for i in range(1, 6)], "symbol": [*SYMBOLS, LOOKALIKE],
                 "vector": VECTORS}


@st.composite
def event_docs(draw):
    """An event document, and whether it holds both ``LOOKALIKE`` and the
    vector it renders like."""
    kinds = draw(st.sampled_from([["int"], ["symbol"], ["vector"], ["int", "symbol"],
                                  ["vector", "symbol"], ["int", "vector", "symbol"]]))
    pool = [x for kind in kinds for x in OUTCOME_POOLS[kind]]
    outcomes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    literals = {x: x if isinstance(x, str)
                else [_literal(draw, c) for c in x] if isinstance(x, tuple)
                else _literal(draw, x) for x in outcomes}
    prior = _pmf(draw, outcomes)
    observables = draw(st.lists(
        st.lists(st.sampled_from(outcomes), min_size=1, max_size=len(outcomes), unique=True),
        min_size=1, max_size=3))
    if draw(st.booleans()):  # one set holding every outcome, of every drawn kind
        observables.insert(0, draw(st.permutations(outcomes)))
    return {"format": 1, "events": {
        "outcomes": [literals[x] for x in outcomes],
        "prior": {_key(x): _literal(draw, p) for x, p in prior.items() if p},
        "observables": [[literals[x] for x in s] for s in observables],
    }}, LOOKALIKE in outcomes and VECTORS[0] in outcomes


FIELDS = ("space", "rvs", "credal", "pragmatic", "events")


def _round_trip(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("roundtrip")
    source = tmp / "drawn.scn"
    source.write_text(json.dumps(doc), encoding="utf-8")
    if SCHEMA is not None:
        SCHEMA.validate(doc)
    first = parse_scenario(source)
    emitted = emit_scenario(first)
    if SCHEMA is not None:
        SCHEMA.validate(json.loads(emitted))
    again = tmp / "emitted.scn"
    again.write_text(emitted, encoding="utf-8")
    second = parse_scenario(again)
    assert emit_scenario(second) == emitted
    for name in FIELDS:
        assert getattr(second, name) == getattr(first, name), name


@SETTINGS
@given(doc=checking_docs())
def test_checking_files_round_trip(tmp_path_factory, doc):
    _round_trip(tmp_path_factory, doc)


@SETTINGS
@given(drawn=event_docs())
def test_event_files_round_trip(tmp_path_factory, drawn):
    doc, clash = drawn
    if clash:
        with pytest.raises(ValidationError, match=re.escape(f"render as {LOOKALIKE}")):
            _round_trip(tmp_path_factory, doc)
    else:
        _round_trip(tmp_path_factory, doc)


def test_outcomes_that_render_alike_are_rejected(tmp_path):
    # emitted, both priors would share the key "(1,2)" and the file would
    # no longer parse
    source = tmp_path / "lookalike.scn"
    source.write_text(json.dumps({"format": 1, "events": {
        "outcomes": ["(1,2)", [1, 2]], "prior": {"(1,2)": "1"},
        "observables": [["(1,2)"], [[1, 2]]]}}), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape("two distinct outcomes render as (1,2)")):
        parse_scenario(source)

"""Differential suite: the residual evaluator against the per-mode vertex
loops it replaced (kept in ``oracles``).

Every exact notion is decided on random vertex-form instances by both
implementations; the whole verdict (``holds``, every counterexample
field with its type, ``notes``) or the raised exception must agree. The
implementation decides each residual on the signs of its integer rows
and reads the counterexample values off the same integer weights; the
oracles compute them with ``Fraction`` arithmetic on the weights. Some
instances add mixtures of the vertices as members, so both also meet
points between vertices.

One metamorphic property pins the stratified contract on the same
instances: a check stratified by W reports what the unstratified check
reports on the instance conditioned on its first failing stratum. One
more pins the compiled form itself: every exact residual is int rows
lhs, lo and hi over the atoms with a positive int scale, and its rows
are lhs - lo and, for a bracket, hi - lhs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import mix, normalized, support
from safeprob.calibration import check_calibrated_full, check_calibrated_mean
from safeprob.core import (
    CredalSet,
    OutcomeSpace,
    Pmf,
    Rv,
    condition,
    format_value,
    value_sort_key,
)
from safeprob.decisions import BRIER, CUSTOM, LOG, ZERO_ONE, LossFunction, check_decision_safety
from safeprob.errors import SafeprobError, UniquenessViolated
from safeprob.pivots import (
    PivotSpec,
    _law_residuals,
    canonical_pivot,
    check_pivotal_safety,
)
from safeprob.safety import (
    LEFT_AVERAGE,
    LEFT_FULL,
    RIGHT_ANGLE,
    RIGHT_DBLSQUARE,
    RIGHT_PLAIN,
    RIGHT_SQUARE,
    SafetyQuery,
    check_safety,
    notion_residuals,
    supported_values,
)

MODES = [(left, right) for left in (LEFT_FULL, LEFT_AVERAGE)
         for right in (RIGHT_PLAIN, RIGHT_ANGLE, RIGHT_SQUARE, RIGHT_DBLSQUARE)]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _value(x):
    return (type(x).__name__, x)


def outcome(check, *args):
    """Comparable account of a check: its verdict field by field, or the
    type and message of the error it raised."""
    try:
        verdict = check(*args)
    except SafeprobError as exc:
        return ("raises", type(exc).__name__, str(exc))
    ce = verdict.counterexample
    detail = None if ce is None else (
        None if ce.vertex is None else ce.vertex.as_tuple(),
        ce.v, ce.w, ce.u, _value(ce.lhs), _value(ce.rhs),
    )
    return (verdict.holds, detail, verdict.notes)


def _weights(draw, n, positive=False):
    low = 1 if positive else 0
    return draw(st.lists(st.integers(low, 3), min_size=n, max_size=n).filter(any))


def _labels(n):
    """Labels of n atoms taking at least two of the values 0, 1, 2."""
    return st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda ls: len(set(ls)) > 1)


@st.composite
def instances(draw, full_support=False, coarse_w=False):
    """Small vertex-form instance: target U (integer, vector with a
    fractional first coordinate, or symbol valued), conditioner V,
    stratifier W (a function of V when ``coarse_w``), a pragmatic
    distribution and one to four vertices.

    Vertices are random, or keep the pragmatic conditionals given V, or
    keep the pragmatic law of U, so that every notion both holds and
    fails on some draws. On some draws the 1/3-mixture of each vertex
    with the next (the last with the pragmatic distribution) joins the
    members, so that the checks also meet points between vertices."""
    n = draw(st.integers(3, 7))
    atoms = [f"z{i}" for i in range(n)]
    space = OutcomeSpace(atoms)
    labels = draw(_labels(n))
    kind = draw(st.sampled_from(["int", "vector", "symbol"]))
    if kind == "int":
        utable = dict(zip(atoms, labels))
    elif kind == "vector":
        utable = {z: (Fraction(k * k % 3, 2) - Fraction(1, 3), k) for z, k in zip(atoms, labels)}
    else:
        utable = {z: "abc"[k] for z, k in zip(atoms, labels)}
    u = Rv(space, "U", utable)
    vlabels = draw(_labels(n))
    v = Rv(space, "V", dict(zip(atoms, vlabels)))
    if coarse_w:
        fold = draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))
        w = Rv(space, "W", {z: fold[k] for z, k in zip(atoms, vlabels)})
    else:
        w = Rv(space, "W", dict(zip(atoms, draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n)))))
    ptilde = normalized(space, dict(zip(atoms, _weights(draw, n, full_support))))
    pt = ptilde.weights

    vertices = []
    for _ in range(draw(st.integers(1, 4))):
        style = draw(st.sampled_from(["random", "conditionals", "target-law", "pragmatic"]))
        raw = _weights(draw, n)
        if style == "conditionals":  # P(. | V) as under the pragmatic distribution
            scale = dict(zip(range(3), raw + raw[:3]))
            mass = {vv: ptilde.prob(v, vv) for vv in support(ptilde, v)}
            weights = {z: scale[v.table[z][0]] * pt[z] / mass[v.table[z]]
                       if v.table[z] in mass else 0 for z in atoms}
        elif style == "target-law":  # the pragmatic law of U, split anyhow
            weights = {}
            for z, r in zip(atoms, raw):
                level = [y for y in atoms if u.table[y] == u.table[z]]
                share = sum(raw[atoms.index(y)] for y in level)
                weights[z] = (ptilde.prob(u, u.table[z]) * Fraction(r, share) if share
                              else ptilde.prob(u, u.table[z]) / len(level))
        elif style == "pragmatic":
            weights = dict(pt)
        else:
            weights = dict(zip(atoms, raw))
        if sum(weights.values()) == 0:
            continue
        p = normalized(space, weights)
        if p not in vertices:
            vertices.append(p)
    if not vertices:
        vertices.append(ptilde)
    if draw(st.booleans()):  # members between the vertices too
        for p, q in zip(list(vertices), [*vertices[1:], ptilde]):
            between = mix(p, q, Fraction(1, 3))
            if between not in vertices:
                vertices.append(between)
    return u, v, w, ptilde, CredalSet.from_vertices(vertices)


@given(instances())
@SETTINGS
def test_safety_modes_unstratified(inst):
    u, v, _, ptilde, credal = inst
    for left, right in MODES:
        query = SafetyQuery(u, left, v, right)
        assert outcome(check_safety, query, ptilde, credal) == \
            outcome(oracles.check_safety, query, ptilde, credal), (left, right)


@given(instances())
@SETTINGS
def test_safety_modes_stratified(inst):
    u, v, w, ptilde, credal = inst
    for left, right in MODES:
        query = SafetyQuery(u, left, v, right, stratifier=w)
        assert outcome(check_safety, query, ptilde, credal) == \
            outcome(oracles.check_safety, query, ptilde, credal), (left, right)


def _compiled(u, v, w, ptilde):
    """Every residual the notions compile on the instance, unstratified and
    per stratum of w the pragmatic distribution gives mass, then the
    canonical pivot's law checks when that pivot is defined."""
    ints, n = ptilde.integer_weights(), len(ptilde.space)
    strata = [None] + [idx for idx in w.cells().values() if any(ints[i] for i in idx)]
    for left, right in MODES:
        if (left, right) == (LEFT_FULL, RIGHT_DBLSQUARE) or (
                left == LEFT_AVERAGE and not u.is_numeric):
            continue
        for stratum in strata:
            yield from notion_residuals(left, right, u, v, ptilde, stratum)
    try:
        spec = canonical_pivot(ptilde, u, v)
    except UniquenessViolated:
        return
    pivot = [spec.mapping[u.table[z], v.table[z]] for z in u.space.atoms]
    values = sorted(set(pivot), key=value_sort_key)
    cells = {**v.cells(), None: range(n)}
    yield from _law_residuals(dict(enumerate(map(values.index, pivot))), values, ints, cells)


@given(instances())
@SETTINGS
def test_compiled_residuals_are_integer_rows_over_a_scale(inst):
    """lhs, lo, hi and the rows are int lists over the atoms, the scale a
    positive int, and the rows are lhs - lo and (for a bracket) hi - lhs."""
    u, v, w, ptilde, _ = inst
    n = len(ptilde.space)
    for r in _compiled(u, v, w, ptilde):
        label = (r.v, r.u)
        assert type(r.scale) is int and r.scale > 0, label
        rows = [row for row in r.rows if row is not None]
        for row in (r.lhs, r.lo, r.hi, *rows):
            assert len(row) == n and all(type(c) is int for c in row), label
        assert r.rows[0] == [a - b for a, b in zip(r.lhs, r.lo)], label
        assert r.rows[1] == (None if r.lo is r.hi else [b - a for a, b in zip(r.lhs, r.hi)]), label


def _first_failing_stratum(u, v, w, ptilde, credal, left, right):
    """The first vertex-supported stratum value whose conditioned instance
    fails the unstratified check, with that check's counterexample."""
    verts = credal.vertex_list()
    for wv in supported_values(w, verts):
        kept = dict.fromkeys(condition(p, w, wv) for p in verts if p.prob(w, wv))
        verdict = check_safety(SafetyQuery(u, left, v, right), condition(ptilde, w, wv),
                               CredalSet.from_vertices(kept))
        if not verdict.holds:
            return wv, verdict.counterexample
    return None


@given(instances())
@SETTINGS
def test_stratified_check_is_the_check_on_each_conditioned_stratum(inst):
    """The counterexample names the unconditioned vertex, with the values
    (v, u, lhs, rhs) of its conditional on the stratum."""
    u, v, w, ptilde, credal = inst
    for left, right in MODES:
        try:
            verdict = check_safety(SafetyQuery(u, left, v, right, stratifier=w), ptilde, credal)
        except SafeprobError:
            continue
        failing = _first_failing_stratum(u, v, w, ptilde, credal, left, right)
        assert verdict.holds == (failing is None), (left, right)
        if failing is not None:
            wv, inner = failing
            ce = verdict.counterexample
            assert (ce.w, ce.v, ce.u, _value(ce.lhs), _value(ce.rhs)) == \
                (wv, inner.v, inner.u, _value(inner.lhs), _value(inner.rhs)), (left, right)
            assert condition(ce.vertex, w, wv) == inner.vertex, (left, right)


@given(instances())
@SETTINGS
def test_calibration(inst):
    u, v, _, ptilde, credal = inst
    for mine, reference in ((check_calibrated_full, oracles.check_calibrated_full),
                            (check_calibrated_mean, oracles.check_calibrated_mean)):
        assert outcome(mine, u, v, ptilde, credal) == \
            outcome(reference, u, v, ptilde, credal), mine.__name__


def _custom_loss(u: Rv, miss, abstain) -> LossFunction:
    outcomes = u.range()
    table = {}
    for i, outcome_value in enumerate(outcomes):
        for k in range(len(outcomes)):
            table[(outcome_value, f"act{k}")] = 0 if i == k else miss
        table[(outcome_value, "abstain")] = abstain
    return LossFunction(CUSTOM, custom_table=table)


@given(instances(), st.sampled_from([1, 2, math.inf]), st.sampled_from(["1/2", "1", "3"]))
@SETTINGS
def test_decisions(inst, miss, abstain):
    u, v, _, ptilde, credal = inst
    losses = [LossFunction(ZERO_ONE), LossFunction(ZERO_ONE, randomized=True),
              LossFunction(BRIER), LossFunction(LOG), _custom_loss(u, miss, abstain)]
    for loss in losses:
        assert outcome(check_decision_safety, ptilde, u, v, loss, credal) == \
            _as_reported(outcome(oracles.check_decision_safety, ptilde, u, v, loss, credal),
                         u, v), loss.kind


def _as_reported(reference, u: Rv, v: Rv):
    """The oracle's account with the tie notes and believed-loss messages
    printing values as reports do."""
    def rewrite(text):
        for vv in v.range():
            text = text.replace(f"value {vv!r} broken", f"value {format_value(vv)} broken")
            text = text.replace(f"value {vv!r}, outcome", f"value {format_value(vv)}, outcome")
        if text.startswith("believed loss infinite"):
            for uu in u.range():
                text = text.replace(f"outcome {uu!r}", f"outcome {format_value(uu)}")
        return text

    if reference[0] == "raises":
        return reference[:2] + (rewrite(reference[2]),)
    return reference[:2] + (tuple(map(rewrite, reference[2])),)


def _pivot_specs(draw, ptilde, u, v):
    try:
        yield canonical_pivot(ptilde, u, v)
    except UniquenessViolated:
        pass
    cells = sorted({(u.table[z], v.table[z]) for z in u.space.atoms}, key=repr)
    values = draw(st.lists(st.integers(0, 2), min_size=len(cells), max_size=len(cells)))
    yield PivotSpec("drawn", {cell: (Fraction(k),) for cell, k in zip(cells, values)})


def _law_twin(p: Pmf, spec: PivotSpec, u: Rv, v: Rv, w: Rv):
    """A second vertex with p's pivot law in every stratum of w: the
    weights of two atoms sharing pivot and stratum value are swapped."""
    atoms = p.space.atoms
    key = {z: (spec.mapping[(u.table[z], v.table[z])], w.table[z]) for z in atoms}
    for i, y in enumerate(atoms):
        for z in atoms[i + 1:]:
            if key[y] == key[z] and p.weights[y] != p.weights[z]:
                return Pmf(p.space, dict(p.weights, **{y: p.weights[z], z: p.weights[y]}))
    return None


def _pivot_outcomes(ptilde, u, v, spec, credal, w):
    mine = outcome(check_pivotal_safety, ptilde, u, v, spec, credal, w)
    reference = outcome(oracles.check_pivotal_safety, ptilde, u, v, spec, credal, w)
    if w is not None and reference[0] != "raises":  # stratum notes print values as reports do
        notes = reference[2]
        for wv in w.range():
            notes = tuple(n.replace(f"={wv!r}:", f"={format_value(wv)}:") for n in notes)
        reference = reference[:2] + (notes,)
    if reference[0] == "raises" and ("not injective" in reference[2]
                                     or "undefined at cell" in reference[2]):
        text = reference[2]  # cells and values print as reports do
        for x in [*itertools.product(u.range(), v.range()),
                  *u.range(), *v.range(), *spec.mapping.values()]:
            text = text.replace(repr(x), format_value(x))
        reference = reference[:2] + (text,)
    return mine, reference


@given(instances(full_support=True, coarse_w=True), st.data())
@SETTINGS
def test_pivots(inst, data):
    u, v, w, ptilde, credal = inst
    for spec in _pivot_specs(data.draw, ptilde, u, v):
        credals = [credal]
        first = credal.vertices[0]
        twin = _law_twin(first, spec, u, v, w) if set(spec.mapping) >= {
            (u.table[z], v.table[z]) for z in u.space.atoms} else None
        if twin is not None:  # members agreeing on a law the pragmatic one may miss
            credals.append(CredalSet.from_vertices([first, twin]))
        for members in credals:
            for stratifier in (None, w):
                mine, reference = _pivot_outcomes(ptilde, u, v, spec, members, stratifier)
                assert mine == reference, (spec.name, stratifier)

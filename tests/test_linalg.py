"""Differential and metamorphic suite for exact credal geometry.

The integer elimination kernel (``_linalg``) and the basis enumerator
(``core.enumerate_vertices``) are compared against the ``Fraction``
kernel and the full-width enumerator they replaced (kept in
``oracles``): the same ``(status, x)`` and rank on random rectangular
systems, the same vertex list in the same order, and the same error on
random constraint polytopes. The metamorphic tests check invariances the
vertex set must have whatever computes it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from safeprob._linalg import INCONSISTENT, UNDERDETERMINED, UNIQUE, matrix_rank, solve_linear
from safeprob.core import LinearConstraint, OutcomeSpace, enumerate_vertices
from safeprob.errors import SafeprobError

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
POLYTOPES = settings(max_examples=150, deadline=None, derandomize=True)

small = st.integers(-3, 3)
wide = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
entries = st.one_of(st.just(0), small, st.builds(Fraction, small, st.integers(1, 7)), wide)


def _combine(draw, rows: list, ncols: int) -> list:
    """A rational combination of ``rows`` (zero when there are none)."""
    out = [Fraction(0)] * ncols
    for row in rows:
        k = draw(st.builds(Fraction, small, st.integers(1, 5)))
        out = [o + k * x for o, x in zip(out, row)]
    return out


@st.composite
def systems(draw):
    """A rectangular system ``(a, b)``: square, wide or tall; full rank,
    rank-deficient (rows combined from earlier rows) or zero; right-hand
    side consistent by construction, random, or pushed off the row span."""
    ncols = draw(st.integers(1, 6))
    nrows = {"square": ncols, "wide": draw(st.integers(0, ncols - 1)) if ncols > 1 else 0,
             "tall": draw(st.integers(ncols + 1, ncols + 3))}[
        draw(st.sampled_from(["square", "wide", "tall"]))]
    kind = draw(st.sampled_from(["random", "deficient", "zero"]))
    a = []
    for i in range(nrows):
        if kind == "zero":
            a.append([0] * ncols)
        elif kind == "deficient" and i >= 1 and draw(st.booleans()):
            a.append(_combine(draw, a[:i], ncols))
        else:
            a.append([draw(entries) for _ in range(ncols)])
    if a and draw(st.booleans()):  # zero or negative leading entry
        a[0][0] = draw(st.sampled_from([0, -1, Fraction(-7, 10**6)]))
    rhs = draw(st.sampled_from(["consistent", "random", "off"]))
    if rhs == "random":
        b = [draw(entries) for _ in range(nrows)]
    else:
        x0 = [draw(entries) for _ in range(ncols)]
        b = [sum((c * x for c, x in zip(row, x0)), Fraction(0)) for row in a]
        if rhs == "off" and b:
            b[-1] += draw(st.sampled_from([1, Fraction(1, 10**6)]))
    return a, b


@given(systems())
@SETTINGS
def test_solve_linear_matches_oracle(system):
    a, b = system
    got = solve_linear(a, b)
    assert got == oracles.solve_linear(a, b)
    if got[1] is not None:
        assert all(type(x) is Fraction for x in got[1])


@given(systems())
@SETTINGS
def test_matrix_rank_matches_oracle(system):
    a, _ = system
    assert matrix_rank(a) == oracles.matrix_rank(a)


@pytest.mark.parametrize("a, b, expected", [
    ([[0, 1], [1, 0]], [2, 3], (UNIQUE, (Fraction(3), Fraction(2)))),
    ([[-2, 4], [1, 1]], [2, 2], (UNIQUE, (Fraction(1), Fraction(1)))),
    ([[Fraction(1, 10**6), 1], [1, 1]], [1, 2],
     (UNIQUE, (Fraction(10**6, 999999), Fraction(999998, 999999)))),
    ([[1, 2], [2, 4]], [1, 3], (INCONSISTENT, None)),
    ([[1, 2], [2, 4]], [1, 2], (UNDERDETERMINED, None)),
    ([[0, 0], [0, 0]], [0, 0], (UNDERDETERMINED, None)),
    ([[0, 0]], [1], (INCONSISTENT, None)),
    ([[1], [2], [3]], [1, 2, 3], (UNIQUE, (Fraction(1),))),
    ([], [], (UNIQUE, ())),
])
def test_solve_linear_cases(a, b, expected):
    assert solve_linear(a, b) == expected == oracles.solve_linear(a, b)


def _enumerated(enumerate_fn, constraints, space):
    """Vertex weight vectors in returned order, or the error raised."""
    try:
        return [p.as_tuple() for p in enumerate_fn(constraints, space)]
    except SafeprobError as exc:
        return ("raises", type(exc).__name__, str(exc))


def _dot(coeffs: dict, point: dict) -> Fraction:
    return sum((c * point[z] for z, c in coeffs.items()), Fraction(0))


@st.composite
def polytopes(draw):
    """Constraints over 2-6 atoms: equalities (some dependent on earlier
    ones or on the simplex row) and ``<=``/``>=`` inequalities, mostly
    built around a random distribution so that both feasible and empty
    polytopes occur."""
    n = draw(st.integers(2, 6))
    atoms = [f"z{i}" for i in range(n)]
    raw = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    point = {z: Fraction(w, sum(raw)) for z, w in zip(atoms, raw)}
    anchored = draw(st.booleans()) or draw(st.booleans())
    coeff = st.sampled_from([0, 0, 1, 1, 2, -1, Fraction(1, 2), Fraction(-3, 4)])
    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = dict(zip(atoms, draw(st.lists(coeff, min_size=n, max_size=n).filter(any))))
        relation = draw(st.sampled_from(["=", "<=", ">="]))
        equalities = [c for c in constraints if c.relation == "="]
        if relation == "=" and equalities and draw(st.booleans()):  # dependent equality
            base = draw(st.sampled_from(equalities))
            k = draw(st.sampled_from([2, Fraction(-1, 3)]))
            shift = draw(st.sampled_from([0, 1]))  # plus a multiple of the simplex row
            coeffs = {z: k * base.coeffs.get(z, 0) + shift for z in atoms}
            rhs = k * base.rhs + shift
            if not any(coeffs.values()):
                continue
            if anchored or draw(st.booleans()):
                constraints.append(LinearConstraint(coeffs, relation, rhs))
                continue
        value = _dot(coeffs, point)
        if anchored:
            slack = draw(st.sampled_from([0, Fraction(1, 5), 1]))
            rhs = value + {"=": 0, "<=": slack, ">=": -slack}[relation]
        else:
            rhs = draw(st.sampled_from([-1, 0, Fraction(1, 3), 1, 2]))
        constraints.append(LinearConstraint(coeffs, relation, rhs))
    return constraints, OutcomeSpace(atoms)


@given(polytopes())
@POLYTOPES
def test_enumerate_vertices_matches_oracle(polytope):
    constraints, space = polytope
    assert _enumerated(enumerate_vertices, constraints, space) == \
        _enumerated(oracles.enumerate_vertices, constraints, space)


def test_degenerate_vertex_is_listed_once():
    # (1/2, 1/2, 0) makes three rows tight (both caps and c >= 0) where a
    # basis takes two, so three bases reach it; it is listed once
    space = OutcomeSpace(["a", "b", "c"])
    half = Fraction(1, 2)
    constraints = [LinearConstraint({"a": 1}, "<=", half), LinearConstraint({"b": 1}, "<=", half)]
    got = _enumerated(enumerate_vertices, constraints, space)
    assert got == _enumerated(oracles.enumerate_vertices, constraints, space)
    assert got == [(half, half, 0), (half, 0, half), (0, half, half), (0, 0, 1)]


def _scaled(c: LinearConstraint, k: Fraction) -> LinearConstraint:
    return LinearConstraint({z: k * v for z, v in c.coeffs.items()}, c.relation, k * c.rhs)


@given(polytopes(), st.data())
@POLYTOPES
def test_scaling_a_constraint_changes_nothing(polytope, data):
    constraints, space = polytope
    if not constraints:
        return
    i = data.draw(st.integers(0, len(constraints) - 1))
    k = data.draw(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)))
    scaled = constraints[:i] + [_scaled(constraints[i], k)] + constraints[i + 1:]
    assert _enumerated(enumerate_vertices, scaled, space) == \
        _enumerated(enumerate_vertices, constraints, space)


@given(polytopes(), st.data())
@POLYTOPES
def test_redundant_constraint_changes_nothing(polytope, data):
    constraints, space = polytope
    everything = {z: 1 for z in space.atoms}
    redundant = [LinearConstraint(everything, "<=", 1), LinearConstraint(everything, ">=", 0),
                 LinearConstraint({space.atoms[0]: 1}, "<=", 2)]
    redundant += [_scaled(c, Fraction(5, 3)) for c in constraints]
    extra = data.draw(st.sampled_from(redundant))
    assert _enumerated(enumerate_vertices, constraints + [extra], space) == \
        _enumerated(enumerate_vertices, constraints, space)


@given(polytopes(), st.randoms(use_true_random=False))
@POLYTOPES
def test_permuting_atoms_permutes_vertices(polytope, rng):
    constraints, space = polytope
    atoms = list(space.atoms)
    rng.shuffle(atoms)
    permuted = OutcomeSpace(atoms)

    def vertex_set(space):
        try:
            return {frozenset(p.weights.items()) for p in enumerate_vertices(constraints, space)}
        except SafeprobError as exc:
            return type(exc).__name__

    assert vertex_set(permuted) == vertex_set(space)

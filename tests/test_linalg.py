"""Differential and metamorphic suite for exact credal geometry.

The fraction-free elimination kernel (``_linalg``) and the basis
enumerator (``core.enumerate_vertices``) are compared against the
``Fraction`` kernel and the full-width enumerator they replaced (kept in
``oracles``): on random rectangular systems, with each augmented row
``[a_i | b_i]`` (for the rank, each row ``a_i``) scaled to integers,
the same status and rank, and a unique solution whose integer
numerators over the positive common denominator are the oracle's
``x``; on random constraint polytopes, the
same vertex list in the same order, the same error, and one solve per
basis. The reduction itself is compared, row for row, with the Bareiss
reduction it replaced (``oracles.bareiss_rref``), on the random systems
and on square integer systems that are regular, singular or
inconsistent. Fixed cases pin the fraction-free invariants: every
reduced pivot row is the last pivot times the oracle's reduced row, also
across a column without a pivot and for rows with a 0 in the pivot
column, and the denominator is made positive. Each enumerated vertex is
the ``Pmf`` its weights build. The metamorphic tests check invariances
the vertex set must have whatever computes it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from safeprob import core
from safeprob._linalg import (INCONSISTENT, UNDERDETERMINED, UNIQUE, _rref, integer_row,
                              matrix_rank, solve_linear)
from safeprob.core import LinearConstraint, OutcomeSpace, Pmf, enumerate_vertices
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


def _solved(a: list, b: list) -> tuple:
    """``solve_linear`` on ``a @ x = b`` with each augmented row scaled to
    integers, as ``(status, x)`` with ``x`` rational or None."""
    aug = [integer_row([*row, v]) for row, v in zip(a, b)]
    status, nums, den = solve_linear([row[:-1] for row in aug], [row[-1] for row in aug])
    if status != UNIQUE:
        assert nums is None and den is None
        return status, None
    assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
    return status, tuple(Fraction(v, den) for v in nums)


@given(systems())
@SETTINGS
def test_solve_linear_matches_oracle(system):
    a, b = system
    assert _solved(a, b) == oracles.solve_linear(a, b)


@given(systems())
@SETTINGS
def test_matrix_rank_matches_oracle(system):
    a, _ = system
    assert matrix_rank([integer_row(row) for row in a]) == oracles.matrix_rank(a)


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
    # denominators up to 10**6 in every row
    ([[Fraction(3, 999_983), Fraction(-1, 10**6)], [Fraction(7, 10**6), 1]],
     [Fraction(1, 999_979), Fraction(2, 3)],
     (UNIQUE, (Fraction(4999873000714000000, 8999831999202007497),
               Fraction(1999951000119000000, 2999943999734002499)))),
    ([[Fraction(1, 10**6), 0, 1], [0, Fraction(1, 999_999), 1], [1, 1, Fraction(1, 10**6)]],
     [1, 2, 3],
     (UNIQUE, (Fraction(-999996000001000000, 1999998999999), Fraction(1000002999998, 2000001),
               Fraction(2999995000000, 1999998999999)))),
])
def test_solve_linear_cases(a, b, expected):
    assert _solved(a, b) == expected == oracles.solve_linear(a, b)


def _reduced(rows: list) -> tuple[list, list, int]:
    """``_rref`` on copies of the integer ``rows``: the pivot columns, the
    reduced rows and the last pivot."""
    rows = [list(row) for row in rows]
    pivot_cols, den = _rref(rows, len(rows[0]) - 1)
    return pivot_cols, rows, den


@pytest.mark.parametrize("rows, pivot_cols, reduced, den", [
    # column 1 has no pivot: the pivot of column 2 still divides by 2,
    # the last pivot used, not by 1
    ([[2, 1, 1, 1], [4, 2, 5, 3]], [0, 2], [[6, 3, 0, 2], [0, 0, 6, 2]], 6),
    # rows with a 0 in the pivot column are scaled by d / prev as well
    ([[2, 0, 4], [0, 3, 6]], [0, 1], [[6, 0, 12], [0, 6, 12]], 6),
    ([[0, 2, 0, 2], [3, 0, 0, 3], [0, 0, 5, 5]], [0, 1, 2],
     [[30, 0, 0, 30], [0, 30, 0, 30], [0, 0, 30, 30]], 30),
    # a row below the rank keeps its right-hand side, divided exactly
    ([[1, 2, 3], [2, 4, 7], [1, 1, 1]], [0, 1], [[-1, 0, 1], [0, -1, -2], [0, 0, -1]], -1),
])
def test_rref_pivot_rows_are_the_last_pivot_times_the_reduced_rows(rows, pivot_cols, reduced, den):
    assert _reduced(rows) == (pivot_cols, reduced, den)
    oracle_rows = [list(map(Fraction, row)) for row in rows]
    oracles._rref(oracle_rows, len(rows[0]) - 1)
    for got, want in zip(reduced[:len(pivot_cols)], oracle_rows):
        assert got == [den * v for v in want]


@given(systems())
@SETTINGS
def test_rref_entries_are_exact_multiples_of_the_oracle(system):
    a, b = system
    rows = [integer_row([*row, v]) for row, v in zip(a, b)]
    if not rows:
        return
    oracle_rows = [list(map(Fraction, row)) for row in rows]
    oracle_cols = oracles._rref(oracle_rows, len(rows[0]) - 1)
    pivot_cols, reduced, den = _reduced(rows)
    assert pivot_cols == oracle_cols
    assert all(reduced[i][c] == den for i, c in enumerate(pivot_cols))
    for got, want in zip(reduced, oracle_rows[:len(pivot_cols)]):
        assert got == [den * v for v in want]


@st.composite
def square_integer_systems(draw):
    """An augmented n x (n + 1) integer system ``[a | b]``, 2 <= n <= 5:
    random, or singular with rows combined from earlier ones and a
    right-hand side that is consistent or pushed off the row span."""
    n = draw(st.integers(2, 5))
    ints = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    rows = [[draw(ints) for _ in range(n + 1)] for _ in range(n)]
    if draw(st.booleans()):  # singular
        for i in range(1, n):
            if i == n - 1 or draw(st.booleans()):
                ks = [draw(st.integers(-3, 3)) for _ in range(i)]
                rows[i] = [sum(k * row[j] for k, row in zip(ks, rows)) for j in range(n + 1)]
                if draw(st.booleans()):  # inconsistent
                    rows[i][n] += draw(st.sampled_from([1, -7]))
    return rows


def _both_rrefs(rows: list) -> None:
    """``_rref`` and the reduction it replaced give the same pivot columns,
    every reduced row and the same last pivot."""
    ncols = len(rows[0]) - 1 if rows else 0
    mine, theirs = [list(row) for row in rows], [list(row) for row in rows]
    assert (_rref(mine, ncols), mine) == (oracles.bareiss_rref(theirs, ncols), theirs)


@given(systems())
@SETTINGS
def test_rref_matches_the_bareiss_oracle(system):
    a, b = system
    _both_rrefs([integer_row([*row, v]) for row, v in zip(a, b)])


@given(square_integer_systems())
@SETTINGS
def test_rref_matches_the_bareiss_oracle_on_square_systems(rows):
    _both_rrefs(rows)


@pytest.mark.parametrize("a, b, expected", [
    ([[1, 1], [1, -1]], [3, 1], (UNIQUE, [4, 2], 2)),  # last pivot -2
    ([[-1]], [2], (UNIQUE, [-2], 1)),  # last pivot -1
    ([[2, 0], [0, 3]], [4, 6], (UNIQUE, [12, 12], 6)),
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], (INCONSISTENT, None, None)),
    ([[1, 0], [0, 1], [1, 1], [2, 0]], [1, 1, 2, 2], (UNIQUE, [1, 1], 1)),
    ([[0, 0], [0, 1], [0, 2]], [0, 1, 2], (UNDERDETERMINED, None, None)),
    ([[1, 2, 3]], [1], (UNDERDETERMINED, None, None)),
    ([[1, 2, 3], [2, 4, 6]], [1, 3], (INCONSISTENT, None, None)),
    ([[10**6, 999_999], [1, 1]], [500_000, 1], (UNIQUE, [-499_999, 500_000], 1)),
])
def test_solve_linear_raw(a, b, expected):
    assert solve_linear(a, b) == expected


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


@given(polytopes())
@POLYTOPES
def test_one_solve_per_basis(polytope):
    # k = n - rank(equalities) tight rows among m inequalities and n facets
    constraints, space = polytope
    n, calls, solve = len(space.atoms), [0], core.solve_linear

    def counted(a, b):
        calls[0] += 1
        return solve(a, b)

    core.solve_linear = counted
    try:
        _enumerated(enumerate_vertices, constraints, space)
    finally:
        core.solve_linear = solve
    equalities = [[c.coeffs.get(z, 0) for z in space.atoms] for c in constraints if c.relation == "="]
    k = n - oracles.matrix_rank([[1] * n, *equalities])
    m = sum(c.relation != "=" for c in constraints)
    assert calls[0] == comb(m + n, k)


@given(polytopes())
@POLYTOPES
def test_enumerated_vertices_are_the_pmfs_of_their_weights(polytope):
    # each vertex is built from its integer key and scale; the lcm and the
    # integer weights ``Pmf`` would compute from its weights are the same
    constraints, space = polytope
    try:
        vertices = enumerate_vertices(constraints, space)
    except SafeprobError:
        return
    for p in vertices:
        assert vars(p) == vars(Pmf(space, dict(p.weights)))
        assert all(type(w) is Fraction for w in p.as_tuple())
        assert all(type(v) is int for v in p.integer_weights())


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

"""Differential and metamorphic suite for ``safety.hull_membership``.

The basis search runs in its integer cone form on a hull compiled once
(``safety.compile_hull``); every case here passes probability maps
through ``conftest.map_hull_membership``, which builds the integer
columns and appends the constant-1 coordinate exactly when some map does
not sum to 1. It is compared against the subset search it replaced (kept
in ``oracles``, solving on the ``Fraction`` kernel): the same boolean on
random hulls of 2-6 values and 1-12 generators, with points that are
mixtures, generators or arbitrary maps, duplicate and rank-deficient
generator sets, keys missing or set to 0, and unnormalised maps (where
the sum-to-one coordinate must stay). The number of ``solve_linear``
calls is counted on both sides: with m distinct generators (repeats are
dropped when the hull is compiled) the basis search solves at most
C(m, rank) systems, exactly that many when the point is outside, and
then no more than the oracle. An inside point may cost more solves than
the oracle spent: its first feasible support can be small while many
bases before any basis containing it are singular or negative. Last,
``check_safety`` on ``dist-range`` calls ``safety.hull_membership`` once
per scanned vertex and stratum, every solve runs inside that call, and
each call solves as many systems as the map form on the vertex's law:
the benchmark's traced run times the search through those two names.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import point_mass, value_pmf
from conftest import map_hull_membership as hull_membership
from conftest import rational_pmf
from safeprob import safety
from safeprob.core import CredalSet, OutcomeSpace, Pmf, Rv, condition, conditional_table
from safeprob.safety import LEFT_FULL, RIGHT_DBLSQUARE, SafetyQuery, check_safety

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

weights = st.integers(0, 4)
scales = st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(2)])


@contextlib.contextmanager
def counting(module):
    """Counts the calls ``module`` makes to its ``solve_linear``."""
    calls = [0]
    solve = module.solve_linear

    def counted(*system):
        calls[0] += 1
        return solve(*system)

    module.solve_linear = counted
    try:
        yield calls
    finally:
        module.solve_linear = solve


def solves(module, point, generators) -> tuple[bool, int]:
    """The answer of ``module``'s search (``safety``'s in map form) and its
    number of solves."""
    search = hull_membership if module is safety else module.hull_membership
    with counting(module) as calls:
        return search(point, generators), calls[0]


def distinct(generators) -> int:
    """Number of distinct generators; a missing key and a 0 are the same."""
    values = {v for g in generators for v in g}
    return len({tuple(Fraction(g.get(v, 0)) for v in values) for g in generators})


def rank_of(point, generators) -> int:
    """Rank of the generator columns stacked on the sum-to-one row."""
    values = sorted({v for g in (point, *generators) for v in g})
    a = [[Fraction(g.get(val, 0)) for g in generators] for val in values]
    return oracles.matrix_rank([*a, [Fraction(1)] * len(generators)])


def _as_map(draw, values, ws) -> dict:
    """The pmf with integer weights ``ws``; a zero weight is left out or
    stored as 0."""
    total = sum(ws)
    return {val: Fraction(w, total) for val, w in zip(values, ws) if w or draw(st.booleans())}


def _mix(ws, maps, values) -> dict:
    total = sum(ws)
    return {val: sum((Fraction(w, total) * g.get(val, 0) for w, g in zip(ws, maps)), Fraction(0))
            for val in values}


def _nonzero(n):
    return st.lists(weights, min_size=n, max_size=n).filter(any)


@st.composite
def hulls(draw):
    """``(point, generators)`` over 2-6 values with 1-12 generators."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 12))
    values = [(Fraction(i),) for i in range(n)]
    if draw(st.booleans()):  # rank-deficient: mixtures of a few base maps
        bases = [_as_map(draw, values, draw(_nonzero(n)))
                 for _ in range(draw(st.integers(1, max(1, n - 2))))]
        gens = [_mix(draw(_nonzero(len(bases))), bases, values) for _ in range(m)]
    else:
        gens = [_as_map(draw, values, draw(_nonzero(n))) for _ in range(m)]
    for i in range(1, m):  # duplicates
        if draw(st.integers(0, 4)) == 0:
            gens[i] = dict(gens[draw(st.integers(0, i - 1))])
    kind = draw(st.sampled_from(["mixture", "generator", "outside"]))
    if kind == "mixture":
        point = _mix(draw(_nonzero(m)), gens, values)
    elif kind == "generator":
        point = dict(gens[draw(st.integers(0, m - 1))])
    else:
        point = _as_map(draw, values, draw(_nonzero(n)))
    if draw(st.integers(0, 3)) == 0:  # unnormalised: the sum-to-one row must stay
        scale = draw(scales)
        target = draw(st.sampled_from(["point", "one generator", "all"]))
        if target != "one generator":
            point = {val: x * scale for val, x in point.items()}
        if target != "point":
            for i in range(m) if target == "all" else [draw(st.integers(0, m - 1))]:
                gens[i] = {val: x * scale for val, x in gens[i].items()}
    return point, gens


@given(hulls())
@SETTINGS
def test_matches_oracle_within_the_solve_budget(case):
    point, gens = case
    got, mine = solves(safety, point, gens)
    want, theirs = solves(oracles, point, gens)
    assert got == want
    budget = comb(distinct(gens), rank_of(point, gens))
    assert mine <= budget
    if not got:
        assert mine == budget <= theirs


@given(hulls(), st.randoms(use_true_random=False))
@SETTINGS
def test_metamorphic(case, rng):
    point, gens = case
    want = hull_membership(point, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert hull_membership(point, shuffled) == want
    assert hull_membership(point, [*gens, rng.choice(gens)]) == want
    assert hull_membership(point, [*gens, point])


H = Fraction(1, 2)


def test_unnormalised_point_keeps_the_sum_row():
    g = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    assert not hull_membership({0: H, 1: Fraction(3, 2)}, [g, {0: H, 1: H}])
    # a generator of mass 1/2: only its own multiple with weight 1 is inside
    half = {0: Fraction(1, 4), 1: Fraction(1, 4)}
    assert hull_membership({0: Fraction(1, 4), 1: Fraction(1, 4)}, [half])
    assert not hull_membership({0: Fraction(1, 8), 1: Fraction(1, 8)}, [half])


def test_empty_and_zero_maps():
    assert not hull_membership({0: Fraction(1)}, [])
    assert hull_membership({}, [{}])
    assert hull_membership({0: Fraction(0)}, [{}, {0: Fraction(1)}])
    assert not hull_membership({0: Fraction(1)}, [{}, {0: Fraction(0)}])


def test_inside_point_found_among_bases():
    # the point equal to generator 3 is found at basis (0, 1, 3), the
    # second basis, instead of at the fourth singleton
    gens = [
        {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)},
        {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
        {0: H, 1: Fraction(1, 4), 2: Fraction(1, 4)},
        {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)},
    ]
    assert solves(safety, gens[3], gens) == (True, 2)
    assert solves(oracles, gens[3], gens) == (True, 4)


def test_duplicates_cost_no_more_solves_than_distinct_generators():
    # six copies of one generator made every basis through two of them
    # singular (21 solves before the point was found); with repeats dropped
    # the three distinct generators form the one basis
    g, f, h = ({0: Fraction(1), 1: Fraction(0), 2: Fraction(0)},
               {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
               {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)})
    gens = [g] * 6 + [f, h]
    assert solves(oracles, h, gens) == (True, 8)
    assert solves(safety, h, gens) == solves(safety, h, [g, f, h]) == (True, 1)
    # a repeat written with an explicit zero is the same generator
    assert solves(safety, h, [g, {0: Fraction(1)}, f, h]) == (True, 1)


def _dist_range_instance():
    """U (3 values), V (5) and W (2) on a grid, a fully supported pragmatic
    distribution whose conditionals given (V, W) agree for V = 0 and V = 4
    (so each stratum repeats a generator), and five
    vertices: four keep its conditionals given (V, W), so their laws lie
    inside every hull (the fourth leaves W = 1 without mass), and the
    last is a point mass in W = 1, outside."""
    rng = random.Random(13)
    atoms = [f"u{i}v{j}w{k}" for i in range(3) for j in range(5) for k in range(2)]
    space = OutcomeSpace(atoms)
    u, v, w = (Rv(space, name, {z: int(z[pos]) for z in atoms})
               for name, pos in (("U", 1), ("V", 3), ("W", 5)))
    cells = [(j, k) for j in range(5) for k in range(2)]
    rows = {cell: rational_pmf(rng, range(3)) for cell in cells}
    rows[4, 0], rows[4, 1] = rows[0, 0], rows[0, 1]  # a repeated generator

    def keeping_rows(marginal):
        cell = {z: (int(z[3]), int(z[5])) for z in atoms}
        return Pmf(space, {z: marginal[cell[z]] * rows[cell[z]][int(z[1])] for z in atoms})

    ptilde = keeping_rows(rational_pmf(rng, cells))
    vertices = [keeping_rows(rational_pmf(rng, cells, full_support=False)) for _ in range(3)]
    vertices.append(keeping_rows({cell: Fraction(cell[1] == 0, 5) for cell in cells}))
    vertices.append(point_mass(space, "u0v0w1"))
    return u, v, w, ptilde, CredalSet.from_vertices(vertices)


@pytest.mark.parametrize("stratified", [False, True])
def test_check_safety_searches_each_vertex_once_per_stratum(monkeypatch, stratified):
    # the benchmark's tracer times safety.hull_membership and the solves
    # under it: each scanned vertex (per stratum) is one call, every solve
    # runs inside a call, and each call solves what the map form does on
    # that vertex's law against the pragmatic conditionals
    u, v, w, ptilde, credal = _dist_range_instance()
    verts = credal.vertex_list()
    strata = ([(ptilde, verts)] if not stratified else
              [(condition(ptilde, w, wv), [condition(p, w, wv) for p in verts if p.prob(w, wv)])
               for wv in w.range()])
    expected = []
    for pt, laws in strata:
        table = conditional_table(pt, u, v)
        gens = [row for val, row in table.rows.items() if val not in table.arbitrary_rows]
        expected += [solves(safety, value_pmf(p, u), gens) for p in laws]
    # the scan stops at the first vertex outside its hull
    expected = expected[:1 + [found for found, _ in expected].index(False)]

    calls, outside = [], [0]
    member, solve = safety.hull_membership, safety.solve_linear

    def counted_member(point, hull):
        calls.append([None, 0])
        calls[-1][0] = member(point, hull)
        return calls[-1][0]

    def counted_solve(aug):
        if calls and calls[-1][0] is None:
            calls[-1][1] += 1
        else:
            outside[0] += 1
        return solve(aug)

    monkeypatch.setattr(safety, "hull_membership", counted_member)
    monkeypatch.setattr(safety, "solve_linear", counted_solve)
    query = SafetyQuery(u, LEFT_FULL, v, RIGHT_DBLSQUARE, stratifier=w if stratified else None)
    verdict = check_safety(query, ptilde, credal)
    assert outside == [0]
    assert [tuple(call) for call in calls] == expected
    assert not verdict.holds and len(calls) == (8 if stratified else 5)

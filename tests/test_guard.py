"""Differential suite: the atom-index guard, stratum list and conditional
table against the value-set forms they replaced (kept in ``oracles``).

Instances are small vertex-form credal sets whose pragmatic distribution
and vertices leave atoms without mass, with numeric, vector and symbol
conditioners and joint (V, W) conditioners, so the guard both holds and
fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import normalized, point_mass, support
from safeprob.core import (
    CredalSet,
    OutcomeSpace,
    Pmf,
    Rv,
    conditional_table,
    essentially_unique,
    joint_rv,
)
from safeprob.safety import supported_values

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _pmf(draw, space, positive=False):
    n = len(space)
    weights = draw(st.lists(st.integers(1 if positive else 0, 3), min_size=n, max_size=n)
                   .filter(any))
    return normalized(space, dict(zip(space.atoms, weights)))


def _rv(draw, space, name, kind):
    n = len(space)
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if kind == "int":
        table = dict(zip(space.atoms, labels))
    elif kind == "vector":
        table = {z: (k, Fraction(k, 2)) for z, k in zip(space.atoms, labels)}
    else:
        table = {z: "xyz"[k] for z, k in zip(space.atoms, labels)}
    return Rv(space, name, table)


@st.composite
def instances(draw):
    """Target U, conditioner (V, or the pair (V, W)), stratifier W, a
    pragmatic distribution and one to five distinct vertices, all with
    zero-weight atoms allowed."""
    n = draw(st.integers(2, 8))
    space = OutcomeSpace([f"z{i}" for i in range(n)])
    u = _rv(draw, space, "U", draw(st.sampled_from(["int", "vector", "symbol"])))
    v = _rv(draw, space, "V", draw(st.sampled_from(["int", "vector", "symbol"])))
    w = _rv(draw, space, "W", draw(st.sampled_from(["int", "symbol"])))
    if draw(st.booleans()):
        v = joint_rv(v, w)
    ptilde = _pmf(draw, space)
    vertices = []
    for _ in range(draw(st.integers(1, 5))):
        p = ptilde if draw(st.integers(0, 4)) == 0 else _pmf(draw, space)
        if p not in vertices:
            vertices.append(p)
    return u, v, w, ptilde, CredalSet.from_vertices(vertices)


def _table(table):
    """Every row with its key order and value types, and the fill rows."""
    rows = [(val, [(uv, type(pr).__name__, pr) for uv, pr in row.items()])
            for val, row in table.rows.items()]
    return table.given, table.target, rows, table.arbitrary_rows


@given(instances())
@SETTINGS
def test_guard_strata_and_tables_match_value_sets(inst):
    u, v, w, ptilde, credal = inst
    verts = credal.vertex_list()
    assert essentially_unique(ptilde, v, credal) == oracles.essentially_unique(ptilde, v, credal)
    assert supported_values(w, verts) == oracles.stratum_values(w, verts)
    assert supported_values(v, verts) == oracles.stratum_values(v, verts)
    for p in (ptilde, *verts):
        assert _table(conditional_table(p, u, v)) == _table(oracles.conditional_table(p, u, v))
    for x in (u, v, w):
        assert x.range() == oracles.value_range(x)
        assert list(x.cells()) == x.range()
        assert [x.range()[k] for k in x.codes()] == [x.table[z] for z in x.space.atoms]


@given(instances())
@SETTINGS
def test_guard_fails_exactly_on_uncovered_mass(inst):
    """Metamorphic: a vertex putting mass on an atom whose conditioning
    value the pragmatic distribution leaves empty breaks the guard, and
    the pragmatic distribution itself never does."""
    _, v, _, ptilde, _ = inst
    atoms = ptilde.space.atoms
    assert essentially_unique(ptilde, v, CredalSet.from_vertices([ptilde]))
    covered = support(ptilde, v)
    outside = [z for z in atoms if v.table[z] not in covered]
    if outside:
        spike = point_mass(ptilde.space, outside[0])
        assert not essentially_unique(ptilde, v, CredalSet.from_vertices([ptilde, spike]))


def test_range_is_a_fresh_list():
    space = OutcomeSpace(["a", "b", "c"])
    x = Rv(space, "X", {"a": 2, "b": 0, "c": 2})
    first = x.range()
    first.append("mutated")
    assert x.range() == [(Fraction(0),), (Fraction(2),)]
    assert dict(x.cells()) == {(Fraction(0),): (1,), (Fraction(2),): (0, 2)}


@given(instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_pmf_equality_and_hash_survive_filled_caches(inst):
    _, _, _, ptilde, credal = inst
    for p in (ptilde, *credal.vertex_list()):
        fresh = Pmf(p.space, dict(p.weights))
        scale = math.lcm(*(c.denominator for c in p.as_tuple()))
        expected = hash(tuple(c * scale for c in p.as_tuple()))  # the primitive integer law
        ints = fresh.integer_weights()
        assert fresh.as_tuple() is fresh.as_tuple() and fresh.integer_weights() is ints
        assert all(type(k) is int for k in ints)
        assert ints == tuple(c * scale for c in fresh.as_tuple())
        assert hash(fresh) == expected == hash(p)
        assert fresh == p and p == fresh and len({p, fresh}) == 1

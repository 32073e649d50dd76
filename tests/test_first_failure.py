"""Differential suite: ``safety.first_failure`` against the plain
per-vertex, per-residual scan it prefilters (kept in ``oracles``).

When every residual is an exact equality and there are two vertices or
more, ``first_failure`` skips the vertices on which one packed product of
all the rows is zero. Random residual lists mix equalities, brackets,
float residuals and hull tests over 0, 1 or many vertices with integer
weights up to 2**200; both evaluators must return the same counterexample
or raise the same exception with the same message (a zero denominator).
Half the rows vanish on every vertex by construction, so lists that hold
are common. A fixed case puts two rows' values one slot apart, where a
slot one bit narrower than the packed width makes them cancel.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import normalized, point_mass
from safeprob.core import OutcomeSpace, Pmf
from safeprob.safety import HullTest, Residual, compile_hull, equal, first_failure

GROUPS = 3  # atoms in one group share their weight in every vertex


def outcome(evaluate, residuals, vertices):
    try:
        return evaluate(residuals, vertices)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return ("raises", type(exc).__name__, str(exc))


@st.composite
def scans(draw):
    n = draw(st.integers(2, 5))
    space = OutcomeSpace([f"z{i}" for i in range(n)])
    groups = draw(st.lists(st.integers(0, GROUPS - 1), min_size=n, max_size=n))
    weight = st.one_of(st.integers(0, 3), st.integers(0, 2**200))
    vertices = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 6]))):
        per_group = draw(st.lists(weight, min_size=GROUPS, max_size=GROUPS))
        ints = [per_group[g] for g in groups]
        ints[0] += not any(ints)
        vertices.append(normalized(space, dict(zip(space.atoms, ints))))

    def row():
        coef = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        if draw(st.booleans()):  # zero sum in every group: vanishes on every vertex
            for g in set(groups):
                idx = [i for i in range(n) if groups[i] == g]
                coef[idx[0]] -= sum(coef[i] for i in idx)
        factor = draw(st.sampled_from([1, 3, 2**64 + 1, 2**200 - 1]))
        return [c * factor for c in coef]

    only_equalities = draw(st.booleans())
    kinds = ["equal"] + ([] if only_equalities else ["bracket", "float", "hull"])
    residuals = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        lo = row()
        lhs = [a + b for a, b in zip(lo, row())]
        labels = dict(scale=draw(st.integers(1, 3)), v=len(residuals), u=kind,
                      denom=draw(st.sampled_from([None, list(range(n)), [0]])))
        if kind == "equal":
            residuals.append(equal(lhs, lo, **labels))
        elif kind == "bracket":
            residuals.append(Residual(lhs, lo, [a + b for a, b in zip(lhs, row())], **labels))
        elif kind == "float":
            residuals.append(Residual([float(c) for c in row()], 0.0, 0.0, tol=1e-9,
                                      v=labels["v"], u=kind))
        else:
            columns = draw(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2)
                                    .filter(any), min_size=1, max_size=3))
            residuals.append(HullTest(cells=[list(range(0, n, 2)), list(range(1, n, 2))],
                                      hull=compile_hull(columns)))
    return residuals, vertices


@given(scans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_matches_the_plain_scan(scan):
    residuals, vertices = scan
    assert outcome(first_failure, residuals, vertices) == \
        outcome(oracles.first_failure, residuals, vertices)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 8, 31, 32, 63, 64, 65, 199, 200, 201])
@pytest.mark.parametrize("sign", [1, -1])
def test_rows_one_slot_apart_do_not_cancel(k, sign):
    """On ``halves`` the rows are worth sign * 2**k and -sign, and 2**k is
    the largest row 1-norm times the largest integer weight: in a
    slot one bit narrower the two values would sum to zero."""
    space = OutcomeSpace(["a", "b", "c"])
    halves = Pmf(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    for vertices in ([halves, point_mass(space, "c")],
                     [point_mass(space, "c"), halves]):
        for zeros in (0, 2):
            residuals = [equal([0, 0, 0], [0, 0, 0])] * zeros + [
                equal([sign * 2**k, 0, 0], [0, 0, 0], u="big"),
                equal([0, 0, 0], [0, sign, 0], u="one")]
            found = first_failure(residuals, vertices)
            assert found == oracles.first_failure(residuals, vertices)
            assert found.vertex == halves and found.u == "big"

"""Differential suite: the notion compilers against their per-atom
``Fraction`` forms (kept in ``oracles``).

The compilers build the conditional table, the forecast map, the
probability-of-outcome pivot spec with its uniqueness check, the pivot
law residuals and the decision policy from integer weights and value
codes; the oracles build the same objects atom by atom in ``Fraction``
arithmetic. On the random instances of ``test_residuals`` (integer,
vector and symbol targets, pragmatic distributions with and without full
support) every table, spec, residual list and cost table must be equal,
in the same order and with values of the same types.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import oracles
from safeprob.calibration import predicted_distribution_rv
from safeprob.core import Rv, conditional_table, value_sort_key
from safeprob.decisions import BRIER, CUSTOM, LOG, ZERO_ONE, LossFunction, _compile_policy
from safeprob.errors import UniquenessViolated
from safeprob.pivots import _law_residuals, _outcome_probability_spec, canonical_pivot
from test_residuals import SETTINGS, instances


def _typed(mapping) -> list:
    return [(key, type(val).__name__, val) for key, val in mapping.items()]


@given(instances())
@SETTINGS
def test_conditional_table_matches_oracle(inst):
    u, v, _, ptilde, _ = inst
    table = conditional_table(ptilde, u, v)
    reference = oracles.fraction_conditional_table(ptilde, u, v)
    assert list(table.rows) == list(reference.rows)
    for val, row in table.rows.items():
        assert _typed(row) == _typed(reference.rows[val]), val
    assert table.arbitrary_rows == reference.arbitrary_rows
    # the sums are the integer weights per cell (all 1 for the uniform
    # fill), the rows their ratios to their total
    ints, codes = ptilde.integer_weights(), u.codes()
    for (val, idx), sums in zip(v.cells().items(), table.sums):
        if val in table.arbitrary_rows:
            assert set(sums) == {1}
        else:
            assert list(sums) == [sum(ints[i] for i in idx if codes[i] == k)
                                  for k in range(len(sums))]
        assert list(table.rows[val].values()) == [Fraction(s, sum(sums)) for s in sums]


@given(instances())
@SETTINGS
def test_forecast_map_matches_oracle(inst):
    """Same values per atom, and the levels read off the codes are the
    levels a variable computes from its table."""
    u, v, _, ptilde, _ = inst
    pred = predicted_distribution_rv(ptilde, u, v)
    reference = oracles.predicted_distribution_rv(ptilde, u, v)
    assert dict(pred.as_rv.table) == dict(reference.as_rv.table)
    assert pred.base.rows == reference.base.rows
    fresh = Rv.generalized(ptilde.space, "fresh", pred.as_rv.table)
    assert pred.as_rv.range() == fresh.range()
    assert dict(pred.as_rv.cells()) == dict(fresh.cells())
    assert pred.as_rv.codes() == fresh.codes()


@given(instances())
@SETTINGS
def test_outcome_probability_spec_matches_oracle(inst):
    u, v, _, ptilde, _ = inst
    spec, clash = _outcome_probability_spec(ptilde, u, v)
    reference = oracles.fraction_outcome_probability_spec(ptilde, u, v)
    assert spec.name == reference.name
    assert list(spec.mapping.items()) == list(reference.mapping.items())
    try:
        expected = oracles.fraction_canonical_pivot(ptilde, u, v)
    except UniquenessViolated as exc:
        assert clash is not None and str(clash) == str(exc)
        assert (clash.v, clash.p, clash.outcomes) == (exc.v, exc.p, exc.outcomes)
        return
    assert clash is None
    assert canonical_pivot(ptilde, u, v).mapping == expected.mapping


@given(instances(), st.lists(st.integers(0, 2), min_size=7, max_size=7), st.booleans())
@SETTINGS
def test_law_residuals_match_oracle(inst, labels, symbols):
    """Pivot values drawn per atom (numeric or symbol), on the cells of
    the conditioner and on the whole space, weighted by the pragmatic
    distribution and by each vertex."""
    u, v, _, ptilde, credal = inst
    n = len(ptilde.space)
    pivot = {i: "pqr"[t] if symbols else (Fraction(t, 2),) for i, t in enumerate(labels[:n])}
    values = sorted(set(pivot.values()), key=value_sort_key)
    codes = {i: values.index(t) for i, t in pivot.items()}
    cells = {**v.cells(), None: range(n)}
    for p in (ptilde, *credal.vertex_list()):
        ints = p.integer_weights()
        assert _law_residuals(codes, values, ints, cells) == \
            oracles.fraction_law_residuals(pivot, ints, cells)


LOSSES = [LossFunction(ZERO_ONE), LossFunction(ZERO_ONE, randomized=True), LossFunction(BRIER),
          LossFunction(LOG)]


@given(instances(), st.sampled_from(LOSSES + [1, math.inf]))
@SETTINGS
def test_policy_matches_oracle(inst, loss):
    """Policy, believed losses, realized losses and the cost of every
    realizable cell, for the built-in losses and two custom tables."""
    u, v, _, ptilde, _ = inst
    if not isinstance(loss, LossFunction):  # loss 0 where the action names the outcome
        outcomes = u.range()
        loss = LossFunction(CUSTOM, custom_table={
            (uu, str(b)): 0 if a == b else loss
            for a, uu in enumerate(outcomes) for b in range(len(outcomes))})
    table, policy, cost, believed, losses = _compile_policy(ptilde, u, v, loss)
    ref_table, ref_policy, ref_cost, ref_believed, ref_losses = \
        oracles.fraction_compile_policy(ptilde, u, v, loss)
    assert table.rows == ref_table.rows
    assert policy == ref_policy
    assert _typed(believed) == _typed(ref_believed)
    assert [(type(c).__name__, c) for c in losses] == [(type(c).__name__, c) for c in ref_losses]
    u_range, v_range = u.range(), v.range()
    cells = {(u_range[k], v_range[j]): cost[j][k] for j, k in zip(v.codes(), u.codes())}
    assert _typed(cells) == _typed(ref_cost)

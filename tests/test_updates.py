import random
from fractions import Fraction

import pytest

from conftest import product_space, rational_pmf
from oracles import support
from safeprob.core import (
    CredalSet,
    LinearConstraint,
    OutcomeSpace,
    Pmf,
    Rv,
    conditional_table,
)
from safeprob.demos import monty_events, monty_partition_control
from safeprob.errors import ValidationError, ZeroMassObservable
from safeprob.updates import (
    EventScenario,
    UpdateRule,
    build_event_scenario,
    check_logical_coherence,
    compatibility_gate,
    partition_check,
    rule_completion,
)

D = lambda i: (Fraction(i),)


def monty_space_rule(rows):
    space = OutcomeSpace(["c1o2", "c1o3", "c2o3", "c3o2"])
    u = Rv(space, "U", {"c1o2": 1, "c1o3": 1, "c2o3": 2, "c3o2": 3})
    v = Rv(space, "V", {"c1o2": 2, "c1o3": 3, "c2o3": 3, "c3o2": 2})
    return space, u, v, UpdateRule(conditioner=v, target=u, rows=rows)


NAIVE_ROWS = {
    D(2): {D(1): Fraction(1, 2), D(3): Fraction(1, 2)},
    D(3): {D(1): Fraction(1, 2), D(2): Fraction(1, 2)},
}


class TestCoherence:
    def test_logically_separated_rules_always_coherent(self):
        rng = random.Random(109)
        space, u, v = product_space(3, 2)
        for _ in range(20):
            rows = {vv: rational_pmf(rng, u.range(), full_support=False)
                    for vv in v.range()}
            rule = UpdateRule(conditioner=v, target=u, rows=rows)
            assert check_logical_coherence(rule, space)

    def test_monty_incoherent_row_detected(self):
        rows = {
            D(2): {D(2): Fraction(1, 2), D(1): Fraction(1, 2)},
            D(3): {D(1): Fraction(1, 2), D(2): Fraction(1, 2)},
        }
        space, u, v, rule = monty_space_rule(rows)
        assert not check_logical_coherence(rule, space)

    def test_naive_monty_rule_coherent(self):
        space, u, v, rule = monty_space_rule(NAIVE_ROWS)
        assert check_logical_coherence(rule, space)


class TestCompatibility:
    def test_naive_monty_witness_is_uniform(self):
        space, u, v, rule = monty_space_rule(NAIVE_ROWS)
        witness = rule_completion(rule, space)
        assert witness == Pmf.uniform(space)

    def test_incoherent_rule_has_no_witness(self):
        rows = {
            D(2): {D(2): Fraction(1)},
            D(3): {D(1): Fraction(1)},
        }
        space, u, v, rule = monty_space_rule(rows)
        with pytest.raises(ValidationError, match="no completion exists"):
            rule_completion(rule, space)

    def test_witness_reproduces_rule_exactly(self):
        rng = random.Random(113)
        for _ in range(40):
            space, u, v = product_space(rng.randint(2, 3), rng.randint(2, 3))
            rows = {vv: rational_pmf(rng, u.range(), full_support=False)
                    for vv in v.range()}
            rule = UpdateRule(conditioner=v, target=u, rows=rows)
            witness = rule_completion(rule, space)
            assert support(witness, v) == set(v.range())
            table = conditional_table(witness, u, v)
            for vv in v.range():
                assert table.rows[vv] == rule.rows[vv]

    def test_rule_from_actual_conditional_is_compatible(self):
        rng = random.Random(127)
        for _ in range(20):
            space, u, v = product_space(2, 3)
            p = Pmf(space, rational_pmf(rng, space.atoms))
            table = conditional_table(p, u, v)
            rule = UpdateRule(conditioner=v, target=u, rows=dict(table.rows))
            assert conditional_table(rule_completion(rule, space), u, v).rows == table.rows


class TestCompatibilityGate:
    def test_incoherent_rule_fails_without_touching_credal(self):
        rows = {
            D(2): {D(2): Fraction(1)},
            D(3): {D(1): Fraction(1)},
        }
        space, u, v, rule = monty_space_rule(rows)
        # an infeasible polytope would raise if the gate enumerated it
        impossible = CredalSet.from_constraints(
            space, [LinearConstraint({"c1o2": 1}, ">=", 2)]
        )
        verdict = compatibility_gate(rule, space, u, impossible)
        assert not verdict.holds
        assert "incompatible" in " ".join(verdict.notes)

    def test_counterexample_is_first_incoherent_cell(self):
        # two unrealizable cells, (U, V) = (3, 3) and (2, 2); the canonical
        # order (conditioner value, then target value) names (2, 2)
        rows = {
            D(3): {D(3): Fraction(1, 2), D(1): Fraction(1, 2)},
            D(2): {D(3): Fraction(1, 2), D(2): Fraction(1, 2)},
        }
        space, u, v, rule = monty_space_rule(rows)
        verdict = compatibility_gate(rule, space, u, CredalSet.from_vertices([Pmf.uniform(space)]))
        assert not verdict.holds
        assert (verdict.counterexample.v, verdict.counterexample.u) == (D(2), D(2))
        assert verdict.counterexample.vertex is None

    def test_naive_monty_fails_through_safety(self):
        space, u, v, rule = monty_space_rule(NAIVE_ROWS)
        third = Fraction(1, 3)
        credal = CredalSet.from_constraints(space, [
            LinearConstraint({"c1o2": 1, "c1o3": 1}, "=", third),
            LinearConstraint({"c2o3": 1}, "=", third),
            LinearConstraint({"c3o2": 1}, "=", third),
        ])
        verdict = compatibility_gate(rule, space, u, credal)
        assert not verdict.holds
        assert verdict.counterexample.vertex is not None

    def test_rule_matching_single_vertex_holds(self):
        rng = random.Random(131)
        space, u, v = product_space(2, 2)
        p = Pmf(space, rational_pmf(rng, space.atoms))
        table = conditional_table(p, u, v)
        rule = UpdateRule(conditioner=v, target=u, rows=dict(table.rows))
        verdict = compatibility_gate(rule, space, u, CredalSet.from_vertices([p]))
        assert verdict.holds


class TestBuildEventScenario:
    def test_monty_embedding(self):
        built = build_event_scenario(monty_events())
        assert len(built["space"].atoms) == 4
        naive = built["naive"]
        label = "{1,2}"
        assert naive.rows[label][D(1)] == Fraction(1, 2)
        verts = built["credal"].vertex_list()
        assert len(verts) == 2
        # the two vertices are indexed by the host's deterministic choice
        u1_cells = [z for z in built["space"].atoms
                    if built["target"].table[z] == D(1)]
        for p in verts:
            assert sorted(p.weights[z] for z in u1_cells) == [0, Fraction(1, 3)]

    def test_partition_rows_are_exact_conditionals(self):
        built = build_event_scenario(monty_partition_control())
        naive = built["naive"]
        assert naive.rows["{1}"][D(1)] == 1
        assert naive.rows["{2,3}"][D(2)] == Fraction(1, 2)
        assert len(built["credal"].vertex_list()) == 1

    def test_zero_mass_observable_rejected(self):
        ev = EventScenario([1, 2, 3], {1: Fraction(1, 2), 2: Fraction(1, 2)},
                           [[1, 2], [3]])
        with pytest.raises(ZeroMassObservable):
            build_event_scenario(ev)

    def test_stranded_positive_outcome_rejected(self):
        ev = EventScenario([1, 2, 3],
                           {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)},
                           [[1, 2]])
        with pytest.raises(ValidationError):
            build_event_scenario(ev)

    def test_duplicate_sets_collapse(self):
        ev = EventScenario([1, 2], {1: Fraction(1, 2), 2: Fraction(1, 2)},
                           [[1, 2], [2, 1]])
        assert len(ev.observable_sets) == 1


class TestPartitionCheck:
    def test_monty_overlap(self):
        out = partition_check(monty_events())
        assert out["is_partition"] is False
        assert not out["verdict"].holds

    def test_partition_control(self):
        out = partition_check(monty_partition_control())
        assert out["is_partition"] is True
        assert out["verdict"].holds

    def test_random_agreement(self):
        rng = random.Random(137)
        seen = {True: 0, False: 0}
        for _ in range(120):
            out = partition_check(random_event_scenario(rng))
            assert out["is_partition"] == out["verdict"].holds
            seen[out["is_partition"]] += 1
        assert seen[True] and seen[False]

    def test_degenerate_prior_not_asserted(self):
        # zero-mass outcome inside overlapping sets: set algebra says overlap
        # while naive conditioning is still exactly right
        ev = EventScenario(
            [1, 2, 3],
            {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)},
            [[1, 3], [2, 3]],
        )
        out = partition_check(ev)
        assert out["is_partition"] is False
        assert out["verdict"].holds
        assert any("zero-mass" in note for note in out["verdict"].notes)


def random_event_scenario(rng: random.Random) -> EventScenario:
    n = rng.randint(2, 5)
    outcomes = list(range(1, n + 1))
    prior = rational_pmf(rng, outcomes)
    if rng.random() < 0.5:
        blocks, pool = [], outcomes[:]
        rng.shuffle(pool)
        while pool:
            size = rng.randint(1, len(pool))
            blocks.append(pool[:size])
            pool = pool[size:]
        return EventScenario(outcomes, prior, blocks)
    while True:
        sets = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, n)
            sets.append(rng.sample(outcomes, size))
        if set().union(*map(set, sets)) == set(outcomes):
            return EventScenario(outcomes, prior, sets)


class TestRuleValidation:
    def test_rows_must_cover_range(self):
        space, u, v = product_space(2, 2)
        with pytest.raises(ValidationError):
            UpdateRule(conditioner=v, target=u,
                       rows={D(0): {D(0): Fraction(1)}})

    def test_rows_must_sum_to_one(self):
        space, u, v = product_space(2, 2)
        with pytest.raises(ValidationError):
            UpdateRule(conditioner=v, target=u, rows={
                D(0): {D(0): Fraction(1, 2)},
                D(1): {D(0): Fraction(1)},
            })

    def test_completion_requires_coherence(self):
        rows = {
            D(2): {D(2): Fraction(1)},
            D(3): {D(1): Fraction(1)},
        }
        space, u, v, rule = monty_space_rule(rows)
        with pytest.raises(ValidationError):
            rule_completion(rule, space)

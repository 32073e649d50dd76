import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import joint_from_rows, pivotal_instance, product_space
import safeprob
from safeprob import pivots
from safeprob.core import CredalSet, OutcomeSpace, Pmf, Rv
from safeprob.demos import monty_scenario
from safeprob.errors import NotAPivot, NotFullSupport, UniquenessViolated, ValidationError
from safeprob.pivots import (
    PivotSpec,
    canonical_pivot,
    check_pivot,
    check_pivotal_safety,
    pivot_equivalence,
)

ONE, ZERO = (Fraction(1),), (Fraction(0),)


def helpful_host_scenario():
    """Host opens door 3 whenever the car lets him choose."""
    scn = monty_scenario()
    space = scn["space"]
    ptilde = Pmf(space, {
        "c1o3": Fraction(1, 3), "c2o3": Fraction(1, 3), "c3o2": Fraction(1, 3),
    })
    return {**scn, "ptilde": ptilde}


class TestCheckPivot:
    def test_monty_indicator_is_simple_pivot(self):
        scn = monty_scenario()
        verdict = check_pivot(scn["pivot"], scn["U"], scn["V"], scn["credal"])
        assert verdict.is_pivot and verdict.is_simple

    def test_identity_fails_on_disagreeing_credal(self):
        space, u, v = product_space(2, 2)
        spec = PivotSpec("ident", {
            (uu, vv): uu for uu in u.range() for vv in v.range()
        })
        p1 = joint_from_rows(space, u, v, {vv: Fraction(1, 2) for vv in v.range()},
                             {vv: {ZERO: Fraction(1, 4), ONE: Fraction(3, 4)}
                              for vv in v.range()})
        p2 = joint_from_rows(space, u, v, {vv: Fraction(1, 2) for vv in v.range()},
                             {vv: {ZERO: Fraction(3, 4), ONE: Fraction(1, 4)}
                              for vv in v.range()})
        verdict = check_pivot(spec, u, v, CredalSet.from_vertices([p1, p2]))
        assert not verdict.is_pivot
        assert "disagree" in verdict.failure

    def test_non_injective_map_rejected(self):
        space, u, v = product_space(2, 2)
        spec = PivotSpec("collapse", {
            (uu, vv): ZERO for uu in u.range() for vv in v.range()
        })
        credal = CredalSet.from_vertices([Pmf.uniform(space)])
        verdict = check_pivot(spec, u, v, credal)
        assert not verdict.is_pivot
        assert "injective" in verdict.failure

    def test_undefined_cell_rejected(self):
        space, u, v = product_space(2, 2)
        spec = PivotSpec("partial", {(ZERO, ZERO): ZERO})
        credal = CredalSet.from_vertices([Pmf.uniform(space)])
        verdict = check_pivot(spec, u, v, credal)
        assert not verdict.is_pivot
        assert "undefined" in verdict.failure

    def test_undefined_cell_is_named_in_atom_order(self):
        # symbol cells hash differently per interpreter run; the message must not
        script = (
            "from safeprob.core import CredalSet, OutcomeSpace, Pmf, Rv\n"
            "from safeprob.pivots import PivotSpec, check_pivot\n"
            "atoms = [u + v for u in 'xy' for v in 'pq']\n"
            "space = OutcomeSpace(atoms)\n"
            "u = Rv(space, 'U', {z: z[0] for z in atoms})\n"
            "v = Rv(space, 'V', {z: z[1] for z in atoms})\n"
            "credal = CredalSet.from_vertices([Pmf.uniform(space)])\n"
            "print(check_pivot(PivotSpec('empty', {}), u, v, credal).failure)\n"
        )
        src = str(Path(safeprob.__file__).resolve().parent.parent)
        messages = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            ).stdout
            for seed in ("1", "2")
        }
        assert messages == {"map undefined at cell (x,p)\n"}

    def test_undefined_numeric_cell_is_rendered_as_reports_do(self):
        space, u, v = product_space(2, 2)
        spec = PivotSpec("partial", {(ZERO, ZERO): ZERO})
        credal = CredalSet.from_vertices([Pmf.uniform(space)])
        assert check_pivot(spec, u, v, credal).failure == "map undefined at cell (0,1)"
        with pytest.raises(ValidationError) as info:
            spec.as_rv(u, v)
        assert str(info.value) == "pivot 'partial' undefined at cell (0,1)"

    def test_injective_but_not_simple(self):
        # second conditioning value reaches only one of two pivot values
        space = OutcomeSpace(["a", "b", "c"])
        u = Rv(space, "U", {"a": 0, "b": 1, "c": 0})
        v = Rv(space, "V", {"a": 0, "b": 0, "c": 1})
        spec = PivotSpec("skewed", {
            (ZERO, ZERO): ZERO, (ONE, ZERO): ONE, (ZERO, ONE): ZERO,
        })
        credal = CredalSet.from_vertices([Pmf.uniform(space)])
        verdict = check_pivot(spec, u, v, credal)
        assert verdict.is_pivot and not verdict.is_simple


class TestPivotalSafety:
    def test_fair_monty_holds(self):
        scn = monty_scenario()
        verdict = check_pivotal_safety(
            scn["ptilde"], scn["U"], scn["V"], scn["pivot"], scn["credal"]
        )
        assert verdict.holds

    def test_helpful_host_fails(self):
        scn = helpful_host_scenario()
        verdict = check_pivotal_safety(
            scn["ptilde"], scn["U"], scn["V"], scn["pivot"], scn["credal"]
        )
        assert not verdict.holds
        ce = verdict.counterexample
        assert ce.lhs != ce.rhs

    def test_constant_conditioner(self):
        space = OutcomeSpace(["a", "b"])
        u = Rv(space, "U", {"a": 0, "b": 1})
        v = Rv.constant(space, "V")
        spec = PivotSpec("id", {(uu, (Fraction(0),)): uu for uu in u.range()})
        ptilde = Pmf(space, {"a": Fraction(1, 4), "b": Fraction(3, 4)})
        matching = CredalSet.from_vertices([ptilde])
        other = CredalSet.from_vertices([Pmf.uniform(space)])
        assert check_pivotal_safety(ptilde, u, v, spec, matching).holds
        assert not check_pivotal_safety(ptilde, u, v, spec, other).holds

    def test_requires_full_support(self):
        scn = monty_scenario(host_bias=Fraction(1, 2))
        space = scn["space"]
        ptilde = Pmf(space, {"c1o3": Fraction(2, 3), "c2o3": Fraction(1, 3)})
        with pytest.raises(NotFullSupport):
            check_pivotal_safety(ptilde, scn["U"], scn["V"], scn["pivot"], scn["credal"])

    def test_not_a_pivot_raised(self):
        space, u, v = product_space(2, 2)
        spec = PivotSpec("collapse", {
            (uu, vv): ZERO for uu in u.range() for vv in v.range()
        })
        ptilde = Pmf.uniform(space)
        credal = CredalSet.from_vertices([ptilde])
        with pytest.raises(NotAPivot):
            check_pivotal_safety(ptilde, u, v, spec, credal)

    def test_constant_stratifier_matches_unstratified(self):
        def outcome(**kwargs):
            try:
                return check_pivotal_safety(**kwargs).holds
            except NotAPivot:
                return "not-a-pivot"

        rng = random.Random(79)
        for _ in range(20):
            inst = pivotal_instance(rng, safe=rng.random() < 0.5)
            spec = canonical_pivot(inst["ptilde"], inst["U"], inst["V"])
            const = Rv.constant(inst["space"], "0")
            plain = outcome(ptilde=inst["ptilde"], u=inst["U"], v=inst["V"],
                            spec=spec, credal=inst["credal"])
            strat = outcome(ptilde=inst["ptilde"], u=inst["U"], v=inst["V"],
                            spec=spec, credal=inst["credal"], w=const)
            assert plain == strat

    def test_stratum_notes_print_values_as_reports_do(self):
        space, u, v = product_space(2, 2)
        w = Rv(space, "W", {z: v.table[z] for z in space.atoms})
        rows = {ZERO: {ZERO: Fraction(1, 3), ONE: Fraction(2, 3)},
                ONE: {ZERO: Fraction(2, 3), ONE: Fraction(1, 3)}}
        ptilde = joint_from_rows(space, u, v, {ZERO: Fraction(1, 2), ONE: Fraction(1, 2)}, rows)
        vertex = joint_from_rows(space, u, v, {ZERO: Fraction(0), ONE: Fraction(1)}, rows)
        verdict = check_pivotal_safety(
            ptilde, u, v, canonical_pivot(ptilde, u, v), CredalSet.from_vertices([vertex]), w=w
        )
        assert verdict.holds
        assert verdict.notes == ("stratum W=0: skipped 1 zero-mass vertex(es)",)


class TestCanonicalPivot:
    def test_fair_monty_values(self):
        scn = monty_scenario()
        spec = canonical_pivot(scn["ptilde"], scn["U"], scn["V"])
        third, two_thirds = (Fraction(1, 3),), (Fraction(2, 3),)
        door = lambda i: (Fraction(i),)
        assert spec.mapping[(door(1), door(2))] == third
        assert spec.mapping[(door(1), door(3))] == third
        assert spec.mapping[(door(3), door(2))] == two_thirds
        assert spec.mapping[(door(2), door(3))] == two_thirds

    def test_uniform_rows_violate_uniqueness(self):
        space, u, v = product_space(2, 2)
        ptilde = Pmf.uniform(space)
        with pytest.raises(UniquenessViolated) as excinfo:
            canonical_pivot(ptilde, u, v)
        assert excinfo.value.p == Fraction(1, 2)

    def test_zero_probability_outcomes_may_share_a_value(self):
        # U = 1 and U = 2 are realizable at V = 0 with conditional probability 0
        space = OutcomeSpace(["a", "b", "c", "d"])
        u = Rv(space, "U", {"a": 0, "b": 1, "c": 2, "d": 0})
        v = Rv(space, "V", {"a": 0, "b": 0, "c": 0, "d": 1})
        ptilde = Pmf(space, {"a": Fraction(1, 2), "d": Fraction(1, 2)})
        spec = canonical_pivot(ptilde, u, v)
        zero = (Fraction(0),)
        assert spec.mapping[((Fraction(1),), zero)] == spec.mapping[((Fraction(2),), zero)] == zero

    def test_point_mass_rows_give_unit_values(self):
        space = OutcomeSpace(["a", "b"])
        u = Rv(space, "U", {"a": 0, "b": 1})
        v = Rv(space, "V", {"a": 0, "b": 1})
        ptilde = Pmf(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        spec = canonical_pivot(ptilde, u, v)
        assert set(spec.mapping.values()) == {(Fraction(1),)}

    def test_induced_map_satisfies_structural_clauses(self):
        rng = random.Random(83)
        for _ in range(30):
            inst = pivotal_instance(rng, safe=rng.random() < 0.5)
            spec = canonical_pivot(inst["ptilde"], inst["U"], inst["V"])
            verdict = check_pivot(spec, inst["U"], inst["V"], inst["credal"])
            if not verdict.is_pivot:
                assert "disagree" in verdict.failure


class TestPivotEquivalence:
    def test_fair_monty_all_true(self):
        scn = monty_scenario()
        out = pivot_equivalence(scn["ptilde"], scn["U"], scn["V"], scn["credal"])
        assert out == {"marginal_safe": True, "pivotal_safe": True,
                       "simple_pivot_exists": True, "hypothesis_met": True}

    def test_helpful_host_all_false(self):
        scn = helpful_host_scenario()
        out = pivot_equivalence(scn["ptilde"], scn["U"], scn["V"], scn["credal"])
        # two outcomes share conditional mass 1/2 at the forced door, so the
        # uniqueness hypothesis fails; all three answers are still negative
        assert out == {"marginal_safe": False, "pivotal_safe": False,
                       "simple_pivot_exists": False, "hypothesis_met": False}

    def test_agreement_on_random_instances(self):
        rng = random.Random(89)
        outcomes = {True: 0, False: 0}
        for _ in range(80):
            inst = pivotal_instance(rng, safe=rng.random() < 0.6)
            out = pivot_equivalence(inst["ptilde"], inst["U"], inst["V"], inst["credal"])
            outcomes[out["pivotal_safe"]] += 1
        assert outcomes[True] and outcomes[False]

    def test_search_beyond_cap_inherits_witness_direction(self, monkeypatch):
        rng = random.Random(97)
        inst = pivotal_instance(rng, safe=True)
        monkeypatch.setattr(pivots, "_SEARCH_CAP", 0)
        out = pivot_equivalence(inst["ptilde"], inst["U"], inst["V"], inst["credal"])
        assert out["simple_pivot_exists"] == out["pivotal_safe"]

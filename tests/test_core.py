import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mixed_instance, product_space
from safeprob._linalg import integer_row
from safeprob.core import (
    CredalSet,
    LinearConstraint,
    OutcomeSpace,
    Pmf,
    Rv,
    as_rational,
    as_value,
    condition,
    conditional_table,
    determines,
    enumerate_vertices,
    essentially_unique,
    joint_rv,
    mix,
    support,
    value_pmf,
)
from safeprob.demos import monty_scenario
from safeprob.errors import (
    InfeasibleCredalSet,
    SizeLimit,
    ValidationError,
    ZeroProbabilityConditioning,
)


@pytest.fixture
def monty():
    return monty_scenario()


class TestPmf:
    def test_rejects_bad_sum(self):
        space = OutcomeSpace(["a", "b"])
        with pytest.raises(ValidationError):
            Pmf(space, {"a": Fraction(99, 100)})

    def test_rejects_negative(self):
        space = OutcomeSpace(["a", "b"])
        with pytest.raises(ValidationError):
            Pmf(space, {"a": Fraction(-1, 2), "b": Fraction(3, 2)})

    def test_rejects_floats(self):
        space = OutcomeSpace(["a", "b"])
        with pytest.raises(ValidationError):
            Pmf(space, {"a": 0.5, "b": 0.5})

    def test_equality_ignores_missing_zero_entries(self):
        space = OutcomeSpace(["a", "b"])
        assert Pmf(space, {"a": 1}) == Pmf(space, {"a": 1, "b": 0})

    @pytest.mark.parametrize("weights, message", [
        ({"a": Fraction(-1, 2), "b": Fraction(3, 2), "z": 0}, "negative weight -1/2 at atom 'a'"),
        ({"a": Fraction(1, 2), "b": Fraction(2, 3), "z": 0, "y": 1},
         "weights mention unknown atoms ['y', 'z']"),
        ({"a": Fraction(1, 2), "b": Fraction(2, 3)}, "weights sum to 7/6, expected exactly 1"),
        ({}, "weights sum to 0, expected exactly 1"),
    ])
    def test_messages(self, weights, message):
        with pytest.raises(ValidationError) as caught:
            Pmf(OutcomeSpace(["a", "b"]), weights)
        assert str(caught.value) == message

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12)), min_size=1, max_size=8)
           .filter(lambda ws: any(w for w, _ in ws)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_integer_weights_are_the_scaled_row(self, ws):
        space = OutcomeSpace([f"z{i}" for i in range(len(ws))])
        p = Pmf.normalized(space, {z: Fraction(w, d) for z, (w, d) in zip(space.atoms, ws)})
        assert p.integer_weights() == tuple(integer_row(p.as_tuple()))
        assert p.as_tuple() == tuple(p.weights[z] for z in space.atoms)
        assert sum(p.integer_weights()) == lcm(*(w.denominator for w in p.as_tuple()))

    def test_weights_are_immutable(self):
        space = OutcomeSpace(["a", "b"])
        p = Pmf(space, {"a": 1})
        with pytest.raises(TypeError):
            p.weights["a"] = Fraction(0)
        x = Rv(space, "X", {"a": 0, "b": 1})
        with pytest.raises(TypeError):
            x.table["a"] = (Fraction(5),)


class TestRv:
    def test_mixing_kinds_rejected(self):
        space = OutcomeSpace(["a", "b"])
        with pytest.raises(ValidationError):
            Rv(space, "X", {"a": 1, "b": "sym"})

    def test_must_be_total(self):
        space = OutcomeSpace(["a", "b"])
        with pytest.raises(ValidationError):
            Rv(space, "X", {"a": 1})

    def test_numeric_vector_values(self):
        space = OutcomeSpace(["a", "b"])
        x = Rv(space, "X", {"a": [1, "1/2"], "b": [0, 0]})
        assert x.is_numeric
        assert x.table["a"] == (Fraction(1), Fraction(1, 2))


class TestDecimalExponents:
    """A decimal exponent is bounded like an int string, by 4300 digits
    here: ``Fraction`` would build 10 to its power."""

    @pytest.fixture(autouse=True)
    def limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("text", ["1e4300", "-2.5E-4300", "1e+4_300"])
    def test_exponent_at_the_limit_is_read(self, text):
        assert as_rational(text) == Fraction(text)
        assert as_value(text) == (Fraction(text),)

    @pytest.mark.parametrize("text", ["1e4301", "-2.5E-4301", "1e100000000"])
    def test_exponent_beyond_the_limit_is_rejected(self, text):
        with pytest.raises(ValidationError, match="^not a rational literal"):
            as_rational(text)
        with pytest.raises(ValidationError, match="exceeds the limit"):
            as_value(text)

    def test_symbols_with_an_e_stay_symbols(self):
        assert as_value("xe99999") == "xe99999"

    @pytest.mark.parametrize("text", ["1" * 4300, "1_" * 4299 + "1", "0." + "1" * 4300,
                                      "1/" + "3" * 4300])
    def test_digit_runs_at_the_limit_are_read(self, text):
        assert as_value(text) == (Fraction(text),)

    @pytest.mark.parametrize("text", ["1" + "0" * 4300, "1e" + "9" * 4301, "1_" * 4300 + "1",
                                      "0." + "1" * 4301, "1/" + "3" * 4301, " -1" + "0" * 5000])
    def test_overlong_numeric_literals_are_rejected(self, text):
        # Fraction reads these as no number at all, which made them symbols
        with pytest.raises(ValidationError, match="beyond the limit"):
            as_value(text)
        with pytest.raises(ValidationError, match="^not a rational literal"):
            as_rational(text)


class TestEnumerateVertices:
    def test_unconstrained_simplex(self):
        space = OutcomeSpace(["a", "b", "c"])
        verts = enumerate_vertices([], space)
        assert set(verts) == {Pmf.point_mass(space, z) for z in space.atoms}

    def test_single_equality_four_atoms(self):
        space = OutcomeSpace(["z1", "z2", "z3", "z4"])
        cons = [LinearConstraint({"z1": 1, "z2": 1}, "=", Fraction(9, 10))]
        verts = enumerate_vertices(cons, space)
        expected = {
            (Fraction(9, 10), Fraction(0), Fraction(1, 10), Fraction(0)),
            (Fraction(9, 10), Fraction(0), Fraction(0), Fraction(1, 10)),
            (Fraction(0), Fraction(9, 10), Fraction(1, 10), Fraction(0)),
            (Fraction(0), Fraction(9, 10), Fraction(0), Fraction(1, 10)),
        }
        assert {p.as_tuple() for p in verts} == expected
        # deterministic descending lexicographic order
        tuples = [p.as_tuple() for p in verts]
        assert tuples == sorted(tuples, reverse=True)

    def test_degenerate_point(self):
        space = OutcomeSpace(["z1", "z2"])
        verts = enumerate_vertices([LinearConstraint({"z1": 1}, "=", 1)], space)
        assert verts == [Pmf.point_mass(space, "z1")]

    def test_infeasible(self):
        space = OutcomeSpace(["z1", "z2"])
        with pytest.raises(InfeasibleCredalSet):
            enumerate_vertices([LinearConstraint({"z1": 1}, "=", 2)], space)

    def test_inconsistent_equalities(self):
        space = OutcomeSpace(["z1", "z2", "z3"])
        cons = [
            LinearConstraint({"z1": 1, "z2": 1}, "=", Fraction(1, 2)),
            LinearConstraint({"z1": 1, "z2": 1}, "=", Fraction(1, 3)),
        ]
        with pytest.raises(InfeasibleCredalSet):
            enumerate_vertices(cons, space)

    def test_inequalities(self):
        space = OutcomeSpace(["a", "b"])
        verts = enumerate_vertices(
            [LinearConstraint({"a": 1}, "<=", Fraction(1, 4))], space
        )
        assert {p.as_tuple() for p in verts} == {
            (Fraction(1, 4), Fraction(3, 4)),
            (Fraction(0), Fraction(1)),
        }

    def test_size_limit(self, monkeypatch):
        space = OutcomeSpace([f"z{i}" for i in range(17)])
        with pytest.raises(SizeLimit):
            enumerate_vertices([], space)
        monkeypatch.setenv("SAFEPROB_SIZE_LIMIT", "20")
        assert len(enumerate_vertices([], space)) == 17
        for bad in ("0", "-3", "many"):
            monkeypatch.setenv("SAFEPROB_SIZE_LIMIT", bad)
            with pytest.raises(ValidationError, match="SAFEPROB_SIZE_LIMIT"):
                enumerate_vertices([], space)

    def test_random_polytopes_properties(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 5)
            space = OutcomeSpace([f"z{i}" for i in range(n)])
            cons = []
            for _ in range(rng.randint(0, 2)):
                coeffs = {z: rng.randint(0, 2) for z in space.atoms}
                if not any(coeffs.values()):
                    continue
                rel = rng.choice(["=", "<=", ">="])
                rhs = Fraction(rng.randint(0, 4), 4)
                cons.append(LinearConstraint(coeffs, rel, rhs))
            try:
                verts = enumerate_vertices(cons, space)
            except InfeasibleCredalSet:
                continue
            assert len(set(verts)) == len(verts)
            for p in verts:
                assert sum(p.weights.values()) == 1
                assert all(c.satisfied_by(p) for c in cons)
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    blend = mix(verts[i], verts[j], Fraction(1, 2))
                    assert all(c.satisfied_by(blend) for c in cons)

    def test_barycenter_support_equals_union(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            space = OutcomeSpace([f"z{i}" for i in range(n)])
            coeffs = {z: rng.randint(0, 1) for z in space.atoms}
            cons = []
            if any(coeffs.values()):
                cons.append(LinearConstraint(coeffs, "=", Fraction(1, 2)))
            try:
                verts = enumerate_vertices(cons, space)
            except InfeasibleCredalSet:
                continue
            x = Rv(space, "X", {z: i for i, z in enumerate(space.atoms)})
            bary = verts[0]
            for k, p in enumerate(verts[1:], start=2):
                bary = mix(bary, p, Fraction(k - 1, k))
            union = set().union(*(support(p, x) for p in verts))
            assert union == support(bary, x)


class TestSupport:
    def test_point_mass(self):
        space = OutcomeSpace(["z1", "z2"])
        x = Rv(space, "X", {"z1": "a", "z2": "b"})
        assert support(Pmf.point_mass(space, "z1"), x) == {"a"}

    def test_monty_uniform(self, monty):
        uniform = Pmf.uniform(monty["space"])
        assert support(uniform, monty["V"]) == {(Fraction(2),), (Fraction(3),)}

    def test_excludes_zero_mass_values(self):
        space = OutcomeSpace(["z1", "z2"])
        x = Rv(space, "X", {"z1": "a", "z2": "b"})
        assert support(Pmf(space, {"z1": 1}), x) == {"a"}


class TestDetermines:
    def test_identity(self):
        space = OutcomeSpace(["z1", "z2"])
        x = Rv(space, "X", {"z1": 0, "z2": 1})
        witness = determines(x, x)
        assert witness == {(Fraction(0),): (Fraction(0),), (Fraction(1),): (Fraction(1),)}

    def test_constant_does_not_determine(self):
        space = OutcomeSpace(["z1", "z2"])
        c = Rv.constant(space)
        y = Rv(space, "Y", {"z1": 0, "z2": 1})
        assert determines(c, y) is None

    def test_monty_pair_determines_indicator(self, monty):
        u, v = monty["U"], monty["V"]
        space = monty["space"]
        found = Rv(space, "F", {z: 1 if u.table[z] == (Fraction(1),) else 0
                                for z in space.atoms})
        assert determines(joint_rv(u, v), found) is not None
        assert determines(v, found) is None

    def test_almost_sure_version_weaker(self):
        space = OutcomeSpace(["z1", "z2", "z3"])
        x = Rv(space, "X", {"z1": 0, "z2": 0, "z3": 1})
        y = Rv(space, "Y", {"z1": 0, "z2": 1, "z3": 1})
        assert determines(x, y) is None
        p = Pmf(space, {"z1": Fraction(1, 2), "z3": Fraction(1, 2)})
        assert determines(x, y, p) is not None

    def test_reflexive_transitive_on_random(self):
        rng = random.Random(7)
        for _ in range(50):
            inst = mixed_instance(rng)
            u, space = inst["U"], inst["space"]
            f = {uu: rng.randint(0, 1) for uu in u.range()}
            g = {0: rng.randint(0, 1), 1: rng.randint(0, 1)}
            y = u.compose("Y", lambda val: (Fraction(f[val]),))
            z = y.compose("Z", lambda val: (Fraction(g[int(val[0])]),))
            assert determines(u, u) is not None
            assert determines(u, y) is not None
            assert determines(y, z) is not None
            assert determines(u, z) is not None
            assert determines(u, y, inst["ptilde"]) is not None


class TestCondition:
    def test_constant_conditioner(self):
        space = OutcomeSpace(["z1", "z2"])
        p = Pmf(space, {"z1": Fraction(1, 3), "z2": Fraction(2, 3)})
        assert condition(p, Rv.constant(space), (Fraction(0),)) == p

    def test_monty_conditioned_on_open_door(self, monty):
        uniform = Pmf.uniform(monty["space"])
        got = condition(uniform, monty["V"], (Fraction(3),))
        assert got == Pmf(monty["space"], {"c1o3": Fraction(1, 2), "c2o3": Fraction(1, 2)})

    def test_point_mass_fixed_point(self, monty):
        p = Pmf.point_mass(monty["space"], "c2o3")
        assert condition(p, monty["V"], (Fraction(3),)) == p

    def test_zero_probability_error(self):
        space = OutcomeSpace(["z1", "z2"])
        p = Pmf.point_mass(space, "z1")
        x = Rv(space, "X", {"z1": 0, "z2": 1})
        with pytest.raises(ZeroProbabilityConditioning):
            condition(p, x, (Fraction(1),))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_condition_concentrates_on_event(self, seed):
        rng = random.Random(seed)
        inst = mixed_instance(rng)
        p, w = inst["ptilde"], inst["V"]
        for wv in sorted(support(p, w), key=str):
            cond = condition(p, w, wv)
            assert cond.prob(w, wv) == 1


class TestConditionalTable:
    def test_independent_product(self):
        space, u, v = product_space(2, 2)
        p = Pmf(space, {z: Fraction(1, 4) for z in space.atoms})
        table = conditional_table(p, u, v)
        marginal = value_pmf(p, u)
        for vv in v.range():
            assert table.rows[vv] == marginal
        assert not table.arbitrary_rows

    def test_fair_monty_rows(self, monty):
        table = conditional_table(monty["ptilde"], monty["U"], monty["V"])
        one = (Fraction(1),)
        assert table.rows[(Fraction(2),)][one] == Fraction(1, 3)
        assert table.rows[(Fraction(3),)][one] == Fraction(1, 3)

    def test_unsupported_row_uniform_and_flagged(self):
        space, u, v = product_space(2, 2)
        p = Pmf(space, {"u0v0": Fraction(1, 2), "u1v0": Fraction(1, 2)})
        table = conditional_table(p, u, v)
        v1 = (Fraction(1),)
        assert table.arbitrary_rows == {v1}
        assert set(table.rows[v1].values()) == {Fraction(1, 2)}


class TestEssentiallyUnique:
    def test_full_support_always_unique(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = mixed_instance(rng)
            assert essentially_unique(inst["ptilde"], inst["V"], inst["credal"])

    def test_dilation_case(self):
        from safeprob.demos import dilation_scenario

        scn = dilation_scenario()
        assert essentially_unique(scn["ptilde"], scn["V"], scn["credal"])

    def test_missing_support_detected(self):
        space, u, v = product_space(2, 2)
        ptilde = Pmf(space, {"u0v0": Fraction(1, 2), "u1v0": Fraction(1, 2)})
        vertex = Pmf(space, {"u0v1": 1})
        credal = CredalSet.from_vertices([vertex])
        assert not essentially_unique(ptilde, v, credal)


class TestCredalSet:
    def test_needs_exactly_one_form(self):
        space = OutcomeSpace(["a", "b"])
        with pytest.raises(ValidationError):
            CredalSet(space)

    def test_vertex_form_distinct(self):
        space = OutcomeSpace(["a", "b"])
        p = Pmf.point_mass(space, "a")
        with pytest.raises(ValidationError):
            CredalSet.from_vertices([p, p])

    @pytest.mark.parametrize("atoms", [["x", "y"], ["x"]])
    def test_vertex_form_on_one_space(self, atoms):
        space, other = OutcomeSpace(["a", "b"]), OutcomeSpace(atoms)
        with pytest.raises(ValidationError, match="outcome space"):
            CredalSet.from_vertices([Pmf.point_mass(space, "a"), Pmf.point_mass(other, "x")])
        with pytest.raises(ValidationError, match="outcome space"):
            CredalSet(space, vertices=(Pmf.point_mass(other, "x"),))

    def test_polytope_vertex_list(self):
        space = OutcomeSpace(["a", "b"])
        credal = CredalSet.from_constraints(
            space, [LinearConstraint({"a": 1}, ">=", Fraction(1, 2))]
        )
        assert {p.as_tuple() for p in credal.vertex_list()} == {
            (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        }

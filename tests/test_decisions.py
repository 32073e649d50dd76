import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import pivotal_instance, product_space
from safeprob.core import CredalSet, Pmf, format_value
from safeprob.decisions import (
    BRIER,
    CUSTOM,
    LOG,
    ZERO_ONE,
    Action,
    LossFunction,
    _audit_symmetry,
    bayes_act,
    check_decision_safety,
    decision_loss_table,
    gamble_demo,
    loss_value,
)
from safeprob.demos import monty_events, monty_scenario
from safeprob.errors import InfiniteLoss, NotEssentiallyUnique, ValidationError
from safeprob.pivots import canonical_pivot, check_pivot, check_pivotal_safety
from safeprob.updates import build_event_scenario, rule_completion

D = lambda i: (Fraction(i),)


class TestBayesAct:
    def test_brier_returns_belief(self):
        belief = {D(0): Fraction(1, 3), D(1): Fraction(2, 3)}
        act = bayes_act(LossFunction(BRIER), belief)
        assert act.mass == belief and not act.tied

    def test_zero_one_picks_mode(self):
        belief = {D(0): Fraction(1, 3), D(1): Fraction(2, 3)}
        act = bayes_act(LossFunction(ZERO_ONE), belief)
        assert act.mass[D(1)] == 1 and not act.tied

    def test_zero_one_tie_break(self):
        belief = {D(0): Fraction(1, 2), D(1): Fraction(1, 2)}
        act = bayes_act(LossFunction(ZERO_ONE), belief)
        assert act.mass[D(0)] == 1 and act.tied

    def test_custom_minimizes_exactly(self):
        table = {
            (D(0), "stay"): 0, (D(1), "stay"): 1,
            (D(0), "move"): 1, (D(1), "move"): 0,
        }
        loss = LossFunction(CUSTOM, custom_table=table)
        act = bayes_act(loss, {D(0): Fraction(1, 3), D(1): Fraction(2, 3)})
        assert act.action_id == "move"

    def test_brier_act_is_optimal_among_grid(self):
        # spot-check propriety: the belief beats nearby distorted actions
        belief = {D(0): Fraction(1, 4), D(1): Fraction(3, 4)}
        loss = LossFunction(BRIER)
        base = sum(p * loss_value(loss, u, Action(mass=belief)) for u, p in belief.items())
        for eps in (Fraction(1, 10), Fraction(-1, 10)):
            other = {D(0): belief[D(0)] + eps, D(1): belief[D(1)] - eps}
            alt = sum(p * loss_value(loss, u, Action(mass=other)) for u, p in belief.items())
            assert base < alt

    def test_permutation_covariance_zero_one(self):
        rng = random.Random(101)
        values = [D(0), D(1), D(2)]
        loss = LossFunction(ZERO_ONE)
        for _ in range(60):
            weights = rng.sample(range(1, 10), 3)
            total = sum(weights)
            belief = {v: Fraction(w, total) for v, w in zip(values, weights)}
            act = bayes_act(loss, belief)
            if act.tied:
                continue
            perm = values[:]
            rng.shuffle(perm)
            mapping = dict(zip(values, perm))
            moved_belief = {mapping[v]: p for v, p in belief.items()}
            moved_act = bayes_act(loss, moved_belief)
            assert not moved_act.tied
            assert moved_act.mass == {mapping[v]: m for v, m in act.mass.items()}


class TestLossFunctions:
    def test_custom_table_symmetry_accepted(self):
        table = {
            (D(0), "a"): 0, (D(1), "a"): 1,
            (D(0), "b"): 1, (D(1), "b"): 0,
        }
        LossFunction(CUSTOM, custom_table=table)

    def test_custom_table_asymmetry_rejected(self):
        table = {
            (D(0), "a"): 0, (D(1), "a"): 2,
            (D(0), "b"): 1, (D(1), "b"): 0,
        }
        with pytest.raises(ValidationError):
            LossFunction(CUSTOM, custom_table=table)

    def test_missing_entry_prints_readable_key(self):
        table = {(D(0), "a"): 0, (D(1), "b"): 0}
        with pytest.raises(ValidationError) as excinfo:
            LossFunction(CUSTOM, custom_table=table)
        assert str(excinfo.value) == "custom loss table missing entry (0,b)"

    def test_no_symmetry_cap(self):
        # the audit checks two generators, so it takes any number of outcomes
        for n in (7, 9):
            outcomes = [D(i) for i in range(n)]
            table = {(u, f"guess{j}"): int(i != j)
                     for i, u in enumerate(outcomes) for j in range(n)}
            loss = LossFunction(CUSTOM, custom_table=table)
            assert loss.outcomes() == outcomes
            LossFunction(CUSTOM, custom_table={(u, "a"): 0 for u in outcomes})

    def test_asymmetric_seven_outcome_table_rejected(self):
        outcomes = [D(i) for i in range(7)]
        table = {(u, f"guess{j}"): int(i != j)
                 for i, u in enumerate(outcomes) for j in range(7)}
        table[(D(6), "guess0")] = 2
        with pytest.raises(ValidationError, match="not invariant under outcome permutations"):
            LossFunction(CUSTOM, custom_table=table)

    def test_randomized_zero_one_scores_mixtures(self):
        loss = LossFunction(ZERO_ONE, randomized=True)
        mixed = Action(mass={D(0): Fraction(1, 4), D(1): Fraction(3, 4)})
        assert loss_value(loss, D(1), mixed) == Fraction(1, 4)

    def test_randomized_is_zero_one_only(self):
        for kind in (BRIER, LOG):
            with pytest.raises(ValidationError) as excinfo:
                LossFunction(kind, randomized=True)
            assert str(excinfo.value) == "only zero_one losses can be randomized"
        table = {(D(0), "a"): 0, (D(1), "a"): 1, (D(0), "b"): 1, (D(1), "b"): 0}
        with pytest.raises(ValidationError):
            LossFunction(CUSTOM, custom_table=table, randomized=True)

    def test_log_loss_infinite_on_zero_mass(self):
        loss = LossFunction(LOG)
        act = Action(mass={D(0): Fraction(1)})
        assert loss_value(loss, D(1), act) == math.inf


def _orbit(column: tuple, generators: list) -> set:
    """Every image of ``column`` under the group the permutations generate."""
    seen, todo = {column}, [column]
    while todo:
        col = todo.pop()
        for perm in generators:
            image = tuple(col[i] for i in perm)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


@st.composite
def loss_tables(draw):
    """Union of column orbits under a random subgroup of outcome
    permutations: the symmetric group (a symmetric table), the cycle or
    the transposition alone (invariant under that generator only), or a
    random permutation; then possibly one entry changed or dropped."""
    n = draw(st.integers(1, 6))
    transposition = (1, 0, *range(2, n)) if n > 1 else (0,)
    cycle = (*range(1, n), 0)
    shuffled = tuple(draw(st.permutations(range(n))))
    generators = draw(st.sampled_from([
        [transposition, cycle], [cycle], [transposition], [shuffled], [transposition, shuffled],
    ]))
    # few distinct entries keep the orbits, and the oracle's n! passes, short
    values = draw(st.lists(st.sampled_from([0, 1, Fraction(1, 2), 2, math.inf]),
                           min_size=1, max_size=3 if n < 6 else 2, unique=True))
    entries = st.sampled_from(values)
    columns = []
    for _ in range(draw(st.integers(1, 2))):
        base = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
        columns += sorted(_orbit(base, generators), key=repr) * draw(st.integers(1, 2))
    table = {(D(i), f"a{j}"): x for j, col in enumerate(columns) for i, x in enumerate(col)}
    change = draw(st.sampled_from(["none", "none", "entry", "drop"]))
    key = draw(st.sampled_from(sorted(table, key=repr)))
    if change == "entry":
        table[key] = draw(entries)
    elif change == "drop" and len(table) > 1:
        del table[key]
    return table


def _audit_outcome(audit, table):
    try:
        audit(table)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loss_tables())
def test_symmetry_audit_matches_permutation_oracle(table):
    reference = _audit_outcome(oracles._audit_symmetry, table)
    if reference is not None and reference.startswith("custom loss table missing entry"):
        for key in itertools.product({u for u, _ in table}, {a for _, a in table}):
            reference = reference.replace(repr(key), format_value(key))  # as reports print it
    assert _audit_outcome(_audit_symmetry, table) == reference


class TestDecisionSafety:
    def test_fair_monty_zero_one_exact(self):
        scn = monty_scenario()
        verdict = check_decision_safety(
            scn["ptilde"], scn["U"], scn["V"], LossFunction(ZERO_ONE), scn["credal"]
        )
        assert verdict.holds
        table = decision_loss_table(
            scn["ptilde"], scn["U"], scn["V"], LossFunction(ZERO_ONE), scn["credal"]
        )
        assert set(table["believed"].values()) == {Fraction(1, 3)}
        assert set(table["actual"]) == {Fraction(1, 3)}

    def test_fair_monty_brier_exact(self):
        scn = monty_scenario()
        verdict = check_decision_safety(
            scn["ptilde"], scn["U"], scn["V"], LossFunction(BRIER), scn["credal"]
        )
        assert verdict.holds
        table = decision_loss_table(
            scn["ptilde"], scn["U"], scn["V"], LossFunction(BRIER), scn["credal"]
        )
        assert set(table["believed"].values()) == {Fraction(4, 9)}
        assert set(table["actual"]) == {Fraction(4, 9)}

    def test_fair_monty_log_within_tolerance(self):
        scn = monty_scenario()
        verdict = check_decision_safety(
            scn["ptilde"], scn["U"], scn["V"], LossFunction(LOG), scn["credal"]
        )
        assert verdict.holds

    def test_naive_monty_fails_with_exact_gap(self):
        built = build_event_scenario(monty_events())
        joint = rule_completion(built["naive"], built["space"])
        verdict = check_decision_safety(
            joint, built["target"], built["conditioner"],
            LossFunction(ZERO_ONE), built["credal"],
        )
        assert not verdict.holds
        ce = verdict.counterexample
        assert ce.rhs == Fraction(1, 2)  # believed
        assert ce.lhs == Fraction(2, 3)  # realized under a deterministic host
        assert any("tie" in note for note in verdict.notes)

    def test_log_loss_raises_on_impossible_outcome(self):
        space, u, v = product_space(2, 2)
        ptilde = Pmf(space, {
            "u0v0": Fraction(1, 2), "u0v1": Fraction(1, 2),
        })
        vertex = Pmf(space, {"u1v0": Fraction(1, 2), "u1v1": Fraction(1, 2)})
        credal = CredalSet.from_vertices([vertex])
        with pytest.raises(InfiniteLoss):
            check_decision_safety(ptilde, u, v, LossFunction(LOG), credal)

    def test_tie_note_prints_values_as_reports_do(self):
        space, u, v = product_space(2, 2)
        uniform = Pmf.uniform(space)
        verdict = check_decision_safety(
            uniform, u, v, LossFunction(ZERO_ONE), CredalSet.from_vertices([uniform])
        )
        assert verdict.notes == (
            "Bayes-act tie at conditioning value 0 broken canonically",
            "Bayes-act tie at conditioning value 1 broken canonically",
        )

    def test_believed_infinite_loss_prints_values_as_reports_do(self):
        space, u, v = product_space(2, 2)
        uniform = Pmf.uniform(space)
        table = {(D(0), "a"): 0, (D(1), "a"): math.inf, (D(0), "b"): math.inf, (D(1), "b"): 0}
        with pytest.raises(InfiniteLoss) as info:
            check_decision_safety(uniform, u, v, LossFunction(CUSTOM, custom_table=table),
                                  CredalSet.from_vertices([uniform]))
        assert str(info.value) == "believed loss infinite at conditioning value 0, outcome 1"

    def test_custom_table_lacking_an_outcome_is_rejected_by_both(self):
        space, u, v = product_space(3, 2)
        uniform = Pmf.uniform(space)
        table = {(D(0), "a"): 0, (D(1), "a"): 1, (D(0), "b"): 1, (D(1), "b"): 0}
        loss = LossFunction(CUSTOM, custom_table=table)
        for check in (check_decision_safety, decision_loss_table):
            with pytest.raises(ValidationError) as info:
                check(uniform, u, v, loss, CredalSet.from_vertices([uniform]))
            assert str(info.value) == "custom loss table lacks outcomes [2]", check.__name__
        # a conditioner that is not essentially unique is still reported first
        ptilde = Pmf.normalized(space, {"u0v0": 1, "u1v0": 1, "u2v0": 1})
        with pytest.raises(NotEssentiallyUnique):
            check_decision_safety(ptilde, u, v, loss, CredalSet.from_vertices([uniform]))

    def test_pivotal_safety_gives_decision_safety(self):
        # a simple common-law pivot with tie-free Bayes acts makes the
        # pragmatic policy earn exactly its believed loss for every
        # symmetric built-in score
        rng = random.Random(103)
        exercised = 0
        for _ in range(200):
            inst = pivotal_instance(rng, safe=True)
            spec = canonical_pivot(inst["ptilde"], inst["U"], inst["V"])
            if not check_pivot(spec, inst["U"], inst["V"], inst["credal"]).is_simple:
                continue
            if not check_pivotal_safety(
                inst["ptilde"], inst["U"], inst["V"], spec, inst["credal"]
            ).holds:
                continue
            for kind in (ZERO_ONE, BRIER, LOG):
                loss = LossFunction(kind)
                verdict = check_decision_safety(
                    inst["ptilde"], inst["U"], inst["V"], loss, inst["credal"]
                )
                if any("tie" in note for note in verdict.notes):
                    continue
                assert verdict.holds, kind
                exercised += 1
        assert exercised >= 30

    def test_tower_property_under_pragmatic_truth(self):
        rng = random.Random(107)
        for _ in range(25):
            inst = pivotal_instance(rng, safe=rng.random() < 0.5)
            loss = LossFunction(rng.choice([ZERO_ONE, BRIER]))
            table = decision_loss_table(
                inst["ptilde"], inst["U"], inst["V"], loss,
                CredalSet.from_vertices([inst["ptilde"]]),
            )
            v = inst["V"]
            mixed = sum(
                inst["ptilde"].prob(v, vv) * believed
                for vv, believed in table["believed"].items()
            )
            assert mixed == table["actual"][0]


class TestGambleDemo:
    def test_requires_negative_parameter(self):
        with pytest.raises(ValidationError):
            gamble_demo(0.2, 10, 1000, 1)

    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"seed must lie in \[0, 2\*\*128\), got -1"):
            gamble_demo(-0.2, 10, 1000, -1)

    def test_believed_loss_matches_quadrature(self):
        # independent oracle: integrate the believed conditional loss of
        # the accept region against the sampling density of the mean
        from scipy.integrate import quad
        from scipy.stats import norm

        theta_bar, n = -0.2, 10
        root_n = math.sqrt(n)

        def integrand(t):
            return (2.0 * norm.cdf(-t * root_n) - 1.0) * norm.pdf(
                (t - theta_bar) * root_n
            ) * root_n

        want, err = quad(integrand, 0.0, 8.0)
        assert err < 1e-9
        out = gamble_demo(theta_bar, n, 2_000_000, seed=17)
        assert out["believed_expected_loss"] == pytest.approx(want, abs=2e-3)

    def test_far_tail_both_vanish(self):
        out = gamble_demo(-10.0, 10, 50_000, 3)
        assert abs(out["actual_expected_loss"]) < 1e-6
        assert abs(out["believed_expected_loss"]) < 1e-6

    def test_reproducible(self):
        a = gamble_demo(-0.2, 10, 20_000, 5)
        b = gamble_demo(-0.2, 10, 20_000, 5)
        assert a == b

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STRATEGIES, calibrated_instance, make_instance, mixed_instance, product_space
from conftest import map_hull_membership as hull_membership
from oracles import compose
from safeprob.core import CredalSet, OutcomeSpace, Pmf, Rv
from safeprob.demos import (
    dilation_extension_scenario,
    dilation_scenario,
    monty_events,
    monty_scenario,
)
from safeprob.calibration import check_calibrated_full, check_calibrated_mean, ignores
from safeprob.decisions import ZERO_ONE, LossFunction, check_decision_safety, decision_loss_table
from safeprob.errors import (
    NonNumericTarget,
    NotEssentiallyUnique,
    UniquenessViolated,
    ValidationError,
)
from safeprob.pivots import PivotSpec, canonical_pivot, check_pivot, check_pivotal_safety
from safeprob.safety import (
    HIERARCHY_IMPLICATIONS,
    LEFT_AVERAGE,
    LEFT_FULL,
    NOTION_QUERIES,
    RIGHT_ANGLE,
    RIGHT_DBLSQUARE,
    RIGHT_PLAIN,
    RIGHT_SQUARE,
    SafetyQuery,
    check_safety,
    hierarchy_report,
)
from safeprob.updates import build_event_scenario, rule_completion


def verdicts_for(inst, notions=NOTION_QUERIES):
    out = {}
    for name, (left, right) in notions.items():
        query = SafetyQuery(inst["U"], left, inst["V"], right)
        out[name] = check_safety(query, inst["ptilde"], inst["credal"])
    return out


class TestDilation:
    def setup_method(self):
        self.scn = dilation_scenario()

    def test_marginal_validity_holds(self):
        verdict = check_safety(
            SafetyQuery(self.scn["U"], LEFT_FULL, self.scn["V"], RIGHT_SQUARE),
            self.scn["ptilde"], self.scn["credal"],
        )
        assert verdict.holds

    def test_validity_fails_with_exact_counterexample(self):
        verdict = check_safety(
            SafetyQuery(self.scn["U"], LEFT_FULL, self.scn["V"], RIGHT_PLAIN),
            self.scn["ptilde"], self.scn["credal"],
        )
        assert not verdict.holds
        ce = verdict.counterexample
        assert isinstance(ce.lhs, Fraction) and isinstance(ce.rhs, Fraction)
        assert ce.lhs != ce.rhs
        # the anti-correlated candidate truth is among the vertices
        u, v = self.scn["U"], self.scn["V"]
        anti = [
            p for p in self.scn["credal"].vertex_list()
            if all(
                p.weights[z] == 0
                or u.table[z][0] == abs(1 - v.table[z][0])
                for z in p.space.atoms
            )
        ]
        assert anti, "expected a vertex concentrated on U = |1 - V|"

    def test_extension_indicator_vs_mean(self):
        ext = dilation_extension_scenario()
        ind = check_safety(
            SafetyQuery(ext["indicator"], LEFT_AVERAGE, ext["V"], RIGHT_ANGLE),
            ext["ptilde"], ext["credal"],
        )
        mean = check_safety(
            SafetyQuery(ext["U"], LEFT_AVERAGE, ext["V"], RIGHT_ANGLE),
            ext["ptilde"], ext["credal"],
        )
        assert ind.holds
        assert not mean.holds
        witness = mean.counterexample.vertex
        assert witness.prob(ext["U"], (Fraction(2),)) == 0


class TestHullMembership:
    def test_point_equals_generator(self):
        g = {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert hull_membership(g, [g, {0: Fraction(1), 1: Fraction(0)}])

    def test_solvable_two_by_two(self):
        point = {0: Fraction(7, 10), 1: Fraction(3, 10)}
        gens = [
            {0: Fraction(1, 2), 1: Fraction(1, 2)},
            {0: Fraction(9, 10), 1: Fraction(1, 10)},
        ]
        assert hull_membership(point, gens)

    def test_outside(self):
        point = {0: Fraction(0), 1: Fraction(1)}
        gens = [
            {0: Fraction(1, 2), 1: Fraction(1, 2)},
            {0: Fraction(9, 10), 1: Fraction(1, 10)},
        ]
        assert not hull_membership(point, gens)

    def test_interior_of_triangle(self):
        gens = [
            {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)},
            {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
            {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)},
        ]
        anywhere = {0: Fraction(2, 7), 1: Fraction(4, 7), 2: Fraction(1, 7)}
        assert hull_membership(anywhere, gens)

    def test_coordinatewise_inside_but_outside_hull(self):
        gens = [
            {0: Fraction(2, 3), 1: Fraction(1, 3), 2: Fraction(0)},
            {0: Fraction(0), 1: Fraction(2, 3), 2: Fraction(1, 3)},
            {0: Fraction(1, 3), 1: Fraction(0), 2: Fraction(2, 3)},
        ]
        point = {0: Fraction(2, 3), 1: Fraction(0), 2: Fraction(1, 3)}
        assert not hull_membership(point, gens)


class TestGuards:
    def test_not_essentially_unique(self):
        space, u, v = product_space(2, 2)
        ptilde = Pmf(space, {"u0v0": Fraction(1, 2), "u1v0": Fraction(1, 2)})
        credal = CredalSet.from_vertices([Pmf(space, {"u0v1": 1})])
        with pytest.raises(NotEssentiallyUnique):
            check_safety(SafetyQuery(u, LEFT_FULL, v, RIGHT_PLAIN), ptilde, credal)

    def test_non_numeric_average_target(self):
        space = OutcomeSpace(["a", "b"])
        u = Rv(space, "U", {"a": "x", "b": "y"})
        v = Rv.constant(space, "V")
        p = Pmf.uniform(space)
        credal = CredalSet.from_vertices([p])
        with pytest.raises(NonNumericTarget):
            check_safety(SafetyQuery(u, LEFT_AVERAGE, v, RIGHT_ANGLE), p, credal)

    def test_full_mode_allows_symbol_target(self):
        space = OutcomeSpace(["a", "b"])
        u = Rv(space, "U", {"a": "x", "b": "y"})
        v = Rv.constant(space, "V")
        p = Pmf.uniform(space)
        credal = CredalSet.from_vertices([p])
        assert check_safety(SafetyQuery(u, LEFT_FULL, v, RIGHT_PLAIN), p, credal).holds

    @pytest.mark.parametrize("atoms", [["w", "x", "y", "z"], ["w", "x", "y"]])
    def test_checkers_reject_inputs_on_another_space(self, atoms):
        """Every public checker, and the loss table, ignore test and
        canonical pivot, raises ValidationError for a pragmatic
        distribution or credal set on another space, of equal length or
        shorter, and checks inputs on an equal space built anew."""
        space = OutcomeSpace(["a", "b", "c", "d"])
        u = Rv(space, "U", {"a": 0, "b": 1, "c": 0, "d": 1})
        v = Rv(space, "V", {"a": 0, "b": 0, "c": 1, "d": 1})
        spec = PivotSpec("T", {(u.table[z], v.table[z]): u.table[z] for z in space.atoms})
        other = OutcomeSpace(atoms)
        checkers = [
            lambda pt, cs: check_safety(SafetyQuery(u, LEFT_FULL, v, RIGHT_PLAIN), pt, cs),
            lambda pt, cs: check_calibrated_full(u, v, pt, cs),
            lambda pt, cs: check_calibrated_mean(u, v, pt, cs),
            lambda pt, cs: check_decision_safety(pt, u, v, LossFunction(ZERO_ONE), cs),
            lambda pt, cs: check_pivot(spec, u, v, cs),
            lambda pt, cs: check_pivotal_safety(pt, u, v, spec, cs),
            lambda pt, cs: decision_loss_table(pt, u, v, LossFunction(ZERO_ONE), cs),
            lambda pt, cs: ignores(pt, u, v, v),
            lambda pt, cs: canonical_pivot(pt, u, u),  # given U, no two outcomes tie
        ]
        takes_no_credal_set = checkers[-2:]
        same = OutcomeSpace(space.atoms)  # spaces are compared by their atoms
        own, own_set = Pmf.uniform(same), CredalSet.from_vertices([Pmf.uniform(same)])
        for checker in checkers:
            checker(own, own_set)
            for pt, cs in ((Pmf.uniform(other), own_set),
                           (own, CredalSet.from_vertices([Pmf(other, {"w": 1})]))):
                if checker is checkers[4] and pt is not own:
                    continue  # the pivot check takes no pragmatic distribution
                if checker in takes_no_credal_set and pt is own:
                    continue
                with pytest.raises(ValidationError, match="share one outcome space"):
                    checker(pt, cs)


class TestHierarchyReport:
    def test_dilation_report(self):
        scn = dilation_scenario()
        report = hierarchy_report(scn["U"], scn["V"], scn["ptilde"], scn["credal"])
        expected = {
            "marginal": True, "dist-unbiased": True, "unbiased": True,
            "range": True, "valid": False, "sqerr": False, "calibrated": True,
        }
        for name, holds in expected.items():
            assert report[name].holds == holds, name
        assert not any("internal-error" in n for v in report.values() for n in v.notes)

    def test_singleton_truth(self):
        # with the credal set equal to the pragmatic joint, validity holds
        # and so does everything validity implies; ignoring-the-conditioner
        # notions additionally need actual independence
        rng = random.Random(5)
        for _ in range(10):
            inst = make_instance(rng, "singleton")
            report = hierarchy_report(inst["U"], inst["V"], inst["ptilde"], inst["credal"])
            for name in ("valid", "sqerr", "dist-unbiased", "unbiased", "range", "calibrated"):
                assert report[name].holds, name
            from oracles import support, value_pmf
            from safeprob.core import condition

            ptilde, u, v = inst["ptilde"], inst["U"], inst["V"]
            independent = all(
                value_pmf(condition(ptilde, v, vv), u) == value_pmf(ptilde, u)
                for vv in support(ptilde, v)
            )
            assert report["marginal"].holds == independent
            assert not any("internal-error" in n for vd in report.values() for n in vd.notes)

    def test_naive_monty_report(self):
        built = build_event_scenario(monty_events())
        joint = rule_completion(built["naive"], built["space"])
        # target values are symbols here only if outcomes were symbols; they
        # are numeric doors, so the average notions are defined
        report = hierarchy_report(built["target"], built["conditioner"], joint, built["credal"])
        for name in ("valid", "sqerr", "dist-unbiased", "unbiased", "marginal", "calibrated"):
            assert not report[name].holds, name
        # both candidate truths have mean door number 2, inside the believed range
        assert report["range"].holds
        assert not any("internal-error" in n for v in report.values() for n in v.notes)

    def test_omitted_notions_are_named_with_their_reasons(self):
        # a symbol target: the average-mode notions are left out, and so is
        # pivotal, since both outcomes get 1/2 at every conditioning value
        space = OutcomeSpace(["a0", "b0", "a1", "b1"])
        u = Rv(space, "U", {"a0": "a", "b0": "b", "a1": "a", "b1": "b"})
        v = Rv(space, "V", {"a0": 0, "b0": 0, "a1": 1, "b1": 1})
        ptilde = Pmf.uniform(space)
        corner = Pmf(space, {"a0": Fraction(1, 2), "b1": Fraction(1, 2)})
        credal = CredalSet.from_vertices([ptilde, corner])
        omitted: dict = {}
        report = hierarchy_report(u, v, ptilde, credal, omitted)
        assert list(report) == ["valid", "dist-unbiased", "marginal", "calibrated"]
        assert {name: type(exc) for name, exc in omitted.items()} == {
            "sqerr": NonNumericTarget, "unbiased": NonNumericTarget, "range": NonNumericTarget,
            "pivotal": UniquenessViolated}
        assert hierarchy_report(u, v, ptilde, credal) == report
        # valid fails here, and the arrows into the omitted notions are skipped
        assert not report["valid"].holds
        assert not any("internal-error" in n for vd in report.values() for n in vd.notes)


class TestDistributionRange:
    def test_dilation_law_inside_predicted_hull(self):
        scn = dilation_scenario()
        verdict = check_safety(
            SafetyQuery(scn["U"], LEFT_FULL, scn["V"], RIGHT_DBLSQUARE),
            scn["ptilde"], scn["credal"],
        )
        assert verdict.holds

    def test_naive_monty_law_outside_predicted_hull(self):
        built = build_event_scenario(monty_events())
        joint = rule_completion(built["naive"], built["space"])
        verdict = check_safety(
            SafetyQuery(built["target"], LEFT_FULL, built["conditioner"], RIGHT_DBLSQUARE),
            joint, built["credal"],
        )
        assert not verdict.holds

    def test_avg_marginal_holds_for_dilation(self):
        scn = dilation_scenario()
        verdict = check_safety(
            SafetyQuery(scn["U"], LEFT_AVERAGE, scn["V"], RIGHT_SQUARE),
            scn["ptilde"], scn["credal"],
        )
        assert verdict.holds


class TestConcurrentUse:
    def test_parallel_checks_agree_with_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(97)
        instances = [mixed_instance(rng) for _ in range(24)]
        jobs = [
            (inst, notion, left, right)
            for inst in instances
            for notion, (left, right) in NOTION_QUERIES.items()
        ]

        def run(job):
            inst, _, left, right = job
            return check_safety(
                SafetyQuery(inst["U"], left, inst["V"], right),
                inst["ptilde"], inst["credal"],
            ).holds

        serial = [run(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(run, jobs))
        assert serial == parallel


class TestScalingInvariance:
    def test_affine_rescaling_preserves_average_verdicts(self):
        rng = random.Random(13)
        for _ in range(30):
            inst = mixed_instance(rng)
            a = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2]))
            b = Fraction(rng.randint(-4, 4))
            scaled = compose(inst["U"], "aU+b", lambda val: (a * val[0] + b,))
            for right in (RIGHT_DBLSQUARE, RIGHT_ANGLE, RIGHT_SQUARE, RIGHT_PLAIN):
                base = check_safety(
                    SafetyQuery(inst["U"], LEFT_AVERAGE, inst["V"], right),
                    inst["ptilde"], inst["credal"],
                )
                moved = check_safety(
                    SafetyQuery(scaled, LEFT_AVERAGE, inst["V"], right),
                    inst["ptilde"], inst["credal"],
                )
                assert base.holds == moved.holds


class TestStratification:
    def test_constant_stratifier_matches_unstratified(self):
        rng = random.Random(17)
        for _ in range(25):
            inst = mixed_instance(rng)
            const = Rv.constant(inst["space"], "0")
            for name, (left, right) in NOTION_QUERIES.items():
                plain = check_safety(
                    SafetyQuery(inst["U"], left, inst["V"], right),
                    inst["ptilde"], inst["credal"],
                )
                strat = check_safety(
                    SafetyQuery(inst["U"], left, inst["V"], right, stratifier=const),
                    inst["ptilde"], inst["credal"],
                )
                assert plain.holds == strat.holds, name

    def test_stratified_square_detects_conditional_ignoring(self):
        # pragmatic conditionals depend on V only through W: safe for the
        # target given [V] stratified by W, though not unstratified.
        space, u, v = product_space(2, 3)
        w = compose(v, "W", lambda val: (Fraction(int(val[0] >= 1)),))
        rows = {
            (Fraction(0),): {(Fraction(0),): Fraction(1, 4), (Fraction(1),): Fraction(3, 4)},
            (Fraction(1),): {(Fraction(0),): Fraction(2, 3), (Fraction(1),): Fraction(1, 3)},
            (Fraction(2),): {(Fraction(0),): Fraction(2, 3), (Fraction(1),): Fraction(1, 3)},
        }
        third = Fraction(1, 3)
        ptilde = Pmf(space, {
            z: third * rows[v.table[z]][u.table[z]] for z in space.atoms
        })
        vertex = ptilde
        credal = CredalSet.from_vertices([vertex])
        strat = check_safety(
            SafetyQuery(u, LEFT_FULL, v, RIGHT_SQUARE, stratifier=w), ptilde, credal
        )
        flat = check_safety(SafetyQuery(u, LEFT_FULL, v, RIGHT_SQUARE), ptilde, credal)
        assert strat.holds
        assert not flat.holds


class TestHierarchyImplications:
    IMPLICATIONS = [
        ("valid", "sqerr"),
        ("sqerr", "unbiased"),
        ("valid", "dist-unbiased"),
        ("dist-unbiased", "unbiased"),
        ("unbiased", "range"),
        ("marginal", "dist-unbiased"),
    ]

    def test_implications_small_sample(self):
        rng = random.Random(23)
        antecedent_seen = {a: 0 for a, _ in self.IMPLICATIONS}
        for _ in range(120):
            inst = mixed_instance(rng)
            results = {k: v.holds for k, v in verdicts_for(inst).items()}
            for ante, cons in self.IMPLICATIONS:
                if results[ante]:
                    antecedent_seen[ante] += 1
                    assert results[cons], (ante, cons, inst)
        assert all(count > 0 for count in antecedent_seen.values())

    @given(st.sampled_from([*STRATEGIES, "calibrated"]), st.integers(2, 3), st.integers(2, 3),
           st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_report_never_violates_an_arrow(self, strategy, n_u, n_v, seed):
        rng, dims = random.Random(seed), (n_u, n_v)
        inst = (calibrated_instance(rng, dims=dims) if strategy == "calibrated"
                else make_instance(rng, strategy, dims=dims))
        report = hierarchy_report(inst["U"], inst["V"], inst["ptilde"], inst["credal"])
        for name, verdict in report.items():
            assert not [note for note in verdict.notes if "internal-error" in note], name
        for ante, cons in HIERARCHY_IMPLICATIONS:
            if ante in report and report[ante].holds:
                assert report[cons].holds, (ante, cons)


class TestMontyPivotBias:
    def test_biased_host_breaks_pivotal_but_not_events(self):
        from safeprob.pivots import check_pivotal_safety

        scn = monty_scenario(host_bias=Fraction(9, 10))
        verdict = check_pivotal_safety(
            scn["ptilde"], scn["U"], scn["V"], scn["pivot"], scn["credal"]
        )
        assert not verdict.holds

    def test_report_records_non_pivot_as_failure(self):
        import random

        from conftest import pivotal_instance

        rng = random.Random(211)
        saw_failure = False
        for _ in range(30):
            inst = pivotal_instance(rng, safe=False)
            report = hierarchy_report(inst["U"], inst["V"], inst["ptilde"], inst["credal"])
            if "pivotal" in report and not report["pivotal"].holds:
                saw_failure = True
        assert saw_failure

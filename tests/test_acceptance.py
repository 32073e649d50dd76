"""Acceptance suite: one test per criterion, at the stated tolerances.

A summary line per criterion is printed at the end of the pytest run
(see the terminal-summary hook in conftest).
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import (
    calibrated_instance,
    map_hull_membership as hull_membership,
    mixed_instance,
    pivotal_instance,
    rational_pmf,
)
from oracles import (
    calibration_equivalence,
    coarsening_quantifier_oracle,
    compose,
    pivot_equivalence,
    support,
    value_pmf,
)
from safeprob import bundled_scenario
from safeprob.calibration import check_calibrated_full
from safeprob.core import Rv, condition, determines, joint_rv
from safeprob.decisions import (
    BRIER,
    ZERO_ONE,
    LossFunction,
    check_decision_safety,
    decision_loss_table,
    gamble_demo,
)
from safeprob.demos import (
    dilation_extension_scenario,
    monty_events,
    monty_partition_control,
    monty_scenario,
)
from safeprob.confidence import (
    coverage_estimate,
    exponential_mean,
    gamma_reg,
    normal_cdf,
    normal_location,
)
from safeprob.pivots import check_pivot, check_pivotal_safety
from safeprob.safety import (
    LEFT_AVERAGE,
    LEFT_FULL,
    NOTION_QUERIES,
    RIGHT_ANGLE,
    RIGHT_SQUARE,
    SafetyQuery,
    check_safety,
)
from safeprob.scenario import parse_scenario
from safeprob.updates import build_event_scenario, partition_check, rule_completion

mpmath.mp.dps = 30


class elapsed:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def test_c1_dilation_reproduction():
    with elapsed() as clock:
        scenario = parse_scenario(bundled_scenario("dilation.scn"))
        u, v = scenario.rvs["U"], scenario.rvs["V"]
        expected = {
            "marginal": True, "dist-unbiased": True, "unbiased": True,
            "range": True, "valid": False, "sqerr": False,
        }
        for notion, should_hold in expected.items():
            left, right = NOTION_QUERIES[notion]
            verdict = check_safety(
                SafetyQuery(u, left, v, right), scenario.pragmatic, scenario.credal
            )
            assert verdict.holds == should_hold, notion
        assert check_calibrated_full(u, v, scenario.pragmatic, scenario.credal).holds

        ext = dilation_extension_scenario()
        indicator = check_safety(
            SafetyQuery(ext["indicator"], LEFT_AVERAGE, ext["V"], RIGHT_ANGLE),
            ext["ptilde"], ext["credal"],
        )
        assert indicator.holds
        mean = check_safety(
            SafetyQuery(ext["U"], LEFT_AVERAGE, ext["V"], RIGHT_ANGLE),
            ext["ptilde"], ext["credal"],
        )
        assert not mean.holds
        witness = mean.counterexample.vertex
        assert witness.prob(ext["U"], (Fraction(2),)) == 0
        assert isinstance(mean.counterexample.lhs, Fraction)
    assert clock.seconds < 1.0


def test_c2_monty_hall():
    with elapsed() as clock:
        built = build_event_scenario(monty_events())
        naive_joint = rule_completion(built["naive"], built["space"])
        for notion in ("valid", "dist-unbiased"):
            left, right = NOTION_QUERIES[notion]
            verdict = check_safety(
                SafetyQuery(built["target"], left, built["conditioner"], right),
                naive_joint, built["credal"],
            )
            assert not verdict.holds, notion

        overlap = partition_check(monty_events())
        assert overlap["is_partition"] is False and not overlap["verdict"].holds
        control = partition_check(monty_partition_control())
        assert control["is_partition"] is True and control["verdict"].holds

        scn = monty_scenario()
        pv = check_pivot(scn["pivot"], scn["U"], scn["V"], scn["credal"])
        assert pv.is_pivot and pv.is_simple
        assert check_pivotal_safety(
            scn["ptilde"], scn["U"], scn["V"], scn["pivot"], scn["credal"]
        ).holds

        for kind, common in ((ZERO_ONE, Fraction(1, 3)), (BRIER, Fraction(4, 9))):
            loss = LossFunction(kind)
            assert check_decision_safety(
                scn["ptilde"], scn["U"], scn["V"], loss, scn["credal"]
            ).holds
            table = decision_loss_table(
                scn["ptilde"], scn["U"], scn["V"], loss, scn["credal"]
            )
            assert set(table["believed"].values()) == {common}
            assert set(table["actual"]) == {common}
    assert clock.seconds < 1.0


ARROWS = (
    ("valid", "sqerr"),
    ("valid", "dist-unbiased"),
    ("sqerr", "unbiased"),
    ("dist-unbiased", "unbiased"),
    ("unbiased", "range"),
    ("marginal", "dist-unbiased"),
)


def test_c3_hierarchy_property_suite():
    rng = random.Random(20260810)
    with elapsed() as clock:
        antecedents = {name: 0 for name, _ in ARROWS}
        strat_antecedent = 0
        for i in range(1000):
            inst = mixed_instance(rng, max_atoms=8)
            results = {}
            for notion, (left, right) in NOTION_QUERIES.items():
                results[notion] = check_safety(
                    SafetyQuery(inst["U"], left, inst["V"], right),
                    inst["ptilde"], inst["credal"],
                ).holds
            for ante, cons in ARROWS:
                if results[ante]:
                    antecedents[ante] += 1
                    assert results[cons], (ante, cons)
            if i % 4 == 0:
                u, v = inst["U"], inst["V"]
                choice = rng.randrange(3)
                if choice == 0:
                    w = v
                elif choice == 1:
                    g = {vv: rng.randint(0, 1) for vv in v.range()}
                    w = compose(v, "W", lambda val: (Fraction(g[val]),))
                else:
                    w = Rv.constant(inst["space"], "0")
                strat = check_safety(
                    SafetyQuery(u, LEFT_FULL, v, RIGHT_SQUARE, stratifier=w),
                    inst["ptilde"], inst["credal"],
                ).holds
                if strat:
                    strat_antecedent += 1
                    assert check_calibrated_full(
                        u, v, inst["ptilde"], inst["credal"]
                    ).holds
        assert all(count >= 20 for count in antecedents.values()), antecedents
        assert strat_antecedent >= 20
    assert clock.seconds < 60.0


def _independent_ignore_clauses(ptilde, u, v, vprime):
    from safeprob.calibration import predicted_distribution_rv

    pair = joint_rv(v, vprime)
    rows_prime = {pv: value_pmf(condition(ptilde, vprime, pv), u)
                  for pv in support(ptilde, vprime)}
    c1 = all(
        value_pmf(condition(ptilde, pair, cell), u) == rows_prime[cell[1]]
        for cell in support(ptilde, pair)
    )
    f = determines(v, vprime, ptilde)
    c2 = all(
        value_pmf(condition(ptilde, v, vv), u) == rows_prime[f[vv]]
        for vv in support(ptilde, v)
    )
    pred = predicted_distribution_rv(ptilde, u, v).as_rv
    c3 = determines(vprime, pred, ptilde) is not None
    pair2 = joint_rv(vprime, pred)
    rows_pred = {pp: value_pmf(condition(ptilde, pred, pp), u)
                 for pp in support(ptilde, pred)}
    c4 = c3 and all(
        value_pmf(condition(ptilde, pair2, cell), u) == rows_pred[cell[1]]
        for cell in support(ptilde, pair2)
    )
    return c1, c2, c3, c4


def test_c4_theorem_equivalence_suites():
    rng = random.Random(47_000)
    with elapsed() as clock:
        # calibration three-way agreement
        outcomes = {True: 0, False: 0}
        for _ in range(500):
            inst = rng.choice([
                mixed_instance(rng), calibrated_instance(rng), calibrated_instance(rng),
            ])
            out = calibration_equivalence(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            )
            outcomes[out["calibrated"]] += 1
        assert outcomes[True] >= 50 and outcomes[False] >= 50

        # ignoring: four independently implemented clauses agree
        from safeprob.calibration import ignores

        seen = {True: 0, False: 0}
        for _ in range(500):
            inst = mixed_instance(rng)
            u, v, ptilde = inst["U"], inst["V"], inst["ptilde"]
            group = {vv: rng.randrange(2) for vv in v.range()}
            if rng.random() < 0.5:
                from conftest import joint_from_rows

                rows = {0: rational_pmf(rng, u.range()), 1: rational_pmf(rng, u.range())}
                ptilde = joint_from_rows(
                    inst["space"], u, v, rational_pmf(rng, v.range()),
                    {vv: rows[group[vv]] for vv in v.range()},
                )
            vprime = compose(v, "V'", lambda val: (Fraction(group[val]),))
            clauses = _independent_ignore_clauses(ptilde, u, v, vprime)
            lib = ignores(ptilde, u, v, vprime)
            assert len(set(clauses) | {lib}) == 1, (clauses, lib)
            seen[lib] += 1
        assert seen[True] >= 50 and seen[False] >= 50

        # pivots: three-way agreement with exhaustive simple-pivot search
        outcomes = {True: 0, False: 0}
        hypothesis_failures = 0
        for _ in range(500):
            roll = rng.random()
            if roll < 0.45:
                inst = pivotal_instance(rng, safe=True, max_atoms=6)
            elif roll < 0.8:
                inst = pivotal_instance(rng, safe=False, max_atoms=6)
            else:
                inst = mixed_instance(rng, max_atoms=6)
            out = pivot_equivalence(inst["ptilde"], inst["U"], inst["V"], inst["credal"])
            outcomes[out["pivotal_safe"]] += 1
            hypothesis_failures += not out["hypothesis_met"]
        assert outcomes[True] >= 50 and outcomes[False] >= 50

        # event conditioning: set algebra against the validity check
        from test_updates import random_event_scenario

        seen = {True: 0, False: 0}
        for _ in range(500):
            out = partition_check(random_event_scenario(rng))
            assert out["is_partition"] == out["verdict"].holds
            seen[out["is_partition"]] += 1
        assert seen[True] >= 50 and seen[False] >= 50
    assert clock.seconds < 120.0


def test_c5_hull_membership_brute_force_oracle():
    rng = random.Random(555)
    results = {True: 0, False: 0}
    for _ in range(200):
        k = rng.randint(2, 3)
        values = [(Fraction(i),) for i in range(k)]
        generators = [rational_pmf(rng, values, full_support=False)
                      for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            weights = rational_pmf(rng, range(len(generators)), full_support=False)
            point = {
                val: sum((weights[i] * g[val] for i, g in enumerate(generators)),
                         start=Fraction(0))
                for val in values
            }
        else:
            point = rational_pmf(rng, values, full_support=False)
        got = hull_membership(point, generators)
        want = coarsening_quantifier_oracle(point, generators, values)
        assert got == want
        results[got] += 1
    assert results[True] >= 30 and results[False] >= 30


COVERAGE_GRID = [
    (normal_location(1), (-3.0, -0.5, 0.0, 0.7, 2.5)),
    (normal_location(10), (-3.0, -0.5, 0.0, 0.7, 2.5)),
    (exponential_mean(5), (0.3, 0.8, 2.0, 5.0, 10.0)),
]
LEVEL_PAIRS = ((0.025, 0.975), (0.05, 0.95))


def test_c6_confidence_coverage_grid():
    # the estimator is exactly calibrated, so any seed family passes with
    # probability ~0.92 at a 3-sigma bound over 30 cells; this base gives
    # worst |z| = 2.43 across the grid
    seed = 92_000
    for family, thetas in COVERAGE_GRID:
        with elapsed() as clock:
            for theta0 in thetas:
                for a, b in LEVEL_PAIRS:
                    seed += 1
                    out = coverage_estimate(family, theta0, a, b,
                                            samples=100_000, seed=seed)
                    target = b - a
                    assert abs(out["coverage"] - target) <= 3 * out["stderr"], (
                        family.name, theta0, a, b, out,
                    )
        assert clock.seconds < 60.0, family.name


def test_c7_pivot_uniformity():
    for family, theta0, seed in (
        (normal_location(1), 0.7, 301),
        (normal_location(10), -1.2, 302),
        (exponential_mean(5), 2.0, 303),
    ):
        rng = np.random.Generator(np.random.Philox(key=seed))
        draws = np.asarray(family.sampler(theta0, rng, 100_000), dtype=float)
        transformed = np.sort(np.asarray(family.cdf(theta0, draws), dtype=float))
        n = transformed.size
        grid_hi = np.arange(1, n + 1) / n
        grid_lo = np.arange(0, n) / n
        sup_norm = max(
            float(np.max(np.abs(transformed - grid_hi))),
            float(np.max(np.abs(transformed - grid_lo))),
        )
        assert sup_norm <= 0.01, (family.name, sup_norm)


def test_c8_unsafe_gamble():
    closed = 1.0 - normal_cdf(0.2 * math.sqrt(10))
    assert abs(closed - 0.2635) < 5e-4
    for seed in range(5):
        out = gamble_demo(-0.2, 10, 1_000_000, seed=seed)
        assert out["actual_expected_loss"] == pytest.approx(closed, abs=1e-12)
        assert abs(out["actual_expected_loss"] - out["actual_expected_loss_mc"]) <= 0.005
        assert out["believed_expected_loss"] < 0.0
        assert out["actual_expected_loss"] > 0.0


def test_c9_special_functions():
    assert abs(normal_cdf(1.96) - 0.9750021) <= 1e-6
    assert abs(normal_cdf(1.96) - float(mpmath.ncdf(1.96))) <= 1e-12
    for x in (0.1, 1.0, 5.0):
        assert abs(gamma_reg(1.0, x) - (1.0 - math.exp(-x))) <= 1e-10

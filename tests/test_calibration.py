import random
from fractions import Fraction

import pytest

from conftest import (
    calibrated_instance,
    joint_from_rows,
    make_instance,
    mixed_instance,
    product_space,
    rational_pmf,
)
from oracles import calibration_equivalence, compose, expectation, support, value_pmf
from safeprob.calibration import (
    check_calibrated_full,
    check_calibrated_mean,
    ignores,
    predicted_distribution_rv,
)
from safeprob.core import (
    CredalSet,
    OutcomeSpace,
    Pmf,
    Rv,
    condition,
    determines,
    joint_rv,
)
from safeprob.demos import dilation_scenario
from safeprob.errors import MissingDetermination
from safeprob.safety import LEFT_FULL, RIGHT_PLAIN, SafetyQuery, check_safety


def brute_calibrated_full(u, v, ptilde, credal):
    """Independent re-implementation straight from the definition."""
    pred = predicted_distribution_rv(ptilde, u, v).as_rv
    for p in credal.vertex_list():
        issued = {pred.table[z] for q in credal.vertex_list()
                  for z in q.space.atoms if q.weights[z] > 0}
        for row in issued:
            mass = p.prob(pred, row)
            if mass == 0:
                continue
            conditional = value_pmf(condition(p, pred, row), u)
            if conditional != {uu: pr for uu, pr in dict(row).items()}:
                return False
    return True


def brute_calibrated_mean(u, v, ptilde, credal):
    means = {}
    for vv in support(ptilde, v):
        means[vv] = expectation(condition(ptilde, v, vv), u)
    fallback = None
    mean_rv = Rv.generalized(
        ptilde.space, "m", {z: means.get(v.table[z], fallback) for z in ptilde.space.atoms}
    )
    for p in credal.vertex_list():
        mus = {mean_rv.table[z] for q in credal.vertex_list()
               for z in q.space.atoms if q.weights[z] > 0}
        for mu in mus:
            mass = p.prob(mean_rv, mu)
            if mass == 0:
                continue
            got = expectation(condition(p, mean_rv, mu), u)
            if got != mu:
                return False
    return True


class TestCalibratedFull:
    def test_dilation_is_calibrated(self):
        scn = dilation_scenario()
        assert check_calibrated_full(scn["U"], scn["V"], scn["ptilde"], scn["credal"]).holds

    def test_mismatch_indicator_not_calibrated(self):
        # predicting |V - U| from the ignoring joint: forecast rows flip
        # between conditioning values and an anti-correlated truth breaks them
        scn = dilation_scenario()
        space, u, v = scn["space"], scn["U"], scn["V"]
        mismatch = Rv(space, "|V-U|", {
            z: abs(v.table[z][0] - u.table[z][0]) for z in space.atoms
        })
        table = {vv: value_pmf(condition(scn["ptilde"], v, vv), mismatch)
                 for vv in support(scn["ptilde"], v)}
        one = (Fraction(1),)
        assert table[(Fraction(0),)][one] == Fraction(9, 10)
        assert table[(Fraction(1),)][one] == Fraction(1, 10)
        verdict = check_calibrated_full(mismatch, v, scn["ptilde"], scn["credal"])
        assert not verdict.holds
        diag = verdict.counterexample.vertex
        assert diag.prob(joint_rv(u, v), ((Fraction(0),), (Fraction(0),))) \
            + diag.prob(joint_rv(u, v), ((Fraction(1),), (Fraction(1),))) == 1

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(31)
        seen_true = seen_false = 0
        for _ in range(80):
            inst = rng.choice([mixed_instance(rng), calibrated_instance(rng)])
            got = check_calibrated_full(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            ).holds
            want = brute_calibrated_full(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            )
            assert got == want
            seen_true += got
            seen_false += not got
        assert seen_true and seen_false

    def test_calibrated_generator_yields_calibrated(self):
        rng = random.Random(37)
        for _ in range(40):
            inst = calibrated_instance(rng)
            assert check_calibrated_full(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            ).holds

    def test_validity_implies_calibration(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = make_instance(rng, "valid")
            valid = check_safety(
                SafetyQuery(inst["U"], LEFT_FULL, inst["V"], RIGHT_PLAIN),
                inst["ptilde"], inst["credal"],
            ).holds
            if valid:
                assert check_calibrated_full(
                    inst["U"], inst["V"], inst["ptilde"], inst["credal"]
                ).holds


class TestCalibratedMean:
    def test_binary_target_equivalence_with_full(self):
        rng = random.Random(43)
        for _ in range(200):
            inst = rng.choice([
                make_instance(rng, rng.choice(("valid", "marginal", "random")),
                              dims=(2, rng.randint(2, 4))),
                calibrated_instance(rng, dims=(2, rng.randint(2, 4))),
            ])
            full = check_calibrated_full(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            ).holds
            mean = check_calibrated_mean(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            ).holds
            assert full == mean

    def test_constant_predictor_with_common_mean(self):
        rng = random.Random(47)
        for _ in range(20):
            inst = make_instance(rng, "marginal")
            assert check_calibrated_mean(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            ).holds

    def test_mean_holds_while_full_fails(self):
        space, u, v = product_space(3, 2)
        rows = {
            (Fraction(0),): {(Fraction(0),): Fraction(1, 2), (Fraction(1),): Fraction(0),
                             (Fraction(2),): Fraction(1, 2)},
            (Fraction(1),): {(Fraction(0),): Fraction(0), (Fraction(1),): Fraction(1),
                             (Fraction(2),): Fraction(0)},
        }
        ptilde = joint_from_rows(space, u, v,
                                 {(Fraction(0),): Fraction(1, 2), (Fraction(1),): Fraction(1, 2)},
                                 rows)
        vertex = joint_from_rows(
            space, u, v,
            {(Fraction(0),): Fraction(1, 2), (Fraction(1),): Fraction(1, 2)},
            {vv: {(Fraction(0),): Fraction(1, 4), (Fraction(1),): Fraction(1, 2),
                  (Fraction(2),): Fraction(1, 4)} for vv in v.range()},
        )
        credal = CredalSet.from_vertices([vertex])
        full = check_calibrated_full(u, v, ptilde, credal)
        mean = check_calibrated_mean(u, v, ptilde, credal)
        assert mean.holds and not full.holds
        assert brute_calibrated_mean(u, v, ptilde, credal)
        assert not brute_calibrated_full(u, v, ptilde, credal)

    def test_random_agreement_with_brute_force(self):
        rng = random.Random(53)
        for _ in range(60):
            inst = rng.choice([mixed_instance(rng), calibrated_instance(rng)])
            assert check_calibrated_mean(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            ).holds == brute_calibrated_mean(
                inst["U"], inst["V"], inst["ptilde"], inst["credal"]
            )


class TestIgnores:
    def test_vprime_equal_v(self):
        rng = random.Random(59)
        for _ in range(15):
            inst = mixed_instance(rng)
            assert ignores(inst["ptilde"], inst["U"], inst["V"], inst["V"])

    def test_dilation_ignores_trivial_coarsening(self):
        scn = dilation_scenario()
        const = Rv.constant(scn["space"], "0")
        assert ignores(scn["ptilde"], scn["U"], scn["V"], const)

    def test_distinct_rows_do_not_ignore(self):
        space, u, v = product_space(2, 2)
        rows = {
            (Fraction(0),): {(Fraction(0),): Fraction(1, 4), (Fraction(1),): Fraction(3, 4)},
            (Fraction(1),): {(Fraction(0),): Fraction(3, 4), (Fraction(1),): Fraction(1, 4)},
        }
        ptilde = joint_from_rows(space, u, v,
                                 {vv: Fraction(1, 2) for vv in v.range()}, rows)
        const = Rv.constant(space, "0")
        assert not ignores(ptilde, u, v, const)

    def test_unsupported_cell_is_skipped(self):
        # V = 2 has no pragmatic mass, so its uniform fill row decides nothing
        space = OutcomeSpace(["a", "b", "c", "d", "e"])
        u = Rv(space, "U", {"a": 0, "b": 1, "c": 0, "d": 1, "e": 2})
        v = Rv(space, "V", {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2})
        ptilde = Pmf(space, {z: Fraction(1, 4) for z in "abcd"})
        assert ignores(ptilde, u, v, Rv.constant(space, "0"))

    def test_missing_determination(self):
        space, u, v = product_space(2, 2)
        ptilde = Pmf.uniform(space)
        with pytest.raises(MissingDetermination):
            ignores(ptilde, u, v, u)

    def test_four_clause_equivalence(self):
        # the ignoring property has four faces; each is recomputed here
        # from first principles and all must agree with the library
        rng = random.Random(61)
        seen = {True: 0, False: 0}
        for _ in range(120):
            inst = mixed_instance(rng)
            u, v, ptilde = inst["U"], inst["V"], inst["ptilde"]
            group = {vv: rng.randrange(2) for vv in v.range()}
            if rng.random() < 0.5:
                rows = {0: rational_pmf(rng, u.range()), 1: rational_pmf(rng, u.range())}
                ptilde = joint_from_rows(
                    inst["space"], u, v, rational_pmf(rng, v.range()),
                    {vv: rows[group[vv]] for vv in v.range()},
                )
            vprime = compose(v, "V'", lambda val: (Fraction(group[val]),))

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
            c4 = determines(vprime, pred, ptilde) is not None and all(
                value_pmf(condition(ptilde, pair2, cell), u) == rows_pred[cell[1]]
                for cell in support(ptilde, pair2)
            )
            lib = ignores(ptilde, u, v, vprime)
            assert c1 == c2 == c3 == c4 == lib
            seen[lib] += 1
        assert seen[True] and seen[False]

    def test_safety_transfers_through_ignored_coarsening(self):
        rng = random.Random(67)
        moved = 0
        for _ in range(60):
            inst = make_instance(rng, "valid")
            u, v = inst["U"], inst["V"]
            if not check_safety(SafetyQuery(u, LEFT_FULL, v, RIGHT_PLAIN),
                                inst["ptilde"], inst["credal"]).holds:
                continue
            group = {vv: rng.randrange(2) for vv in v.range()}
            vprime = compose(v, "V'", lambda val: (Fraction(group[val]),))
            if not ignores(inst["ptilde"], u, v, vprime):
                continue
            assert check_safety(SafetyQuery(u, LEFT_FULL, vprime, RIGHT_PLAIN),
                                inst["ptilde"], inst["credal"]).holds
            moved += 1
        assert moved


class TestCalibrationEquivalence:
    def test_dilation(self):
        scn = dilation_scenario()
        out = calibration_equivalence(scn["U"], scn["V"], scn["ptilde"], scn["credal"])
        assert out["calibrated"] and out["safe_given_predicted"]
        witness = out["ignore_witness"]
        assert witness is not None
        assert len(set(witness.table.values())) == 1  # ignoring everything

    def test_mismatch_indicator(self):
        scn = dilation_scenario()
        space, u, v = scn["space"], scn["U"], scn["V"]
        mismatch = Rv(space, "|V-U|", {
            z: abs(v.table[z][0] - u.table[z][0]) for z in space.atoms
        })
        out = calibration_equivalence(mismatch, v, scn["ptilde"], scn["credal"])
        assert out == {"calibrated": False, "safe_given_predicted": False,
                       "ignore_witness": None}

    def test_singleton_witness_is_conditioner(self):
        space, u, v = product_space(2, 2)
        rows = {
            (Fraction(0),): {(Fraction(0),): Fraction(1, 4), (Fraction(1),): Fraction(3, 4)},
            (Fraction(1),): {(Fraction(0),): Fraction(2, 3), (Fraction(1),): Fraction(1, 3)},
        }
        ptilde = joint_from_rows(space, u, v,
                                 {vv: Fraction(1, 2) for vv in v.range()}, rows)
        credal = CredalSet.from_vertices([ptilde])
        out = calibration_equivalence(u, v, ptilde, credal)
        assert out["calibrated"]
        assert out["ignore_witness"] is v

    def test_three_way_agreement_random(self):
        rng = random.Random(71)
        for _ in range(80):
            inst = rng.choice([mixed_instance(rng), calibrated_instance(rng)])
            calibration_equivalence(inst["U"], inst["V"], inst["ptilde"], inst["credal"])


class TestCoarseningPreservation:
    def test_calibration_survives_target_coarsening(self):
        rng = random.Random(73)
        checked = 0
        for _ in range(60):
            inst = rng.choice([calibrated_instance(rng), make_instance(rng, "valid")])
            u = inst["U"]
            if not check_calibrated_full(u, inst["V"], inst["ptilde"], inst["credal"]).holds:
                continue
            f = {uu: rng.randint(0, 1) for uu in u.range()}
            coarse = compose(u, "f(U)", lambda val: (Fraction(f[val]),))
            assert check_calibrated_full(
                coarse, inst["V"], inst["ptilde"], inst["credal"]
            ).holds
            checked += 1
        assert checked

"""Worked demonstration scenarios, composed entirely from library calls.

Each builder takes the scenario's defining quantities as parameters with
the classic defaults, so every printed number is recomputed from inputs
and moves when the inputs move; nothing here is hard-coded output.
"""

from __future__ import annotations

from fractions import Fraction

from .core import CredalSet, LinearConstraint, OutcomeSpace, Pmf, Rv, as_rational
from .decisions import (
    BRIER,
    ZERO_ONE,
    LossFunction,
    check_decision_safety,
    decision_loss_table,
    gamble_demo,
)
from .errors import ValidationError
from .pivots import PivotSpec, check_pivot, check_pivotal_safety
from .safety import hierarchy_report
from .updates import EventScenario, partition_check


def dilation_scenario(p_marginal=Fraction(9, 10)) -> dict:
    """Binary target with known marginal, unknown correlation with the
    observation; the pragmatic distribution ignores the observation."""
    p = as_rational(p_marginal)
    if not (0 < p < 1):
        raise ValidationError("marginal must lie strictly between 0 and 1")
    space = OutcomeSpace(["u0v0", "u0v1", "u1v0", "u1v1"])
    u = Rv(space, "U", {"u0v0": 0, "u0v1": 0, "u1v0": 1, "u1v1": 1})
    v = Rv(space, "V", {"u0v0": 0, "u0v1": 1, "u1v0": 0, "u1v1": 1})
    credal = CredalSet.from_constraints(
        space, [LinearConstraint({"u1v0": 1, "u1v1": 1}, "=", p)]
    )
    half = Fraction(1, 2)
    ptilde = Pmf(space, {
        "u0v0": (1 - p) * half, "u0v1": (1 - p) * half,
        "u1v0": p * half, "u1v1": p * half,
    })
    return {"space": space, "U": u, "V": v, "credal": credal, "ptilde": ptilde}


def dilation_extension_scenario(
    p_one=Fraction(9, 10), p_two=Fraction(9, 100)
) -> dict:
    """Three-valued extension: the indicator of the known-marginal value
    stays safe on average while the full mean does not."""
    p1, p2 = as_rational(p_one), as_rational(p_two)
    if not (0 < p1 and 0 < p2 and p1 + p2 < 1):
        raise ValidationError("need positive masses with p_one + p_two < 1")
    atoms = [f"u{i}v{j}" for i in range(3) for j in range(2)]
    space = OutcomeSpace(atoms)
    u = Rv(space, "U", {z: int(z[1]) for z in atoms})
    v = Rv(space, "V", {z: int(z[3]) for z in atoms})
    credal = CredalSet.from_constraints(
        space, [LinearConstraint({"u1v0": 1, "u1v1": 1}, "=", p1)]
    )
    row = {0: 1 - p1 - p2, 1: p1, 2: p2}
    half = Fraction(1, 2)
    ptilde = Pmf(space, {z: row[int(z[1])] * half for z in atoms})
    indicator = Rv(space, "ind(U=1)", {z: 1 if int(z[1]) == 1 else 0 for z in atoms})
    return {"space": space, "U": u, "V": v, "indicator": indicator,
            "credal": credal, "ptilde": ptilde}


def run_dilation_demo(p_marginal=Fraction(9, 10)) -> dict:
    from .safety import LEFT_AVERAGE, RIGHT_ANGLE, SafetyQuery, check_safety

    base = dilation_scenario(p_marginal)
    report = hierarchy_report(base["U"], base["V"], base["ptilde"], base["credal"])

    ext = dilation_extension_scenario(p_one=p_marginal)
    ind_verdict = check_safety(
        SafetyQuery(ext["indicator"], LEFT_AVERAGE, ext["V"], RIGHT_ANGLE),
        ext["ptilde"], ext["credal"],
    )
    mean_verdict = check_safety(
        SafetyQuery(ext["U"], LEFT_AVERAGE, ext["V"], RIGHT_ANGLE),
        ext["ptilde"], ext["credal"],
    )
    ok = (
        report["marginal"].holds
        and report["dist-unbiased"].holds
        and report["unbiased"].holds
        and report["range"].holds
        and report["calibrated"].holds
        and not report["valid"].holds
        and not report["sqerr"].holds
        and ind_verdict.holds
        and not mean_verdict.holds
    )
    return {
        "ok": ok,
        "marginal": str(p_marginal),
        "report": report,
        "extension_indicator_holds": ind_verdict.holds,
        "extension_mean_verdict": mean_verdict,
    }


def monty_scenario(host_bias=Fraction(1, 2)) -> dict:
    """Three doors, contestant at door 1; the host opens a goat door,
    flipping a coin with the given bias when the car is at door 1."""
    beta = as_rational(host_bias)
    if not (0 <= beta <= 1):
        raise ValidationError("host bias must lie in [0, 1]")
    space = OutcomeSpace(["c1o2", "c1o3", "c2o3", "c3o2"])
    u = Rv(space, "U", {"c1o2": 1, "c1o3": 1, "c2o3": 2, "c3o2": 3})
    v = Rv(space, "V", {"c1o2": 2, "c1o3": 3, "c2o3": 3, "c3o2": 2})
    third = Fraction(1, 3)
    credal = CredalSet.from_constraints(space, [
        LinearConstraint({"c1o2": 1, "c1o3": 1}, "=", third),
        LinearConstraint({"c2o3": 1}, "=", third),
        LinearConstraint({"c3o2": 1}, "=", third),
    ])
    ptilde = Pmf(space, {
        "c1o2": beta * third, "c1o3": (1 - beta) * third,
        "c2o3": third, "c3o2": third,
    })
    one, zero = (Fraction(1),), (Fraction(0),)
    car_found = PivotSpec("ind(car=picked)", {
        (u.table[z], v.table[z]): (one if u.table[z] == (Fraction(1),) else zero)
        for z in space.atoms
    })
    return {"space": space, "U": u, "V": v, "credal": credal,
            "ptilde": ptilde, "pivot": car_found}


def monty_events(prior=None) -> EventScenario:
    prior = prior or {1: "1/3", 2: "1/3", 3: "1/3"}
    return EventScenario([1, 2, 3], prior, [[1, 2], [1, 3]])


def monty_partition_control(prior=None) -> EventScenario:
    prior = prior or {1: "1/3", 2: "1/3", 3: "1/3"}
    return EventScenario([1, 2, 3], prior, [[1], [2, 3]])


def run_monty_demo(host_bias=Fraction(1, 2)) -> dict:
    naive = partition_check(monty_events())
    control = partition_check(monty_partition_control())

    scn = monty_scenario(host_bias)
    pivot_verdict = check_pivot(scn["pivot"], scn["U"], scn["V"], scn["credal"])
    pivotal = check_pivotal_safety(
        scn["ptilde"], scn["U"], scn["V"], scn["pivot"], scn["credal"]
    )

    losses = {}
    for kind in (ZERO_ONE, BRIER):
        loss = LossFunction(kind)
        verdict = check_decision_safety(
            scn["ptilde"], scn["U"], scn["V"], loss, scn["credal"]
        )
        losses[kind] = {
            "verdict": verdict,
            "table": decision_loss_table(
                scn["ptilde"], scn["U"], scn["V"], loss, scn["credal"]
            ),
        }

    ok = (
        not naive["is_partition"]
        and not naive["verdict"].holds
        and control["is_partition"]
        and control["verdict"].holds
        and pivot_verdict.is_simple
        and pivotal.holds
        and all(entry["verdict"].holds for entry in losses.values())
    )
    return {
        "ok": ok,
        "host_bias": str(host_bias),
        "naive": naive,
        "control": control,
        "pivot_verdict": pivot_verdict,
        "pivotal": pivotal,
        "losses": losses,
    }


def run_gamble_demo(
    theta_bar: float = -0.2, n: int = 10, samples: int = 200_000, seed: int = 7
) -> dict:
    result = gamble_demo(theta_bar, n, samples, seed)
    ok = (
        abs(result["actual_expected_loss"] - result["actual_expected_loss_mc"]) <= 0.005
    )
    return {"ok": ok, "theta_bar": theta_bar, "n": n,
            "samples": samples, "seed": seed, **result}

"""Calibration checks and the ignore/equivalence structure around them.

A forecaster is calibrated when, conditioned on issuing a particular
forecast, the actual distribution of the target equals that forecast.
Here the forecast itself is treated as a generalized random variable: the
map sending each outcome to the pragmatic conditional row at its
conditioner value.

Both calibration checks are plain safety checks in disguise: full
calibration is ``valid`` with the forecast map as conditioner, mean
calibration ``sqerr`` with the conditional-mean map, and both compile to
the residuals of :mod:`safeprob.safety`. Row equality is exact rational
equality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    ConditionalTable,
    CredalSet,
    Pmf,
    Rv,
    conditional_table,
    determines,
    joint_rv,
    value_sort_key,
)
from .errors import (
    EquivalenceViolation,
    MissingDetermination,
    NonNumericTarget,
)
from .safety import (
    LEFT_AVERAGE,
    LEFT_FULL,
    RIGHT_PLAIN,
    RIGHT_SQUARE,
    SafetyQuery,
    Verdict,
    check_safety,
    first_failure,
    notion_residuals,
    require_unique,
)


def encode_row(row: Mapping) -> tuple:
    """Canonical hashable encoding of a pmf over target values."""
    return tuple(
        sorted(((uv, Fraction(pr)) for uv, pr in row.items()),
               key=lambda kv: value_sort_key(kv[0]))
    )


@dataclass(frozen=True)
class PredictedDistributionRv:
    """The forecast map: atom -> pragmatic conditional row at its
    conditioner value, usable as a generalized random variable."""

    base: ConditionalTable
    as_rv: Rv


def predicted_distribution_rv(
    ptilde: Pmf, u: Rv, v: Rv, name: Optional[str] = None
) -> PredictedDistributionRv:
    table = conditional_table(ptilde, u, v)
    label = name or f"pred({u.name}|{v.name})"
    values = {z: encode_row(table.rows[v.table[z]]) for z in ptilde.space.atoms}
    return PredictedDistributionRv(base=table, as_rv=Rv.generalized(ptilde.space, label, values))


def check_calibrated_full(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Full-distribution calibration: for every credal vertex and every
    forecast row issued at some vertex-supported conditioning value, the
    vertex's conditional on that forecast equals the forecast. Checked in
    the denominator-cleared exact form; zero-mass forecasts are vacuous."""
    verts = require_unique(ptilde, v, credal)
    pred = predicted_distribution_rv(ptilde, u, v).as_rv
    ce = first_failure(notion_residuals(LEFT_FULL, RIGHT_PLAIN, u, pred, ptilde), verts)
    return Verdict(holds=ce is None, counterexample=ce)


def check_calibrated_mean(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Mean calibration: conditioned on the pragmatic conditional mean
    taking a value, the actual conditional mean equals that value."""
    if not u.is_numeric:
        raise NonNumericTarget(f"mean calibration needs a numeric target, got {u.name!r}")
    verts = require_unique(ptilde, v, credal)
    # the pragmatic conditional mean at each supported value, coordinatewise
    table = conditional_table(ptilde, u, v)
    mean_at = {val: tuple(sum(col, Fraction(0))
                          for col in zip(*([pr * c for c in uv] for uv, pr in row.items())))
               for val, row in table.rows.items() if val not in table.arbitrary_rows}
    mean_rv = v.compose(f"mean({u.name}|{v.name})", mean_at.get)
    residuals = notion_residuals(LEFT_AVERAGE, RIGHT_PLAIN, u, mean_rv, ptilde)
    ce = first_failure([replace(r, denom=None) for r in residuals], verts)
    return Verdict(holds=ce is None, counterexample=ce)


def ignores(ptilde: Pmf, u: Rv, v: Rv, vprime: Rv) -> bool:
    """Does the pragmatic conditional on (v, vprime) ignore v?

    Requires vprime to be determined by v almost surely under the
    pragmatic distribution; raises MissingDetermination otherwise. True
    when every supported joint conditioning cell yields the same target
    row as conditioning on vprime alone.
    """
    if determines(v, vprime, ptilde) is None:
        raise MissingDetermination(
            f"{v.name} does not determine {vprime.name} almost surely"
        )
    joint = conditional_table(ptilde, u, joint_rv(v, vprime))
    rows_prime = conditional_table(ptilde, u, vprime).rows
    return all(row == rows_prime[cell[1]] for cell, row in joint.rows.items()
               if cell not in joint.arbitrary_rows)


def calibration_equivalence(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> dict:
    """Cross-check the three faces of calibration.

    Computes (a) the direct calibration check, (b) plain safety with the
    forecast map as conditioner, and (c) a search for a coarsening of the
    conditioner that is ignored while marginal validity holds per stratum
    of it. The three must agree; disagreement raises EquivalenceViolation
    because it can only come from an implementation bug.

    Returns ``{"calibrated", "safe_given_predicted", "ignore_witness"}``.
    """
    calibrated = check_calibrated_full(u, v, ptilde, credal).holds
    pred = predicted_distribution_rv(ptilde, u, v).as_rv
    safe_given_predicted = check_safety(
        SafetyQuery(u, LEFT_FULL, pred, RIGHT_PLAIN), ptilde, credal
    ).holds

    witness = None
    candidates = [Rv.constant(ptilde.space, "0", 0), v, pred]
    for cand in candidates:
        if determines(v, cand, ptilde) is None:
            continue
        verdict = check_safety(
            SafetyQuery(u, LEFT_FULL, v, RIGHT_SQUARE, stratifier=cand),
            ptilde, credal,
        )
        if verdict.holds:
            witness = cand
            break

    results = {calibrated, safe_given_predicted, witness is not None}
    if len(results) != 1:
        raise EquivalenceViolation(
            "calibration equivalence broke: "
            f"direct={calibrated} via-forecast={safe_given_predicted} "
            f"witness={witness!r}"
        )
    return {
        "calibrated": calibrated,
        "safe_given_predicted": safe_given_predicted,
        "ignore_witness": witness,
    }

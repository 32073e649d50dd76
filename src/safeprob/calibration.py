"""Calibration checks and the test of whether a conditional ignores a variable.

A forecaster is calibrated when, conditioned on issuing a particular
forecast, the actual distribution of the target equals that forecast.
Here the forecast itself is treated as a generalized random variable: the
map sending each outcome to the pragmatic conditional row at its
conditioner value.

Both calibration checks are plain safety checks in disguise: full
calibration is ``valid`` with the forecast map as conditioner, mean
calibration ``sqerr`` with the conditional-mean map, and both compile to
the residuals of :mod:`safeprob.safety`. Row equality is exact rational
equality, decided on the conditional table's integer sums: two
conditioning values issue the same forecast when their sums agree up to
a positive factor, so each distinct forecast row is encoded once and
the forecast variable's values per atom come from integer codes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
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
from .errors import MissingDetermination, NonNumericTarget
from .safety import (
    LEFT_AVERAGE,
    LEFT_FULL,
    RIGHT_PLAIN,
    Verdict,
    first_failure,
    notion_residuals,
    require_one_space,
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
    """The forecast map. Conditioner values whose integer sums agree up
    to a positive factor have the same row; each distinct row is encoded
    once."""
    table = conditional_table(ptilde, u, v)
    label = name or f"pred({u.name}|{v.name})"
    encoded, code_of, forecast = [], {}, []
    for row, sums in zip(table.rows.values(), table.sums):
        g = gcd(*sums)
        code = code_of.setdefault(tuple(c // g for c in sums), len(encoded))
        if code == len(encoded):
            encoded.append(encode_row(row))
        forecast.append(code)
    as_rv = Rv._coded(ptilde.space, label, encoded, [forecast[c] for c in v.codes()])
    return PredictedDistributionRv(base=table, as_rv=as_rv)


def check_calibrated_full(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Full-distribution calibration: for every credal vertex and every
    forecast row issued at some vertex-supported conditioning value, the
    vertex's conditional on that forecast equals the forecast. Checked in
    the denominator-cleared exact form; zero-mass forecasts are vacuous."""
    require_one_space(u, v, ptilde, credal)
    verts = require_unique(ptilde, v, credal)
    pred = predicted_distribution_rv(ptilde, u, v).as_rv
    ce = first_failure(notion_residuals(LEFT_FULL, RIGHT_PLAIN, u, pred, ptilde), verts)
    return Verdict(holds=ce is None, counterexample=ce)


def check_calibrated_mean(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Mean calibration: conditioned on the pragmatic conditional mean
    taking a value, the actual conditional mean equals that value."""
    require_one_space(u, v, ptilde, credal)
    if not u.is_numeric:
        raise NonNumericTarget(f"mean calibration needs a numeric target, got {u.name!r}")
    verts = require_unique(ptilde, v, credal)
    # the pragmatic conditional mean at each supported value, coordinatewise,
    # from the integer sums per target value; each distinct mean gets one code
    table, columns = conditional_table(ptilde, u, v), list(zip(*u.range()))
    code_of: dict = {}
    mean_of = [code_of.setdefault(None if val in table.arbitrary_rows else
                                  tuple(sum(s * c for s, c in zip(sums, col)) / sum(sums)
                                        for col in columns), len(code_of))
               for val, sums in zip(table.rows, table.sums)]
    mean_rv = Rv._coded(ptilde.space, f"mean({u.name}|{v.name})", list(code_of),
                        [mean_of[c] for c in v.codes()])
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
    require_one_space(u, v, vprime, ptilde)
    if determines(v, vprime, ptilde) is None:
        raise MissingDetermination(
            f"{v.name} does not determine {vprime.name} almost surely"
        )
    joint = conditional_table(ptilde, u, joint_rv(v, vprime))
    rows_prime = conditional_table(ptilde, u, vprime).rows
    return all(row == rows_prime[cell[1]] for cell, row in joint.rows.items()
               if cell not in joint.arbitrary_rows)

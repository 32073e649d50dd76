"""Symmetric loss functions, Bayes acts and decision safety.

Decision safety means: the expected loss of the policy that plays the
pragmatic Bayes act at each observed conditioning value is, under every
credal member, exactly what the pragmatic distribution claims it to be at
every conditioning value. Losses here are symmetric (invariant under a
simultaneous relabelling of outcomes and actions); built-in kinds are the
0/1 loss, the Brier score and the log score, and finite custom tables are
accepted after an explicit symmetry audit.

The policy is compiled from the conditional table's integer sums: the
0/1 and Brier losses of the Bayes act and its believed loss are read off
each conditioning value's sums, and the realized loss per atom is looked
up by value codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import (
    CredalSet,
    Pmf,
    Rv,
    as_rational,
    conditional_table,
    format_value,
    value_sort_key,
)
from .errors import InfiniteLoss, ValidationError
from .safety import (
    LEFT_AVERAGE,
    RIGHT_SQUARE,
    Verdict,
    equal,
    first_failure,
    notion_residuals,
    require_one_space,
    require_unique,
)

ZERO_ONE = "zero_one"
BRIER = "brier"
LOG = "log"
CUSTOM = "custom_table"

LOG_TOLERANCE = 1e-12

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class LossFunction:
    """A symmetric loss. ``custom_table`` maps (outcome value, action id)
    to a rational loss or ``math.inf``; it is audited for permutation
    symmetry at construction and rejected otherwise."""

    kind: str
    custom_table: Optional[Mapping] = None
    randomized: bool = False  # zero_one only: score mixed actions as 1 - a(u)

    def __post_init__(self):
        if self.kind not in (ZERO_ONE, BRIER, LOG, CUSTOM):
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        if self.kind == CUSTOM:
            if not self.custom_table:
                raise ValidationError("custom loss needs a table")
            normalized = {
                key: (math.inf if entry == math.inf else as_rational(entry))
                for key, entry in self.custom_table.items()
            }
            object.__setattr__(self, "custom_table", normalized)
            _audit_symmetry(normalized)
        elif self.custom_table is not None:
            raise ValidationError("only custom_table losses take a table")
        if self.randomized and self.kind != ZERO_ONE:
            raise ValidationError("only zero_one losses can be randomized")

    def outcomes(self) -> list:
        return sorted({u for (u, _) in self.custom_table}, key=value_sort_key)

    def actions(self) -> list[str]:
        return sorted({a for (_, a) in self.custom_table})


def _audit_symmetry(table: Mapping) -> None:
    """Reject a table with a missing entry, or whose multiset of loss
    columns changes under some permutation of the outcomes.

    The permutations that keep the multiset form a group, and the
    transposition (0 1) together with the n-cycle generate the symmetric
    group, so checking those two (none for one outcome, one for two)
    decides every permutation for any number of outcomes.
    """
    outcomes = sorted({u for (u, _) in table}, key=value_sort_key)
    actions = sorted({a for (_, a) in table})
    for u in outcomes:
        for a in actions:
            if (u, a) not in table:
                raise ValidationError(f"custom loss table missing entry {format_value((u, a))}")
    n = len(outcomes)
    columns = sorted(tuple(table[(u, a)] for u in outcomes) for a in actions)
    generators = {(1, 0, *range(2, n)), (*range(1, n), 0)} if n > 1 else ()
    for perm in generators:
        if sorted(tuple(col[i] for i in perm) for col in columns) != columns:
            raise ValidationError(
                "custom loss table is not invariant under outcome permutations"
            )


@dataclass(frozen=True)
class Action:
    """Either a mass vector over outcomes (built-in losses) or an opaque
    action id (custom tables). ``tied`` records a broken Bayes-act tie."""

    mass: Optional[Mapping] = None
    action_id: Optional[str] = None
    tied: bool = False


def bayes_act(loss: LossFunction, belief: Mapping) -> Action:
    """An action minimising expected loss under ``belief``.

    Brier and log scores are proper, so the belief itself is optimal; the
    0/1 loss picks a point mass on the mode. Ties break to the lowest
    outcome (or action id) in canonical order and set the tie flag.
    """
    if loss.kind in (BRIER, LOG):
        return Action(mass={u: as_rational(p) for u, p in belief.items()})
    if loss.kind == ZERO_ONE:
        best = max(belief.values())
        modes = [u for u in sorted(belief, key=value_sort_key) if belief[u] == best]
        mass = {u: Fraction(1) if u == modes[0] else Fraction(0) for u in belief}
        return Action(mass=mass, tied=len(modes) > 1)

    best_value, best_action, tied = None, None, False
    for a in loss.actions():
        expected = Fraction(0)
        infinite = False
        for u, p in belief.items():
            if p == 0:
                continue
            entry = loss.custom_table[(u, a)]
            if entry == math.inf:
                infinite = True
                break
            expected += p * as_rational(entry)
        value = math.inf if infinite else expected
        if best_value is None or value < best_value:
            best_value, best_action, tied = value, a, False
        elif value == best_value:
            tied = True
    return Action(action_id=best_action, tied=tied)


def loss_value(loss: LossFunction, u_value, action: Action):
    """L(u, a); exact rational except for the log score (float, may be inf)."""
    if loss.kind == ZERO_ONE:
        got = action.mass.get(u_value, Fraction(0))
        if loss.randomized:
            return 1 - got
        return Fraction(0) if got == 1 else Fraction(1)
    if loss.kind == BRIER:
        total = Fraction(0)
        keys = set(action.mass) | {u_value}
        for k in keys:
            q = action.mass.get(k, Fraction(0))
            target = 1 if k == u_value else 0
            total += (target - q) ** 2
        return total
    if loss.kind == LOG:
        q = action.mass.get(u_value, Fraction(0))
        return math.inf if q == 0 else -math.log(q)
    return loss.custom_table[(u_value, action.action_id)]


def _compile_policy(ptilde: Pmf, u: Rv, v: Rv, loss: LossFunction):
    """What decision safety and its loss table share: the conditional
    table, the Bayes policy per conditioning value, the loss of that
    policy per conditioning value and target value (as lists over their
    codes), the believed loss per supported conditioning value, and the
    realized loss per atom. Raises ValidationError when a custom table
    lacks an outcome of the target.

    With the table's sums s over their total m per conditioning value and
    q = s / m, the 0/1 loss is 0 at the
    first mode and 1 elsewhere, believed 1 - q_mode; the Brier score of
    the act q at u is 1 - 2 q_u + sum q^2, believed 1 - sum q^2. The log
    score and custom tables take :func:`loss_value` once per target value.
    """
    if loss.kind == CUSTOM:
        missing = sorted(set(u.range()) - set(loss.outcomes()), key=value_sort_key)
        if missing:
            raise ValidationError(
                f"custom loss table lacks outcomes [{', '.join(map(format_value, missing))}]"
            )
    table = conditional_table(ptilde, u, v)
    u_range = u.range()
    policy, cost, believed = {}, [], {}
    for (vv, row), s in zip(table.rows.items(), table.sums):
        act = policy[vv] = bayes_act(loss, row)
        m = sum(s)
        if loss.kind == ZERO_ONE:
            mode = s.index(max(s))
            costs = [_ONE] * len(s)
            costs[mode] = _ZERO
            claim = Fraction(m - s[mode], m)
        elif loss.kind == BRIER:
            square = sum(c * c for c in s)
            costs = [Fraction(m * m - 2 * c * m + square, m * m) for c in s]
            claim = Fraction(m * m - square, m * m)
        else:
            costs = [loss_value(loss, uu, act) for uu in u_range]
            claim = sum(p * c for p, c in zip(row.values(), costs) if p)
        cost.append(costs)
        if vv not in table.arbitrary_rows:
            believed[vv] = claim
    uk, vk = u.codes(), v.codes()
    return table, policy, cost, believed, [cost[j][k] for j, k in zip(vk, uk)]


def check_decision_safety(
    ptilde: Pmf, u: Rv, v: Rv, loss: LossFunction, credal: CredalSet
) -> Verdict:
    """Does the pragmatic Bayes policy earn exactly its believed loss?

    For every credal vertex P and every supported conditioning value v0,
    the expected loss of the policy under P must equal the pragmatic
    conditional expected loss at v0. Exact rational comparison except for
    the log score, compared to within 1e-12. InfiniteLoss is raised when
    some vertex puts mass on an atom of infinite realized loss, before any
    vertex is compared, so the outcome does not depend on vertex order.
    """
    require_one_space(u, v, ptilde, credal)
    verts = require_unique(ptilde, v, credal)
    table, policy, cost, believed, losses = _compile_policy(ptilde, u, v, loss)
    notes: list[str] = []
    if table.arbitrary_rows:
        notes.append(
            "policy at unsupported conditioning values uses the uniform fill row"
        )
    for vv, act in policy.items():
        if act.tied:
            notes.append(
                f"Bayes-act tie at conditioning value {format_value(vv)} broken canonically"
            )
    atoms, finite = ptilde.space.atoms, losses
    if loss.kind in (LOG, CUSTOM):  # the 0/1 and Brier losses are never infinite
        for (vv, row), costs in zip(table.rows.items(), cost):
            if believed.get(vv) == math.inf:
                uu = next(uu for (uu, p), c in zip(row.items(), costs) if p and c == math.inf)
                raise InfiniteLoss(
                    f"believed loss infinite at conditioning value {format_value(vv)}, "
                    f"outcome {format_value(uu)}"
                )
        infinite = [i for i, c in enumerate(losses) if c == math.inf]
        if infinite:  # mass on these atoms under any vertex makes its realized loss infinite
            finite = [0 if c == math.inf else c for c in losses]
            hit = next((i for p in verts for i in infinite if p.as_tuple()[i]), None)
            if hit is not None:  # the first such atom of the first such vertex
                raise InfiniteLoss(f"realized loss infinite at atom {atoms[hit]!r} "
                                   "under a credal vertex")
    if loss.kind == LOG:
        residuals = [equal(finite, b, v=vv, tol=LOG_TOLERANCE) for vv, b in believed.items()]
    else:  # the realized loss's mean must be the believed loss at every v0: <loss>|[V]
        realized = Rv.generalized(ptilde.space, "loss", {z: (c,) for z, c in zip(atoms, finite)})
        residuals = notion_residuals(LEFT_AVERAGE, RIGHT_SQUARE, realized, v, ptilde)
    ce = first_failure(residuals, verts)
    return Verdict(holds=ce is None, counterexample=ce, notes=tuple(notes))


def decision_loss_table(
    ptilde: Pmf, u: Rv, v: Rv, loss: LossFunction, credal: CredalSet
) -> dict:
    """Believed conditional losses per conditioning value and actual
    expected losses per credal vertex, for reporting alongside
    :func:`check_decision_safety`."""
    require_one_space(u, v, ptilde, credal)
    _, policy, _, believed, losses = _compile_policy(ptilde, u, v, loss)
    xs = [p.as_tuple() for p in credal.vertex_list()]
    return {"policy": policy, "believed": believed,
            "actual": [sum(c * x[i] for i, c in enumerate(losses) if x[i]) for x in xs]}


def gamble_demo(theta_bar: float, n: int, samples: int, seed: int) -> dict:
    """The over-eager gamble on a positive location parameter.

    A gamble pays -1 (a gain) when the parameter is positive and 1 when
    it is negative; the decision rule accepts whenever the pragmatic
    posterior puts more than half its mass above zero, which under the
    location-family confidence distribution means accepting exactly when
    the observed mean is positive. With a true negative parameter the
    actual expected loss is positive while the believed expected loss is
    negative: the rule is not safe for this loss.

    Returns closed-form and Monte Carlo versions of the actual expected
    loss plus the Monte Carlo believed expected loss. Raises if the
    computed signs contradict the guarantee beyond numerical resolution.
    """
    if not theta_bar < 0:
        raise ValidationError("the demo requires a negative true parameter")
    if n <= 0 or samples <= 0:
        raise ValidationError("n and samples must be positive")
    import numpy as np
    from scipy.special import ndtr

    from .confidence import normal_cdf, seeded_generator

    sqrt_n = math.sqrt(n)
    actual_closed = 1.0 - normal_cdf(-theta_bar * sqrt_n)

    rng = seeded_generator(seed)
    theta_hat = rng.normal(loc=theta_bar, scale=1.0 / sqrt_n, size=samples)
    accept = theta_hat > 0
    actual_mc = float(np.mean(accept))  # loss is 1 whenever the rule accepts
    believed_terms = np.where(accept, 2.0 * ndtr(-theta_hat * sqrt_n) - 1.0, 0.0)
    believed_mc = float(np.mean(believed_terms))

    resolution = 1e-9
    if actual_closed < -resolution or believed_mc > resolution:
        raise ValidationError(
            f"sign guarantee violated: actual={actual_closed}, believed={believed_mc}"
        )
    return {
        "actual_expected_loss": actual_closed,
        "actual_expected_loss_mc": actual_mc,
        "believed_expected_loss": believed_mc,
    }

"""Probability update rules and conditioning on events.

An update rule maps each observed conditioner value to a distribution
over target values, with no requirement that it arise from a joint
distribution. Logical coherence demands that each row live on target
values jointly realizable with its conditioning value; compatibility
demands an actual joint with full conditioner support whose conditionals
reproduce the rule. Incompatible rules are unsafe outright, before any
credal set enters.

Event observation ("the outcome lies in this set") is embedded by
building the minimal outcome space of (outcome, observed set) pairs with
the prior as a marginal constraint; renormalising the prior onto the
observed set (naive conditioning) is then an update rule whose safety can
be decided, and for fully supported priors it is safe exactly when the
observable sets partition the outcomes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    CredalSet,
    LinearConstraint,
    OutcomeSpace,
    Pmf,
    Rv,
    as_rational,
    as_value,
    format_value,
    value_sort_key,
)
from .errors import EquivalenceViolation, ValidationError, ZeroMassObservable
from .safety import (
    LEFT_FULL,
    RIGHT_ANGLE,
    RIGHT_PLAIN,
    Counterexample,
    SafetyQuery,
    Verdict,
    check_safety,
)


def _listing(values) -> str:
    """``values`` rendered in canonical order, comma-separated."""
    return ", ".join(format_value(x) for x in sorted(values, key=value_sort_key))


@dataclass(frozen=True)
class UpdateRule:
    """Map from conditioner values to distributions over target values."""

    conditioner: Rv
    target: Rv
    rows: Mapping

    def __post_init__(self):
        v_range = set(self.conditioner.range())
        missing = v_range - set(self.rows)
        extra = set(self.rows) - v_range
        if missing or extra:
            raise ValidationError(
                f"rule rows must cover the conditioner range exactly "
                f"(missing [{_listing(missing)}], extra [{_listing(extra)}])"
            )
        u_range = set(self.target.range())
        filled = {}
        for vv, row in self.rows.items():
            unknown = set(row) - u_range
            if unknown:
                raise ValidationError(
                    f"row {format_value(vv)} mentions unknown target values "
                    f"{{{_listing(unknown)}}}"
                )
            full = {uu: as_rational(row.get(uu, 0)) for uu in u_range}
            if any(p < 0 for p in full.values()):
                raise ValidationError(f"row {format_value(vv)} has a negative probability")
            if sum(full.values()) != 1:
                raise ValidationError(f"row {format_value(vv)} does not sum to exactly 1")
            filled[vv] = full
        object.__setattr__(self, "rows", filled)


def _first_incoherent_cell(rule: UpdateRule, space: OutcomeSpace):
    """The first (target, conditioner) cell in canonical order that the
    rule gives mass but no atom realizes, or ``None`` for a coherent rule."""
    u, v = rule.target, rule.conditioner
    realizable = {(u.table[z], v.table[z]) for z in space.atoms}
    for vv in sorted(rule.rows, key=value_sort_key):
        for uu in sorted(rule.rows[vv], key=value_sort_key):
            if rule.rows[vv][uu] > 0 and (uu, vv) not in realizable:
                return (uu, vv)
    return None


def check_logical_coherence(rule: UpdateRule, space: OutcomeSpace) -> bool:
    """Each row puts mass only on target values realizable with its
    conditioning value somewhere in the space."""
    return _first_incoherent_cell(rule, space) is None


def rule_completion(rule: UpdateRule, space: OutcomeSpace) -> Pmf:
    """Complete a coherent rule to a joint with full conditioner support
    whose conditionals equal the rule.

    The joint spreads mass uniformly over conditioner values and splits
    each row's mass uniformly over the atoms realizing its cell, which by
    construction reproduces the rule exactly. An incoherent rule has no
    completion and raises ValidationError.
    """
    if not check_logical_coherence(rule, space):
        raise ValidationError("rule is not logically coherent; no completion exists")
    u, v = rule.target, rule.conditioner
    cells = [(u.table[z], v.table[z]) for z in space.atoms]
    sizes = Counter(cells)
    share = Fraction(1, len(v.range()))
    return Pmf(space, {z: share * rule.rows[vv][uu] / sizes[(uu, vv)]
                       for z, (uu, vv) in zip(space.atoms, cells)})


def compatibility_gate(
    rule: UpdateRule, space: OutcomeSpace, u: Rv, credal: CredalSet
) -> Verdict:
    """Safety gate for update rules.

    A rule incompatible with conditional probability cannot be safe for
    predicting the target given the conditioner on average, so it fails
    immediately without consulting the credal set; otherwise the rule is
    completed to a joint and the average-conditioner safety check runs.
    """
    if u.space != rule.target.space or u.table != rule.target.table:
        raise ValidationError("target must coincide with the rule's target")
    bad = _first_incoherent_cell(rule, space)
    if bad is not None:
        return Verdict(
            holds=False,
            counterexample=Counterexample(v=bad[1], u=bad[0]),
            notes=("incompatible with conditional probability",),
        )
    verdict = check_safety(
        SafetyQuery(u, LEFT_FULL, rule.conditioner, RIGHT_ANGLE),
        rule_completion(rule, space),
        credal,
    )
    return Verdict(
        holds=verdict.holds,
        counterexample=verdict.counterexample,
        notes=verdict.notes + ("rule completed to a joint with uniform conditioner mass",),
    )


@dataclass(frozen=True)
class EventScenario:
    """A prior over base outcomes plus the family of observable sets."""

    base_outcomes: tuple
    prior: Mapping
    observable_sets: tuple

    def __init__(self, base_outcomes, prior, observable_sets):
        outcomes = tuple(as_value(u) for u in base_outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError("base outcomes must be distinct")
        coerced_prior = {as_value(u): as_rational(p) for u, p in prior.items()}
        unknown = set(coerced_prior) - set(outcomes)
        if unknown:
            raise ValidationError(f"prior mentions unknown outcomes {{{_listing(unknown)}}}")
        full_prior = {u: coerced_prior.get(u, Fraction(0)) for u in outcomes}
        if any(p < 0 for p in full_prior.values()) or sum(full_prior.values()) != 1:
            raise ValidationError("prior must be a pmf summing to exactly 1")
        sets = []
        for raw in observable_sets:
            s = frozenset(as_value(x) for x in raw)
            if not s:
                raise ValidationError("observable sets must be non-empty")
            if not s <= set(outcomes):
                raise ValidationError(f"observable set [{_listing(s)}] leaves the base outcomes")
            if s not in sets:
                sets.append(s)
        if not sets:
            raise ValidationError("need at least one observable set")
        object.__setattr__(self, "base_outcomes", outcomes)
        object.__setattr__(self, "prior", full_prior)
        object.__setattr__(self, "observable_sets", tuple(sets))


def _set_label(s: frozenset) -> str:
    return "{" + ",".join(format_value(u) for u in sorted(s, key=value_sort_key)) + "}"


def build_event_scenario(ev: EventScenario) -> dict:
    """Embed event observation into an outcome space.

    Atoms are the realizable (outcome, observed set) pairs; the credal
    set constrains the outcome marginal to the prior (membership of the
    outcome in the observed set is structural); the naive rule
    renormalises the prior onto each observed set.

    Returns ``{"space", "target", "conditioner", "credal", "naive"}``.
    """
    covered = {u for s in ev.observable_sets for u in s}
    stranded = [u for u in ev.base_outcomes if ev.prior[u] > 0 and u not in covered]
    if stranded:
        raise ValidationError(
            f"positive-prior outcomes {', '.join(map(format_value, stranded))} "
            f"lie in no observable set"
        )

    labels = {s: _set_label(s) for s in ev.observable_sets}
    atoms, u_table, v_table = [], {}, {}
    for uu in ev.base_outcomes:
        for s in ev.observable_sets:
            if uu in s:
                atom = f"u={format_value(uu)}|v={labels[s]}"
                atoms.append(atom)
                u_table[atom] = uu
                v_table[atom] = labels[s]
    space = OutcomeSpace(atoms)
    target = Rv.generalized(space, "U", u_table)
    conditioner = Rv.generalized(space, "V", v_table)

    constraints = []
    for uu in ev.base_outcomes:
        cell = {z: Fraction(1) for z in atoms if u_table[z] == uu}
        if cell:
            constraints.append(LinearConstraint(cell, "=", ev.prior[uu]))
    credal = CredalSet.from_constraints(space, constraints)

    rows = {}
    for s in ev.observable_sets:
        mass = sum((ev.prior[uu] for uu in s), start=Fraction(0))
        if mass == 0:
            raise ZeroMassObservable(f"observable set {labels[s]} has zero prior mass")
        rows[labels[s]] = {
            uu: (ev.prior[uu] / mass if uu in s else Fraction(0))
            for uu in ev.base_outcomes
        }
    naive = UpdateRule(conditioner=conditioner, target=target, rows=rows)
    return {
        "space": space,
        "target": target,
        "conditioner": conditioner,
        "credal": credal,
        "naive": naive,
    }


def partition_check(ev: EventScenario) -> dict:
    """Set algebra versus safety for naive event conditioning.

    ``is_partition`` holds when the observable sets are pairwise disjoint
    and cover the prior's support. ``verdict`` decides full validity of
    the naive rule over the constructed credal set. For fully supported
    priors the two must agree and disagreement raises
    EquivalenceViolation; with zero-mass outcomes the set algebra can be
    blind to degenerate overlap, so the agreement is only noted.
    """
    built = build_event_scenario(ev)
    sets = ev.observable_sets
    disjoint = all(
        not (a & b) for i, a in enumerate(sets) for b in sets[i + 1:]
    )
    supp = {u for u in ev.base_outcomes if ev.prior[u] > 0}
    covers = supp <= {u for s in sets for u in s}
    is_partition = disjoint and covers

    joint = rule_completion(built["naive"], built["space"])
    verdict = check_safety(
        SafetyQuery(built["target"], LEFT_FULL, built["conditioner"], RIGHT_PLAIN),
        joint,
        built["credal"],
    )
    full_support = all(ev.prior[u] > 0 for u in ev.base_outcomes)
    if full_support and is_partition != verdict.holds:
        raise EquivalenceViolation(
            f"partition criterion broke: partition={is_partition}, "
            f"naive-rule valid={verdict.holds}"
        )
    notes = verdict.notes
    if not full_support:
        notes = notes + ("zero-mass outcomes present: set algebra not cross-asserted",)
    return {
        "is_partition": is_partition,
        "verdict": Verdict(verdict.holds, verdict.counterexample, notes),
    }

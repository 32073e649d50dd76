"""Discrete pivots and pivotal safety.

A pivot is a function of (target, conditioner) that is injective in the
target at each conditioning value and whose law is agreed on by every
member of the credal set. A pragmatic distribution is pivotally safe when
the pivot is independent of the conditioner under it and carries the
common credal law, so that decisions scored through the pivot are exactly
as good as believed.

The probability-of-the-realized-outcome map plays a canonical role: when
no two outcomes share the same nonzero conditional probability it is
itself a pivot, and pivotal safety with any simple pivot is equivalent to
pivotal safety with this one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import (
    ConditionalTable,
    CredalSet,
    Pmf,
    Rv,
    condition,
    conditional_table,
    determines,
    format_value,
    support,
    value_sort_key,
)
from .errors import (
    EquivalenceViolation,
    NotAPivot,
    NotFullSupport,
    UniquenessViolated,
    ValidationError,
)
from .safety import (
    LEFT_FULL,
    RIGHT_SQUARE,
    Linear,
    SafetyQuery,
    Verdict,
    check_safety,
    equal,
    first_failure,
    scaled_row,
    stratify,
)

#: Budget of the exhaustive simple-pivot search in :func:`pivot_equivalence`:
#: spaces with more atoms are not searched (the search is factorial).
_SEARCH_CAP = 8


@dataclass(frozen=True)
class PivotSpec:
    """Total map from realizable (target value, conditioner value) cells
    to pivot values (numeric 1-tuples here, typically probabilities)."""

    name: str
    mapping: Mapping[tuple, tuple]

    def as_rv(self, u: Rv, v: Rv) -> Rv:
        table = {}
        for z in u.space.atoms:
            cell = (u.table[z], v.table[z])
            if cell not in self.mapping:
                raise ValidationError(
                    f"pivot {self.name!r} undefined at cell {format_value(cell)}"
                )
            table[z] = self.mapping[cell]
        return Rv.generalized(u.space, self.name, table)


@dataclass(frozen=True)
class PivotVerdict:
    is_pivot: bool
    is_simple: bool
    failure: Optional[str] = None


def _law_residuals(pivot: dict, ints: Sequence[int], cells: Mapping) -> list:
    """P(T = t, C = c) = law(t) * P(C = c) for every cell c (atom indices)
    and pivot value t, where ``pivot`` maps atom indices to pivot values
    and law(t) = count(t) / total is the pivot's law under the integer
    weights ``ints`` on its atoms; printed as conditional probabilities
    given the cell."""
    counts = dict.fromkeys(sorted(set(pivot.values()), key=value_sort_key), 0)
    for i, t in pivot.items():
        counts[t] += ints[i]
    total = sum(counts.values())
    hits = {t: {i: int(pt == t) for i, pt in pivot.items()} for t in counts}
    return [
        equal(Linear({i: 1 for i in idx if pivot[i] == t}),
              Linear.mass(idx, Fraction(counts[t], total)), v=c, u=t, denom=Linear.mass(idx),
              rows=(scaled_row(hits[t], total, counts[t], idx, len(ints)), None))
        for c, idx in cells.items() for t in counts
    ]


def _check_pivot_on(
    spec: PivotSpec, u: Rv, v: Rv, verts: Sequence[Pmf], stratum: Sequence[int]
) -> tuple[PivotVerdict, dict]:
    """The pivot verdict on ``stratum``'s atoms, and their pivot table so far."""
    pivot, targets = {}, {}
    for i in stratum:
        z = u.space.atoms[i]
        cell = (u.table[z], v.table[z])
        if cell not in spec.mapping:
            return PivotVerdict(False, False, f"map undefined at cell {format_value(cell)}"), pivot
        pivot[i] = spec.mapping[cell]
        targets.setdefault(cell[1], []).append((cell[0], pivot[i]))

    images = {}
    for vv in sorted(targets, key=value_sort_key):
        seen: dict = {}
        for uu, pv in targets[vv]:
            if seen.setdefault(pv, uu) != uu:
                return PivotVerdict(
                    False, False,
                    f"not injective at conditioning value {format_value(vv)}: targets "
                    f"{format_value(seen[pv])} and {format_value(uu)} both map to "
                    f"{format_value(pv)}",
                ), pivot
        images[vv] = set(seen)

    if verts:
        if first_failure(_law_residuals(pivot, verts[0].integer_weights(), {None: stratum}),
                         verts) is not None:
            return PivotVerdict(
                False, False, "credal members disagree on the pivot distribution"
            ), pivot

    overall = set(pivot.values())
    simple = all(image == overall for image in images.values())
    failure = None if simple else "some conditioning value does not reach every pivot value"
    return PivotVerdict(True, simple, failure), pivot


def check_pivot(spec: PivotSpec, u: Rv, v: Rv, credal: CredalSet) -> PivotVerdict:
    """Verify the pivot requirements: a well-defined map, injectivity in
    the target per conditioning value, and credal agreement on the
    induced law. Simple additionally means each per-value map is onto the
    whole pivot range."""
    return _check_pivot_on(spec, u, v, credal.vertex_list(), range(len(u.space)))[0]


def check_pivotal_safety(
    ptilde: Pmf,
    u: Rv,
    v: Rv,
    spec: PivotSpec,
    credal: CredalSet,
    w: Optional[Rv] = None,
) -> Verdict:
    """Pivotal safety of the pragmatic distribution with the given pivot.

    Requires the conditioner to have full pragmatic support and the
    supplied map to pass the pivot check (per stratum of ``w`` when
    given; ``w`` must be determined by the conditioner). Holds when the
    pivot is independent of the conditioner under the pragmatic
    distribution and its pragmatic law equals the common credal law.
    A counterexample names the pragmatic distribution or the first
    credal vertex, conditioned on the stratum when ``w`` is given.
    """
    if support(ptilde, v) != set(v.range()):
        raise NotFullSupport(
            f"{v.name} lacks full support under the pragmatic distribution"
        )
    if w is not None and determines(v, w) is None:
        raise ValidationError(f"stratifier {w.name!r} must be a coarsening of {v.name!r}")

    verts = credal.vertex_list()
    notes: list[str] = []
    strata = ([(None, range(len(u.space)), verts)] if w is None
              else stratify(w, w.range(), verts, notes))
    for wv, stratum, kept in strata:
        pv, pivot = _check_pivot_on(spec, u, v, kept, stratum)
        if not pv.is_pivot:
            raise NotAPivot(pv.failure or "pivot requirements not met")
        ints = ptilde.integer_weights()
        # w coarsens v, so each cell of v lies inside the stratum or outside it
        cells = {vv: idx for vv, idx in v.cells().items() if idx[0] in stratum}
        checks = (
            (_law_residuals(pivot, ints, cells), [ptilde],
             "pragmatic pivot law varies with the conditioner"),
            (_law_residuals(pivot, ints, {None: stratum}), kept[:1],
             "pragmatic pivot law differs from the common credal law"),
        )
        for residuals, vertices, note in checks:
            ce = first_failure(residuals, vertices)
            if ce is not None:
                notes.append(note)
                if w is not None:
                    ce = replace(ce, vertex=condition(ce.vertex, w, wv), w=wv)
                return Verdict(holds=False, counterexample=ce, notes=tuple(notes))
    return Verdict(holds=True, notes=tuple(notes))


def _outcome_probability_mapping(table: ConditionalTable, u: Rv, v: Rv) -> dict:
    return {
        (uu, vv): (Fraction(table.rows[vv][uu]),)
        for vv in v.range() for uu in u.range_given(v, vv)
    }


def canonical_pivot(ptilde: Pmf, u: Rv, v: Rv) -> PivotSpec:
    """The probability-of-the-realized-outcome map as a pivot spec.

    Defined when, at each conditioning value, no two realizable target
    values receive the same nonzero conditional probability; otherwise
    raises UniquenessViolated naming the clash.
    """
    table = conditional_table(ptilde, u, v)
    for vv in v.range():
        row = table.rows[vv]
        by_prob: dict = {}
        for uu in u.range_given(v, vv):
            prob = row[uu]
            if prob > 0 and prob in by_prob:
                raise UniquenessViolated(vv, prob, (by_prob[prob], uu))
            by_prob[prob] = uu
    return PivotSpec(
        name=f"prob({u.name}|{v.name})",
        mapping=_outcome_probability_mapping(table, u, v),
    )


def pivot_equivalence(ptilde: Pmf, u: Rv, v: Rv, credal: CredalSet) -> dict:
    """Cross-check the three faces of discrete pivotal safety.

    Computes (a) marginal validity of the probability-of-outcome map,
    (b) pivotal safety with that map, and (c) existence of any simple
    pivot achieving pivotal safety, searched exhaustively on spaces of at
    most ``_SEARCH_CAP`` (8) atoms (beyond the cap (c) inherits (b), which is
    the witness direction). Under the uniqueness hypothesis (no two
    realizable outcomes share a nonzero conditional probability at any
    conditioning value) the three must agree and disagreement raises
    EquivalenceViolation, since it can only be an implementation bug;
    without the hypothesis the probability-of-outcome map need not be a
    pivot and only the individual answers are reported.

    Returns ``{"marginal_safe", "pivotal_safe", "simple_pivot_exists",
    "hypothesis_met"}``.
    """
    try:
        spec = canonical_pivot(ptilde, u, v)
        hypothesis_met = True
    except UniquenessViolated:
        spec = PivotSpec(
            name=f"prob({u.name}|{v.name})",
            mapping=_outcome_probability_mapping(conditional_table(ptilde, u, v), u, v),
        )
        hypothesis_met = False
    uprime = spec.as_rv(u, v)
    marginal_safe = check_safety(
        SafetyQuery(uprime, LEFT_FULL, v, RIGHT_SQUARE), ptilde, credal
    ).holds
    try:
        pivotal_safe = check_pivotal_safety(ptilde, u, v, spec, credal).holds
    except NotAPivot:
        pivotal_safe = False

    searched = len(ptilde.space.atoms) <= _SEARCH_CAP
    if searched:
        simple_exists = _search_simple_pivot(ptilde, u, v, credal)
    else:
        simple_exists = pivotal_safe

    if hypothesis_met and (
        marginal_safe != pivotal_safe or (searched and simple_exists != pivotal_safe)
    ):
        raise EquivalenceViolation(
            "pivot equivalence broke: "
            f"marginal={marginal_safe} pivotal={pivotal_safe} "
            f"simple-exists={simple_exists}"
        )
    return {
        "marginal_safe": marginal_safe,
        "pivotal_safe": pivotal_safe,
        "simple_pivot_exists": simple_exists,
        "hypothesis_met": hypothesis_met,
    }


def _search_simple_pivot(ptilde: Pmf, u: Rv, v: Rv, credal: CredalSet) -> bool:
    """Exhaustive search over relabelled simple pivots.

    A simple pivot restricted to each conditioning value is a bijection
    onto the pivot range, and pivotal safety only compares laws, so pivot
    values can be fixed to 0..k-1 without loss of generality.
    """
    v_values = v.range()
    row_ranges = {vv: u.range_given(v, vv) for vv in v_values}
    sizes = {len(r) for r in row_ranges.values()}
    if len(sizes) != 1:
        return False
    k = sizes.pop()
    labels = [(Fraction(i),) for i in range(k)]
    per_v_choices = [
        [list(zip(row_ranges[vv], perm)) for perm in itertools.permutations(labels)]
        for vv in v_values
    ]
    for combo in itertools.product(*per_v_choices):
        mapping = {}
        for vv, assignment in zip(v_values, combo):
            for uu, label in assignment:
                mapping[(uu, vv)] = label
        spec = PivotSpec(name="searched", mapping=mapping)
        try:
            if check_pivotal_safety(ptilde, u, v, spec, credal).holds:
                return True
        except NotAPivot:
            continue
    return False

"""Independent oracles used by the acceptance and differential suites.

These deliberately avoid the code paths they check: hull membership is
decided geometrically (orientation sign tests) instead of by linear
feasibility, the coarsening quantifier is enumerated over partitions
with the per-partition question settled in aggregated coordinates, and
the exact notions are decided by the per-mode vertex loops that predate
their residual form on top of the value-set guard, conditional table and
stratum list that predate their atom-index form, and credal geometry is
computed by the ``Fraction`` elimination kernel and the full-width basis
enumerator that predate the integer kernel, and the integer kernel's
reduction before it was slimmed. ``dist-range`` is decided by
the subset search that predates the basis-only one: every support of
size one up to the rank, with the sum-to-one row always present, solved
on the ``Fraction`` kernel. A custom loss table's symmetry is audited
by trying every outcome permutation, as before the two-generator audit,
and the notion compilers are built by their per-atom ``Fraction`` forms
(the last six sections of this module).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from safeprob.calibration import PredictedDistributionRv, encode_row
from safeprob.core import (
    _SIZE_LIMIT_ENV,
    ConditionalTable,
    CredalSet,
    LinearConstraint,
    OutcomeSpace,
    Pmf,
    Rv,
    condition,
    determines,
    expectation,
    format_value,
    joint_rv,
    size_limit,
    value_pmf,
    value_sort_key,
)
from safeprob.decisions import CUSTOM, LOG, LOG_TOLERANCE, LossFunction, bayes_act, loss_value
from safeprob.errors import (
    InfeasibleCredalSet,
    InfiniteLoss,
    NonNumericTarget,
    NotAPivot,
    NotEssentiallyUnique,
    NotFullSupport,
    SizeLimit,
    UniquenessViolated,
    ValidationError,
)
from safeprob.pivots import PivotSpec, PivotVerdict
from safeprob.safety import (
    LEFT_AVERAGE,
    LEFT_FULL,
    RIGHT_ANGLE,
    RIGHT_DBLSQUARE,
    RIGHT_PLAIN,
    RIGHT_SQUARE,
    Counterexample,
    SafetyQuery,
    Verdict,
    atom_row,
    equal,
)


def set_partitions(items: list) -> list[list[list]]:
    """All partitions of a small list."""
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for partition in set_partitions(rest):
        out.append([[head]] + [list(b) for b in partition])
        for i in range(len(partition)):
            grown = [list(b) for b in partition]
            grown[i].append(head)
            out.append(grown)
    return out


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _collinear(a, b, c) -> bool:
    return _cross(a, b, c) == 0


def _on_segment(q, a, b) -> bool:
    if not _collinear(a, b, q):
        return False
    return (min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))


def _in_triangle(q, a, b, c) -> bool:
    s1, s2, s3 = _cross(a, b, q), _cross(b, c, q), _cross(c, a, q)
    return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)


def point_in_hull_2d(q, points) -> bool:
    """Exact membership of q in the convex hull of <= many 2-D points."""
    for a in points:
        if q == a:
            return True
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if _on_segment(q, a, b):
                return True
    for i, a in enumerate(points):
        for j, b in enumerate(points[i + 1:], start=i + 1):
            for c in points[j + 1:]:
                if not _collinear(a, b, c) and _in_triangle(q, a, b, c):
                    return True
    return False


def _aggregate(pmf: dict, blocks: list[list]) -> tuple:
    return tuple(
        sum((pmf.get(u, Fraction(0)) for u in block), start=Fraction(0))
        for block in blocks
    )


def _blockwise_safe(point_blocks: tuple, gen_blocks: list[tuple]) -> bool:
    """All real-valued labelings of the blocks keep the point's mean
    between the generators' extremes; by separation this is hull
    membership of the aggregated vectors."""
    k = len(point_blocks)
    if k == 1:
        return True
    if k == 2:
        lo = min(g[0] for g in gen_blocks)
        hi = max(g[0] for g in gen_blocks)
        return lo <= point_blocks[0] <= hi
    if k == 3:
        q = (point_blocks[0], point_blocks[1])
        pts = [(g[0], g[1]) for g in gen_blocks]
        return point_in_hull_2d(q, pts)
    raise NotImplementedError("oracle limited to three blocks")


def coarsening_quantifier_oracle(point: dict, generators: list[dict], values: list) -> bool:
    """Brute-force answer to: does every coarsening of the target keep the
    expected value inside the believed range? Enumerates all partitions of
    the (at most three) target values."""
    for partition in set_partitions(list(values)):
        agg_point = _aggregate(point, partition)
        agg_gens = [_aggregate(g, partition) for g in generators]
        if not _blockwise_safe(agg_point, agg_gens):
            return False
    return True


# ---------------------------------------------------------------------------
# Reference guard, conditional table and stratum list.
#
# The value-set forms that predate the atom-index guard and strata of
# ``core.essentially_unique``, ``core.conditional_table`` and
# ``safety.supported_values``: each vertex's support is built as a set of
# values. Kept verbatim, except that ranges come from ``value_range`` (the
# sorted value set ``Rv.range`` computed before it was cached), as the
# differential oracle in ``tests/test_guard.py`` and as the helpers of the
# reference checkers below.


def value_range(x: Rv) -> list:
    """Distinct values in canonical order."""
    return sorted(set(x.table.values()), key=value_sort_key)


def support(p: Pmf, x: Rv) -> set:
    """Values of ``x`` receiving positive probability under ``p``."""
    return {x.table[z] for z in p.space.atoms if p.weights[z] > 0}


def essentially_unique(ptilde: Pmf, v: Rv, credal: CredalSet) -> bool:
    """True when every vertex-supported conditioning value is also
    supported by the pragmatic distribution, so its conditionals are
    pinned down wherever a candidate truth can land."""
    covered = support(ptilde, v)
    return all(support(vertex, v) <= covered for vertex in credal.vertex_list())


def conditional_table(p: Pmf, u: Rv, v: Rv) -> ConditionalTable:
    """P(u | v) as a table over range(v), exact where supported."""
    u_range = value_range(u)
    rows = {}
    arbitrary = set()
    for val in value_range(v):
        mass = p.prob(v, val)
        if mass > 0:
            row = {uv: Fraction(0) for uv in u_range}
            for z in p.space.atoms:
                if v.table[z] == val and p.weights[z] > 0:
                    row[u.table[z]] += p.weights[z] / mass
            rows[val] = row
        else:
            uniform = Fraction(1, len(u_range))
            rows[val] = {uv: uniform for uv in u_range}
            arbitrary.add(val)
    return ConditionalTable(given=v, target=u, rows=rows, arbitrary_rows=frozenset(arbitrary))


def stratum_values(w: Rv, verts) -> list:
    """Stratum values some vertex gives mass to, in canonical order."""
    return sorted({wv for p in verts for wv in support(p, w)}, key=value_sort_key)


def predicted_distribution_rv(
    ptilde: Pmf, u: Rv, v: Rv, name: Optional[str] = None
) -> PredictedDistributionRv:
    table = conditional_table(ptilde, u, v)
    label = name or f"pred({u.name}|{v.name})"
    values = {z: encode_row(table.rows[v.table[z]]) for z in ptilde.space.atoms}
    return PredictedDistributionRv(base=table, as_rv=Rv.generalized(ptilde.space, label, values))


# ---------------------------------------------------------------------------
# Reference checkers for the exact notions.
#
# The per-mode vertex loops that decided the exact notions before they were
# compiled to residuals, kept verbatim as the differential oracle for
# ``safety.first_failure``: ``tests/test_residuals.py`` compares whole
# verdicts (and raised exception types) between these and the library.

_fmt = format_value
decode_row = dict


def _conditional_rows(ptilde: Pmf, u: Rv, v: Rv) -> tuple[list, dict]:
    """Supported conditioning values (canonical order) and their rows."""
    supported = sorted(support(ptilde, v), key=value_sort_key)
    rows = {val: value_pmf(condition(ptilde, v, val), u) for val in supported}
    return supported, rows


def _conditional_means(ptilde: Pmf, u: Rv, v: Rv) -> tuple[list, dict]:
    supported = sorted(support(ptilde, v), key=value_sort_key)
    means = {val: expectation(condition(ptilde, v, val), u) for val in supported}
    return supported, means


def _scan_vertices(verts, per_vertex):
    """Run ``per_vertex`` over vertices in order; first counterexample wins."""
    for p in verts:
        ce = per_vertex(p)
        if ce is not None:
            return ce
    return None


def _check_unstratified(
    query: SafetyQuery, ptilde: Pmf, verts: Sequence[Pmf]
) -> Optional[Counterexample]:
    u, v = query.target, query.conditioner
    left, right = query.left_mode, query.right_mode

    if left == LEFT_AVERAGE:
        supported, means = _conditional_means(ptilde, u, v)
        arity = len(next(iter(means.values()))) if means else 0

        if right == RIGHT_DBLSQUARE:
            bounds = [
                (min(means[val][j] for val in supported),
                 max(means[val][j] for val in supported))
                for j in range(arity)
            ]

            def per_vertex(p):
                e = expectation(p, u)
                for j, (lo, hi) in enumerate(bounds):
                    if not (lo <= e[j] <= hi):
                        bound = lo if e[j] < lo else hi
                        return Counterexample(vertex=p, u=None, lhs=e[j], rhs=bound)
                return None

        elif right == RIGHT_ANGLE:
            def per_vertex(p):
                e = expectation(p, u)
                claim = [Fraction(0)] * arity
                for val in sorted(support(p, v), key=value_sort_key):
                    pv = p.prob(v, val)
                    for j in range(arity):
                        claim[j] += pv * means[val][j]
                for j in range(arity):
                    if e[j] != claim[j]:
                        return Counterexample(vertex=p, lhs=e[j], rhs=claim[j])
                return None

        elif right == RIGHT_SQUARE:
            def per_vertex(p):
                e = expectation(p, u)
                for val in supported:
                    for j in range(arity):
                        if e[j] != means[val][j]:
                            return Counterexample(vertex=p, v=val, lhs=e[j], rhs=means[val][j])
                return None

        else:  # RIGHT_PLAIN, denominators cleared
            def per_vertex(p):
                for val in value_range(v):
                    pv = p.prob(v, val)
                    if pv == 0:
                        continue
                    mass_weighted = [Fraction(0)] * arity
                    for z in p.space.atoms:
                        if v.table[z] == val and p.weights[z]:
                            for j, c in enumerate(u.table[z]):
                                mass_weighted[j] += p.weights[z] * c
                    for j in range(arity):
                        if mass_weighted[j] != means[val][j] * pv:
                            return Counterexample(
                                vertex=p, v=val,
                                lhs=mass_weighted[j] / pv, rhs=means[val][j],
                            )
                return None

        return _scan_vertices(verts, per_vertex)

    # left == LEFT_FULL: pointwise distribution checks over range(u)
    supported, rows = _conditional_rows(ptilde, u, v)
    u_range = value_range(u)

    if right == RIGHT_PLAIN:
        def per_vertex(p):
            for val in value_range(v):
                pv = p.prob(v, val)
                if pv == 0:
                    continue
                for uv in u_range:
                    joint = sum(
                        (p.weights[z] for z in p.space.atoms
                         if v.table[z] == val and u.table[z] == uv),
                        start=Fraction(0),
                    )
                    if joint != rows[val][uv] * pv:
                        return Counterexample(
                            vertex=p, v=val, u=uv, lhs=joint, rhs=rows[val][uv] * pv
                        )
            return None

    elif right == RIGHT_ANGLE:
        def per_vertex(p):
            actual = value_pmf(p, u)
            claim = {uv: Fraction(0) for uv in u_range}
            for val in sorted(support(p, v), key=value_sort_key):
                pv = p.prob(v, val)
                for uv in u_range:
                    claim[uv] += rows[val][uv] * pv
            for uv in u_range:
                if actual[uv] != claim[uv]:
                    return Counterexample(vertex=p, u=uv, lhs=actual[uv], rhs=claim[uv])
            return None

    elif right == RIGHT_SQUARE:
        def per_vertex(p):
            actual = value_pmf(p, u)
            for val in supported:
                for uv in u_range:
                    if actual[uv] != rows[val][uv]:
                        return Counterexample(
                            vertex=p, v=val, u=uv, lhs=actual[uv], rhs=rows[val][uv]
                        )
            return None

    else:  # RIGHT_DBLSQUARE: convex-hull membership of the target's law
        generators = [rows[val] for val in supported]

        def per_vertex(p):
            actual = value_pmf(p, u)
            if not hull_membership(actual, generators):
                return Counterexample(vertex=p)
            return None

    return _scan_vertices(verts, per_vertex)


def check_safety(query: SafetyQuery, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Decide the queried safety notion against every credal vertex.

    Raises NotEssentiallyUnique when some vertex supports a conditioning
    (or stratum) value the pragmatic distribution does not, and
    NonNumericTarget for average-mode queries on non-numeric targets.
    """
    u, v, w = query.target, query.conditioner, query.stratifier
    if query.left_mode == LEFT_AVERAGE and not u.is_numeric:
        raise NonNumericTarget(f"average-mode query needs a numeric target, got {u.name!r}")
    verts = credal.vertex_list()
    guard_rv = joint_rv(v, w) if w is not None else v
    if not essentially_unique(ptilde, guard_rv, credal):
        raise NotEssentiallyUnique(
            f"pragmatic conditionals on {guard_rv.name} are not essentially unique"
        )

    notes: list[str] = []
    if w is None:
        ce = _check_unstratified(query, ptilde, verts)
        return Verdict(holds=ce is None, counterexample=ce, notes=tuple(notes))

    flat = SafetyQuery(u, query.left_mode, v, query.right_mode)
    strata = stratum_values(w, verts)
    for wv in strata:
        ptilde_w = condition(ptilde, w, wv)
        kept, originals = [], []
        for p in verts:
            if p.prob(w, wv) > 0:
                kept.append(condition(p, w, wv))
                originals.append(p)
        skipped = len(verts) - len(kept)
        if skipped:
            notes.append(f"stratum {w.name}={_fmt(wv)}: skipped {skipped} zero-mass vertex(es)")
        ce = _check_unstratified(flat, ptilde_w, kept)
        if ce is not None:
            original = originals[kept.index(ce.vertex)] if ce.vertex in kept else ce.vertex
            ce = Counterexample(
                vertex=original, v=ce.v, w=wv, u=ce.u, lhs=ce.lhs, rhs=ce.rhs
            )
            return Verdict(holds=False, counterexample=ce, notes=tuple(notes))
    return Verdict(holds=True, notes=tuple(notes))



def _guard(ptilde: Pmf, v: Rv, credal: CredalSet) -> tuple:
    verts = credal.vertex_list()
    if not essentially_unique(ptilde, v, credal):
        raise NotEssentiallyUnique(
            f"pragmatic conditionals on {v.name} are not essentially unique"
        )
    return verts


def check_calibrated_full(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Full-distribution calibration: for every credal vertex and every
    forecast row issued at some vertex-supported conditioning value, the
    vertex's conditional on that forecast equals the forecast. Checked in
    the denominator-cleared exact form; zero-mass forecasts are vacuous."""
    verts = _guard(ptilde, v, credal)
    pred = predicted_distribution_rv(ptilde, u, v).as_rv
    rows = sorted(
        {pred.table[z] for p in verts for z in p.space.atoms if p.weights[z] > 0},
        key=value_sort_key,
    )
    u_range = value_range(u)
    for p in verts:
        for row in rows:
            mass = p.prob(pred, row)
            forecast = decode_row(row)
            for uv in u_range:
                joint = sum(
                    (p.weights[z] for z in p.space.atoms
                     if u.table[z] == uv and pred.table[z] == row),
                    start=Fraction(0),
                )
                if joint != forecast[uv] * mass:
                    return Verdict(
                        holds=False,
                        counterexample=Counterexample(
                            vertex=p, v=row, u=uv, lhs=joint, rhs=forecast[uv] * mass
                        ),
                    )
    return Verdict(holds=True)


def check_calibrated_mean(u: Rv, v: Rv, ptilde: Pmf, credal: CredalSet) -> Verdict:
    """Mean calibration: conditioned on the pragmatic conditional mean
    taking a value, the actual conditional mean equals that value."""
    if not u.is_numeric:
        raise NonNumericTarget(f"mean calibration needs a numeric target, got {u.name!r}")
    verts = _guard(ptilde, v, credal)

    mean_at = {}
    for val in sorted(support(ptilde, v), key=value_sort_key):
        mean_at[val] = expectation(condition(ptilde, v, val), u)
    fallback = tuple(
        sum((uv[j] for uv in value_range(u)), start=Fraction(0)) / len(value_range(u))
        for j in range(len(value_range(u)[0]))
    )
    mean_rv = Rv.generalized(
        ptilde.space,
        f"mean({u.name}|{v.name})",
        {z: mean_at.get(v.table[z], fallback) for z in ptilde.space.atoms},
    )
    mus = sorted(
        {mean_rv.table[z] for p in verts for z in p.space.atoms if p.weights[z] > 0},
        key=value_sort_key,
    )
    arity = len(mus[0])
    for p in verts:
        for mu in mus:
            mass = p.prob(mean_rv, mu)
            for j in range(arity):
                weighted = sum(
                    (p.weights[z] * u.table[z][j] for z in p.space.atoms
                     if mean_rv.table[z] == mu),
                    start=Fraction(0),
                )
                if weighted != mu[j] * mass:
                    return Verdict(
                        holds=False,
                        counterexample=Counterexample(
                            vertex=p, v=mu, lhs=weighted, rhs=mu[j] * mass
                        ),
                    )
    return Verdict(holds=True)


def _losses_equal(kind: str, a, b) -> bool:
    if kind == LOG:
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= LOG_TOLERANCE
    return a == b


def check_decision_safety(
    ptilde: Pmf, u: Rv, v: Rv, loss: LossFunction, credal: CredalSet
) -> Verdict:
    """Does the pragmatic Bayes policy earn exactly its believed loss?

    For every credal vertex P and every supported conditioning value v0,
    the expected loss of the policy under P must equal the pragmatic
    conditional expected loss at v0. Exact rational comparison except for
    the log score, compared to within 1e-12.
    """
    verts = credal.vertex_list()
    if not essentially_unique(ptilde, v, credal):
        raise NotEssentiallyUnique(
            f"pragmatic conditionals on {v.name} are not essentially unique"
        )
    notes: list[str] = []
    if loss.kind == CUSTOM:
        missing = set(value_range(u)) - set(loss.outcomes())
        if missing:
            raise ValidationError(
                f"custom loss table lacks outcomes {sorted(missing, key=value_sort_key)}"
            )
    table = conditional_table(ptilde, u, v)
    if table.arbitrary_rows:
        notes.append(
            "policy at unsupported conditioning values uses the uniform fill row"
        )
    policy = {}
    for vv in value_range(v):
        act = bayes_act(loss, table.rows[vv])
        if act.tied:
            notes.append(f"Bayes-act tie at conditioning value {vv!r} broken canonically")
        policy[vv] = act

    supported = sorted(support(ptilde, v), key=value_sort_key)
    believed = {}
    for vv in supported:
        total = Fraction(0) if loss.kind != LOG else 0.0
        for uu, p in table.rows[vv].items():
            if p == 0:
                continue
            term = loss_value(loss, uu, policy[vv])
            if term == math.inf:
                raise InfiniteLoss(
                    f"believed loss infinite at conditioning value {vv!r}, outcome {uu!r}"
                )
            total = total + p * term if loss.kind != LOG else total + float(p) * term
        believed[vv] = total

    for p in verts:
        actual = Fraction(0) if loss.kind != LOG else 0.0
        for z in p.space.atoms:
            w = p.weights[z]
            if w == 0:
                continue
            term = loss_value(loss, u.table[z], policy[v.table[z]])
            if term == math.inf:
                raise InfiniteLoss(
                    f"realized loss infinite at atom {z!r} under a credal vertex"
                )
            actual = actual + w * term if loss.kind != LOG else actual + float(w) * term
        for vv in supported:
            if not _losses_equal(loss.kind, actual, believed[vv]):
                return Verdict(
                    holds=False,
                    counterexample=Counterexample(
                        vertex=p, v=vv, lhs=actual, rhs=believed[vv]
                    ),
                    notes=tuple(notes),
                )
    return Verdict(holds=True, notes=tuple(notes))


def _induced_pmf(p: Pmf, u: Rv, v: Rv, spec: PivotSpec, atoms: Sequence[str]) -> dict:
    out: dict = {}
    for z in atoms:
        w = p.weights[z]
        if w:
            val = spec.mapping[(u.table[z], v.table[z])]
            out[val] = out.get(val, Fraction(0)) + w
    return out


def _check_pivot_on(
    spec: PivotSpec, u: Rv, v: Rv, verts: Sequence[Pmf], atoms: Sequence[str]
) -> PivotVerdict:
    cells = {(u.table[z], v.table[z]) for z in atoms}
    for cell in cells:
        if cell not in spec.mapping:
            return PivotVerdict(False, False, f"map undefined at cell {cell!r}")

    v_values = sorted({v.table[z] for z in atoms}, key=value_sort_key)
    images = {}
    for vv in v_values:
        seen: dict = {}
        for z in atoms:
            if v.table[z] != vv:
                continue
            uu = u.table[z]
            pv = spec.mapping[(uu, vv)]
            if seen.setdefault(pv, uu) != uu:
                return PivotVerdict(
                    False, False,
                    f"not injective at conditioning value {vv!r}: targets "
                    f"{seen[pv]!r} and {uu!r} both map to {pv!r}",
                )
        images[vv] = set(seen)

    laws = [_induced_pmf(p, u, v, spec, atoms) for p in verts]
    for law in laws[1:]:
        if law != laws[0]:
            return PivotVerdict(
                False, False, "credal members disagree on the pivot distribution"
            )

    overall = {spec.mapping[cell] for cell in cells}
    simple = all(images[vv] == overall for vv in v_values)
    failure = None if simple else "some conditioning value does not reach every pivot value"
    return PivotVerdict(True, simple, failure)


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
    """
    if support(ptilde, v) != set(value_range(v)):
        raise NotFullSupport(
            f"{v.name} lacks full support under the pragmatic distribution"
        )
    if w is not None and determines(v, w) is None:
        raise ValidationError(f"stratifier {w.name!r} must be a coarsening of {v.name!r}")

    verts = credal.vertex_list()
    notes: list[str] = []

    def run_stratum(pt: Pmf, vs: Sequence[Pmf], atoms: Sequence[str], wv) -> Optional[Counterexample]:
        pv = _check_pivot_on(spec, u, v, vs, atoms)
        if not pv.is_pivot:
            raise NotAPivot(pv.failure or "pivot requirements not met")
        overall = _induced_pmf(pt, u, v, spec, atoms)
        for vv in sorted({v.table[z] for z in atoms}, key=value_sort_key):
            pt_v = condition(pt, v, vv)
            row = _induced_pmf(pt_v, u, v, spec, atoms)
            if row != overall:
                val = next(
                    k for k in sorted(set(row) | set(overall), key=value_sort_key)
                    if row.get(k, 0) != overall.get(k, 0)
                )
                notes.append("pragmatic pivot law varies with the conditioner")
                return Counterexample(
                    vertex=pt, v=vv, w=wv, u=val,
                    lhs=row.get(val, Fraction(0)), rhs=overall.get(val, Fraction(0)),
                )
        if vs:
            common = _induced_pmf(vs[0], u, v, spec, atoms)
            if common != overall:
                val = next(
                    k for k in sorted(set(common) | set(overall), key=value_sort_key)
                    if common.get(k, 0) != overall.get(k, 0)
                )
                notes.append("pragmatic pivot law differs from the common credal law")
                return Counterexample(
                    vertex=vs[0], w=wv, u=val,
                    lhs=common.get(val, Fraction(0)), rhs=overall.get(val, Fraction(0)),
                )
        return None

    if w is None:
        ce = run_stratum(ptilde, verts, ptilde.space.atoms, None)
        return Verdict(holds=ce is None, counterexample=ce, notes=tuple(notes))

    for wv in sorted(set(value_range(w)), key=value_sort_key):
        atoms_w = [z for z in ptilde.space.atoms if w.table[z] == wv]
        pt_w = condition(ptilde, w, wv)
        kept = [condition(p, w, wv) for p in verts if p.prob(w, wv) > 0]
        skipped = len(verts) - len(kept)
        if skipped:
            notes.append(f"stratum {w.name}={wv!r}: skipped {skipped} zero-mass vertex(es)")
        ce = run_stratum(pt_w, kept, atoms_w, wv)
        if ce is not None:
            return Verdict(holds=False, counterexample=ce, notes=tuple(notes))
    return Verdict(holds=True, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Reference credal geometry.
#
# The ``Fraction`` Gauss-Jordan kernel and the basis enumerator that solved
# every basis over all n columns and tested each candidate as a ``Pmf``,
# kept verbatim as the differential oracle for ``safeprob._linalg`` and
# ``core.enumerate_vertices``: ``tests/test_linalg.py`` compares their
# results, including the order of the vertices.

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form over their
    first ``ncols`` columns; returns the pivot columns."""
    nrows = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def solve_linear(
    a: list[list[Fraction]], b: list[Fraction]
) -> tuple[str, tuple[Fraction, ...] | None]:
    """Solve ``a @ x = b`` exactly.

    Returns ``(status, x)`` where status is one of UNIQUE, INCONSISTENT or
    UNDERDETERMINED; ``x`` is the solution tuple only when unique. The
    system may be rectangular.
    """
    ncols = len(a[0]) if a else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivot_cols = _rref(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivot_cols):]):
        return INCONSISTENT, None
    if len(pivot_cols) < ncols:
        return UNDERDETERMINED, None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][ncols]
    return UNIQUE, tuple(x)


def matrix_rank(a: list[list[Fraction]]) -> int:
    """Rank of a rational matrix."""
    return len(_rref([list(map(Fraction, row)) for row in a], len(a[0]) if a else 0))


def enumerate_vertices(
    constraints: list[LinearConstraint], space: OutcomeSpace
) -> list[Pmf]:
    """Exact extreme points of the constrained probability simplex.

    Enumerates constraint bases: the simplex equality and every user
    equality are always tight; the remaining tight rows are chosen among
    nonnegativity facets and user inequalities. Each rational linear
    system with a unique solution that satisfies every constraint yields
    a candidate vertex; candidates are deduplicated and returned in
    descending lexicographic order of their weight vectors (atom order).

    Raises InfeasibleCredalSet when the polytope is empty and SizeLimit
    when the space exceeds the configured atom cap.
    """
    n = len(space.atoms)
    cap = size_limit()
    if n > cap:
        raise SizeLimit(f"{n} atoms exceeds the cap of {cap} (set {_SIZE_LIMIT_ENV})")
    index = {z: i for i, z in enumerate(space.atoms)}

    def row_of(c: LinearConstraint) -> list[Fraction]:
        row = [Fraction(0)] * n
        for z, coef in c.coeffs.items():
            if z not in index:
                raise ValidationError(f"constraint mentions unknown atom {z!r}")
            row[index[z]] = coef
        return row

    eq_rows = [[Fraction(1)] * n]
    eq_rhs = [Fraction(1)]
    tight_candidates: list[tuple[list[Fraction], Fraction]] = []
    for c in constraints:
        if c.relation == "=":
            eq_rows.append(row_of(c))
            eq_rhs.append(c.rhs)
        else:
            tight_candidates.append((row_of(c), c.rhs))
    for i in range(n):
        facet = [Fraction(0)] * n
        facet[i] = Fraction(1)
        tight_candidates.append((facet, Fraction(0)))

    r = matrix_rank(eq_rows)
    k = n - r
    found: set[tuple[Fraction, ...]] = set()
    for chosen in itertools.combinations(range(len(tight_candidates)), k):
        rows = eq_rows + [tight_candidates[i][0] for i in chosen]
        rhs = eq_rhs + [tight_candidates[i][1] for i in chosen]
        status, x = solve_linear(rows, rhs)
        if status != UNIQUE:
            continue
        if any(v < 0 for v in x) or sum(x) != 1:
            continue
        p = Pmf(space, dict(zip(space.atoms, x)))
        if all(c.satisfied_by(p) for c in constraints):
            found.add(x)
    if not found:
        raise InfeasibleCredalSet("no distribution satisfies the constraints")
    ordered = sorted(found, reverse=True)
    return [Pmf(space, dict(zip(space.atoms, x))) for x in ordered]


# ---------------------------------------------------------------------------
# Reference fraction-free elimination.
#
# The integer Bareiss reduction of ``safeprob._linalg._rref`` before its
# interpreter overhead was cut (a ``next`` over a generator to find the
# pivot, ``enumerate`` over the rows, and a division by ``prev`` also
# while it is 1), kept verbatim as the differential oracle in
# ``tests/test_linalg.py``: the same pivot columns, every reduced row and
# the same last pivot.


def bareiss_rref(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce the integer ``rows`` in place over their first ``ncols``
    columns until each pivot column is zero outside its pivot row;
    returns the pivot columns and the last pivot (1 when there is none)."""
    nrows = len(rows)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        d = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if f:
                    rows[i] = [(d * vi - f * vr) // prev for vi, vr in zip(row, prow)]
                elif d != prev:
                    rows[i] = [d * vi // prev for vi in row]
        pivot_cols.append(c)
        prev = d
        r += 1
    return pivot_cols, prev


# ---------------------------------------------------------------------------
# Reference hull membership.
#
# The subset search that tried every support of size one up to the rank,
# kept verbatim as the oracle for ``safety.hull_membership`` (its solves run
# on the ``Fraction`` kernel above): the ``dist-range`` checker above uses
# it, and ``tests/test_hull.py`` compares results and solve counts.


def hull_membership(point: Mapping, generators: Sequence[Mapping]) -> bool:
    """Is ``point`` a convex combination of ``generators``?

    All arguments are probability maps over the same finite value set
    (missing keys mean zero). Decided by exact rational feasibility:
    every candidate support of size up to the constraint rank is solved
    exactly and accepted when its weights are nonnegative, which finds a
    basic feasible solution whenever any feasible combination exists.
    """
    values = sorted(
        {v for v in point} | {v for g in generators for v in g}, key=value_sort_key
    )
    m = len(generators)
    if m == 0:
        return False
    a = [[Fraction(g.get(val, 0)) for g in generators] for val in values]
    a.append([Fraction(1)] * m)
    b = [Fraction(point.get(val, 0)) for val in values] + [Fraction(1)]
    rank = matrix_rank(a)
    for k in range(1, min(m, rank) + 1):
        for cols in itertools.combinations(range(m), k):
            sub = [[row[c] for c in cols] for row in a]
            status, lam = solve_linear(sub, b)
            if status == UNIQUE and all(x >= 0 for x in lam):
                return True
    return False


# ---------------------------------------------------------------------------
# Reference symmetry audit.
#
# The audit of ``decisions._audit_symmetry`` before it checked only the two
# generators of the symmetric group: it tries all n! outcome permutations,
# so it refuses tables with more than ``_SYMMETRY_CAP`` outcomes. Kept
# verbatim as the differential oracle in ``tests/test_decisions.py``.

_SYMMETRY_CAP = 6


def _audit_symmetry(table: Mapping) -> None:
    outcomes = sorted({u for (u, _) in table}, key=value_sort_key)
    actions = sorted({a for (_, a) in table})
    for u in outcomes:
        for a in actions:
            if (u, a) not in table:
                raise ValidationError(f"custom loss table missing entry {(u, a)!r}")
    if len(outcomes) > _SYMMETRY_CAP:
        raise ValidationError(
            f"symmetry audit supports at most {_SYMMETRY_CAP} outcomes, got {len(outcomes)}"
        )
    columns = sorted(
        tuple(table[(u, a)] for u in outcomes) for a in actions
    )
    for perm in itertools.permutations(range(len(outcomes))):
        permuted = sorted(
            tuple(table[(outcomes[perm[i]], a)] for i in range(len(outcomes)))
            for a in actions
        )
        if permuted != columns:
            raise ValidationError(
                "custom loss table is not invariant under outcome permutations"
            )


# ---------------------------------------------------------------------------
# Reference notion compilers.
#
# The per-atom ``Fraction`` forms that the notion compilers replaced with
# integer weights and value codes, kept verbatim (renamed) as the
# differential oracle in ``tests/test_compilers.py``: the conditional
# table built from the weight tuple, the probability-of-outcome map read
# cell by cell with the uniqueness check of ``canonical_pivot`` over it,
# the pivot-law residuals that rescan each cell per pivot value, and the
# decision policy whose losses ``loss_value`` gives per realizable cell.
# The forecast map that encoded the row of every atom is
# ``predicted_distribution_rv`` above, verbatim but for the table it reads.


def fraction_conditional_table(p: Pmf, u: Rv, v: Rv) -> ConditionalTable:
    """P(u | v) as a table over range(v), exact where supported."""
    u_range, codes, x = u.range(), u.codes(), p.as_tuple()
    rows = {}
    arbitrary = set()
    for val, idx in v.cells().items():
        mass = sum((x[i] for i in idx), Fraction(0))
        if mass:
            row = [Fraction(0)] * len(u_range)
            for i in idx:
                if x[i]:
                    row[codes[i]] += x[i] / mass
            rows[val] = dict(zip(u_range, row))
        else:
            uniform = Fraction(1, len(u_range))
            rows[val] = {uv: uniform for uv in u_range}
            arbitrary.add(val)
    return ConditionalTable(given=v, target=u, rows=rows, arbitrary_rows=frozenset(arbitrary))


def fraction_outcome_probability_spec(ptilde: Pmf, u: Rv, v: Rv) -> PivotSpec:
    """The probability-of-the-realized-outcome map, cells in canonical
    order: conditioning value outer, target value inner."""
    table = fraction_conditional_table(ptilde, u, v)
    return PivotSpec(name=f"prob({u.name}|{v.name})", mapping={
        (uu, vv): (Fraction(table.rows[vv][uu]),)
        for vv in v.range() for uu in u.range_given(v, vv)
    })


def fraction_canonical_pivot(ptilde: Pmf, u: Rv, v: Rv) -> PivotSpec:
    """The probability-of-the-realized-outcome map as a pivot spec.

    Defined when, at each conditioning value, no two realizable target
    values receive the same nonzero conditional probability; otherwise
    raises UniquenessViolated naming the clash.
    """
    spec = fraction_outcome_probability_spec(ptilde, u, v)
    first: dict = {}
    for (uu, vv), (prob,) in spec.mapping.items():
        if prob > 0 and first.setdefault((vv, prob), uu) != uu:
            raise UniquenessViolated(vv, prob, (first[vv, prob], uu))
    return spec


def fraction_law_residuals(pivot: dict, ints: Sequence[int], cells: Mapping) -> list:
    """P(T = t, C = c) = law(t) * P(C = c) for every cell c (atom indices)
    and pivot value t, where ``pivot`` maps atom indices to pivot values
    and law(t) = count(t) / total is the pivot's law under the integer
    weights ``ints`` on its atoms, written with the scale ``total``;
    printed as conditional probabilities given the cell."""
    counts = dict.fromkeys(sorted(set(pivot.values()), key=value_sort_key), 0)
    for i, t in pivot.items():
        counts[t] += ints[i]
    total, n = sum(counts.values()), len(ints)
    return [
        equal(atom_row(total, [i for i in idx if pivot[i] == t], n), atom_row(counts[t], idx, n),
              scale=total, v=c, u=t, denom=idx)
        for c, idx in cells.items() for t in counts
    ]


def fraction_compile_policy(ptilde: Pmf, u: Rv, v: Rv, loss: LossFunction):
    """What decision safety and its loss table share: the conditional
    table, the Bayes policy per conditioning value, the loss of that
    policy tabulated once per realizable (target value, conditioner
    value) cell, the believed loss per supported conditioning value read
    from it, and the realized loss per atom. Raises ValidationError when
    a custom table lacks an outcome of the target."""
    if loss.kind == CUSTOM:
        missing = sorted(set(u.range()) - set(loss.outcomes()), key=value_sort_key)
        if missing:
            raise ValidationError(
                f"custom loss table lacks outcomes [{', '.join(map(format_value, missing))}]"
            )
    table = fraction_conditional_table(ptilde, u, v)
    policy = {vv: bayes_act(loss, table.rows[vv]) for vv in v.range()}
    cells = [(u.table[z], v.table[z]) for z in ptilde.space.atoms]
    cost = {cell: loss_value(loss, cell[0], policy[cell[1]]) for cell in dict.fromkeys(cells)}
    believed = {
        vv: sum(p * cost[uu, vv] for uu, p in row.items() if p)
        for vv, row in table.rows.items() if vv not in table.arbitrary_rows
    }
    return table, policy, cost, believed, [cost[cell] for cell in cells]
